"""Sharded-serving bench — the scale-out PR acceptance, kept green.

Runs the full :mod:`perf_serve_sharded` benchmark (single-process
baseline, then router + N real shard processes), writes
``BENCH_serve_sharded.json``, and asserts the invariants that must
never regress: byte-identical responses across shards, a clean
priority-job roundtrip whose result the synchronous endpoint then
serves from cache, and — only on hardware that can deliver it — the
>= 4x aggregate throughput floor.
"""

import harness
import perf_serve_sharded

PERF = perf_serve_sharded


def test_report_records_the_gate(results):
    # The honesty fields are always present.
    assert "available_cpus" in results["meta"]
    assert "speedup_asserted" in results


def test_responses_byte_identical_across_shards(results):
    identity = results["cross_shard_identity"]
    assert identity["byte_identical"] is True
    assert len(identity["paths"]) >= 2


def test_jobs_roundtrip_through_router(results):
    jobs = results["jobs"]
    assert jobs["status"] == "done"
    assert jobs["sync_simulate_matches_job_result"] is True
    assert jobs["job_id"].startswith("s")


def test_sharded_throughput_positive(results):
    assert results["single_process"]["requests_per_s"] > 0.0
    assert results["sharded"]["requests_per_s"] > 0.0
    assert results["speedup"] > 0.0


def test_speedup_floor_when_hardware_allows(results):
    """The 4x floor is asserted exactly when the host can deliver it."""
    expected = harness.can_show_speedup(4) and results["shards"] >= 4
    assert results["speedup_asserted"] is expected
    if results["speedup_asserted"]:
        assert results["speedup"] >= results["speedup_floor"]
