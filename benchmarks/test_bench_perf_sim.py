"""Simulation bench — the Monte-Carlo PR acceptance criteria, kept
green.

Runs the full :mod:`perf_sim` benchmark (1x/10x/100x failure
intensity plus the replication ensemble), writes ``BENCH_sim.json``,
and asserts the invariants that must never regress: the vectorized
injector processes events >= 5x faster than the per-event reference
path at 10x intensity, the scheduler and gang tiers never call the
fleet scan ``Cluster.available_nodes``, and the parallel ensemble is
bit-identical to the serial one.

Parity is asserted on every host.  The replication-scaling criterion
compares serial against the warm 4-worker pool (best of three each)
and is asserted from 2 schedulable cores: > 1x with 2-3 cores, > 2x
with >= 4.  On one core the measured numbers are still recorded in
``BENCH_sim.json`` with ``"speedup_asserted": false`` so a <1.0x
ratio is never mistaken for a passing result.  The report itself is
written and round-trip checked by the ``results`` fixture
(``conftest.py``).
"""

import pytest

import harness
import perf_sim

PERF = perf_sim


def test_fast_path_5x_faster_at_10x_intensity(results):
    scale = results["scales"]["10x"]
    assert scale["speedup"] >= 5.0, scale


def test_fast_path_simulates_comparable_dynamics(results):
    # Different RNG consumption, same calibrated distributions: the
    # two paths must inject failure counts in the same ballpark.
    for label, scale in results["scales"].items():
        fast = scale["fast"]["failures"]
        ref = scale["reference"]["failures"]
        assert fast > 0 and ref > 0, label
        assert 0.5 < fast / ref < 2.0, (label, fast, ref)


def test_scheduler_and_gang_tiers_never_scan(results):
    for name, tier in results["tiers"].items():
        assert tier["events"] > 0, name
        assert tier["available_nodes_calls"] == 0, (name, tier)


def test_ensemble_parity_serial_vs_parallel(results):
    assert results["ensemble"]["parity_ok"] is True


def test_ensemble_throughput_positive(results):
    ensemble = results["ensemble"]
    assert ensemble["serial_replications_per_s"] > 0.0
    assert ensemble["parallel_replications_per_s"] > 0.0


def test_ensemble_parallel_scaling(results):
    ensemble = results["ensemble"]
    measured = ensemble["speedup"]
    if not ensemble["speedup_asserted"]:
        # Parity was still asserted above; the JSON records the
        # timings with speedup_asserted=false so the ratio is never
        # read as a result on a host that cannot show one.
        pytest.skip(
            f"speedup unasserted on this host; measured "
            f"{measured:.2f}x recorded in BENCH_sim.json"
        )
    if harness.can_show_speedup(4):
        assert measured > 2.0, ensemble
    else:
        # 2-3 cores: demand a real win, just not near-linear.
        assert measured > 1.0, ensemble
