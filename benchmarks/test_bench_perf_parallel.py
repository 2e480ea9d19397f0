"""Parallel-substrate bench — the warm-pool / shm / stealing PR's
acceptance criteria, kept green.

Runs the full :mod:`perf_parallel` benchmark, writes
``BENCH_parallel.json``, and asserts the claims that hold on *any*
host: bit-exact serial/parallel parity, one executor spawn across
consecutive sweeps (the warm pool actually reused), the per-task
payload collapse from O(dataset bytes) to O(metadata), and the
work-stealing wall beating the serial sum (sleep-based, so it holds
even on one core).  Wall-clock speedup of the CPU-bound ensemble is
asserted only where ``speedup_asserted`` is true — on a host with
cores to back the claim.
"""

import pytest

import harness
import perf_parallel

PERF = perf_parallel


def test_warm_pool_spawns_once_across_sweeps(results):
    assert results["pool"]["spawns"] == 1
    assert results["pool"]["parity_ok"] is True


def test_ensemble_parity_bit_exact(results):
    assert results["ensemble"]["parity_ok"] is True


def test_ensemble_speedup_where_assertable(results):
    ensemble = results["ensemble"]
    measured = ensemble["speedup"]
    if not ensemble["speedup_asserted"]:
        pytest.skip(
            f"speedup unasserted on this host; measured "
            f"{measured:.2f}x recorded in BENCH_parallel.json"
        )
    if harness.can_show_speedup(4):
        assert measured >= 3.0, ensemble
    else:
        assert measured > 1.0, ensemble


def test_shm_payload_is_metadata_sized(results):
    shm = results["shm"]
    # The old substrate shipped the whole dataset per task; a chunk
    # now carries a fixed-size spec regardless of log size.
    assert shm["per_chunk_payload_bytes_new"] < 4_000
    assert (
        shm["per_chunk_payload_bytes_new"]
        < shm["per_task_payload_bytes_old"] / 10
    ), shm
    assert shm["parity_ok"] is True


def test_stealing_beats_serial_sum_everywhere(results):
    stealing = results["stealing"]
    assert stealing["ordered_ok"] is True
    assert (
        stealing["parallel_s"] < stealing["serial_sum_s"]
    ), stealing
