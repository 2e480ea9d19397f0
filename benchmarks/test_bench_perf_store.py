"""Store benchmark — the repro.store PR's acceptance criteria, kept
green.

Runs the full :mod:`perf_store` benchmark, writes ``BENCH_store.json``,
and asserts the claims: materialized analytics match the cold kernels
(parity is verified *inside* the benchmark before any number is
reported), warm-restart-to-first-analytics is >= 10x faster than the
cold parse-and-recompute path, and an incremental append-update beats
a full recomputation by >= 5x.  The benchmark always runs at the
acceptance scale (100x), so both floors are always asserted.
"""

import perf_store

PERF = perf_store


def test_ingest_throughput_recorded(results):
    ingest = results["ingest"]
    assert ingest["rows"] == perf_store.BASE_FAILURES * results["scale"]
    assert ingest["rows_per_s"] > 0
    assert ingest["bytes_per_row"] > 0


def test_parity_verified_on_both_paths(results):
    # verify_parity raises inside the benchmark on any divergence;
    # these flags existing means both checks actually ran.
    assert results["warm_restart"]["parity_ok"] is True
    assert results["incremental"]["parity_ok"] is True
    assert len(results["warm_restart"]["analyses"]) == 5


def test_warm_restart_floor(results):
    warm = results["warm_restart"]
    assert warm["speedup"] >= 10.0, warm


def test_incremental_update_floor(results):
    incremental = results["incremental"]
    assert incremental["speedup"] >= 5.0, incremental
