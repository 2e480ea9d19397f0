"""Serving bench — the serve PR acceptance criteria, kept green.

Runs the full :mod:`perf_serve` benchmark against a live server,
writes ``BENCH_serve.json``, and asserts the invariants that must
never regress: cached repeat queries are >= 10x faster than the cold
miss (and byte-identical), and N identical concurrent requests
trigger exactly **one** backend execution.
"""

import perf_serve

PERF = perf_serve


def test_cached_repeat_at_least_10x_faster_than_cold(results):
    latency = results["latency"]
    assert latency["speedup"] >= 10.0, latency
    assert latency["byte_identical"] is True


def test_identical_concurrent_requests_execute_backend_once(results):
    coalescing = results["coalescing"]
    assert coalescing["backend_executions"] == 1, coalescing
    assert (
        coalescing["coalescing_factor"]
        == coalescing["concurrent_requests"]
    )
    assert coalescing["all_identical"] is True


def test_sustained_cached_throughput_positive(results):
    sustained = results["sustained"]
    assert sustained["requests_per_s"] > 0.0
    assert sustained["p50_ms"] <= sustained["p99_ms"]


def test_server_survived_without_errors(results):
    totals = results["server_totals"]
    assert totals["errors_5xx"] == 0
    assert totals["shed_total"] == 0
    expected_minimum = (
        1  # cold simulate
        + results["latency"]["cached_samples"]
        + results["coalescing"]["concurrent_requests"]
        + results["sustained"]["total_requests"]
    )
    assert totals["requests_total"] >= expected_minimum
