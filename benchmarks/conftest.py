"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one of the paper's exhibits from the
calibrated synthetic logs (seed 42 throughout, so the printed numbers
are stable) and asserts the published *shape* — who wins, by roughly
what factor, where the crossovers fall.  Run with::

    pytest benchmarks/ --benchmark-only

Add ``-s`` to see the regenerated tables and figures.

The ``test_bench_perf*.py`` modules each name their perf module as
``PERF``; the ``results`` fixture runs it once per test module through
:func:`harness.main`, which writes ``BENCH_<name>.json``, checks that
the file round-trips and appends the report to ``BENCH_history.jsonl``.
"""

from __future__ import annotations

import pytest

import harness
from repro.core.records import FailureLog
from repro.synth import generate_log

BENCH_SEED = 42


@pytest.fixture(scope="session")
def t2_log() -> FailureLog:
    """Calibrated Tsubame-2 failure log (897 failures)."""
    return generate_log("tsubame2", seed=BENCH_SEED)


@pytest.fixture(scope="session")
def t3_log() -> FailureLog:
    """Calibrated Tsubame-3 failure log (338 failures)."""
    return generate_log("tsubame3", seed=BENCH_SEED)


@pytest.fixture(scope="module")
def results(request) -> dict:
    """The test module's ``PERF`` benchmark report, ``meta`` included."""
    perf = request.module.PERF
    name = perf.__name__.removeprefix("perf_")
    return harness.main(name, perf.run_benchmark, perf.summary_lines)
