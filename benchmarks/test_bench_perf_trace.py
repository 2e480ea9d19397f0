"""Trace benchmark — the trace/replay PR's acceptance criteria, kept
green.

Runs the full :mod:`perf_trace` benchmark, writes ``BENCH_trace.json``,
and asserts the claims: recording a full workload simulation through
the pub/sub bus costs <= 10% wall-clock overhead, replay reproduces
the recording bit-exactly (asserted *inside* the benchmark before any
number is reported), and the codec round trip is byte-identical.  The
overhead floor is always asserted, over 7 interleaved repetitions.
"""

import perf_trace

PERF = perf_trace


def test_recording_captures_busy_run(results):
    recording = results["recording"]
    # The workload configuration must exercise every event topic; a
    # quiet run would measure nothing.
    assert recording["events_per_run"] > 1000
    assert recording["plain_events_per_s"] > 0


def test_replay_bit_exact_and_report_complete(results):
    assert results["replay"]["bit_exact"] is True
    assert results["replay"]["events"] > 1000
    assert results["codec"]["round_trip_ok"] is True


def test_recording_overhead_floor(results):
    recording = results["recording"]
    assert recording["overhead_pct"] <= (
        results["overhead_floor_pct"]
    ), recording
