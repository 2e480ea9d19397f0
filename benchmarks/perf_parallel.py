#!/usr/bin/env python3
"""Parallel-substrate benchmark: warm pool, shm handoff, stealing.

Four sections, written to ``BENCH_parallel.json`` at the repo root:

* ``pool`` — the warm-pool claim: the same small parallel sweep timed
  cold (first dispatch pays the executor spawn) and warm (singleton
  reused), with the spawn counter proving the second sweep paid no
  cold start.
* ``ensemble`` — the headline number: serial vs 4-worker
  :func:`repro.sim.montecarlo.run_replications`, bit-exact parity
  asserted, with ``speedup_asserted`` false on hosts without the
  cores to honestly claim a ratio (never a <1x regression recorded
  as a passing result).
* ``shm`` — the zero-copy claim, measured: per-task serialized
  payload for a grid sweep over one log, old style (the log pickled
  into every task tuple) vs the shared-memory spec each chunk now
  carries — O(dataset bytes) down to O(metadata) — plus bit-parity
  of a shared-payload sweep against its serial twin.
* ``stealing`` — work-stealing under adversarially uneven lengths:
  one 50x-long item among 31 short ones.  Sleep-based, so workers
  overlap even on a single-core host: the parallel wall must beat
  the serial sum on any machine.

Run::

    PYTHONPATH=src python benchmarks/perf_parallel.py

Environment knobs: ``REPRO_BENCH_REPLICATIONS`` resizes the ensemble
(CI smoke uses a small one); ``REPRO_CHUNK_TARGET_MS`` tunes the
autotuner's chunk duration target.
"""

from __future__ import annotations

import pickle
import time

import harness
from repro.parallel import (
    SharedPayload,
    pool_stats,
    shutdown_pool,
    sweep,
)
from repro.predict.tuning import sweep_rate_predictor
from repro.sim.montecarlo import run_replications
from repro.synth import GeneratorConfig, generate_log

BENCH_SEED = 42
BENCH_MACHINE = "tsubame2"
POOL_WORKERS = 4
ENSEMBLE_REPLICATIONS = 24
ENSEMBLE_HORIZON_HOURS = 500.0
STEALING_SHORT_S = 0.01
STEALING_LONG_S = 0.5
STEALING_ITEMS = 32


def _square(seed: int) -> int:
    return seed * seed


def _sleep_item(task: tuple[int, float]) -> int:
    index, duration = task
    time.sleep(duration)
    return index


def _bench_pool() -> dict:
    """Cold vs warm dispatch of an identical small sweep."""
    seeds = list(range(64))
    shutdown_pool()
    start = time.perf_counter()
    cold = sweep(_square, seeds, processes=POOL_WORKERS)
    cold_s = time.perf_counter() - start
    start = time.perf_counter()
    warm = sweep(_square, seeds, processes=POOL_WORKERS)
    warm_s = time.perf_counter() - start
    stats = pool_stats()
    assert cold == warm == [s * s for s in seeds]
    return {
        "items": len(seeds),
        "workers": POOL_WORKERS,
        "cold_s": cold_s,
        "warm_s": warm_s,
        "warm_vs_cold": cold_s / warm_s if warm_s else float("inf"),
        # One executor spawn across both sweeps == the warm pool
        # actually got reused; this is the assertable claim (wall
        # clocks on a loaded host are not).
        "spawns": stats["spawns"] if stats else None,
        "parity_ok": cold == warm,
    }


def _bench_ensemble() -> dict:
    replications = harness.env_int(
        "REPRO_BENCH_REPLICATIONS", ENSEMBLE_REPLICATIONS
    )

    def run(max_workers):
        return run_replications(
            BENCH_MACHINE,
            replications=replications,
            horizon_hours=ENSEMBLE_HORIZON_HOURS,
            seed=BENCH_SEED,
            intensity=10.0,
            max_workers=max_workers,
        )

    start = time.perf_counter()
    serial_report = run(None)
    serial_s = time.perf_counter() - start
    start = time.perf_counter()
    parallel_report = run(POOL_WORKERS)
    parallel_s = time.perf_counter() - start
    parity = serial_report == parallel_report
    assert parity, (
        "serial and parallel ensembles diverged — the determinism "
        "contract of run_replications is broken"
    )
    return {
        "replications": replications,
        "horizon_hours": ENSEMBLE_HORIZON_HOURS,
        "workers": POOL_WORKERS,
        "serial_s": serial_s,
        "parallel_s": parallel_s,
        "speedup": serial_s / parallel_s if parallel_s else float("inf"),
        "parity_ok": parity,
        "speedup_asserted": harness.can_show_speedup(2),
    }


def _bench_shm() -> dict:
    """Per-task payload bytes: pickled-log tasks vs the shm spec."""
    log = generate_log(
        "tsubame2",
        config=GeneratorConfig(seed=BENCH_SEED, num_failures=1400),
    )
    log.columns  # populate the columnar cache, as a hot caller would
    grid = dict(window_grid=(336.0, 1000.0), threshold_grid=(2, 3))
    log_pickle_bytes = len(pickle.dumps(log))
    # What the old substrate shipped per task: the log inside every
    # task tuple.
    per_task_old = len(pickle.dumps((log, 336.0, 2)))
    payload = SharedPayload(log)
    try:
        per_chunk_new = payload.spec_nbytes()
    finally:
        payload.close()

    start = time.perf_counter()
    serial = sweep_rate_predictor(log, **grid)
    serial_s = time.perf_counter() - start
    start = time.perf_counter()
    parallel = sweep_rate_predictor(log, **grid, processes=POOL_WORKERS)
    parallel_s = time.perf_counter() - start
    parity = serial == parallel
    assert parity, (
        "shared-memory grid sweep diverged from the serial run — "
        "the zero-copy handoff is not bit-transparent"
    )
    return {
        "log_failures": len(log),
        "log_pickle_bytes": log_pickle_bytes,
        "per_task_payload_bytes_old": per_task_old,
        "per_chunk_payload_bytes_new": per_chunk_new,
        "payload_shrink_factor": (
            per_task_old / per_chunk_new
            if per_chunk_new
            else float("inf")
        ),
        "grid_points": len(serial),
        "serial_s": serial_s,
        "parallel_s": parallel_s,
        "parity_ok": parity,
        "speedup_asserted": harness.can_show_speedup(2),
    }


def _bench_stealing() -> dict:
    """One long item among short ones; sleeps overlap across worker
    processes regardless of core count, so the parallel wall must
    beat the serial sum everywhere."""
    tasks = [
        (
            index,
            STEALING_LONG_S if index == 7 else STEALING_SHORT_S,
        )
        for index in range(STEALING_ITEMS)
    ]
    serial_sum = sum(duration for _, duration in tasks)
    sweep(_sleep_item, tasks, processes=POOL_WORKERS)  # warm + tune
    start = time.perf_counter()
    results = sweep(_sleep_item, tasks, processes=POOL_WORKERS)
    parallel_s = time.perf_counter() - start
    ordered = results == list(range(STEALING_ITEMS))
    assert ordered, "stealing dispatch broke input ordering"
    return {
        "items": STEALING_ITEMS,
        "long_item_s": STEALING_LONG_S,
        "short_item_s": STEALING_SHORT_S,
        "workers": POOL_WORKERS,
        "serial_sum_s": serial_sum,
        "parallel_s": parallel_s,
        "speedup_vs_serial_sum": (
            serial_sum / parallel_s if parallel_s else float("inf")
        ),
        "ordered_ok": ordered,
    }


def run_benchmark() -> dict:
    return {
        "seed": BENCH_SEED,
        "machine": BENCH_MACHINE,
        "pool": _bench_pool(),
        "ensemble": _bench_ensemble(),
        "shm": _bench_shm(),
        "stealing": _bench_stealing(),
    }


def summary_lines(results: dict) -> list[str]:
    pool = results["pool"]
    ensemble = results["ensemble"]
    shm = results["shm"]
    stealing = results["stealing"]
    return [
        f"pool: cold {pool['cold_s'] * 1e3:.1f} ms vs warm "
        f"{pool['warm_s'] * 1e3:.1f} ms "
        f"({pool['warm_vs_cold']:.1f}x), spawns={pool['spawns']}",
        f"ensemble ({ensemble['replications']} replications, "
        f"{ensemble['workers']} workers on "
        f"{results['meta']['available_cpus']} schedulable cores): "
        f"{ensemble['serial_s']:.2f}s serial vs "
        f"{ensemble['parallel_s']:.2f}s parallel "
        f"({ensemble['speedup']:.2f}x, "
        f"asserted={ensemble['speedup_asserted']}), "
        f"parity={ensemble['parity_ok']}",
        f"shm: per-task payload {shm['per_task_payload_bytes_old']:,} B"
        f" -> {shm['per_chunk_payload_bytes_new']:,} B per chunk "
        f"({shm['payload_shrink_factor']:.0f}x smaller), "
        f"parity={shm['parity_ok']}",
        f"stealing: {stealing['serial_sum_s']:.2f}s of sleep drained "
        f"in {stealing['parallel_s']:.2f}s "
        f"({stealing['speedup_vs_serial_sum']:.1f}x), "
        f"ordered={stealing['ordered_ok']}",
    ]


if __name__ == "__main__":
    harness.main("parallel", run_benchmark, summary_lines)
