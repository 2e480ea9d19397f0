#!/usr/bin/env python3
"""Core performance benchmark: the columnar fast path against the
retained pure-Python reference path, plus the multi-seed sweep engine.

At 1x/10x/100x the Tsubame-2 paper scale (897 records — larger scales
are built by time-tiling the calibrated 1x log, since the placement
model caps a single generated trace at the node count), this times:

* log construction (generation plus tiling),
* a chained-filter pass — trusted mask path vs. re-validating every
  subset through the public constructor,
* the full analysis pass (every vectorized kernel) vs. the
  ``_reference_*`` implementations,
* each TBF / spatial / seasonal / multi-GPU kernel individually,

and a 50-seed :func:`repro.parallel.sweep` (serial vs. 4 workers),
then writes ``BENCH_core.json`` at the repo root so future PRs have a
perf trajectory to regress against.

Run::

    PYTHONPATH=src python benchmarks/perf_core.py
"""

from __future__ import annotations

import dataclasses

import harness
from repro.core import metrics, multigpu, seasonal, spatial, temporal
from repro.core import taxonomy
from repro.core.records import FailureLog
from repro.core.taxonomy import FailureClass
from repro.parallel import sweep
from repro.synth import GeneratorConfig, generate_log

BENCH_SEED = 42
SCALES = {"1x": 1, "10x": 10, "100x": 100}
SWEEP_SEEDS = 50
SWEEP_WORKERS = 4


def tiled_log(factor: int, seed: int = BENCH_SEED) -> FailureLog:
    """Calibrated Tsubame-2 log tiled ``factor`` times along the time
    axis (record ids re-assigned, window extended), validated once by
    the public constructor like any externally built log."""
    base = generate_log(
        "tsubame2", config=GeneratorConfig(seed=seed)
    )
    if factor == 1:
        return base
    span = base.window_end - base.window_start
    records = []
    record_id = 0
    for copy in range(factor):
        shift = span * copy
        for record in base.records:
            records.append(
                dataclasses.replace(
                    record,
                    record_id=record_id,
                    timestamp=record.timestamp + shift,
                )
            )
            record_id += 1
    return FailureLog(
        machine=base.machine,
        records=tuple(records),
        window_start=base.window_start,
        window_end=base.window_start + span * factor,
    )


def _validated_subset(log: FailureLog, predicate) -> FailureLog:
    """The pre-columnar subset path: filter, then re-validate and
    re-sort everything through the public constructor."""
    return FailureLog(
        machine=log.machine,
        records=tuple(r for r in log.records if predicate(r)),
        window_start=log.window_start,
        window_end=log.window_end,
    )


def _midpoint(log: FailureLog):
    return log.window_start + (log.window_end - log.window_start) / 2


def filter_chain_fast(log: FailureLog) -> int:
    sub = (
        log.gpu_failures()
        .between(log.window_start, _midpoint(log))
        .by_class(FailureClass.HARDWARE)
    )
    return len(sub)


def filter_chain_reference(log: FailureLog) -> int:
    end = _midpoint(log)
    sub = _validated_subset(
        log,
        lambda r: bool(r.gpus_involved)
        or taxonomy.is_gpu_category(log.machine, r.category),
    )
    sub = _validated_subset(
        sub, lambda r: log.window_start <= r.timestamp < end
    )
    sub = _validated_subset(
        sub,
        lambda r: taxonomy.failure_class(log.machine, r.category)
        is FailureClass.HARDWARE,
    )
    return len(sub)


def analysis_chain_fast(log: FailureLog) -> dict:
    gpu = log.gpu_failures()
    mid = gpu.between(log.window_start, _midpoint(log))
    return {
        "tbf": metrics.tbf_series_hours(mid),
        "ttr": metrics.ttr_series_hours(mid),
        "tbf_categories": [
            e.category for e in temporal.tbf_by_category(log)
        ],
        "node_counts": spatial.node_failure_distribution(
            mid
        ).counts_per_node,
        "class_split": spatial.repeat_failure_class_split(log),
        "slots": spatial.gpu_slot_distribution(gpu, (0, 1, 2)),
        "monthly": seasonal.monthly_failure_counts(mid).counts,
        "monthly_ttr_keys": sorted(
            seasonal.monthly_ttr(log).summaries
        ),
        "weekday": seasonal.weekday_profile(log),
        "hourly": seasonal.hour_of_day_profile(log),
        "involvement": multigpu.multi_gpu_involvement(mid, 3),
        "clustering_events": len(
            multigpu.multi_gpu_clustering(log).events
        ),
    }


def analysis_chain_reference(log: FailureLog) -> dict:
    end = _midpoint(log)
    gpu = _validated_subset(
        log,
        lambda r: bool(r.gpus_involved)
        or taxonomy.is_gpu_category(log.machine, r.category),
    )
    mid = _validated_subset(
        gpu, lambda r: log.window_start <= r.timestamp < end
    )
    return {
        "tbf": metrics._reference_tbf_series_hours(mid),
        "ttr": metrics._reference_ttr_series_hours(mid),
        "tbf_categories": [
            e.category
            for e in temporal._reference_tbf_by_category(log)
        ],
        "node_counts": spatial._reference_node_failure_distribution(
            mid
        ).counts_per_node,
        "class_split": spatial._reference_repeat_failure_class_split(
            log
        ),
        "slots": spatial._reference_gpu_slot_distribution(
            gpu, (0, 1, 2)
        ),
        "monthly": seasonal._reference_monthly_failure_counts(
            mid
        ).counts,
        "monthly_ttr_keys": sorted(
            seasonal._reference_monthly_ttr(log).summaries
        ),
        "weekday": seasonal._reference_weekday_profile(log),
        "hourly": seasonal._reference_hour_of_day_profile(log),
        "involvement": multigpu._reference_multi_gpu_involvement(
            mid, 3
        ),
        "clustering_events": len(
            multigpu._reference_multi_gpu_clustering(log).events
        ),
    }


#: name -> (fast kernel, reference kernel), each taking the full log.
KERNELS = {
    "tbf_series": (
        metrics.tbf_series_hours,
        metrics._reference_tbf_series_hours,
    ),
    "tbf_by_category": (
        temporal.tbf_by_category,
        temporal._reference_tbf_by_category,
    ),
    "node_failure_distribution": (
        spatial.node_failure_distribution,
        spatial._reference_node_failure_distribution,
    ),
    "repeat_failure_class_split": (
        spatial.repeat_failure_class_split,
        spatial._reference_repeat_failure_class_split,
    ),
    "monthly_ttr": (
        seasonal.monthly_ttr,
        seasonal._reference_monthly_ttr,
    ),
    "hour_of_day_profile": (
        seasonal.hour_of_day_profile,
        seasonal._reference_hour_of_day_profile,
    ),
    "multi_gpu_clustering": (
        multigpu.multi_gpu_clustering,
        multigpu._reference_multi_gpu_clustering,
    ),
}


def _bench_scale(factor: int) -> dict:
    build_s, log = harness.best_of(lambda: tiled_log(factor), 1)

    filter_fast_s, fast_n = harness.best_of(
        lambda: filter_chain_fast(log)
    )
    filter_ref_s, ref_n = harness.best_of(
        lambda: filter_chain_reference(log), 1
    )

    # Cold = first touch on a fresh log (includes the one-time column
    # build); warm = the steady state every later call sees.
    cold_log = tiled_log(factor)
    chain_cold_s, _ = harness.best_of(
        lambda: analysis_chain_fast(cold_log), 1
    )
    chain_warm_s, fast_out = harness.best_of(
        lambda: analysis_chain_fast(cold_log)
    )
    chain_ref_s, ref_out = harness.best_of(
        lambda: analysis_chain_reference(cold_log), 1
    )

    kernels = {}
    for name, (fast_fn, ref_fn) in KERNELS.items():
        fast_s, _ = harness.best_of(lambda: fast_fn(log))
        ref_s, _ = harness.best_of(lambda: ref_fn(log), 1)
        kernels[name] = {
            "fast_s": fast_s,
            "reference_s": ref_s,
            "speedup": ref_s / fast_s if fast_s else float("inf"),
        }

    return {
        "records": len(log),
        "build_log_s": build_s,
        "filter_chain": {
            "fast_s": filter_fast_s,
            "reference_s": filter_ref_s,
            "speedup": filter_ref_s / filter_fast_s
            if filter_fast_s
            else float("inf"),
            "survivors_match": fast_n == ref_n,
        },
        "analysis_chain": {
            "fast_cold_s": chain_cold_s,
            "fast_warm_s": chain_warm_s,
            "reference_s": chain_ref_s,
            "speedup_cold": chain_ref_s / chain_cold_s
            if chain_cold_s
            else float("inf"),
            "speedup_warm": chain_ref_s / chain_warm_s
            if chain_warm_s
            else float("inf"),
            "parity_ok": fast_out == ref_out,
        },
        "kernels": kernels,
    }


def _sweep_job(seed: int) -> tuple[int, float]:
    """Per-seed work for the sweep benchmark: generate a calibrated
    Tsubame-3 trace and reduce it to (failure count, MTBF hours)."""
    log = generate_log(
        "tsubame3", config=GeneratorConfig(seed=seed)
    )
    return len(log), metrics.mtbf(log)


def _bench_sweep() -> dict:
    seeds = list(range(SWEEP_SEEDS))

    def run(processes: int):
        return sweep(_sweep_job, seeds, processes=processes)

    # The first 4-worker call may pay the pool's one-off spawn; the
    # best-of figures compare serial against the warm pool.
    parallel_first_s, _ = harness.best_of(lambda: run(SWEEP_WORKERS), 1)
    serial_s, serial = harness.best_of(lambda: run(1))
    parallel_s, parallel = harness.best_of(lambda: run(SWEEP_WORKERS))
    return {
        "seeds": SWEEP_SEEDS,
        "workers": SWEEP_WORKERS,
        "serial_s": serial_s,
        "parallel_s": parallel_s,
        "parallel_first_s": parallel_first_s,
        "speedup": serial_s / parallel_s
        if parallel_s
        else float("inf"),
        "identical": serial == parallel,
        # Parity (identical) holds on any host; the speedup ratio is
        # only a claim where there are cores to back it.
        "speedup_asserted": harness.can_show_speedup(2),
    }


def run_benchmark() -> dict:
    return {
        "seed": BENCH_SEED,
        "scales": {
            label: _bench_scale(factor)
            for label, factor in harness.selected_scales(SCALES).items()
        },
        "sweep": _bench_sweep(),
    }


def summary_lines(results: dict) -> list[str]:
    lines = []
    for label, scale in results["scales"].items():
        chain = scale["analysis_chain"]
        lines.append(
            f"{label:>4} ({scale['records']} records): "
            f"analysis {chain['fast_warm_s'] * 1e3:.1f} ms vs "
            f"reference {chain['reference_s'] * 1e3:.1f} ms "
            f"({chain['speedup_warm']:.1f}x warm, "
            f"{chain['speedup_cold']:.1f}x cold), "
            f"filter chain {scale['filter_chain']['speedup']:.1f}x"
        )
    sweep_result = results["sweep"]
    lines.append(
        f"sweep ({sweep_result['seeds']} seeds, "
        f"{sweep_result['workers']} workers on "
        f"{results['meta']['available_cpus']} cores): "
        f"{sweep_result['serial_s']:.2f} s serial vs "
        f"{sweep_result['parallel_s']:.2f} s parallel "
        f"({sweep_result['speedup']:.2f}x), "
        f"identical={sweep_result['identical']}"
    )
    return lines


if __name__ == "__main__":
    harness.main("core", run_benchmark, summary_lines)
