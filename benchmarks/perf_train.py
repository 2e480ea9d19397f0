#!/usr/bin/env python3
"""Training-simulation performance benchmark: gang-scheduled runs on
the 1024-node A100 fleet, plus the training Monte-Carlo ensemble.

At increasing failure intensities over a 2000-hour horizon, this
times one full :class:`ClusterSimulator` run carrying a 512-node
gang-training job (simulator + injector + repair + gang accounting),
reporting processed engine events per second and the run's measured
ETTR.  It then benchmarks
:func:`repro.train.montecarlo.run_train_replications`: replications
per second serially and across workers, asserting the two ensembles
are bit-identical (the same serial-vs-parallel parity contract as
``perf_sim``), and writes ``BENCH_train.json`` at the repo root next
to ``BENCH_sim.json``.

Run::

    PYTHONPATH=src python benchmarks/perf_train.py

Environment knobs: ``REPRO_BENCH_SCALES`` restricts the intensity
tiers (same comma-separated syntax as perf_core/perf_sim),
``REPRO_BENCH_REPLICATIONS`` resizes the ensemble (CI smoke uses a
small one).
"""

from __future__ import annotations

import harness
from repro.sim.checkpoint import young_daly_policy
from repro.sim.simulator import ClusterSimulator
from repro.train.config import TrainingJobConfig
from repro.train.montecarlo import run_train_replications

BENCH_SEED = 42
BENCH_MACHINE = "a100"  # the 1024-node modern fleet
GANG_NODES = 512
HORIZON_HOURS = 2000.0
CHECKPOINT_COST_HOURS = 0.25
#: Intensity multipliers on the calibrated failure rate.
SCALES = {"1x": 1, "4x": 4, "16x": 16}
ENSEMBLE_REPLICATIONS = 16
ENSEMBLE_HORIZON_HOURS = 500.0
ENSEMBLE_GANG_NODES = 256
ENSEMBLE_WORKERS = 4


def _policy(gang_nodes: int, intensity: float):
    """Young/Daly policy for the gang's MTBF on the bench machine."""
    from repro.machines.specs import get_machine

    spec = get_machine(BENCH_MACHINE)
    system_mtbf = spec.log_span_hours / (
        spec.reported_failures * intensity
    )
    job_mtbf = system_mtbf * spec.num_nodes / gang_nodes
    return young_daly_policy(CHECKPOINT_COST_HOURS, job_mtbf)


def _run_once(intensity: float):
    """One full gang-training simulation; returns (events, report).

    The checkpoint policy is tuned for the *nominal* (1x) failure
    rate at every tier — the intensity multiplier models the fleet
    failing harder than the operator planned for, which is exactly
    the stress the ETTR column measures.  (It also keeps the policy
    valid: at 16x the true job MTBF drops below the checkpoint cost,
    a regime ``young_daly_policy`` rightly refuses to tune for.)
    """
    simulator = ClusterSimulator(
        BENCH_MACHINE,
        seed=BENCH_SEED,
        intensity=intensity,
        keep_injected_log=False,
        checkpoint_policy=_policy(GANG_NODES, 1.0),
        train=TrainingJobConfig(num_nodes=GANG_NODES),
    )
    report = simulator.run(HORIZON_HOURS)
    return simulator.engine.processed, report


def _bench_scale(factor: int) -> dict:
    intensity = float(factor)
    wall_s, (events, report) = harness.best_of(lambda: _run_once(intensity))
    stats = report.train
    return {
        "intensity": intensity,
        "horizon_hours": HORIZON_HOURS,
        "gang_nodes": GANG_NODES,
        "wall_s": wall_s,
        "events": events,
        "events_per_s": events / wall_s if wall_s else 0.0,
        "failures": report.failures_injected,
        "interrupts": stats.interrupts,
        "ettr": stats.ettr,
        "lost_work_hours": stats.lost_work_hours,
    }


def _bench_ensemble() -> dict:
    replications = harness.env_int(
        "REPRO_BENCH_REPLICATIONS", ENSEMBLE_REPLICATIONS
    )
    policy = _policy(ENSEMBLE_GANG_NODES, 1.0)
    train = TrainingJobConfig(num_nodes=ENSEMBLE_GANG_NODES)

    def run(max_workers):
        return run_train_replications(
            BENCH_MACHINE,
            replications=replications,
            horizon_hours=ENSEMBLE_HORIZON_HOURS,
            checkpoint_policy=policy,
            train=train,
            seed=BENCH_SEED,
            max_workers=max_workers,
        )

    # As in perf_sim: best of three against the warm pool, with the
    # first (cold) parallel call recorded on its own.
    parallel_first_s, _ = harness.best_of(
        lambda: run(ENSEMBLE_WORKERS), 1
    )
    serial_s, serial_report = harness.best_of(lambda: run(None))
    parallel_s, parallel_report = harness.best_of(
        lambda: run(ENSEMBLE_WORKERS)
    )
    parity = serial_report == parallel_report
    assert parity, (
        "serial and parallel training ensembles diverged — the "
        "determinism contract of run_train_replications is broken"
    )
    return {
        "replications": replications,
        "horizon_hours": ENSEMBLE_HORIZON_HOURS,
        "gang_nodes": ENSEMBLE_GANG_NODES,
        "workers": ENSEMBLE_WORKERS,
        "serial_s": serial_s,
        "parallel_s": parallel_s,
        "parallel_first_s": parallel_first_s,
        "serial_replications_per_s": (
            replications / serial_s if serial_s else 0.0
        ),
        "parallel_replications_per_s": (
            replications / parallel_s if parallel_s else 0.0
        ),
        "speedup": serial_s / parallel_s if parallel_s else float("inf"),
        "parity_ok": parity,
        # Same convention as perf_sim: the ratio is only a claim on a
        # host with enough cores to show one.
        "speedup_asserted": harness.can_show_speedup(2),
        "mean_ettr": serial_report.ettr.mean,
    }


def run_benchmark() -> dict:
    return {
        "seed": BENCH_SEED,
        "machine": BENCH_MACHINE,
        "scales": {
            label: _bench_scale(factor)
            for label, factor in harness.selected_scales(SCALES).items()
        },
        "ensemble": _bench_ensemble(),
    }


def summary_lines(results: dict) -> list[str]:
    lines = [
        f"{label:>4} intensity: {scale['events_per_s']:,.0f} "
        f"events/s ({scale['events']} events in "
        f"{scale['wall_s'] * 1e3:.1f} ms), "
        f"{scale['interrupts']} interrupts, "
        f"ETTR {scale['ettr']:.4f}"
        for label, scale in results["scales"].items()
    ]
    ensemble = results["ensemble"]
    lines.append(
        f"ensemble ({ensemble['replications']} replications of a "
        f"{ensemble['gang_nodes']}-node gang, "
        f"{ensemble['workers']} workers on "
        f"{results['meta']['available_cpus']} cores): "
        f"{ensemble['serial_replications_per_s']:.1f} rep/s serial vs "
        f"{ensemble['parallel_replications_per_s']:.1f} rep/s parallel "
        f"({ensemble['speedup']:.2f}x), "
        f"parity={ensemble['parity_ok']}, "
        f"mean ETTR {ensemble['mean_ettr']:.4f}"
    )
    return lines


if __name__ == "__main__":
    harness.main("train", run_benchmark, summary_lines)
