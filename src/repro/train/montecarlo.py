"""Monte-Carlo ensembles of gang-training runs.

A thin layer over :func:`repro.sim.montecarlo.run_ensemble`: R
independently-seeded :class:`~repro.sim.simulator.ClusterSimulator`
runs with a gang job, folded into constant-memory ensemble statistics
over the ETTF metrics.  The runner's determinism contract holds
unchanged, so serial and parallel ensembles are bit-identical for a
fixed master seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from operator import attrgetter
from typing import Any

from repro.sim.checkpoint import CheckpointPolicy
from repro.sim.montecarlo import (
    EnsembleReport,
    MetricStats,
    run_ensemble,
    stats_payload,
)
from repro.train.config import TrainingJobConfig

__all__ = [
    "TRAIN_METRICS",
    "TrainEnsembleReport",
    "run_train_replications",
    "train_ensemble_payload",
]

#: Per-replication training metrics summarised by the ensemble.
#: ``availability`` comes from the cluster; everything else from the
#: run's :class:`~repro.train.gang.TrainStats`.
TRAIN_METRICS = (
    "ettr",
    "interrupts",
    "restarts",
    "interrupts_per_day",
    "work_committed_hours",
    "lost_work_hours",
    "stall_hours",
    "restart_overhead_hours",
    "checkpoint_overhead_hours",
    "blast_radius_node_hours",
    "availability",
)

_EXTRACTORS = {
    name: attrgetter(name if name == "availability" else f"train.{name}")
    for name in TRAIN_METRICS
}


@dataclass(frozen=True, kw_only=True)
class TrainEnsembleReport(EnsembleReport):
    """Summary of a training-run replication ensemble."""

    gang_nodes: int

    @property
    def ettr(self) -> MetricStats:
        """Shortcut for the headline metric."""
        return self.metrics["ettr"]

    def _shape(self) -> str:
        return f"gang of {self.gang_nodes} nodes, {super()._shape()}"


def run_train_replications(
    machine: str,
    replications: int,
    horizon_hours: float,
    checkpoint_policy: CheckpointPolicy,
    train: TrainingJobConfig | None = None,
    seed: int = 0,
    intensity: float = 1.0,
    ci: float = 0.95,
    max_workers: int | None = None,
) -> TrainEnsembleReport:
    """Run a Monte-Carlo ensemble of gang-training runs.

    Args:
        machine: Any registered machine name.
        replications, horizon_hours, seed, ci, max_workers: See
            :func:`repro.sim.montecarlo.run_ensemble`.
        checkpoint_policy: Checkpoint economics shared by every run.
        train: Gang shape; defaults to :class:`TrainingJobConfig`'s
            64-node gang.
        intensity: Failure-rate multiplier.

    Returns:
        A :class:`TrainEnsembleReport` over :data:`TRAIN_METRICS`;
        failed replications are skipped by the fold and attributed in
        ``errors``.

    Raises:
        ValidationError: On invalid ensemble parameters.
        SimulationError: If every replication failed.
    """
    if train is None:
        train = TrainingJobConfig()
    return run_ensemble(
        machine,
        replications,
        horizon_hours,
        options={
            "intensity": intensity,
            "checkpoint_policy": checkpoint_policy,
            "train": train,
        },
        metrics=_EXTRACTORS,
        make_report=partial(TrainEnsembleReport, gang_nodes=train.num_nodes),
        seed=seed,
        ci=ci,
        max_workers=max_workers,
    )


def train_ensemble_payload(
    ensemble: TrainEnsembleReport,
) -> dict[str, Any]:
    """JSON-friendly view of a training ensemble (CLI/serve)."""
    return {
        "machine": ensemble.machine,
        "horizon_hours": ensemble.horizon_hours,
        "gang_nodes": ensemble.gang_nodes,
        "replications": ensemble.replications,
        "failed_replications": ensemble.failed_replications,
        "ci": ensemble.ci,
        "metrics": stats_payload(ensemble.metrics),
        "errors": [list(item) for item in ensemble.errors],
    }
