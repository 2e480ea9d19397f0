"""Monte-Carlo replication engine.

One simulated horizon is a single draw from the model's distribution
over operational outcomes; the paper's RQ5-style claims ("4
technicians keep availability above X") are claims about that
*distribution*.  :func:`run_ensemble` runs R independently-seeded
replications of :class:`~repro.sim.simulator.ClusterSimulator` and
folds chosen metrics of their
:class:`~repro.sim.simulator.SimulationReport`s into ensemble
statistics — mean, standard error, and percentile confidence
intervals — using the constant-memory estimators from
:mod:`repro.stream.online`, so R can be large without holding R
reports.  It is the one runner behind both the cluster-availability
ensembles (:func:`run_replications`) and the gang-training ensembles
(:func:`repro.train.montecarlo.run_train_replications`).

Determinism contract: an ensemble with a given
``(machine, seed, replications, ...)`` is bit-identical whether the
replications run serially or across worker processes.
Per-replication seeds come from :func:`spawn_seeds` (NumPy
``SeedSequence`` spawning, prefix-stable in ``n``), replications are
dispatched through the fault-tolerant
:func:`repro.parallel.sweep_iter` machinery — riding the process-wide
warm worker pool, so consecutive ensembles stop paying a pool spawn
each — which yields outcomes in input order, and the fold itself is a
sequential loop — so worker scheduling can never touch the numbers.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import dataclass
from operator import attrgetter
from typing import Any, TypeVar

import numpy as np

from repro.errors import SimulationError, ValidationError
from repro.parallel import SweepOutcome, sweep_iter
from repro.sim.repair import RepairPolicy
from repro.sim.simulator import ClusterSimulator, SimulationReport
from repro.stream.online import GKQuantileSketch, Welford

__all__ = [
    "spawn_seeds",
    "MetricStats",
    "EnsembleReport",
    "stats_payload",
    "run_ensemble",
    "run_replications",
]

def spawn_seeds(seed: int, n: int) -> list[int]:
    """Derive ``n`` independent replication seeds from a master seed.

    Uses ``np.random.SeedSequence(seed).generate_state``, which is
    *prefix-stable*: the first k seeds of ``spawn_seeds(seed, n)`` are
    identical for every n >= k, so growing an ensemble from 100 to
    1000 replications reuses (never re-randomises) the first 100.

    Raises:
        ValidationError: If ``n`` is not positive.
    """
    if n < 1:
        raise ValidationError(f"n must be positive, got {n}")
    state = np.random.SeedSequence(seed).generate_state(n, np.uint32)
    return [int(s) for s in state]


@dataclass(frozen=True)
class MetricStats:
    """Ensemble statistics of one scalar report metric.

    ``ci_lower``/``ci_upper`` are *percentile* bounds of the
    replication distribution (e.g. the 2.5th and 97.5th percentiles at
    ``ci=0.95``) estimated by a Greenwald-Khanna sketch — they
    describe run-to-run spread, not the standard error of the mean
    (use :attr:`stderr` for that).
    """

    name: str
    mean: float
    std: float
    stderr: float
    ci_lower: float
    ci_upper: float

    def __str__(self) -> str:
        return (
            f"{self.name}: {self.mean:.4g} ± {self.stderr:.2g} "
            f"[{self.ci_lower:.4g}, {self.ci_upper:.4g}]"
        )


@dataclass(frozen=True)
class EnsembleReport:
    """Summary of a Monte-Carlo replication ensemble.

    Attributes:
        machine: Simulated machine.
        horizon_hours: Horizon of every replication.
        replications: Replications whose reports were folded in.
        failed_replications: Replications that raised (their errors
            are attributed in ``errors``; the fold simply skips them).
        ci: Confidence level of the percentile intervals.
        metrics: Per-metric ensemble statistics, in metric order.
        errors: ``(replication_index, message)`` for each failure.
    """

    machine: str
    horizon_hours: float
    replications: int
    failed_replications: int
    ci: float
    metrics: dict[str, MetricStats]
    errors: tuple[tuple[int, str], ...] = ()

    @property
    def availability(self) -> MetricStats:
        """Shortcut for the cluster's availability."""
        return self.metrics["availability"]

    def _shape(self) -> str:
        """What the ensemble ran, for the summary header."""
        return f"{self.replications} replications x {self.horizon_hours:g} h"

    def summary(self) -> str:
        """Human-readable multi-line summary."""
        lines = [
            f"{self.machine}: {self._shape()} "
            f"({round(self.ci * 100)}% percentile intervals)"
        ]
        if self.failed_replications:
            lines.append(
                f"  {self.failed_replications} replication(s) failed"
            )
        lines.extend(f"  {stats}" for stats in self.metrics.values())
        return "\n".join(lines)


def stats_payload(
    metrics: dict[str, MetricStats],
) -> dict[str, dict[str, float]]:
    """JSON-friendly view of an ensemble's per-metric statistics."""
    return {
        name: {
            "mean": stats.mean,
            "std": stats.std,
            "stderr": stats.stderr,
            "ci_lower": stats.ci_lower,
            "ci_upper": stats.ci_upper,
        }
        for name, stats in metrics.items()
    }


#: Reads one metric off a replication's report.
Extractor = Callable[[SimulationReport], float]

#: Cluster metrics summarised by :func:`run_replications`, in report
#: order.
_METRICS: dict[str, Extractor] = {
    name: attrgetter(name)
    for name in (
        "failures_injected",
        "repairs_completed",
        "effective_mttr_hours",
        "mean_waiting_hours",
        "availability",
        "spare_stockouts",
        "spares_consumed",
    )
}

_ReportT = TypeVar("_ReportT", bound=EnsembleReport)


@dataclass(frozen=True)
class _ReplicationTask:
    """Picklable spec of one replication (travels to worker processes).

    ``options`` are :class:`~repro.sim.simulator.ClusterSimulator`
    keyword arguments shared by every replication.
    """

    machine: str
    seed: int
    horizon_hours: float
    options: dict[str, Any]


def _run_replication(task: _ReplicationTask) -> SimulationReport:
    """Worker entry point: one seeded simulation, report only."""
    simulator = ClusterSimulator(
        task.machine,
        seed=task.seed,
        keep_injected_log=False,
        **task.options,
    )
    return simulator.run(task.horizon_hours)


class _MetricFold:
    """Welford moments + GK quantile sketch for one metric."""

    __slots__ = ("name", "moments", "sketch")

    def __init__(self, name: str) -> None:
        self.name = name
        self.moments = Welford()
        self.sketch = GKQuantileSketch(epsilon=0.005)

    def push(self, value: float) -> None:
        self.moments.push(value)
        self.sketch.push(value)

    def stats(self, ci: float) -> MetricStats:
        n = self.moments.n
        lower_q = (1.0 - ci) / 2.0
        return MetricStats(
            name=self.name,
            mean=self.moments.mean,
            std=self.moments.std,
            stderr=(
                self.moments.std / np.sqrt(n) if n else 0.0
            ),
            ci_lower=self.sketch.value(lower_q),
            ci_upper=self.sketch.value(1.0 - lower_q),
        )


def run_ensemble(
    machine: str,
    replications: int,
    horizon_hours: float,
    options: dict[str, Any],
    metrics: Mapping[str, Extractor],
    make_report: Callable[..., _ReportT],
    seed: int = 0,
    ci: float = 0.95,
    max_workers: int | None = None,
) -> _ReportT:
    """Run R seeded :class:`ClusterSimulator` replications and fold them.

    The one dispatch-and-fold loop behind every ensemble in the repo;
    :func:`run_replications` and
    :func:`repro.train.montecarlo.run_train_replications` only choose
    its ``options``, ``metrics`` and report type.

    Args:
        machine: Any registered machine name.
        replications: Number of independently-seeded runs (>= 1).
        horizon_hours: Simulated horizon of each run.
        options: :class:`ClusterSimulator` keyword arguments shared by
            every run (policies as their frozen config objects); they
            are pickled to worker processes.
        metrics: ``{metric name: extractor}``, in report order.  The
            extractors run in the calling process, so they need not
            pickle.
        make_report: Builds the report from the
            :class:`EnsembleReport` fields (e.g. the class itself).
        seed: Master seed; per-replication seeds are spawned with
            :func:`spawn_seeds`, so the ensemble is reproducible and
            prefix-stable in ``replications``.
        ci: Confidence level of the percentile intervals, in (0, 1).
        max_workers: ``None`` or ``1`` runs serially in-process;
            ``N > 1`` fans replications across the process-wide warm
            worker pool (spawned once, reused by every ensemble in
            the process) with work-stealing chunking, so uneven
            replication lengths do not leave workers idle.  The
            result is bit-identical at any worker count.

    Returns:
        ``make_report(...)``.  Replications that raise are skipped by
        the fold and attributed in ``errors`` — one poisoned seed does
        not discard the ensemble.

    Raises:
        ValidationError: On invalid ensemble parameters.
        SimulationError: If *every* replication failed (there is no
            distribution to report).
    """
    if replications < 1:
        raise ValidationError(
            f"replications must be >= 1, got {replications}"
        )
    if not 0.0 < ci < 1.0:
        raise ValidationError(f"ci must lie in (0, 1), got {ci}")
    tasks = [
        _ReplicationTask(machine, replication_seed, horizon_hours, options)
        for replication_seed in spawn_seeds(seed, replications)
    ]
    folds = {name: _MetricFold(name) for name in metrics}
    errors: list[tuple[int, str]] = []
    outcome: SweepOutcome
    for outcome in sweep_iter(_run_replication, tasks, processes=max_workers):
        if not outcome.ok:
            errors.append(
                (
                    outcome.index,
                    f"{type(outcome.error).__name__}: {outcome.error}",
                )
            )
            continue
        for name, extract in metrics.items():
            folds[name].push(float(extract(outcome.result)))
    completed = replications - len(errors)
    if completed == 0:
        raise SimulationError(
            f"all {replications} replications failed; first error: "
            f"{errors[0][1]}"
        )
    return make_report(
        machine=machine,
        horizon_hours=horizon_hours,
        replications=completed,
        failed_replications=len(errors),
        ci=ci,
        metrics={name: fold.stats(ci) for name, fold in folds.items()},
        errors=tuple(errors),
    )


def run_replications(
    machine: str,
    replications: int,
    horizon_hours: float,
    seed: int = 0,
    intensity: float = 1.0,
    ci: float = 0.95,
    max_workers: int | None = None,
    num_technicians: int | None = None,
    spare_lead_time_hours: float | None = None,
) -> EnsembleReport:
    """Run a Monte-Carlo ensemble of cluster availability.

    Args:
        machine: ``"tsubame2"`` or ``"tsubame3"``.
        replications, horizon_hours, seed, ci, max_workers: See
            :func:`run_ensemble`.
        intensity: Failure-rate multiplier passed to every run.
        num_technicians: Override the repair policy's staffing.
        spare_lead_time_hours: Override the spare procurement lead
            time (requires ``num_technicians``).

    Returns:
        An :class:`EnsembleReport` over the
        :class:`~repro.sim.simulator.SimulationReport` fields
        ``failures_injected`` ... ``spares_consumed``.

    Raises:
        ValidationError: On invalid ensemble or policy parameters.
        SimulationError: If every replication failed.
    """
    if spare_lead_time_hours is not None and num_technicians is None:
        raise ValidationError(
            "spare_lead_time_hours requires num_technicians "
            "(both override the same repair policy)"
        )
    policy = None
    if num_technicians is not None:
        policy = RepairPolicy(
            num_technicians=num_technicians,
            spare_lead_time_hours=(
                spare_lead_time_hours
                if spare_lead_time_hours is not None
                else RepairPolicy.spare_lead_time_hours
            ),
        )
    return run_ensemble(
        machine,
        replications,
        horizon_hours,
        options={"intensity": intensity, "repair_policy": policy},
        metrics=_METRICS,
        make_report=EnsembleReport,
        seed=seed,
        ci=ci,
        max_workers=max_workers,
    )
