"""The benchmark's four closed-loop workloads.

Each workload turns ``--seed`` into a fixed input list (op ``i`` always
gets the same inputs for a given seed), performs one op per
:meth:`Workload.run_op` call, and checks the op's outputs.  An op
returns ``(label, output, problems)``: the request class, the
deterministic output bytes that feed ``output_digest``, and the output
checks that failed.  ``repro`` is imported in :meth:`Workload.setup`,
so import time counts towards ``setup_s``.
"""

from __future__ import annotations

import dataclasses
import http.client
import json
from typing import Any, Callable

import numpy as np

__all__ = ["WORKLOADS", "WARM_INDEX", "Workload"]

#: Op index of the warm-up op(s); disjoint from every timed index.
WARM_INDEX = 10**6
#: Input index of data built once in set-up (serve's resident set).
SETUP_INDEX = 2 * 10**6


def op_seed(seed: int, stream: int, index: int) -> int:
    """Deterministic 32-bit input seed of op ``index`` in one stream."""
    state = np.random.SeedSequence([seed, stream, index]).generate_state(1)
    return int(state[0])


def canonical(value: Any) -> bytes:
    """Stable bytes of a JSON-like value (floats keep every digit)."""
    return json.dumps(
        value, sort_keys=True, separators=(",", ":"), default=repr
    ).encode()


def report_problems(report: Any) -> list[str]:
    """Conservation checks every simulated horizon must pass."""
    problems = []
    if report.repairs_completed > report.failures_injected:
        problems.append(
            f"repairs {report.repairs_completed} > failures "
            f"{report.failures_injected}"
        )
    if not 0.0 <= report.availability <= 1.0:
        problems.append(f"availability {report.availability} not in [0, 1]")
    sched = report.scheduler
    if sched is not None and sched.jobs_completed > sched.jobs_submitted:
        problems.append(
            f"jobs completed {sched.jobs_completed} > submitted "
            f"{sched.jobs_submitted}"
        )
    return problems


class Workload:
    """One closed-loop workload.

    Attributes:
        name: Workload name on the command line.
        stream: Seed stream id, so workloads never share inputs.
        nominal_op_s: Rough op cost on a 2-core host; sizes the traced
            run.
        digest_ops: Leading ops whose outputs form ``output_digest``;
            every run completes at least this many.
    """

    #: Inputs of a traced run, at least; each runs twice.
    MIN_TRACE_PAIRS = 5

    name = ""
    stream = 0
    nominal_op_s = 1.0
    digest_ops = 1

    def __init__(self, seed: int, tiny: bool = False) -> None:
        self.seed = seed
        self.tiny = tiny

    def setup(self) -> None:
        """Import the layers and build the inputs."""

    def warm_up(self) -> None:
        """Run untimed ops so lazy set-up finishes before timing."""
        self.run_op(WARM_INDEX)

    def run_op(self, index: int) -> tuple[str, bytes, list[str]]:
        raise NotImplementedError

    def trace_schedule(self, seconds: float) -> list[tuple[int, bool]]:
        """``(op index, traced)`` pairs of a traced run of ``seconds``.

        Each input runs twice, untraced and traced, in alternating
        order: both sets see the same inputs and the same host drift,
        and the two outputs must match.
        """
        ops = max(
            self.digest_ops, self.MIN_TRACE_PAIRS,
            round(seconds / 2 / self.nominal_op_s),
        )
        schedule = []
        for index in range(ops):
            traced_first = index % 2 == 1
            schedule += [(index, traced_first), (index, not traced_first)]
        return schedule

    def trace_hooks(self) -> dict[str, Any]:
        """Extra holders for :meth:`layers.Tracer.install`."""
        return {}

    def counters(self) -> dict[str, float]:
        """Cumulative layer counters the program keeps itself."""
        return {}

    def close(self) -> None:
        """Release what :meth:`setup` started."""


class SimJobs(Workload):
    """Back-to-back 1000 h tsubame3 runs with the default batch workload."""

    name = "sim_jobs"
    stream = 1
    nominal_op_s = 1.0
    digest_ops = 2

    def setup(self) -> None:
        from repro.sim import CheckpointPolicy, ClusterSimulator, WorkloadConfig

        self._simulator = ClusterSimulator
        self._workload = WorkloadConfig()
        self._policy = CheckpointPolicy(interval_hours=2.0, cost_hours=0.1)
        self._horizon = 50.0 if self.tiny else 1000.0

    def warm_up(self) -> None:
        # A quarter horizon reaches every lazy set-up; a full one would
        # add a second of set-up for nothing.
        self._run(WARM_INDEX, min(self._horizon, 250.0))

    def run_op(self, index: int) -> tuple[str, bytes, list[str]]:
        return self._run(index, self._horizon)

    def _run(
        self, index: int, horizon: float
    ) -> tuple[str, bytes, list[str]]:
        report = self._simulator(
            "tsubame3",
            workload=self._workload,
            checkpoint_policy=self._policy,
            seed=op_seed(self.seed, self.stream, index),
        ).run(horizon)
        return "sim", canonical(dataclasses.asdict(report)), (
            report_problems(report)
        )


class TrainCompare(Workload):
    """Back-to-back four-machine training studies with a 512-node gang.

    A study runs ``REPLICATIONS`` replications per machine rather than
    the default eight: the scan still dominates, and a study of about a
    second lets the host-speed correction, which is taken between ops,
    follow the host's phases more closely and gives a run twice as many
    latency samples.
    """

    name = "train_compare"
    stream = 2
    nominal_op_s = 1.0
    digest_ops = 1
    MACHINES = ("tsubame2", "tsubame3", "a100", "h100")
    REPLICATIONS = 4

    def setup(self) -> None:
        from repro.sim.simulator import ClusterSimulator
        from repro.train.compare import compare_training

        self._compare = compare_training
        # The study returns only ensemble aggregates; the lost-work
        # bound is per run, so collect each run's report on the way.
        self._reports: list[Any] = []
        self._sim_cls = ClusterSimulator
        self._run = ClusterSimulator.__dict__["run"]
        original, reports = self._run, self._reports

        def run(simulator, horizon_hours):
            report = original(simulator, horizon_hours)
            reports.append(report)
            return report

        ClusterSimulator.run = run
        self._kwargs = (
            {"replications": 1, "horizon_hours": 48.0} if self.tiny
            else {"replications": self.REPLICATIONS}
        )

    def close(self) -> None:
        self._sim_cls.run = self._run

    def warm_up(self) -> None:
        # One week-long replication per machine reaches every machine's
        # lazy set-up at a small share of the cost of a full study.
        self._study(
            WARM_INDEX,
            {**self._kwargs, "replications": 1, "horizon_hours": 168.0},
        )

    def run_op(self, index: int) -> tuple[str, bytes, list[str]]:
        return self._study(index, self._kwargs)

    def _study(
        self, index: int, kwargs: dict[str, Any]
    ) -> tuple[str, bytes, list[str]]:
        self._reports.clear()
        study = self._compare(
            self.MACHINES,
            gang_nodes=512,
            max_workers=1,
            seed=op_seed(self.seed, self.stream, index),
            **kwargs,
        )
        interval = {
            row.machine: row.checkpoint_interval_hours for row in study.rows
        }
        problems = []
        # A replication that raises is skipped by the ensemble and
        # leaves no report.
        expected = len(self.MACHINES) * kwargs["replications"]
        if len(self._reports) != expected:
            problems.append(
                f"{len(self._reports)} of {expected} replications completed"
            )
        for report in self._reports:
            problems += report_problems(report)
            stats = report.train
            bound = stats.interrupts * (
                interval[report.machine] + stats.step_time_hours
            )
            if stats.lost_work_hours > bound + 1e-9:
                problems.append(
                    f"{report.machine}: lost work {stats.lost_work_hours} h "
                    f"> interrupts x (interval + step) = {bound} h"
                )
        return "train", canonical(study.to_dict()), problems


def _analyses() -> dict[str, Callable[[Any], Any]]:
    """The offline RQ analyses, each reduced to a JSON-ready summary."""
    from repro.core import (
        availability,
        category_breakdown,
        monthly_failure_counts,
        monthly_ttr,
        mtbf,
        mttr,
        multi_gpu_clustering,
        multi_gpu_involvement,
        node_failure_distribution,
    )
    from repro.machines.specs import get_machine

    def breakdown(log):
        result = category_breakdown(log)
        return [result.dominant_category,
                [(s.category, s.count) for s in result.shares]]

    def metrics(log):
        spec = get_machine(log.machine)
        return [mtbf(log), mttr(log), availability(log, spec.num_nodes)]

    def spatial(log):
        result = node_failure_distribution(log)
        return [result.num_affected_nodes, result.top_nodes(10)]

    def seasonal(log):
        return [monthly_failure_counts(log).series(), monthly_ttr(log).means()]

    def multigpu(log):
        spec = get_machine(log.machine)
        involvement = multi_gpu_involvement(log, spec.gpus_per_node)
        return [involvement.multi_gpu_share,
                multi_gpu_clustering(log).clustering_ratio]

    return {
        "breakdown": breakdown,
        "metrics": metrics,
        "spatial": spatial,
        "seasonal": seasonal,
        "multigpu": multigpu,
    }


class Analyst(Workload):
    """Offline sessions: a tsubame3 log, every RQ analysis, a forecaster.

    A session covers ``FAILURES`` failures rather than the calibrated
    year (338): the forecaster's refits dominate either way, and a
    half-second op gives a run about thirty latency samples instead of
    seven.
    """

    name = "analyst"
    stream = 3
    nominal_op_s = 0.5
    digest_ops = 1
    MIN_HISTORY = 30
    FAILURES = 100

    def setup(self) -> None:
        import repro.predict.forecast as forecast
        import repro.synth as synth
        from repro.core.metrics import tbf_series_hours

        self._forecast = forecast
        self._synth = synth
        self._gaps = tbf_series_hours
        self.analyses = _analyses()
        self._config = synth.GeneratorConfig
        self._failures = 50 if self.tiny else self.FAILURES

    def warm_up(self) -> None:
        # A short session reaches every lazy import and cache; a
        # full-size one would double set-up for nothing.
        self._session(WARM_INDEX, failures=50)

    def run_op(self, index: int) -> tuple[str, bytes, list[str]]:
        return self._session(index, self._failures)

    def _session(
        self, index: int, failures: int | None
    ) -> tuple[str, bytes, list[str]]:
        seed = op_seed(self.seed, self.stream, index)
        log = self._synth.generate_log(
            "tsubame3", config=self._config(seed=seed, num_failures=failures)
        )
        results = {name: fn(log) for name, fn in self.analyses.items()}
        calibration = self._forecast.evaluate_forecaster(
            log, min_history=self.MIN_HISTORY
        )
        problems = []
        coverage = [calibration.coverage[q] for q in sorted(calibration.coverage)]
        if any(b < a for a, b in zip(coverage, coverage[1:])):
            problems.append(f"coverage {coverage} decreases in q")
        expected = len(self._gaps(log)) - self.MIN_HISTORY
        if calibration.num_forecasts != expected:
            problems.append(
                f"num_forecasts {calibration.num_forecasts} != gaps - "
                f"warm-up {expected}"
            )
        results["forecast"] = [
            calibration.num_forecasts,
            sorted(calibration.coverage.items()),
            calibration.mean_absolute_error_hours,
        ]
        return "session", canonical(results), problems

    def trace_hooks(self) -> dict[str, Any]:
        return {"analyses": self.analyses}


class ServeMix(Workload):
    """A dashboard on one keep-alive connection to an in-thread server.

    A fixed cycle of ``CYCLE`` requests: mostly cached ``/analyze``
    hits over a resident set of two datasets, plus one ``/generate``
    that re-registers a ring dataset, two cold analyses of it, and two
    cold headless ``/simulate`` ensembles.
    """

    name = "serve_mix"
    stream = 4
    nominal_op_s = 0.004
    digest_ops = 100
    CYCLE = 50
    GENERATE = (0,)
    COLD = (10, 30)
    SIMULATE = (20, 40)
    RING = 4
    RESIDENT = (("t2", "tsubame2"), ("t3", "tsubame3"))

    def setup(self) -> None:
        from repro.parallel import pool_stats
        from repro.serve import DatasetRegistry, ReproApp, run_in_thread
        from repro.serve.app import ANALYSES

        self._pool_stats = pool_stats
        self._analysis_names = sorted(ANALYSES)
        self._failures = 60 if self.tiny else 300
        self._sim_params = (
            {"horizon_hours": 100.0, "replications": 1} if self.tiny
            else {"horizon_hours": 2000.0, "replications": 8}
        )
        registry = DatasetRegistry()
        for name, machine in self.RESIDENT:
            registry.synthesize(
                name, machine, seed=op_seed(self.seed, self.stream, SETUP_INDEX)
            )
        self.app = ReproApp(registry, workers=1)
        self._handle = run_in_thread(self.app)
        self._conn = http.client.HTTPConnection(
            "127.0.0.1", self._handle.port, timeout=120
        )
        self._hit_paths = [
            f"/analyze/{name}/{analysis}"
            for name, _machine in self.RESIDENT
            for analysis in self._analysis_names
        ]
        self._cold_bodies: dict[str, bytes] = {}
        slots = set(self.GENERATE + self.COLD + self.SIMULATE)
        self._hit_slot = {
            pos: k for k, pos in enumerate(
                p for p in range(self.CYCLE) if p not in slots
            )
        }
        self._hits_per_cycle = len(self._hit_slot)

    def warm_up(self) -> None:
        for path in self._hit_paths:
            status, body, _cache = self._request("GET", path)
            if status != 200:
                raise RuntimeError(f"warm-up {path} answered {status}")
            self._cold_bodies[path] = body
        for pos in range(self.CYCLE):
            self.run_op(WARM_INDEX * self.CYCLE + pos)

    def trace_schedule(self, seconds: float) -> list[tuple[int, bool]]:
        # Requests change server state, so inputs do not repeat: whole
        # cycles alternate between untraced and traced instead.
        pairs = max(1, round(seconds / 2 / (self.nominal_op_s * self.CYCLE) / 2))
        return [
            (index, (index // self.CYCLE) % 2 == 1)
            for index in range(2 * pairs * self.CYCLE)
        ]

    def trace_hooks(self) -> dict[str, Any]:
        return {
            "analyses": self.app.analyses,
            "app": self.app,
            "classify": self.classify,
        }

    def classify(self, request: Any) -> str:
        """Request class from method and path (for dispatch spans)."""
        path = request.path
        if path.startswith("/generate"):
            return "generate"
        if path.startswith("/simulate"):
            return "simulate"
        return "cold" if path.startswith("/analyze/ring") else "hit"

    def counters(self) -> dict[str, float]:
        pool = self._pool_stats()
        return {
            "cache_hits": self.app.cache.hits,
            "cache_misses": self.app.cache.misses,
            "coalesced": self.app.singleflight.coalesced,
            "shed": self.app.admission.shed,
            "pool_spawns": pool["spawns"] if pool else 0,
        }

    def close(self) -> None:
        self._conn.close()
        self._handle.stop()

    def _request(
        self, method: str, path: str, payload: Any = None
    ) -> tuple[int, bytes, str | None]:
        body = None if payload is None else json.dumps(payload).encode()
        headers = {} if body is None else {"Content-Type": "application/json"}
        self._conn.request(method, path, body, headers)
        response = self._conn.getresponse()
        data = response.read()
        return response.status, data, response.getheader("X-Cache")

    def run_op(self, index: int) -> tuple[str, bytes, list[str]]:
        cycle, pos = divmod(index, self.CYCLE)
        ring = f"ring{cycle % self.RING}"
        if pos in self.GENERATE:
            label, method, path = "generate", "POST", "/generate"
            payload = {
                "name": ring, "machine": "tsubame3",
                "seed": op_seed(self.seed, self.stream, index),
                "failures": self._failures,
            }
        elif pos in self.COLD:
            analysis = self._analysis_names[
                (len(self.COLD) * cycle + self.COLD.index(pos))
                % len(self._analysis_names)
            ]
            label, method, path = "cold", "GET", f"/analyze/{ring}/{analysis}"
            payload = None
        elif pos in self.SIMULATE:
            label, method, path = "simulate", "POST", "/simulate"
            payload = {
                "machine": "tsubame2",
                "seed": op_seed(self.seed, self.stream, index),
                **self._sim_params,
            }
        else:
            label, method = "hit", "GET"
            slot = self._hits_per_cycle * cycle + self._hit_slot[pos]
            path = self._hit_paths[slot % len(self._hit_paths)]
            payload = None
        status, body, _cache = self._request(method, path, payload)
        problems = []
        if not 200 <= status < 300:
            problems.append(f"{method} {path} answered {status}: {body[:200]!r}")
        elif label == "hit" and body != self._cold_bodies.get(path, body):
            problems.append(f"cache hit {path} differs from its cold body")
        elif label == "generate":
            if json.loads(body).get("failures") != self._failures:
                problems.append(f"generate {ring} has the wrong size")
        elif label == "simulate":
            ensemble = json.loads(body)
            replications = self._sim_params["replications"]
            if ensemble.get("replications") != replications:
                problems.append("simulate ran the wrong ensemble size")
            if ensemble.get("failed_replications") != 0:
                problems.append("simulate had failed replications")
        output = f"{method} {path} {status}\n".encode() + body
        return label, output, problems


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (SimJobs, TrainCompare, Analyst, ServeMix)
}
