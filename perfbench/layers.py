"""Outside-in per-layer tracing for the benchmark's traced run.

Nothing in ``src/`` is instrumented.  :class:`Tracer` replaces public
functions of the ``repro`` layers with timing wrappers — on the class
for methods (installed before the objects of a traced op are built),
and on every module that holds a reference for functions imported by
name — and restores the originals on :meth:`Tracer.uninstall`.

Each wrapped call is a span: name, start, end and the enclosing span
on the same thread.  Spans are kept in memory (up to a cap) and
written out when the benchmark ends; per-name aggregates (calls, busy
time, self time = busy time minus the time of wrapped children) feed
the per-layer metrics.  Only modules already imported are wrapped, so
tracing never pulls a layer into a workload that does not use it.
"""

from __future__ import annotations

import functools
import sys
import threading
from time import perf_counter
from typing import Any, Callable

__all__ = ["Tracer", "layer_metrics", "PER_LAYER_UNITS"]

#: Methods wrapped on their class: (module, class, method, span name).
CLASS_TARGETS = (
    ("repro.sim.cluster", "Cluster", "available_nodes",
     "sim.cluster.available_nodes"),
    ("repro.sim.scheduler", "Scheduler", "handle_node_failure",
     "sim.scheduler.handle_node_failure"),
    ("repro.sim.scheduler", "Scheduler", "handle_node_repair",
     "sim.scheduler.handle_node_repair"),
    ("repro.sim.scheduler", "Scheduler", "submit_all",
     "sim.scheduler.submit_all"),
    ("repro.train.gang", "GangTrainingRun", "handle_node_failure",
     "train.gang.handle_node_failure"),
    ("repro.train.gang", "GangTrainingRun", "handle_node_repair",
     "train.gang.handle_node_repair"),
    ("repro.sim.repair", "RepairService", "submit", "sim.repair.submit"),
    ("repro.predict.forecast", "TbfForecaster", "quantile_hours",
     "predict.quantile_hours"),
)

#: Functions wrapped on one named holder module: (module, attr, span).
HOLDER_TARGETS = (
    ("repro.predict.forecast", "fit_distribution",
     "predict.fit_distribution"),
    ("repro.predict.forecast", "evaluate_forecaster",
     "predict.evaluate_forecaster"),
    ("repro.serve.app", "run_replications",
     "serve.simulate.run_replications"),
)

#: Functions wrapped on every loaded ``repro`` module holding them:
#: (defining module, attr, span).
EVERYWHERE_TARGETS = (
    ("repro.synth.generator", "generate_log", "synth.generate_log"),
    ("repro.train.montecarlo", "run_train_replications",
     "train.montecarlo.run_train_replications"),
)

ANALYSIS_NAMES = (
    "breakdown", "metrics", "spatial", "seasonal", "multigpu", "ettf",
)
SERVE_CLASSES = ("hit", "cold", "generate", "simulate")

#: Every per-layer metric with its unit.  ``*.calls`` are calls per op
#: and ``*.ms`` host busy milliseconds per op, except
#: ``serve.dispatch.<class>.ms`` (per request of that class) and
#: ``serve.transport.ms`` (per request).  On ``serve_mix`` an op is one
#: request.
PER_LAYER_UNITS: dict[str, str] = {
    "sim.cluster.available_nodes.calls": "calls/op",
    "sim.cluster.available_nodes.ms": "ms/op",
    "sim.scheduler.handle_node_failure.calls": "calls/op",
    "sim.scheduler.handle_node_failure.ms": "ms/op",
    "sim.scheduler.handle_node_repair.calls": "calls/op",
    "sim.scheduler.handle_node_repair.ms": "ms/op",
    "sim.scheduler.submit_all.ms": "ms/op",
    "sim.scheduler.jobs_completed": "jobs/op",
    "sim.scheduler.goodput_fraction": "ratio",
    "train.gang.handle_node_failure.calls": "calls/op",
    "train.gang.handle_node_failure.ms": "ms/op",
    "train.gang.handle_node_repair.calls": "calls/op",
    "train.gang.handle_node_repair.ms": "ms/op",
    "train.gang.interrupts": "count/op",
    "train.gang.ettr": "ratio",
    "train.montecarlo.run_train_replications.ms": "ms/op",
    "sim.engine.events": "events/op",
    "sim.engine.run_until.ms": "ms/op",
    "sim.engine.us_per_event": "us/event",
    "sim.self.ms": "ms/op",
    "sim.repair.submit.calls": "calls/op",
    "sim.repair.submit.ms": "ms/op",
    "sim.faults.injected": "count/op",
    "predict.fit_distribution.calls": "calls/op",
    "predict.fit_distribution.ms": "ms/op",
    "predict.quantile_hours.calls": "calls/op",
    "predict.quantile_hours.ms": "ms/op",
    "predict.evaluate_forecaster.ms": "ms/op",
    "synth.generate_log.calls": "calls/op",
    "synth.generate_log.ms": "ms/op",
    **{f"core.{name}.ms": "ms/op" for name in ANALYSIS_NAMES},
    **{f"serve.dispatch.{cls}.ms": "ms/request" for cls in SERVE_CLASSES},
    "serve.transport.ms": "ms/request",
    "serve.cache.hit_ratio": "ratio",
    "serve.coalesced": "count",
    "serve.admission.shed": "count",
    "serve.simulate.run_replications.ms": "ms/op",
    "parallel.pool.spawns": "count",
    "trace_overhead_pct": "%",
}


#: Raw spans kept in memory; later spans are counted in
#: ``dropped_spans`` but still aggregated.
MAX_SPANS = 200_000


class Tracer:
    """Install timing wrappers around the repro layers, then remove them.

    :meth:`install` and :meth:`uninstall` may alternate any number of
    times; spans and aggregates accumulate over every installed period.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, str | None]] = []
        self.dropped_spans = 0
        #: name -> [calls, busy seconds, self seconds]
        self.totals: dict[str, list[float]] = {}
        self.events = 0
        self.reports: list[Any] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def record(
        self, name: str, start: float, end: float,
        child_s: float = 0.0, parent: str | None = None,
    ) -> None:
        """Aggregate one finished span (thread-safe)."""
        busy = end - start
        with self._lock:
            entry = self.totals.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += busy
            entry[2] += busy - child_s
            if len(self.spans) < MAX_SPANS:
                self.spans.append((name, start, end, parent))
            else:
                self.dropped_spans += 1

    def _timed(
        self,
        original: Callable,
        name: str,
        probe: Callable[[tuple], int] | None = None,
        on_result: Callable[[Any], None] | None = None,
    ) -> Callable:
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            frame = [0.0, name]
            parent = stack[-1][1] if stack else None
            stack.append(frame)
            before = probe(args) if probe is not None else 0
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                if stack:
                    stack[-1][0] += end - start
                tracer.record(name, start, end, frame[0], parent)
            if probe is not None:
                tracer.events += probe(args) - before
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _patch(self, holder: Any, attr: str, replacement: Any) -> None:
        self._patches.append((holder, attr, holder.__dict__[attr]))
        setattr(holder, attr, replacement)

    # -- installation ------------------------------------------------------

    def install(
        self,
        analyses: dict[str, Callable] | None = None,
        app: Any = None,
        classify: Callable[[Any], str] | None = None,
    ) -> None:
        """Wrap every loaded target.

        Args:
            analyses: A holder dict of analysis functions (the
                workload's or a ``ReproApp`` instance's), wrapped per
                entry as ``core.<name>``.
            app: A ``ReproApp`` whose class ``dispatch`` is wrapped,
                with spans named ``serve.dispatch.<class>``.
            classify: Maps a request to its workload class.
        """
        modules = sys.modules
        for module, cls_name, method, name in CLASS_TARGETS:
            if module in modules:
                cls = getattr(modules[module], cls_name)
                self._patch(
                    cls, method, self._timed(cls.__dict__[method], name)
                )
        if "repro.sim.engine" in modules:
            engine_cls = modules["repro.sim.engine"].SimulationEngine
            self._patch(
                engine_cls, "run_until",
                self._timed(
                    engine_cls.__dict__["run_until"], "sim.engine.run_until",
                    probe=lambda args: args[0].processed,
                ),
            )
        if "repro.sim.simulator" in modules:
            sim_cls = modules["repro.sim.simulator"].ClusterSimulator
            self._patch(
                sim_cls, "run",
                self._timed(
                    sim_cls.__dict__["run"], "sim.simulator.run",
                    on_result=self.reports.append,
                ),
            )
        for module, attr, name in HOLDER_TARGETS:
            if module in modules:
                holder = modules[module]
                self._patch(
                    holder, attr, self._timed(getattr(holder, attr), name)
                )
        for module, attr, name in EVERYWHERE_TARGETS:
            if module not in modules:
                continue
            original = getattr(modules[module], attr)
            wrapped = self._timed(original, name)
            for mod_name, mod in list(modules.items()):
                if (
                    mod_name.split(".")[0] == "repro"
                    and mod.__dict__.get(attr) is original
                ):
                    self._patch(mod, attr, wrapped)
        if analyses is not None:
            for name in ANALYSIS_NAMES:
                if name in analyses:
                    self._patch_item(
                        analyses, name,
                        self._timed(analyses[name], f"core.{name}"),
                    )
        if app is not None:
            self._wrap_dispatch(type(app), classify)

    def _patch_item(self, holder: dict, key: str, value: Any) -> None:
        self._patches.append((holder, key, holder[key]))
        holder[key] = value

    def _wrap_dispatch(
        self, app_cls: type, classify: Callable[[Any], str]
    ) -> None:
        original = app_cls.__dict__["dispatch"]
        tracer = self

        @functools.wraps(original)
        async def dispatch(app, request):
            start = perf_counter()
            try:
                return await original(app, request)
            finally:
                tracer.record(
                    f"serve.dispatch.{classify(request)}",
                    start, perf_counter(),
                )

        self._patch(app_cls, "dispatch", dispatch)

    def uninstall(self) -> None:
        """Restore every original, newest patch first."""
        while self._patches:
            holder, attr, original = self._patches.pop()
            if isinstance(holder, dict):
                holder[attr] = original
            else:
                setattr(holder, attr, original)

    # -- export ------------------------------------------------------------

    def dump(self) -> dict[str, Any]:
        """Aggregates and raw spans, JSON-ready."""
        return {
            "totals": {
                name: {"calls": int(v[0]), "busy_s": v[1], "self_s": v[2]}
                for name, v in sorted(self.totals.items())
            },
            "dropped_spans": self.dropped_spans,
            "spans": [list(span) for span in self.spans],
        }


def layer_metrics(
    tracer: Tracer,
    ops: int,
    class_counts: dict[str, int],
    client_latency_s: float,
    counters: dict[str, float],
) -> dict[str, float]:
    """Per-layer metrics (see :data:`PER_LAYER_UNITS`) of the traced ops.

    Args:
        tracer: The tracer installed around the traced ops.
        ops: Traced ops completed.
        class_counts: Traced requests per serve class.
        client_latency_s: Sum of client-side traced op latencies.
        counters: Workload counter deltas over the traced ops
            (``cache_hits``, ``cache_misses``, ``coalesced``, ``shed``,
            ``pool_spawns``).
    """
    per_op = 1.0 / max(ops, 1)

    def calls(name: str) -> float:
        return tracer.totals.get(name, [0, 0.0, 0.0])[0] * per_op

    def ms(name: str) -> float:
        return tracer.totals.get(name, [0, 0.0, 0.0])[1] * 1000.0 * per_op

    metrics: dict[str, float] = {}
    for name in PER_LAYER_UNITS:
        if name.endswith(".calls"):
            metrics[name] = calls(name[: -len(".calls")])
        elif name.endswith(".ms"):
            # Names without a span of their own are set below.
            metrics[name] = ms(name[: -len(".ms")])
    run_until = tracer.totals.get("sim.engine.run_until", [0, 0.0, 0.0])
    metrics["sim.self.ms"] = run_until[2] * 1000.0 * per_op
    metrics["sim.engine.events"] = tracer.events * per_op
    metrics["sim.engine.us_per_event"] = (
        run_until[1] * 1e6 / tracer.events if tracer.events else 0.0
    )
    reports = tracer.reports
    sched = [r.scheduler for r in reports if r.scheduler is not None]
    train = [r.train for r in reports if r.train is not None]
    metrics["sim.faults.injected"] = (
        sum(r.failures_injected for r in reports) * per_op
    )
    metrics["sim.scheduler.jobs_completed"] = (
        sum(s.jobs_completed for s in sched) * per_op
    )
    metrics["sim.scheduler.goodput_fraction"] = (
        sum(s.goodput_fraction for s in sched) / len(sched) if sched
        else 0.0
    )
    metrics["train.gang.interrupts"] = (
        sum(t.interrupts for t in train) * per_op
    )
    metrics["train.gang.ettr"] = (
        sum(t.ettr for t in train) / len(train) if train else 0.0
    )
    dispatch_s = 0.0
    for cls in SERVE_CLASSES:
        entry = tracer.totals.get(f"serve.dispatch.{cls}", [0, 0.0, 0.0])
        dispatch_s += entry[1]
        metrics[f"serve.dispatch.{cls}.ms"] = (
            entry[1] * 1000.0 / entry[0] if entry[0] else 0.0
        )
    requests = sum(class_counts.get(cls, 0) for cls in SERVE_CLASSES)
    metrics["serve.transport.ms"] = (
        (client_latency_s - dispatch_s) * 1000.0 / requests
        if requests else 0.0
    )
    lookups = counters.get("cache_hits", 0) + counters.get("cache_misses", 0)
    metrics["serve.cache.hit_ratio"] = (
        counters.get("cache_hits", 0) / lookups if lookups else 0.0
    )
    metrics["serve.coalesced"] = counters.get("coalesced", 0)
    metrics["serve.admission.shed"] = counters.get("shed", 0)
    metrics["parallel.pool.spawns"] = counters.get("pool_spawns", 0)
    return metrics
