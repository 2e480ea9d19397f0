"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sim_jobs --seed 1 --seconds 18 --trace 0

``--trace 0`` times a closed loop of ops for ``--seconds`` after set-up
and a warm-up, with nothing wrapped, and reports the end-to-end
metrics, corrected for the host's speed (see ``speed.py``): ops run in
blocks of at least ``BLOCK_S`` with a reference timing between each
two.  The timed loop runs in ``SETUP_PROBES + 1`` equal segments with
one set-up probe (a fresh process that sets up and exits) between each
two, so the set-up samples are spread over the run.  ``--trace 1``
runs a fixed schedule of ops that alternates untraced and traced ones
(see ``layers.py``), and reports the per-layer metrics plus
``trace_overhead_pct``.  The second-to-last stdout line is
``{"info": ...}`` (host, commit, ``output_digest``, ``error_rate``, the
op count and, on ``serve_mix``, ``op_p99_ms``); the last line is the
result object ``{"correct", "attempted", "failed", "metrics"}``.  Both
are also written to ``perfbench/results/``.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

from speed import (  # noqa: E402
    NOMINAL_SETUP_S,
    scale,
    time_reference,
    time_setup_reference,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

#: Never used while tuning the benchmark; check later claims on it.
HELD_OUT_SEED = 20211

#: Set-up samples per run: this process plus SETUP_PROBES children.
SETUP_PROBES = 3

#: Ops between two reference timings take at least this long in all
#: (one op, where an op takes longer).
BLOCK_S = 0.5

#: End-to-end metrics (reported with ``--trace 0``) and their units.
END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
}


def _process_start_age() -> float:
    """Seconds between this process's start and ``T0``."""
    try:
        with open("/proc/self/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        now = time.clock_gettime(time.CLOCK_BOOTTIME)
        return max(0.0, now - started - (time.perf_counter() - T0))
    except (OSError, ValueError, IndexError, AttributeError):
        return 0.0


def process_age() -> float:
    """Seconds since this process started (interpreter start included)."""
    return START_AGE + time.perf_counter() - T0


START_AGE = _process_start_age()


def pin_to_one_cpu() -> tuple[int | None, int | None]:
    """Pin this process, and the threads and children it starts, to one
    CPU; returns that CPU and the count schedulable before pinning.

    Every workload is one serial closed loop under the interpreter
    lock, so a second core buys nothing; what it adds is noise, as the
    in-thread server and its client hop between cores (sub-ms request
    latency moved by 15% from run to run when unpinned).
    """
    try:
        allowed = os.sched_getaffinity(0)
    except AttributeError:
        return None, os.cpu_count()
    cpu = max(allowed)
    try:
        os.sched_setaffinity(0, {cpu})
    except OSError:
        return None, len(allowed)
    return cpu, len(allowed)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in (0, 100]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def commit_info() -> dict[str, str | None]:
    """Git SHA when a ``.git`` directory is present, plus a digest of
    ``src/`` that identifies the code in any checkout."""
    sha = None
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            ref_file = git / ref
            if ref_file.is_file():
                sha = ref_file.read_text().strip()
            else:
                for line in (git / "packed-refs").read_text().splitlines():
                    if line.endswith(" " + ref):
                        sha = line.split()[0]
        else:
            sha = head
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {"git_sha": sha, "src_sha256": digest.hexdigest()}


def host_info(cpus: int | None) -> dict[str, object]:
    import numpy

    model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "schedulable_cpus": cpus,
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


class Tally:
    """Latencies and outcomes of one set of ops."""

    def __init__(self) -> None:
        self.indices: list[int] = []
        self.latencies: list[float] = []
        self.labels: list[str] = []
        self.failed = 0
        self.problems: list[str] = []
        self.wall_s = 0.0
        #: Latencies and wall time corrected for host speed (timed run).
        self.corrected: list[float] = []
        self.corrected_wall_s = 0.0
        self.references: list[float] = []

    def close_block(self, first: int, wall: float, factor: float) -> None:
        """Correct ops ``first ..`` and their wall time by ``factor``."""
        self.corrected += [x * factor for x in self.latencies[first:]]
        self.wall_s += wall
        self.corrected_wall_s += wall * factor


def timed_op(workload, index: int, tally: Tally, outputs: dict) -> None:
    """Run op ``index`` once into ``tally``.

    ``outputs`` maps each op index to the SHA-256 of its output; an op
    whose output differs from an earlier run of the same index (traced
    and untraced runs of one input) fails.
    """
    begin = time.perf_counter()
    try:
        label, output, errors = workload.run_op(index)
    except Exception as error:  # an op failure, counted and reported
        label, output, errors = "error", b"", [repr(error)]
    tally.latencies.append(time.perf_counter() - begin)
    tally.indices.append(index)
    tally.labels.append(label)
    sha = hashlib.sha256(output).digest()
    if outputs.setdefault(index, sha) != sha:
        errors = [*errors, "output differs from an earlier run of this input"]
    if errors:
        tally.failed += 1
        if len(tally.problems) < 20:
            tally.problems.extend(f"op {index}: {e}" for e in errors[:3])


def output_digest(outputs: dict, digest_ops: int) -> str:
    """SHA-256 over the output hashes of ops ``0 .. digest_ops - 1``."""
    digest = hashlib.sha256()
    for index in range(digest_ops):
        digest.update(outputs[index])
    return digest.hexdigest()


def probe_setup(args) -> tuple[float, float]:
    """Set up once more in a fresh process; its raw and corrected
    set-up times."""
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--setup-probe",
    ] + (["--tiny"] if args.tiny else [])
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=60,
        check=True,
    )
    raw, corrected = json.loads(done.stdout.splitlines()[-1])["setup_s"]
    return raw, corrected


def timed_run(workload, args, outputs: dict, before: float):
    """The ``--trace 0`` loop: ``--seconds`` of ops in segments, with a
    set-up probe between each two; returns the tally and the probes'
    ``(raw, corrected)`` set-up times.

    Each block of ops lies between two reference timings, which give
    its speed correction; ``before`` is the one just taken.  Segment ``k``
    ends once the loop, references included, has run ``k + 1``
    segments' worth of time in all, so a block that overruns one
    segment shortens the next, and the whole loop overruns
    ``--seconds`` by less than a block and a reference.
    """
    tally = Tally()
    tally.references.append(before)
    samples = []
    segment_s = args.seconds / (SETUP_PROBES + 1)
    index = 0
    elapsed = 0.0
    for segment in range(SETUP_PROBES + 1):
        start = time.perf_counter()
        while (
            index < workload.digest_ops
            or elapsed + time.perf_counter() - start
            < (segment + 1) * segment_s
        ):
            first = len(tally.latencies)
            block_start = time.perf_counter()
            while True:
                timed_op(workload, index, tally, outputs)
                index += 1
                if time.perf_counter() - block_start >= BLOCK_S:
                    break
            wall = time.perf_counter() - block_start
            after = time_reference()
            tally.references.append(after)
            tally.close_block(first, wall, scale(before, after))
            before = after
        elapsed += time.perf_counter() - start
        if segment < SETUP_PROBES:
            samples.append(probe_setup(args))
            before = time_reference()
            tally.references.append(before)
    return tally, samples


def trace_ratio(plain: Tally, traced: Tally) -> float:
    """Traced over untraced op latency.

    Where every input ran both ways, the median of the per-input
    ratios, which cancels input cost; otherwise the ratio of the two
    medians.
    """
    plain_at = dict(zip(plain.indices, plain.latencies))
    traced_at = dict(zip(traced.indices, traced.latencies))
    if plain_at.keys() == traced_at.keys():
        return statistics.median(traced_at[i] / plain_at[i] for i in plain_at)
    return statistics.median(traced.latencies) / statistics.median(
        plain.latencies
    )


def traced_run(workload, seconds: float, outputs: dict):
    """The ``--trace 1`` schedule: untraced and traced ops alternate, so
    host drift falls on both alike; returns both tallies, the tracer
    and the workload counter deltas over the traced ops."""
    from layers import Tracer

    tracer = Tracer()
    plain, traced = Tally(), Tally()
    deltas: Counter = Counter()
    before: dict[str, float] = {}
    active = False

    def switch(on: bool) -> None:
        nonlocal active, before
        if on:
            before = workload.counters()
            tracer.install(**workload.trace_hooks())
        else:
            tracer.uninstall()
            after = workload.counters()
            deltas.update({k: after[k] - before[k] for k in after})
        active = on

    try:
        for index, on in workload.trace_schedule(seconds):
            if on != active:
                switch(on)
            timed_op(workload, index, traced if on else plain, outputs)
    finally:
        if active:
            switch(False)
    return plain, traced, tracer, deltas


def metric(value: float, unit: str) -> dict[str, object]:
    return {"value": value, "unit": unit}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true",
        help="smallest inputs (smoke test); figures are not comparable",
    )
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # Exit through the finally blocks on SIGTERM, so that the server
    # thread stops and subprocess.run kills a running probe.
    signal.signal(signal.SIGTERM, lambda _sig, _frame: sys.exit(143))

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    pinned, schedulable = pin_to_one_cpu()
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from layers import PER_LAYER_UNITS, layer_metrics
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r} "
              f"(known: {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed, tiny=args.tiny)
    try:
        # Set-up lies between two set-up reference timings; the first
        # one's own time is taken out of it.
        reference_start = time_setup_reference()
        workload.setup()
        workload.warm_up()
        setup_raw = process_age() - reference_start
        reference_end = time_setup_reference()
        setup_self = (
            setup_raw,
            setup_raw * scale(reference_start, reference_end, NOMINAL_SETUP_S),
        )
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_self}))
            return 0
        info: dict[str, object] = {
            "workload": args.workload,
            "seed": args.seed,
            "held_out_seed": HELD_OUT_SEED,
            "seconds": args.seconds,
            "trace": args.trace,
            "tiny": args.tiny,
            "pinned_cpu": pinned,
        }
        outputs: dict[int, bytes] = {}
        if args.trace:
            plain, traced, tracer, deltas = traced_run(
                workload, args.seconds, outputs
            )
            if "pool_spawns" in deltas:
                # Spawns over the whole process: set-up must not spawn
                # either.
                deltas["pool_spawns"] = workload.counters()["pool_spawns"]
            values = layer_metrics(
                tracer, len(traced.latencies), Counter(traced.labels),
                sum(traced.latencies), deltas,
            )
            values["trace_overhead_pct"] = 100.0 * (
                trace_ratio(plain, traced) - 1.0
            )
            metrics = {
                name: metric(values[name], unit)
                for name, unit in PER_LAYER_UNITS.items()
            }
            tallies = [plain, traced]
            info["traced_ops"] = len(traced.latencies)
            trace_dump = tracer.dump()
            # Where the time went: each span's busy time minus its
            # wrapped children, largest first.
            self_ms = sorted(
                (
                    (entry["self_s"] * 1000.0 / len(traced.latencies), name)
                    for name, entry in trace_dump["totals"].items()
                ),
                reverse=True,
            )
            info["self_ms_per_op"] = {name: ms for ms, name in self_ms[:10]}
        else:
            timed, probes = timed_run(
                workload, args, outputs, time_reference()
            )
            setup_samples = [setup_self, *probes]
            tallies = [timed]
            trace_dump = None
    finally:
        workload.close()

    attempted = sum(len(t.latencies) for t in tallies)
    failed = sum(t.failed for t in tallies)
    first = tallies[0]
    latencies = first.latencies
    info["ops"] = len(latencies)
    info["output_digest"] = output_digest(outputs, workload.digest_ops)
    info["error_rate"] = failed / attempted
    info["problems"] = [x for t in tallies for x in t.problems][:20]
    if len(latencies) >= 1000:
        info["op_p99_ms"] = percentile(first.corrected or latencies, 99) * 1e3
    by_class: dict[str, list[float]] = {}
    for label, latency in zip(first.labels, latencies):
        by_class.setdefault(label, []).append(latency)
    info["classes"] = {
        label: {"ops": len(values),
                "min_ms": min(values) * 1000.0,
                "p10_ms": percentile(values, 10) * 1000.0,
                "p50_ms": statistics.median(values) * 1000.0,
                "max_ms": max(values) * 1000.0}
        for label, values in sorted(by_class.items())
    }
    if not args.trace:
        raw_setup = [raw for raw, _corrected in setup_samples]
        info["setup_samples_s"] = [c for _raw, c in setup_samples]
        info["reference_ms"] = {
            "median": statistics.median(first.references) * 1000.0,
            "min": min(first.references) * 1000.0,
            "max": max(first.references) * 1000.0,
            "count": len(first.references),
        }
        info["raw"] = {
            "setup_s": statistics.median(raw_setup),
            "setup_samples_s": raw_setup,
            "ops_per_s": len(latencies) / first.wall_s,
            "op_p50_ms": statistics.median(latencies) * 1000.0,
        }
        if len(latencies) >= 1000:
            info["raw"]["op_p99_ms"] = percentile(latencies, 99) * 1000.0
        values = {
            "setup_s": statistics.median(info["setup_samples_s"]),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ops_per_s": len(latencies) / first.corrected_wall_s,
            "op_p50_ms": statistics.median(first.corrected) * 1000.0,
        }
        metrics = {
            name: metric(values[name], unit)
            for name, unit in END_TO_END_UNITS.items()
        }
    info["host"] = host_info(schedulable)
    info["commit"] = commit_info()
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record = {"info": info, "result": result}
    if trace_dump is not None:
        record["trace"] = trace_dump
    out.write_text(json.dumps(record))
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
