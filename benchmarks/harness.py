"""The one benchmark harness every ``benchmarks/perf_*.py`` runs on.

A perf module keeps only its workload code, its constants and its
summary lines; this module holds the rest:

* :func:`env_int` and :func:`selected_scales` — the environment knobs
  (``REPRO_BENCH_SCALES`` is read here and nowhere else);
* :func:`best_of` — best wall-clock of N calls;
* :func:`can_show_speedup` — the one gate for ``speedup_asserted``;
* :func:`meta` — the host and commit block every report carries;
* :func:`main` — run, attach ``meta``, write ``BENCH_<name>.json``,
  check it round-trips, append it to ``BENCH_history.jsonl`` and
  print the summary.

A perf module ends with::

    if __name__ == "__main__":
        harness.main("core", run_benchmark, summary_lines)
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import time
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.parallel import available_cpus

REPO_ROOT = Path(__file__).resolve().parent.parent
HISTORY_PATH = REPO_ROOT / "BENCH_history.jsonl"
SCHEMA = 2


def env_int(name: str, default: int) -> int:
    """Integer environment knob; ``default`` when unset or blank."""
    raw = os.environ.get(name, "").strip()
    return int(raw) if raw else default


def selected_scales(scales: dict[str, int]) -> dict[str, int]:
    """Scales to run, optionally restricted via ``REPRO_BENCH_SCALES``.

    The variable is a comma-separated list of multipliers (``"1"``,
    ``"1,10"``) or labels (``"1x,10x"``); CI smoke runs set it so the
    largest tier does not eat the build budget.
    """
    raw = os.environ.get("REPRO_BENCH_SCALES", "").strip()
    if not raw:
        return dict(scales)
    wanted = {
        token if token.endswith("x") else f"{token}x"
        for token in (t.strip() for t in raw.split(","))
        if token
    }
    selected = {
        label: factor
        for label, factor in scales.items()
        if label in wanted
    }
    if not selected:
        raise SystemExit(
            f"REPRO_BENCH_SCALES={raw!r} matches no known scale "
            f"(choose from {', '.join(scales)})"
        )
    return selected


def best_of(fn: Callable[[], Any], repeats: int = 3) -> tuple[float, Any]:
    """Best wall-clock of ``repeats`` calls, plus the last result."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def can_show_speedup(min_cpus: int) -> bool:
    """Whether this host has the schedulable cores to show a parallel
    speedup.  A ratio measured where this is false is still recorded,
    with ``speedup_asserted: false``, but never asserted."""
    return available_cpus() >= min_cpus


def _git(*args: str) -> str | None:
    try:
        done = subprocess.run(
            ["git", *args],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout if done.returncode == 0 else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def meta(name: str) -> dict:
    """Host and commit metadata for one report.

    ``git_dirty`` ignores the ``BENCH_*`` reports themselves, which a
    benchmark run rewrites as it goes.
    """
    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--", ".", ":(exclude)BENCH_*")
    return {
        "schema": SCHEMA,
        "benchmark": name,
        "git_sha": sha.strip() if sha else "unknown",
        "git_dirty": bool(status.strip()) if status is not None
        else "unknown",
        "timestamp": datetime.now(timezone.utc).isoformat(
            timespec="seconds"
        ),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "cpu_count": os.cpu_count() or 1,
        "available_cpus": available_cpus(),
        "cpu_model": _cpu_model(),
    }


def main(
    name: str,
    run_benchmark: Callable[[], dict],
    summary_lines: Callable[[dict], list[str]],
    *,
    report_dir: Path = REPO_ROOT,
    history_path: Path = HISTORY_PATH,
) -> dict:
    """Run one benchmark and record it; return the report.

    The report is ``{"meta": ..., **run_benchmark()}``.  It is written
    to ``report_dir/BENCH_<name>.json``, read back and compared, then
    appended as one line to ``history_path``.
    """
    report = {"meta": meta(name), **run_benchmark()}
    path = report_dir / f"BENCH_{name}.json"
    path.write_text(json.dumps(report, indent=2) + "\n")
    if json.loads(path.read_text()) != report:
        raise AssertionError(f"{path} does not round-trip its report")
    with history_path.open("a") as history:
        history.write(json.dumps(report, sort_keys=True) + "\n")
    for line in summary_lines(report):
        print(line)
    print(f"wrote {path}")
    return report
