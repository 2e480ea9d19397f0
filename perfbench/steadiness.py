"""Steadiness report: repeat workloads and measure run-to-run spread.

Usage (from the repository root)::

    python3 perfbench/steadiness.py            # every workload, 10 seeds
    python3 perfbench/steadiness.py --workloads analyst --runs 5

Each workload runs ``--runs`` times through ``run.py``, with seeds
``1 .. runs`` and ``run_seconds`` from ``BENCHMARK.json``.  Per
end-to-end metric it prints the median and the interquartile spread
relative to it (``statistics.quantiles(n=4)``), and flags a metric
whose spread exceeds a tenth or a third of its bound in
``BENCHMARK.json``; ``setup_s``, whose bound limits how far its median
may move rather than its spread, is flagged above a tenth only.  It
then reruns the first seed once and checks that ``output_digest``
repeats.  The report is also written to
``perfbench/results/steadiness.json``; the exit code is 1 if anything
was flagged or any run failed an output check.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    """One ``run.py`` run; returns its info and result objects."""
    done = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=True,
    )
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


def spread(values: list[float]) -> tuple[float, float]:
    """Median and interquartile range as a share of the median."""
    median = statistics.median(values)
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median if median else float("inf")


def main(argv: list[str] | None = None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in config["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)
    seconds = config["run_seconds"]
    seeds = list(range(1, args.runs + 1))
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    report: dict[str, dict] = {}
    flagged = False
    for workload in args.workloads.split(","):
        runs = [run_once(workload, seed, seconds) for seed in seeds]
        rerun_info, _ = run_once(workload, seeds[0], seconds)
        digest_ok = rerun_info["output_digest"] == runs[0][0]["output_digest"]
        correct = all(result["correct"] for _info, result in runs)
        rows = {}
        series = {
            name: [result["metrics"][name]["value"] for _i, result in runs]
            for name in bounds
        }
        p99 = [info["op_p99_ms"] for info, _r in runs if "op_p99_ms" in info]
        if len(p99) == len(runs):
            series["op_p99_ms (info)"] = p99
        for name, values in series.items():
            median, share = spread(values)
            limit = 0.1
            if name in bounds and name != "setup_s":
                limit = min(limit, bounds[name] / 3)
            flag = share > limit
            flagged |= flag
            rows[name] = {
                "median": median, "iqr_share": share, "flag": flag,
                "values": values,
            }
            print(
                f"{workload:14s} {name:18s} median {median:12.4f}  "
                f"spread {share:7.2%}  {'FLAG' if flag else 'ok'}"
            )
        print(
            f"{workload:14s} output_digest repeats: {digest_ok}; "
            f"all outputs correct: {correct}"
        )
        flagged |= not (digest_ok and correct)
        report[workload] = {
            "metrics": rows, "digest_repeats": digest_ok, "correct": correct,
            "seeds": seeds,
        }
    out = HERE / "results" / "steadiness.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(report, indent=2))
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
