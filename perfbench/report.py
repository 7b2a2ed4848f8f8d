"""Run workloads over several seeds and print every metric with its spread.

    python3 perfbench/report.py [--workloads ingest,infer] [--seeds 1,2,3]
                                [--trace 0|1] [--seconds N]

Defaults: every workload of BENCHMARK.json, seeds 1-3, untraced, the
declared run_seconds. For each workload and metric it prints the median
over the seeds, the quartile spread as a share of the median (Python's
``statistics.quantiles(values, n=4)``) and, for end-to-end metrics, the
bound. Untraced, a spread over a third of its bound is flagged (setup_s
is exempt: only its median is compared between commits). Failed
operations are counted per run. Exits 1 if any run is not correct.
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


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: run.py exited with {proc.returncode}")
    for line in lines[:-1]:
        if line.startswith(("FAILED", "# env")) or "passes" in line:
            print(f"  {workload} seed {seed}: {line}")
    return json.loads(lines[-1])


def spread(values):
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / abs(median)


def main():
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1,2,3")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    seeds = [int(s) for s in args.seeds.split(",")]

    all_correct = True
    for workload in args.workloads.split(","):
        results = [run_once(workload, seed, args.seconds, args.trace) for seed in seeds]
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        all_correct &= all(r["correct"] for r in results)
        print(f"== {workload}: {len(seeds)} runs, {attempted} operations, {failed} failed, "
              f"{'all correct' if all(r['correct'] for r in results) else 'NOT CORRECT'}")
        for metric in declared:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in results]
            median, share = spread(values)
            line = f"  {name:<30} {median:>14.6g} {metric['unit']:<6} spread {share:7.2%}"
            if "bound" in metric:
                flag = ""
                if name != "setup_s" and share > metric["bound"] / 3:
                    flag = "  <-- over a third of the bound"
                line += f"  bound {metric['bound']:.0%}{flag}"
            print(line, flush=True)
    sys.exit(0 if all_correct else 1)


if __name__ == "__main__":
    main()
