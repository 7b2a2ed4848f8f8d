"""evifuse benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Generates the workload's inputs (outside
the measurement), then runs the workload in a separate process with BLAS
pinned to one thread. The last line of standard output is the result:
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics of BENCHMARK.json with --trace 0, the
per-layer ones with --trace 1). Exits non-zero, printing no result, if
the checkout has no evifuse sources or the workload process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".perfbench_work"
WORKER_TIMEOUT_S = 170
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def child_env():
    env = dict(os.environ)
    env.update(PINNED)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    args = parser.parse_args()

    if not (ROOT / "src" / "evifuse" / "__init__.py").is_file():
        fail(f"no evifuse sources under {ROOT / 'src'}; run from a checkout's root")
    with open(ROOT / "BENCHMARK.json") as fh:
        names = [w["name"] for w in json.load(fh)["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r}; choose from {names}")
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    WORKDIR.mkdir(exist_ok=True)
    env = child_env()
    if args.workload == "ingest":
        with open(HERE / "reference.json") as fh:
            streams = len(json.load(fh)["ingest"]["streams"])
        index = args.seed % streams
        path = WORKDIR / f"ingest-{index}.csv"
        if not path.exists():
            subprocess.run([sys.executable, str(HERE / "inputs.py"), str(index), str(path)],
                           env=env, check=True, timeout=120)

    worker = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), args.workload, str(args.seed),
         str(args.seconds), args.trace],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    sys.stderr.write(worker.stderr)
    if worker.returncode:
        sys.stdout.write(worker.stdout)
        fail(f"workload process exited with {worker.returncode}")
    sys.stdout.write(worker.stdout)


if __name__ == "__main__":
    main()
