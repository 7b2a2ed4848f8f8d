"""The measured process: runs one workload and prints its result.

Started by run.py with BLAS pinned to one thread, so this process runs
nothing but the workload and its peak RSS is the workload's own.

    python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

import checks
import selftest
import tracing
from workloads import GRADCHECK_MODULES, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".perfbench_work"
COVERAGE_FLOOR_PCT = 95.0  # per-layer self times must cover this share of wall time
SETUP_SAMPLES = 8
IMPORT_PROBE = ("import time; t = time.perf_counter(); import evifuse; "
                "print(time.perf_counter() - t)")


def load_evifuse():
    sys.path.insert(0, str(ROOT / "src"))
    import evifuse
    import evifuse.network
    import evifuse.verify

    if Path(evifuse.__file__).resolve().parent != ROOT / "src" / "evifuse":
        raise RuntimeError(f"evifuse imported from {evifuse.__file__}, not this checkout")
    return evifuse


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ.get(v) for v in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


class Loop:
    """Whole passes over a workload's operations, timed one operation at a time."""

    def __init__(self, workload, tracer=None, setup_timer=None):
        self.workload = workload
        self.tracer = tracer
        self.setup_timer = setup_timer
        self.elapsed = 0.0
        self.units = 0
        self.latencies_ms = []
        self.attempted = 0
        self.failures = []
        self.passes = 0
        self.pass_seconds = []
        self.pass_counts = []  # traced runs: per-pass snapshot of exact counts

    def run_pass(self):
        tracer = self.tracer
        before = exact_counts(tracer) if tracer else None
        elapsed_before = self.elapsed
        for op in self.workload.ops():
            self.attempted += 1
            start = time.perf_counter()
            try:
                if tracer:
                    with tracer.region():
                        out = op.run()
                else:
                    out = op.run()
            except Exception as exc:  # a failed operation is counted, not fatal
                self.elapsed += time.perf_counter() - start
                self.failures.append(f"{type(exc).__name__}: {exc}")
                continue
            took = time.perf_counter() - start
            self.elapsed += took
            self.units += op.units
            self.latencies_ms.append(took * 1000.0 / op.items)
            problems = op.check(out)
            if problems:
                self.failures.append("; ".join(problems))
            del out  # freed outside the clock
            if self.setup_timer:
                self.setup_timer.maybe_sample(self.elapsed)
        self.passes += 1
        self.pass_seconds.append(self.elapsed - elapsed_before)
        if tracer:
            after = exact_counts(tracer)
            self.pass_counts.append({k: after[k] - before.get(k, 0) for k in after})

    def run_for(self, seconds):
        """Whole passes until the timed total is as close to ``seconds`` as passes allow."""
        while self.passes == 0 or self.elapsed + self.elapsed / self.passes / 2 < seconds:
            self.run_pass()


def exact_counts(tracer):
    counts = {f"{name}.calls": n for name, n in tracer.calls.items()
              if name.startswith("ops.")}
    counts["events.window_calls"] = tracer.calls.get("events.window", 0)
    counts["tensor.backward_calls"] = tracer.calls.get("tensor.Tape.backward", 0)
    for name in ("encoding.events_encoded", "tensor.tape_records", "gradcheck.probes"):
        counts[name] = tracer.counts.get(name, 0)
    return counts


def timed_setup(workload):
    start = time.perf_counter()
    workload.setup()
    return time.perf_counter() - start


class SetupTimer:
    """setup_s samples spread over the run, so they see the machine the loop sees.

    Every ``seconds / SETUP_SAMPLES`` of timed work it times ``import evifuse``
    in a fresh interpreter and, unless the workload opts out, one set-up of a
    fresh workload instance (the running one is left alone).
    """

    def __init__(self, make_workload, first_setup_s, seconds):
        self.make_workload = make_workload
        self.imports = []
        self.setups = [first_setup_s]
        self.every = seconds / SETUP_SAMPLES
        self.next_at = 0.0

    def maybe_sample(self, elapsed):
        if elapsed < self.next_at or len(self.imports) >= SETUP_SAMPLES:
            return
        self.next_at = elapsed + self.every
        probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, check=True,
                               capture_output=True, text=True, timeout=60)
        self.imports.append(float(probe.stdout))
        workload = self.make_workload()
        if workload.repeat_setup:
            self.setups.append(timed_setup(workload))

    def seconds(self):
        return statistics.median(self.imports) + statistics.median(self.setups)


def end_to_end(loop, setup_s):
    p90 = statistics.quantiles(loop.latencies_ms, n=10, method="inclusive")[8]
    return {
        "setup_s": (setup_s, "s"),
        # every pass does the same work, so the median pass gives the rate
        "rate_per_s": (loop.units / loop.passes / statistics.median(loop.pass_seconds), "1/s"),
        "op_ms_p50": (statistics.median(loop.latencies_ms), "ms"),
        "op_ms_p90": (p90, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def memory_probe_mb(workload):
    """tracemalloc peak above the starting level while one operation runs."""
    op = workload.probe_op()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        op.run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - base) / 2**20


def per_layer(setup_tracer, tracer, passes, untraced_ms, traced_ms, tape_peak_mb):
    ms = 1000.0 / passes
    inc = tracer.inclusive
    calls = tracer.calls
    metrics = {}

    def put(name, value, unit):
        metrics[name] = (value, unit)

    put("events.parse_ms", setup_tracer.inclusive["events.parse_events"] * 1000, "ms")
    put("events.parsed", setup_tracer.counts["events.parsed"], "count")
    put("events.window_ms", inc["events.window"] * ms, "ms")
    put("events.window_calls", calls["events.window"] / passes, "count")
    put("encoding.encode_ms", inc["encoding.encode"] * ms, "ms")
    put("encoding.events_encoded", tracer.counts["encoding.events_encoded"] / passes, "count")
    scenes = setup_tracer.calls["synth.synth_scene"]
    put("synth.scene_ms", setup_tracer.inclusive["synth.synth_scene"] * 1000 / max(scenes, 1), "ms")
    put("synth.events_generated", setup_tracer.counts["synth.events_generated"], "count")
    inits = setup_tracer.calls["network.Model.__init__"]
    put("network.model_init_ms",
        setup_tracer.inclusive["network.Model.__init__"] * 1000 / max(inits, 1), "ms")
    put("network.fwd_ms", inc["network.Model.forward"] * ms, "ms")
    for stage, fn in (("aefrm", "refine.refine_forward"), ("encoders", "network.encode_stages"),
                      ("marm", "recalibrate.recalibrate"), ("mgfm", "fusion.fusion_forward"),
                      ("decoder", "network.decode")):
        put(f"{stage}.fwd_ms", inc[fn] * ms, "ms")
    for name in tracing.LAYERS["ops"]:
        put(f"{name}.ms", inc[name] * ms, "ms")
        put(f"{name}.calls", calls[name] / passes, "count")
    backwards = calls["tensor.Tape.backward"]
    put("tensor.backward_ms", inc["tensor.Tape.backward"] * ms, "ms")
    put("tensor.tape_records", tracer.counts["tensor.tape_records"] / max(backwards, 1), "count")
    put("tensor.tape_peak_mb", tape_peak_mb, "MB")
    probes = tracer.counts["gradcheck.probes"]
    put("gradcheck.probes", probes / passes, "count")
    put("gradcheck.probe_ms", inc["gradcheck.check_param"] * 1000 / max(probes, 1), "ms")
    for module in GRADCHECK_MODULES:
        name = f"verify.run_checks.{module}"
        put(f"verify.{module}_s", inc[name] / max(calls[name], 1), "s")

    layer_self = dict.fromkeys(list(tracing.LAYERS) + ["harness"], 0.0)
    for name, value in tracer.self_time.items():
        layer_self[tracing.layer_of(name)] += value
    for layer in tracing.LAYERS:
        put(f"self.{layer}_ms", layer_self[layer] * ms, "ms")
    put("self.unattributed_ms", layer_self["harness"] * ms, "ms")
    wall = inc[tracing.HARNESS]
    put("trace.coverage_pct", 100.0 * (wall - layer_self["harness"]) / wall, "%")
    put("trace.overhead_pct", 100.0 * (traced_ms - untraced_ms) / untraced_ms, "%")
    return metrics


def source_digest():
    """Digest of the program and of this benchmark, which together fix the counts."""
    h = hashlib.sha256()
    for path in sorted(glob.glob(str(ROOT / "src" / "evifuse" / "*.py"))
                       + glob.glob(str(HERE / "*.py"))):
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def count_problems(workload, loop):
    """Exact counts must repeat: across passes, across runs, and against the
    probe count the untraced run's rate is computed from."""
    problems = []
    first = loop.pass_counts[0]
    if any(c != first for c in loop.pass_counts[1:]):
        problems.append("exact counts differ between passes")
    if workload.name == "gradcheck":
        expected = sum(op.units for op in workload.ops())
        problems += checks.check_count("gradcheck probes per pass", first["gradcheck.probes"],
                                       expected)
    path = WORKDIR / f"counts-{workload.name}-{workload.seed}-{source_digest()}.json"
    if path.exists():
        with open(path) as fh:
            earlier = json.load(fh)
        changed = sorted(k for k in set(earlier) | set(first) if earlier.get(k) != first.get(k))
        if changed:
            problems.append(f"exact counts differ from an earlier run: {changed}")
    else:
        with open(path, "w") as fh:
            json.dump(first, fh, sort_keys=True)
    return problems


def emit(spec_metrics, measured, loop, extra_problems, env):
    missing = [m["name"] for m in spec_metrics if m["name"] not in measured]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    problems = loop.failures + extra_problems
    for problem in problems[:20]:
        print(f"FAILED: {problem}")
    print("# env " + json.dumps(env, sort_keys=True))
    metrics = {}
    for m in spec_metrics:
        value, unit = measured[m["name"]]
        if unit != m["unit"]:
            raise RuntimeError(f"{m['name']} measured in {unit}, declared {m['unit']}")
        metrics[m["name"]] = {"value": float(value), "unit": unit}
        print(f"{m['name']:<30} {float(value):>14.6g} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": loop.attempted,
        "failed": len(loop.failures),
        "metrics": metrics,
    }))


def main():
    name, seed, seconds, trace = sys.argv[1], int(sys.argv[2]), float(sys.argv[3]), sys.argv[4]
    evifuse = load_evifuse()
    with open(HERE / "reference.json") as fh:
        reference = json.load(fh)
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    env = environment()
    problems = [f"checker self-test: {p}" for p in selftest.run()]
    def make_workload():
        return WORKLOADS[name](evifuse, reference, seed, WORKDIR)

    workload = make_workload()
    print(f"workload {name}, seed {seed}, {'traced' if trace == '1' else 'untraced'}")

    if trace == "0":
        setup_timer = SetupTimer(make_workload, timed_setup(workload), seconds)
        workload.probe_op().run()  # warm-up: lazily filled caches, first-touch pages
        loop = Loop(workload, setup_timer=setup_timer)
        loop.run_for(seconds)
        measured = end_to_end(loop, setup_timer.seconds())
        problems += workload.input_problems()
        print(f"{loop.passes} passes, {loop.attempted} operations, "
              f"{loop.elapsed:.3f} s measured")
        emit(spec["end_to_end"], measured, loop, problems, env)
        return

    setup_tracer = tracing.Tracer()
    undo = tracing.install(setup_tracer)
    workload.setup()
    tracing.uninstall(undo)
    workload.probe_op().run()  # warm-up
    # untraced and traced passes alternate, so drift affects both alike
    untraced = Loop(workload)
    tracer = tracing.Tracer()
    loop = Loop(workload, tracer)
    while (untraced.passes == 0
           or untraced.elapsed + untraced.elapsed / untraced.passes / 2 < seconds / 2):
        untraced.run_pass()
        undo = tracing.install(tracer)
        try:
            loop.run_pass()
        finally:
            tracing.uninstall(undo)
    tape_peak_mb = memory_probe_mb(workload)
    loop.attempted += untraced.attempted
    loop.failures += untraced.failures
    untraced_ms = statistics.median(untraced.pass_seconds) * 1000
    traced_ms = statistics.median(loop.pass_seconds) * 1000
    measured = per_layer(setup_tracer, tracer, loop.passes, untraced_ms, traced_ms,
                         tape_peak_mb)
    coverage = measured["trace.coverage_pct"][0]
    if coverage < COVERAGE_FLOOR_PCT:
        problems.append(f"layer self times cover {coverage:.2f}% of wall time "
                        f"(< {COVERAGE_FLOOR_PCT}%)")
    problems += count_problems(workload, loop) + workload.input_problems()
    print(f"{loop.passes} traced passes: untraced {untraced_ms:.3f} ms/pass, traced "
          f"{traced_ms:.3f} ms/pass, tracing overhead {traced_ms - untraced_ms:+.3f} ms/pass; "
          f"self-time coverage {coverage:.3f}% (floor {COVERAGE_FLOOR_PCT}%); "
          f"{len(tracer.spans)} spans")
    WORKDIR.mkdir(exist_ok=True)
    with open(WORKDIR / f"spans-{name}.jsonl", "w") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
    emit(spec["per_layer"], measured, loop, problems, env)


if __name__ == "__main__":
    main()
