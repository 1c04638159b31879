"""Benchmark of mptspec: four closed-loop workloads, untraced or traced.

Run from the root of a checkout (the library is imported from ./src):

    python3 perfbench/run.py --workload oracle_battery --seed 1 --seconds 25 --trace 0

One client runs one op at a time, back to back, in this single-threaded
process, with the BLAS thread pools capped at the number of usable CPUs.  A
run covers whole cycles of the workload's input set.  Each op is checked
outside the timed region.

--trace 0 reports the end-to-end metrics: setup_s (median over fresh
processes that import mptspec, build the inputs and run one warm-up op),
ops_per_s, op_p50_ms, op_p90_ms and peak_rss_mb.  --trace 1 first runs
half the time untraced, then installs the tracer (perfbench/layertrace.py) and
runs the other half traced; it reports the per-layer metrics, the tracing
overhead and the bypass self-check, and writes the spans to perfbench/out/.

--workload all runs every workload in turn and prints one table.
--repeat-check runs the traced benchmark twice with one seed and checks
that every count metric repeats exactly.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")
WORKLOAD_NAMES = (
    "oracle_battery", "sphere_pipeline", "transient_convolution", "pole_residue_plane",
)
SETUP_SAMPLES = 3
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)

END_TO_END = (
    # name, unit, better
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("op_p50_ms", "ms", "lower"),
    ("op_p90_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)
SETUP_METRICS = (
    ("setup.import_ms", "ms", "lower"),
    ("setup.inputs_ms", "ms", "lower"),
    ("setup.warmup_ms", "ms", "lower"),
)
TRACE_METRICS = (
    ("trace.untraced_ops_per_s", "1/s", "higher"),
    ("trace.traced_ops_per_s", "1/s", "higher"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.spans_per_op", "count", "lower"),
    ("trace.bypass_violations", "count", "lower"),
)


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def import_library():
    """Import mptspec from this checkout's src/, never from anywhere else."""
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import mptspec

    import_ms = (time.perf_counter() - start) * 1e3
    if os.path.dirname(os.path.dirname(os.path.abspath(mptspec.__file__))) != SRC:
        raise SystemExit(f"error: imported mptspec from {mptspec.__file__}, not {SRC}")
    return import_ms


def _git(*args) -> str | None:
    try:
        proc = subprocess.run(
            ["git", "-C", ROOT, *args], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(args) -> dict:
    import numpy
    import scipy

    # a checkout that is not itself a git repository reports no commit, even
    # when it sits inside another repository
    top = _git("rev-parse", "--show-toplevel")
    own = top is not None and os.path.realpath(top) == os.path.realpath(ROOT)
    commit = _git("rev-parse", "HEAD") if own else None
    status = _git("status", "--porcelain", "--untracked-files=no") if own else None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": commit,
        "git_dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": nproc(),
        "blas_thread_cap": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "setup_samples": SETUP_SAMPLES,
        "loadavg_start": list(os.getloadavg()),
    }


# ---------------------------------------------------------------------------
# set-up: a fresh process imports mptspec, builds the inputs and runs one op


def setup_probe(args) -> None:
    """Child process: time import, inputs and warm-up, print them as JSON."""
    import_ms = import_library()
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=OUT, prefix="setup-")
    try:
        start = time.perf_counter()
        items = workload.build(args.seed, workdir)
        inputs_ms = (time.perf_counter() - start) * 1e3
        start = time.perf_counter()
        error = workload.check(items[0], workload.run(items[0]))
        warmup_ms = (time.perf_counter() - start) * 1e3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"import_ms": import_ms, "inputs_ms": inputs_ms,
                      "warmup_ms": warmup_ms, "error": error}), flush=True)


def measure_setup(args) -> dict:
    samples = []
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            wall = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if code != 0 or not line:
            raise SystemExit(f"error: set-up probe exited with {code}")
        probe = json.loads(line)
        if probe["error"]:
            raise SystemExit(f"error: warm-up op failed its check: {probe['error']}")
        samples.append({"setup_s": wall, **probe})
    return {
        key: statistics.median(s[key] for s in samples)
        for key in ("setup_s", "import_ms", "inputs_ms", "warmup_ms")
    }


# ---------------------------------------------------------------------------
# measurement


class Samples:
    """Latencies and failures of the ops of one kind of cycle."""

    def __init__(self):
        self.latencies_ns: list[int] = []
        self.failures: list[str] = []
        self.cycles = 0

    @property
    def attempted(self) -> int:
        return len(self.latencies_ns)

    def ops_per_s(self) -> float:
        ok = self.attempted - len(self.failures)
        return ok / (sum(self.latencies_ns) / 1e9)

    def quantiles_ms(self) -> tuple[float, float, int]:
        ms = [x / 1e6 for x in self.latencies_ns]
        if len(ms) == 1:
            return ms[0], ms[0], 0
        deciles = statistics.quantiles(ms, n=10, method="inclusive")
        p90 = deciles[8]
        return deciles[4], p90, sum(x > p90 for x in ms)


def run_cycles(workload, items, seconds: float, tracer=None) -> tuple[Samples, Samples]:
    """Run whole cycles of ops back to back for about ``seconds``.

    With a tracer, cycles alternate between untraced and traced, so that
    drift in the machine's speed falls on both halves alike.
    """
    plain, traced = Samples(), Samples()
    gc.collect()
    start = time.perf_counter()
    while True:
        cycle_start = time.perf_counter()
        use = tracer if tracer is not None and plain.cycles > traced.cycles else None
        samples = traced if use is not None else plain
        for item in items:
            _one_op(workload, item, use, samples)
        samples.cycles += 1
        now = time.perf_counter()
        # stop where the next cycle would overrun by more than half, and
        # only once both halves of a traced run hold as many cycles
        done = now - start + (now - cycle_start) / 2 >= seconds
        if done and (tracer is None or traced.cycles == plain.cycles):
            break
    return plain, traced


def _one_op(workload, item, tracer, samples: Samples) -> None:
    error = None
    if tracer is not None:
        tracer.begin_op()
    start = time.perf_counter_ns()
    try:
        result = workload.run(item)
    except Exception as exc:  # an op that raises is a failed op, not a crash
        error = f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter_ns() - start
    if tracer is not None:
        tracer.end_op()
    samples.latencies_ns.append(elapsed)
    if error is None:
        try:
            error = workload.check(item, result)
        except Exception as exc:
            error = f"check raised {type(exc).__name__}: {exc}"
    if error is not None:
        samples.failures.append(error)


def run_workload(args) -> dict:
    setup = measure_setup(args)
    prov = provenance(args)
    import_library()
    import layertrace as tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=OUT, prefix="work-")
    try:
        items = workload.build(args.seed, workdir)
        workload.check(items[0], workload.run(items[0]))  # warm-up
        tracer = None
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
        plain, traced = run_cycles(workload, items, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = plain.attempted + traced.attempted
    failures = plain.failures + traced.failures
    violations = []
    notes = []
    if not args.trace:
        p50, p90, beyond = plain.quantiles_ms()
        values = {
            "setup_s": setup["setup_s"],
            "ops_per_s": plain.ops_per_s(),
            "op_p50_ms": p50,
            "op_p90_ms": p90,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
        samples = {name: plain.attempted for name, _, _ in END_TO_END}
        samples["setup_s"] = SETUP_SAMPLES
        notes.append(f"op latencies: {plain.attempted} ops in {plain.cycles} cycles, "
                     f"{beyond} beyond p90; error_frac = {len(failures)}/{attempted}")
    else:
        violations = tracer.bypass_violations(workload.stresses, workload.bypasses)
        values = tracer.metrics()
        values.update({
            "setup.import_ms": setup["import_ms"],
            "setup.inputs_ms": setup["inputs_ms"],
            "setup.warmup_ms": setup["warmup_ms"],
            "trace.untraced_ops_per_s": plain.ops_per_s(),
            "trace.traced_ops_per_s": traced.ops_per_s(),
            "trace.overhead_frac": 1.0 - traced.ops_per_s() / plain.ops_per_s(),
            "trace.spans_per_op": len(tracer.span_name) / traced.attempted,
            "trace.bypass_violations": float(len(violations)),
        })
        units = tracing.LAYER_METRICS + SETUP_METRICS + TRACE_METRICS
        samples = {name: traced.attempted for name, _, _ in units}
        samples.update({name: SETUP_SAMPLES for name, _, _ in SETUP_METRICS})
        samples["trace.untraced_ops_per_s"] = plain.attempted
        spans_path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.npz")
        tracer.save(spans_path)
        notes.append(f"traced {traced.attempted} ops in {traced.cycles} cycles, "
                     f"untraced {plain.attempted} ops in {plain.cycles} cycles; "
                     f"spans written to {os.path.relpath(spans_path, ROOT)}")
        notes.append("bypass self-check: " + ("pass" if not violations else "; ".join(violations)))

    prov["loadavg_end"] = list(os.getloadavg())
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in units}
    result = {
        "correct": not failures and not violations,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    record = {**result, "samples": samples, "provenance": prov,
              "failures": failures[:20], "bypass_violations": violations, "notes": notes}
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w") as handle:
        json.dump(record, handle, indent=2)

    print("provenance: " + json.dumps(prov))
    for note in notes:
        print(note)
    for failure in failures[:20]:
        print(f"FAILED: {failure}")
    for violation in violations:
        print(f"FAILED bypass self-check: {violation}")
    for metric, unit, _ in units:
        print(f"{args.workload}  {metric} = {values[metric]:.6g} {unit}  (n={samples[metric]})")
    return result


# ---------------------------------------------------------------------------
# several runs as child processes


def child_result(args, workload: str) -> dict:
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"error: {workload} exited with {proc.returncode}: {proc.stderr[-500:]}")
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def run_all(args) -> dict:
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOAD_NAMES:
        result = child_result(args, workload)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    return combined


def repeat_check(args) -> dict:
    import layertrace as tracing

    args.trace = 1
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in names:
        first, second = (child_result(args, workload) for _ in range(2))
        for name, metric in first["metrics"].items():
            if not tracing.is_exact(name):
                continue
            again = second["metrics"][name]["value"]
            same = metric["value"] == again
            combined["correct"] &= same
            combined["metrics"][f"{workload}.{name}"] = metric
            print(f"repeat  {workload}  {name} = {metric['value']!r}"
                  + ("" if same else f"  MISMATCH second run {again!r}"))
        for result in (first, second):
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
    print("exact-repeat check: " + ("pass" if combined["correct"] else "FAIL"))
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat-check", action="store_true")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "mptspec", "__init__.py")):
        print(f"error: no mptspec sources under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(nproc())

    if args.setup_probe:
        setup_probe(args)
        return 0
    if args.repeat_check:
        result = repeat_check(args)
    elif args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
