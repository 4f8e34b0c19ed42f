"""Benchmark for nonstab: one workload per run, one caller in a closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke            # every workload, briefly

The metric names and units, and the default of `--seconds`, are read from
BENCHMARK.json.

With `--trace 0` the run measures the end-to-end metrics.  Set-up (the
import of nonstab and the building of the inputs) is timed first: the
import in SETUP_REPEATS fresh interpreters and the build SETUP_REPEATS
times in this one, and `setup_s` is the median import plus the median build.
Whole passes of operations then run, each operation starting after the
previous one returned, until `--seconds` have passed; the pass under way
at the deadline is finished, so a run holds at least one whole pass.
Every operation's output is checked.

With `--trace 1`, after one warm-up pass, the same passes run in pairs,
once plain and once under the tracer of `tracing.py`, in alternating
order, by the same rule; the per-layer
metrics come from the traced passes, per operation, and the difference in
wall time between the two halves is reported as `trace.overhead_frac`.

The last line of stdout is the result:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
The line before it is a report with the environment, the operation count,
failures, the known-defect probe and, when traced, every traced function.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# One BLAS thread: the loop has one caller, and on a small shared machine a
# second BLAS thread adds contention and run-to-run spread, not speed.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
# metric name -> unit, for --trace 0 and --trace 1
METRICS = {
    0: {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]},
    1: {m["name"]: m["unit"] for m in CONTRACT["per_layer"]},
}
SETUP_REPEATS = 3
SMOKE_SECONDS = 1
# The 90th percentile goes in the report, not the metrics, and only when
# ten samples lie beyond it: an oracle-code15 run holds two or three operations.
P90_MIN_OPS = 100


def _import_program():
    """Import nonstab from this checkout's src/ (no install needed)."""
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH_DIR))
    try:
        import tracing
        import workloads
    except ImportError as exc:
        sys.stderr.write(f"error: cannot import nonstab from {ROOT / 'src'}: {exc}\n")
        sys.exit(2)
    source = Path(sys.modules["nonstab"].__file__).resolve()
    if ROOT / "src" not in source.parents:
        sys.stderr.write(f"error: imported nonstab from {source}, not from {ROOT / 'src'}\n")
        sys.exit(2)
    return workloads, tracing


# Run by a fresh interpreter with the paths of _import_program as arguments.
_IMPORT = (
    "import sys, time; start = time.perf_counter(); sys.path[:0] = sys.argv[1:]; "
    "import tracing, workloads; print(time.perf_counter() - start)"
)


def _import_seconds() -> float:
    """Median time of a fresh interpreter to import nonstab and the workloads.

    The import in this process is one sample of a noisy figure (its
    interquartile range over ten runs reached a third of its median), so it
    is repeated in child interpreters.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        child = subprocess.run(
            [sys.executable, "-c", _IMPORT, str(BENCH_DIR), str(ROOT / "src")],
            capture_output=True, text=True, check=True, timeout=120,
        )
        times.append(float(child.stdout))
    return statistics.median(times)


def _environment() -> dict:
    import numpy

    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "git_sha": None,
        "blas": None,
        "blas_threads": None,
    }
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
        if sha.returncode == 0:
            env["git_sha"] = sha.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    env["blas_threads"] = _openblas_threads()
    return env


def _openblas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if unknown."""
    import ctypes

    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _percentile(values: list, share: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def _run_pass(ops: list, latencies: list, failures: list) -> None:
    for label, op in ops:
        start = time.perf_counter()
        try:
            problem = op()
        except Exception as exc:  # an operation that raises counts as failed
            problem = f"{type(exc).__name__}: {exc}"
        latencies.append(time.perf_counter() - start)
        if problem:
            failures.append(f"{label}: {problem}")


def _check_calls(workload, tracer, n_ops: int) -> list:
    """Known call counts per operation; a mismatch means tracing missed calls."""
    problems = []
    for metric, per_op in workload.per_op_calls.items():
        seen = tracer.value(metric)
        if seen != per_op * n_ops:
            problems.append(f"{metric}: {seen} over {n_ops} ops, expected {per_op} per op")
    return problems


def _probe(workload, inputs, seed: int):
    """The workload's known-defect probe, if it has one; never raises."""
    if not hasattr(workload, "probe"):
        return None
    try:
        return workload.probe(inputs, seed)
    except Exception as exc:  # the probe's command should exit, not raise
        return {"error": f"{type(exc).__name__}: {exc}", "wrong": True}


def measure(args) -> int:
    load_before = os.getloadavg()
    workloads, tracing = _import_program()
    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(f"error: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}\n")
        return 2
    workload = workloads.WORKLOADS[args.workload]
    import_s = time.perf_counter() - START

    tracer = None
    builds = []
    imports_s = None if args.trace else _import_seconds()
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    for _ in range(1 if args.trace else SETUP_REPEATS):
        start = time.perf_counter()
        inputs = workload.build(args.seed)
        builds.append(time.perf_counter() - start)
    if tracer is not None:
        tracer.uninstall()
        setup_values = {
            name: tracer.value(name[len("setup."):])
            for name in METRICS[1]
            if name.startswith("setup.")
        }
        tracer.reset()

    golden = workloads.load_golden()
    latencies, failures, problems = [], [], []
    plain_s = traced_s = 0.0
    index = 0
    traced_ops = 0
    if tracer is not None:
        # warm-up: the first pass in a process runs slower, which would
        # otherwise land on one side of the first plain/traced pair
        _run_pass(workload.pass_ops(inputs, golden, args.seed, 0), latencies, failures)
    timed_start = time.perf_counter()
    while time.perf_counter() - timed_start < args.seconds:
        if tracer is None:
            _run_pass(workload.pass_ops(inputs, golden, args.seed, index), latencies, failures)
        else:
            # the same pass plain and traced, in alternating order
            for traced in ((False, True) if index % 2 == 0 else (True, False)):
                ops = workload.pass_ops(inputs, golden, args.seed, index)
                if traced:
                    tracer.install()
                start = time.perf_counter()
                try:
                    _run_pass(ops, latencies, failures)
                finally:
                    elapsed = time.perf_counter() - start
                    tracer.uninstall()
                if traced:
                    traced_s += elapsed
                    traced_ops += len(ops)
                else:
                    plain_s += elapsed
        index += 1
    timed_s = time.perf_counter() - timed_start
    # read before the probe, which is not part of the workload
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    probe = _probe(workload, inputs, args.seed)
    if probe is not None and probe["wrong"]:
        problems.append(f"known-defect probe gave a wrong answer: {probe}")

    n_ops = len(latencies)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": index,
        "n_ops": n_ops,
        "ops_failed_frac": len(failures) / n_ops,
        "failures": failures[:10],
        "import_s": import_s,
        "imports_median_s": imports_s,
        "builds_s": builds,
    }
    if args.trace:
        problems += _check_calls(workload, tracer, traced_ops)
        metrics = {}
        for name, unit in METRICS[1].items():
            if name.startswith("setup."):
                value = setup_values[name]
            elif name == "trace.overhead_frac":
                value = traced_s / plain_s - 1
            elif unit.endswith("/op"):
                value = tracer.value(name) / traced_ops
            else:
                value = tracer.value(name)
            metrics[name] = {"value": value, "unit": unit}
        report["plain_s"], report["traced_s"] = plain_s, traced_s
        report["layers"] = tracer.table()
    else:
        passed = n_ops - len(failures)
        values = {
            "setup_s": imports_s + statistics.median(builds),
            "ops_per_s": passed / timed_s,
            "op_p50_ms": statistics.median(latencies) * 1e3,
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in METRICS[0].items()}
        if n_ops >= P90_MIN_OPS:
            report["op_p90_ms"] = _percentile(latencies, 0.9) * 1e3
    if probe is not None:
        report["known_defect"] = probe
    report["problems"] = problems
    report["env"] = _environment()
    report["env"]["loadavg_before"] = load_before
    report["env"]["loadavg_after"] = os.getloadavg()
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": not failures and not problems,
        "attempted": n_ops,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


def smoke() -> int:
    """Run every workload briefly, plain and traced, and check the output."""
    workloads, _ = _import_program()
    if {w["name"] for w in CONTRACT["workloads"]} != set(workloads.WORKLOADS):
        print("FAIL BENCHMARK.json workloads differ from workloads.py")
        return 1
    ok = True
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", "1", "--seconds", str(SMOKE_SECONDS), "--trace", str(trace)]
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
                report = json.loads(lines[-2])
            except (IndexError, json.JSONDecodeError):
                print(f"FAIL {name} trace={trace}: exit {proc.returncode}, no result\n{proc.stderr}")
                ok = False
                continue
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            good = (
                proc.returncode == 0
                and set(result) == {"correct", "attempted", "failed", "metrics"}
                and result["correct"] is True
                and units == METRICS[trace]
                and all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
            )
            ok &= good
            print(f"{'ok  ' if good else 'FAIL'} {name} trace={trace}: "
                  f"{result['attempted']} ops, {len(units)} metrics, problems {report['problems']}")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=CONTRACT["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
