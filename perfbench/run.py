"""Run one workload of the x0genus benchmark and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout: it imports x0genus from src/ there.
The workloads, metric names and units are those of BENCHMARK.json.  One
closed-loop client in this one process runs the workload's op set again
and again until S seconds have passed, and checks every output after each
set, outside the timed region.  With --trace 0 it prints the end-to-end
metrics; with --trace 1 it alternates untraced and traced sets and prints
the per-layer metrics, taken from spans around x0genus's public functions
(spans.py), and writes those spans to .perfbench_run/.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics;
it is also stored, with the environment the numbers were taken in, as
.perfbench_run/result-<workload>-<seed>-trace<0|1>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
RUN_DIR = ROOT / ".perfbench_run"

# set-up is the import of x0genus in a fresh interpreter, as every CLI
# command pays it; measured here and in this many more interpreters, all
# started before the first op set, so that no workload's state (memory
# held, caches warmed) reaches into the samples
SETUP_PROBES = 6
PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import x0genus, x0genus.cli; print(time.perf_counter() - t)"
)


class BenchError(Exception):
    pass


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def probe_setup() -> float:
    out = subprocess.run([sys.executable, "-c", PROBE, str(SRC)], capture_output=True,
                         text=True, timeout=120, check=True)
    return float(out.stdout)


def environment() -> dict:
    """Where the numbers were taken; information, not metrics."""
    import numpy
    import scipy

    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), None)
    except OSError:
        pass
    src_lines = 0
    for p in sorted(SRC.rglob("*.py")):
        with open(p, "rb") as f:
            src_lines += sum(1 for _ in f)
    return {
        "git_commit": commit,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": nproc(),
        "cpu_model": cpu,
        "src_lines": src_lines,
    }


def op_medians(sets: list[list[float]]) -> list[float]:
    """Each op's median time over the sets.

    The host slows for a second or so at a time; an op's median over the
    run skips those slow stretches better than the median of whole sets,
    each of which spans several of them.
    """
    return [statistics.median(ts) for ts in zip(*sets)]


def run_op(op) -> tuple:
    start = time.perf_counter()
    try:
        result, error = op.call(), None
    except Exception:
        result, error = None, traceback.format_exc()
    return result, error, time.perf_counter() - start


def verdict(op, result, error) -> str | None:
    if error:
        return error
    try:
        return op.check(result)
    except Exception:
        return traceback.format_exc()


def measure(args) -> dict:
    if not (SRC / "x0genus" / "__init__.py").is_file():
        raise BenchError(f"no x0genus sources in {SRC}")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import x0genus
    import x0genus.cli  # noqa: F401  (the CLI is part of what a command imports)
    setup = [time.perf_counter() - start]
    if Path(x0genus.__file__).resolve().parent != (SRC / "x0genus").resolve():
        raise BenchError(f"imported x0genus from {x0genus.__file__}, not from {SRC}")

    import workloads

    RUN_DIR.mkdir(exist_ok=True)
    sink = tempfile.mkdtemp(dir=RUN_DIR)
    try:
        wl = workloads.build(args.workload, args.seed, sink)
        if wl.threads > nproc():
            raise BenchError(f"{args.workload} needs {wl.threads} threads but nproc is {nproc()}")
        return run_sets(args, wl, setup)
    finally:
        shutil.rmtree(sink, ignore_errors=True)


def run_sets(args, wl, setup: list[float]) -> dict:
    import spans
    import workloads

    tracer = spans.Tracer() if args.trace else None
    # op times of each set, untraced and traced
    times: dict[bool, list[list[float]]] = {False: [], True: []}
    layers: list[dict] = []
    span_sets: list[list] = []
    attempted = failed = 0
    peak_mb = None
    levels = sum(op.levels for op in wl.ops)
    deadline = time.perf_counter() + args.seconds
    if not args.trace:
        setup += [probe_setup() for _ in range(SETUP_PROBES)]
    begin = time.perf_counter()
    k = 0
    # stop before a set that would end past the deadline, judged by the
    # mean length of the sets so far, so that a run lasts about --seconds
    while k < (2 if args.trace else 1) or (
        time.perf_counter() + (time.perf_counter() - begin) / k <= deadline):
        # untraced, traced, traced, untraced, ...: a drift in host speed
        # over the run then biases neither side of trace.overhead_s
        traced = bool(args.trace) and k % 4 in (1, 2)
        k += 1
        workloads.start_set()
        if traced:
            first = len(tracer.spans)
            tracer.install()
        try:
            timed = [run_op(op) for op in wl.ops]
        finally:
            if traced:
                tracer.uninstall()
        if peak_mb is None:  # before any check allocates
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        times[traced].append([secs for _, _, secs in timed])
        if traced:
            recorded = tracer.spans[first:]
            span_sets.append(recorded)
            outs = [r for r, _, _ in timed if isinstance(r, workloads.CliOutput)]
            layers.append(spans.layer_metrics(recorded, sum(o.rows for o in outs),
                                              sum(o.nbytes for o in outs)))
        for op, (result, error, _) in zip(wl.ops, timed):
            attempted += 1
            problem = verdict(op, result, error)
            if problem:
                failed += 1
                print(f"perfbench: {op.name} failed: {problem}", file=sys.stderr)

    latencies = op_medians(times[False])
    wall = sum(latencies)
    if args.trace:
        metrics = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
        metrics["trace.overhead_s"] = sum(op_medians(times[True])) - wall
        spans.write_spans(str(RUN_DIR / f"trace-{args.workload}-{args.seed}.jsonl"), span_sets)
    else:
        # 5% steps, interpolated between closest ranks
        cuts = statistics.quantiles(latencies, n=20, method="inclusive")
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": wall,
            "levels_per_s": levels / wall,
            "query_p50_ms": 1e3 * cuts[9],
            "query_p95_ms": 1e3 * cuts[18],
            "peak_rss_mb": peak_mb,
        }
    print(f"workload {args.workload} seed {args.seed}: {len(times[False])} untraced and "
          f"{len(times[True])} traced sets of {len(wl.ops)} ops, {levels} levels each")
    for traced, label in ((False, "untraced"), (True, "traced")):
        if times[traced]:
            print(f"{label} set walls (s): " + " ".join(f"{sum(t):.4f}" for t in times[traced]))
    return {"metrics": metrics, "attempted": attempted, "failed": failed}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        spec = json.loads(SPEC.read_text())
        if args.workload not in [w["name"] for w in spec["workloads"]]:
            raise BenchError(f"unknown workload {args.workload!r}")
        out = measure(args)
        declared = spec["per_layer" if args.trace else "end_to_end"]
        if sorted(m["name"] for m in declared) != sorted(out["metrics"]):
            raise BenchError("measured metrics differ from those BENCHMARK.json declares")
    except (BenchError, OSError, ImportError, subprocess.SubprocessError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    env = environment()
    print("env " + json.dumps(env))
    metrics = {}
    for m in declared:
        value = float(out["metrics"][m["name"]])
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']} = {value:.6g} {m['unit']}")
    print(f"error_rate = {out['failed'] / out['attempted']:.6g} failed/attempted")
    result = {"correct": out["failed"] == 0, "attempted": out["attempted"],
              "failed": out["failed"], "metrics": metrics}
    record = RUN_DIR / f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({**result, "env": env}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
