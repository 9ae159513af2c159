"""Benchmark of ghzlocal: times its real workloads end to end, or per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the program is imported from ``src/`` next to this
directory, never from an installed copy.  With ``--trace 0`` one process
runs the named workload's fixed batch (a round) once to warm up and then
again and again for S seconds, checks every output, and reports ``setup_s``,
``wall_s`` (median round) and ``peak_rss_mb``.  With ``--trace 1`` it
reports the per-layer metrics of ``tracing.py`` instead, whatever the
workload.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full record,
with the machine facts and per-round times, goes to ``bench/out/``.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread: set before numpy loads, inherited by set-up probes.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
# Set-up is measured in this many fresh interpreters; the median is reported.
SETUP_REPEATS = 7


def import_program():
    """Import ghzlocal from SRC and the benchmark modules; exit 1 if absent."""
    sys.path[:0] = [SRC, BENCH_DIR]
    try:
        import ghzlocal
    except ImportError as exc:
        sys.exit(f"error: cannot import ghzlocal from {SRC}: {exc}")
    if not os.path.abspath(ghzlocal.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: ghzlocal imported from {ghzlocal.__file__}, not {SRC}")
    import tracing
    import workloads

    return workloads, tracing


def machine_facts() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_count": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "memory_gib": _memory_gib(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "thread_env": {v: os.environ[v] for v in
                       ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _memory_gib():
    try:
        with open("/proc/meminfo") as handle:
            return int(handle.readline().split()[1]) / 2**20
    except (OSError, ValueError, IndexError):
        return None


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    import ctypes
    import glob

    import numpy as np

    libs_dir = os.path.dirname(np.__file__) + ".libs"
    for path in glob.glob(os.path.join(libs_dir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def measure_setup(workload: str, seed: int) -> list[float]:
    """Seconds from process start to ghzlocal imported and inputs built."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
        finally:
            proc.stdout.close()
            code = proc.wait()
        if line.strip() != "ready" or code != 0:
            sys.exit(f"error: set-up probe exited with code {code}")
    return times


def timed_rounds(workloads, calls, seconds: float):
    """One untimed warm-up round, then whole rounds until `seconds` have passed.

    The warm-up is a full round: the first pass over the large certification
    arrays runs 10-30 % slower than later ones.
    """
    warm = workloads.run_round(calls)
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        rounds.append(workloads.run_round(calls))
    return warm, rounds


def write_spans(spans, seed: int) -> None:
    """One CSV line per span; parent is the index within the same workload."""
    with open(os.path.join(OUT_DIR, f"trace-seed{seed}.csv"), "w") as handle:
        handle.write("workload,name,start_s,end_s,parent\n")
        for workload, name, start, end, parent in spans:
            handle.write(f"{workload},{name},{start!r},{end!r},{parent}\n")


def main(argv=None) -> int:
    workloads, tracing = import_program()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.inputs(args.seed)
    if args.setup_probe:
        print("ready", flush=True)
        return 0
    with open(SPEC) as handle:
        declared = json.load(handle)["per_layer" if args.trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared}

    os.makedirs(OUT_DIR, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine_facts()}
    if args.trace:
        spans = []
        metrics, attempted, failed, problems = tracing.trace_metrics(args.seed, spans)
        write_spans(spans, args.seed)
    else:
        setup = measure_setup(args.workload, args.seed)
        warm, rounds = timed_rounds(workloads, workload.calls(inputs), args.seconds)
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(r.wall for r in rounds),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        problems = workload.check(inputs, warm.outputs)
        problems += workloads.compare_rounds(warm, rounds)
        attempted = failed = 0
        for r in [warm, *rounds]:
            a, f = workload.tally(inputs, r.outputs)
            attempted, failed = attempted + a, failed + f
        record["setup_runs_s"] = setup
        record["warm_up_wall_s"] = warm.wall
        record["round_walls_s"] = [r.wall for r in rounds]
    if set(metrics) != set(units):
        sys.exit(f"error: measured metrics {sorted(set(metrics) ^ set(units))} "
                 f"differ from those {SPEC} declares")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    record.update(result, problems=problems)
    path = os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as handle:
        json.dump(record, handle, indent=2)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
