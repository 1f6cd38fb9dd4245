"""spar benchmark: one workload per invocation, result as the last stdout line.

    python3 bench/run.py --workload cv-binomial --seed 1 --seconds 12 --trace 0

Runs against the checkout's src/ without an install.  --trace 0 times
whole rounds of the workload for at least --seconds seconds and prints
the end-to-end metrics; --trace 1 runs warm-up, untraced, traced and
untraced rounds, with spans recorded around every public spar function
in the traced one, and prints the per-layer metrics.  Both modes check
the outputs.  Metric names and units come from BENCHMARK.json.  Files
go to bench/.runs/<run>/; inputs and model files are deleted when the
run ends.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

IMPORT_RUNS = 3


def machine_facts():
    import ctypes

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {}
    with open("/proc/self/maps") as f:
        libs = sorted({line.split()[-1] for line in f if "openblas" in line.lower() and ".so" in line})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, sym):
                fn = getattr(handle, sym)
                fn.restype = ctypes.c_int
                threads[Path(lib).name] = fn()
                break
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": threads,
        "blas_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                 "MKL_NUM_THREADS") if k in os.environ},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }


def import_times(rundir):
    """Wall time and peak RSS of `import spar` in IMPORT_RUNS fresh interpreters."""
    from workloads import run_child

    walls, rss = [], []
    for _ in range(IMPORT_RUNS):
        wall, peak = run_child([sys.executable, "-c", "import spar"], rundir / "import.log")
        walls.append(wall)
        rss.append(peak)
    return walls, rss


def import_tree(rundir, code, name):
    """[(module, depth, self_s, cumulative_s)] from `python3 -X importtime -c code`."""
    from workloads import run_child

    log = rundir / f"importtime-{name}.log"
    run_child([sys.executable, "-X", "importtime", "-c", code], log)
    rows = []
    for line in log.read_text().splitlines():
        fields = line[len("import time:"):].split("|")
        if line.startswith("import time:") and len(fields) == 3 and fields[0].strip().isdigit():
            module = fields[2].rstrip()
            rows.append((module.strip(), len(module) - len(module.lstrip()),
                         int(fields[0]) * 1e-6, int(fields[1]) * 1e-6))
    return rows


def import_profile(rundir):
    """import.total_s, and import.scipy_stats_s: the self time of the modules that
    only scipy.stats brings in, not numpy or the scipy.linalg/special/sparse spar
    imports elsewhere."""
    rows = import_tree(rundir, "import spar", "spar")
    others = {r[0] for r in import_tree(
        rundir, "import numpy, scipy.linalg, scipy.special, scipy.sparse", "deps")}
    total = next(r[3] for r in rows if r[0] == "spar")
    stats = 0.0
    at = next((i for i, r in enumerate(rows) if r[0] == "scipy.stats"), None)
    if at is not None:
        depth = rows[at][1]
        j = at
        while j >= 0 and (j == at or rows[j][1] > depth):
            if rows[j][0] not in others:
                stats += rows[j][2]
            j -= 1
    return {"import.total_s": total, "import.scipy_stats_s": stats}


KEEP = ("result.json", "trace.json")


def check(wl):
    """Run the workload's output checks; False (and a message) if one fails."""
    from checks import CheckFailed

    try:
        wl.check()
        return True
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        wl.notes["failed_check"] = str(exc)
        return False


def timed_run(wl, seconds, rundir):
    t0 = time.perf_counter()
    walls, import_rss = import_times(rundir)
    t1 = time.perf_counter()
    peak_x = wl.warm_up()
    rounds, failed = [], 0
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        try:
            rounds.append(wl.round())
        except Exception:  # a failing spar call is counted; the run stops there
            traceback.print_exc()
            failed = 1
            break
    if not rounds:
        raise RuntimeError("no round completed")
    t2 = time.perf_counter()
    correct = check(wl)
    stages = {"imports_s": t1 - t0, "warm_up_s": start - t1, "rounds_s": t2 - start,
              "check_s": time.perf_counter() - t2}
    if peak_x is None:
        # subprocess workload: peak RSS of `spar fit` above that of a bare import
        peak_x = (statistics.median(wl.fit_rss) - statistics.median(import_rss)) / wl.x.nbytes
    metrics = {
        "setup_s": statistics.median(walls),
        "fit_s": statistics.median(r["fit_s"] for r in rounds),
        "persist_s": statistics.median(r["persist_s"] for r in rounds),
        "round_s": statistics.median(r["round_s"] for r in rounds),
        "peak_mem_x": peak_x,
        "model_mb": (rundir / "model.json").stat().st_size / 1e6,
    }
    attempted = (len(rounds) + failed) * wl.ops_per_round + wl.warm_up_ops
    return metrics, correct, attempted, failed, {
        "rounds": rounds, "stages": stages, "import_s": walls, "import_rss": import_rss}


def traced_run(wl, rundir):
    """Warm-up, then untraced, traced and untraced passes of the same operations."""
    import spar
    from tracing import Tracer
    from workloads import tracemalloc_peak

    metrics = import_profile(rundir)
    wl.traced_ops()
    before = wl.traced_ops()["fit_s"]
    tracer = Tracer()
    with tracer:
        traced = wl.traced_ops()["fit_s"]
    untraced = (before + wl.traced_ops()["fit_s"]) / 2
    correct = check(wl)
    metrics.update(tracer.layer_metrics())
    metrics["trace.untraced_fit_s"] = untraced
    metrics["trace.traced_fit_s"] = traced
    metrics["trace.overhead_s"] = traced - untraced
    _, peak = tracemalloc_peak(lambda: spar.standardize(wl.x, wl.y, wl.family))
    metrics["ensemble.standardize_peak_x"] = peak / wl.x.nbytes
    metrics.update(wl.traced_extra(metrics))
    (rundir / "trace.json").write_text(json.dumps(
        {"metrics": metrics, "functions": tracer.by_name(), "spans": tracer.span_dump()}))
    return metrics, correct, 4 * wl.ops_per_round, 0, {}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "spar" / "__init__.py").is_file():
        print(f"error: no spar sources at {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import spar

    rundir = HERE / ".runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    rundir.mkdir(parents=True)
    try:
        t0 = time.perf_counter()
        wl = WORKLOADS[args.workload](spar, args.seed, rundir)
        inputs_s = time.perf_counter() - t0
        if args.trace:
            metrics, correct, attempted, failed, detail = traced_run(wl, rundir)
        else:
            metrics, correct, attempted, failed, detail = timed_run(wl, args.seconds, rundir)
    finally:
        for path in rundir.iterdir():
            if path.name not in KEEP and path.suffix != ".log":
                shutil.rmtree(path) if path.is_dir() else path.unlink()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    (rundir / "result.json").write_text(json.dumps(
        {"args": vars(args), "machine": machine_facts(), "checks": wl.notes, "inputs_s": inputs_s,
         "all_metrics": metrics, **detail, "result": result}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
