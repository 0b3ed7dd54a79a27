"""Pipeline benchmark: read -> partition -> convert -> k SpMV.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload rowruns-1d --seed 1 --seconds 15 --trace 0

The matrix is generated from ``--seed`` and written as a Matrix Market
file under ``.bench_work/``, which is removed at exit. The package is
imported from the checkout's ``src/`` and nowhere else. Every metric is
printed by name with its unit, then a strict-JSON report, and as the last
line the result object: ``--trace 0`` gives the end-to-end metrics
(untraced iterations) and ``--trace 1`` the per-layer metrics (span self
times from traced iterations, interleaved with untraced ones). Times are
seconds at a fixed reference speed (see ``speed.py``); the report also
carries the raw wall times.
"""

import argparse
import json
import math
import os
import shutil
import signal
import sys
import time

WALL_LIMIT_S = 150  # a run past this is cut and counted as failed
THREADS = "1"

END_TO_END = {
    "pipeline_s": "s",
    "setup_s": "s",
    "spmv_s": "s",
    "storage_ratio": "ratio",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "mmio.file_bytes": "bytes",
    "costs.blocks": "count",
    "costs.values": "count",
    "costs.fill_ratio": "ratio",
    "partition.dp_candidates": "count",
    "partition.row_parts": "count",
    "partition.col_parts": "count",
    "partition.objective": "cost",
    "formats.explicit_zeros": "count",
    "kernels.madds": "count",
    "kernels.bytes_moved_computed": "bytes",
    "kernels.gflops": "GFLOP/s",
    "kernels.speedup_vs_csr": "ratio",
    "calibrate.samples": "count",
    "calibrate.fit_max_rel_residual": "ratio",
    "calibrate.negative_coefficients": "count",
    "calibrate.model_pred_ratio": "ratio",
}


def unit_of(name):
    if name in END_TO_END:
        return END_TO_END[name]
    return PER_LAYER_UNITS.get(name, "s")


class WallClockExceeded(Exception):
    pass


def _on_alarm(signum, frame):
    raise WallClockExceeded(f"run exceeded the {WALL_LIMIT_S} s wall-clock limit")


def encode_critical_point(value):
    """Strict-JSON form of a critical point: null plus a flag when infinite."""
    if math.isinf(value):
        return {"critical_point": None, "critical_point_inf": True}
    return {"critical_point": value, "critical_point_inf": False}


def decode_critical_point(obj):
    return math.inf if obj["critical_point_inf"] else obj["critical_point"]


def _plain(value):
    return value.item() if hasattr(value, "item") else value


def strict_json(obj):
    return json.dumps(obj, allow_nan=False, sort_keys=True, default=_plain)


def environment():
    import platform

    import numpy

    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "threads": {v: os.environ.get(v) for v in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "blockpart", "__init__.py")):
        print(f"no blockpart sources under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = THREADS
    sys.path.insert(0, src)
    import blockpart

    if not os.path.abspath(blockpart.__file__).startswith(src + os.sep):
        print(f"blockpart imported from {blockpart.__file__}, not {src}", file=sys.stderr)
        return 2
    import resource

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2

    workdir = os.path.abspath(os.path.join(".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}"))
    os.makedirs(workdir)
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(WALL_LIMIT_S)
    start = time.perf_counter()
    try:
        r = workloads.run(args.workload, args.seed, args.seconds, args.trace, workdir,
                          deadline=start + WALL_LIMIT_S - 20)
    except WallClockExceeded as exc:
        print(f"FAILED: {exc}", file=sys.stderr)
        print(strict_json({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    finally:
        signal.alarm(0)
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(".bench_work")
        except OSError:
            pass

    e2e = workloads.end_to_end(r)
    e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {name: e2e[name] for name in END_TO_END}
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "k": r.workload.k,
        "iterations": len(r.iterations),
        "untraced_iterations": e2e["iterations"],
        "corpus": r.corpus,
        "environment": environment(),
        "end_to_end": metrics,
        "spmv_s": {"median": e2e["spmv_s"], "p90": e2e["spmv_s.p90"], "n": e2e["spmv_s.n"]},
        "csr_spmv_s": e2e["csr_spmv_s"],
        "wall": e2e["wall"],
        "speed_factor": e2e["speed_factor"],
        "reference.scipy_spmv_s": r.scipy_spmv_s,
        "error_rate": len(r.checks.failures) / r.checks.attempted,
        "failures": r.checks.failures[:20],
        **encode_critical_point(e2e["critical_point"]),
    }
    if args.trace:
        table, runs = workloads.span_table(r)
        layer = workloads.per_layer(r)
        report["per_layer"] = layer
        report["spans"] = {
            name: {kind: dict(zip(("median", "p90", "n"), q)) for kind, q in row.items()}
            for name, row in table.items()
        }
        metrics = layer
        print(f"span self times (s) over {len(runs)} traced iterations: "
              "per call median / p90 / n, per iteration median")
        for name, row in table.items():
            med, p90, n = row["per_call"]
            print(f"  {name:34s} {med:.6g} / {p90:.6g} / {n}   {row['per_iteration'][0]:.6g}")
    for name, value in report["end_to_end"].items():
        print(f"{name} = {value:.6g} {unit_of(name)}")
    print(f"spmv_s p90 = {e2e['spmv_s.p90']:.6g} s over n = {e2e['spmv_s.n']} multiplies, "
          f"k = {r.workload.k}")
    print(f"csr_spmv_s = {e2e['csr_spmv_s']:.6g} s")
    for name, value in e2e["wall"].items():
        print(f"wall.{name} = {value:.6g} s (unscaled; speed_factor = {e2e['speed_factor']:.6g})")
    if r.scipy_spmv_s is not None:
        print(f"reference.scipy_spmv_s = {r.scipy_spmv_s:.6g} s (wall, informational)")
    cp = e2e["critical_point"]
    print(f"critical_point = {'inf' if math.isinf(cp) else f'{cp:.6g}'} multiplies")
    print(f"error_rate = {report['error_rate']:.6g} ratio "
          f"({len(r.checks.failures)} of {r.checks.attempted} checks failed)")
    if args.trace:
        for name, value in metrics.items():
            print(f"{name} = {value:.6g} {unit_of(name)}")
    print("report " + strict_json(report))
    print(strict_json({
        "correct": not r.checks.failures,
        "attempted": r.checks.attempted,
        "failed": len(r.checks.failures),
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
