"""Time the set-up stages of two checkouts against each other in one process.

    python3 tools/ab_stages.py PARENT CHANGE [--seed S] [--calls N] [--scale F]

PARENT and CHANGE are checkouts of this repository. Each one's
``src/blockpart`` is loaded as a package of its own, so both run in the
same process on the same inputs. The four benchmark matrices come from
``CHANGE/perfbench/corpus.py`` at the benchmark's sizes times F, seeded by
S as the benchmark seeds them, and are written once as Matrix Market files.

Every stage of a workload's set-up is timed N times on each side: the read,
each partition call, each conversion and one multiply. The two sides take
turns call by call, and the side that goes first alternates, so drift in
the machine's speed falls on both alike. For each stage the tool prints
both medians, the change's median relative to the parent's, the parent's
interquartile range relative to its median (its own spread), and whether
both sides gave the same result: equal partitions, equal serialized
containers, and bitwise equal products. Standard library and numpy only.
"""

import argparse
import gc
import importlib.util
import pathlib
import statistics
import sys
import tempfile
import time

import numpy as np

BITS = 64
U_MAX = W_MAX = 8
RHO = 0.9
CAL_MAX = 3


def load(root, name):
    """``root/src/blockpart`` imported as the package ``name``."""
    init = pathlib.Path(root) / "src" / "blockpart" / "__init__.py"
    spec = importlib.util.spec_from_file_location(name, init,
                                                  submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def load_corpus(root):
    path = pathlib.Path(root) / "perfbench" / "corpus.py"
    spec = importlib.util.spec_from_file_location("ab_stages_corpus", path)
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    return corpus


def size(scale, full, multiple=1):
    """The benchmark's matrix size ``full`` scaled by ``scale``."""
    return max(multiple * 4, int(round(full * scale / multiple)) * multiple)


def matrices(corpus, seed, scale):
    """(workload, generated matrix) of the four benchmark workloads."""
    make = {
        "rowruns-1d": lambda rng: corpus.rowruns(rng, size(scale, 20000), size(scale, 20000)),
        "blocks-2d": lambda rng: corpus.planted_blocks(rng, size(scale, 6000), size(scale, 6000)),
        "scatter-heuristic": lambda rng: corpus.scatter(rng, size(scale, 10000),
                                                        size(scale, 10000)),
        "calibrate-fit": lambda rng: corpus.aligned_blocks(rng, size(scale, 2400, 3),
                                                           size(scale, 2400, 3)),
    }
    return [(name, f(np.random.default_rng(seed))) for name, f in make.items()]


def fitted_tables(bp, seed, scale):
    """The tables of the model calibrate-fit partitions with, fitted once."""
    samples = bp.run_calibration(CAL_MAX, CAL_MAX, trials=1, seed=seed,
                                 min_bytes=max(1024, int(16 * 1024 * scale)))
    model = bp.fit_cost_model(samples, 2)
    return model.alpha_row, model.alpha_col, model.beta_row, model.beta_col


def stages(bp, name, path, tables):
    """(stage, call) pairs of one workload's set-up on the package ``bp``,
    each call run once here so that the next stage has its input."""
    A = bp.read_matrix_market(path)
    x = np.random.default_rng(0).standard_normal(A.n)
    out = [("read", lambda: bp.read_matrix_market(path))]

    def add(stage, call):
        out.append((stage, call))
        return call()

    def product(B):
        return bp.spmv_vbr(np.zeros(A.m), B, x)

    if name == "rowruns-1d":
        model = bp.model_memory_1dvbr(BITS, BITS, U_MAX)
        rows = add("optimal_partition",
                   lambda: bp.optimal_partition(A, bp.trivial_partition(A.n), model, U_MAX))
        B = add("to_1dvbr", lambda: bp.to_1dvbr(A, rows))
        add("spmv_1dvbr", lambda: bp.spmv_1dvbr(np.zeros(A.m), B, x))
    elif name == "scatter-heuristic":
        rows = add("strict_partition rows", lambda: bp.strict_partition(A, U_MAX))
        At = add("transpose", lambda: bp.transpose(A))
        cols = add("strict_partition cols", lambda: bp.strict_partition(At, W_MAX))
        V = add("to_vbr", lambda: bp.to_vbr(A, rows, cols))
        rows_1d = add("overlap_partition", lambda: bp.overlap_partition(A, RHO, U_MAX))
        B = add("to_1dvbr", lambda: bp.to_1dvbr(A, rows_1d))
        add("spmv_vbr", lambda: product(V))
        add("spmv_1dvbr", lambda: bp.spmv_1dvbr(np.zeros(A.m), B, x))
    else:
        if name == "blocks-2d":
            model, u_max = bp.model_memory_vbr(BITS, BITS, U_MAX, W_MAX), U_MAX
        else:
            model, u_max = bp.CostModel(*tables), CAL_MAX
        rows, cols = add("alternating_partition",
                         lambda: bp.alternating_partition(A, model, u_max, u_max, rounds=3,
                                                          objective_trace=[]))
        B = add("to_vbr", lambda: bp.to_vbr(A, rows, cols))
        add("spmv_vbr", lambda: product(B))
    return out


def fingerprint(bp, result):
    """Bytes that equal sides give equally for one stage's result."""
    if isinstance(result, tuple):
        return b"|".join(fingerprint(bp, r) for r in result)
    if isinstance(result, bp.Partition):
        return result.spl.tobytes()
    if isinstance(result, bp.VbrMatrix):
        return bp.serialize_vbr(result)
    if isinstance(result, bp.CsrMatrix):
        return b"|".join(a.tobytes() for a in (result.pos, result.idx, result.val))
    return np.asarray(result).tobytes()


def timed(call):
    gc.disable()
    try:
        t0 = time.perf_counter()
        result = call()
        return time.perf_counter() - t0, result
    finally:
        gc.enable()


def compare(sides, name, path, tables, calls):
    """Rows of (stage, parent times, change times, same result) for one workload."""
    plans = [stages(bp, name, path, tables) for bp in sides]
    times = [[[] for _ in plans[0]] for _ in sides]
    same = [True] * len(plans[0])
    for c in range(calls):
        for s in range(len(plans[0])):
            got = {}
            for side in (0, 1) if c % 2 == 0 else (1, 0):
                seconds, result = timed(plans[side][s][1])
                times[side][s].append(seconds)
                got[side] = fingerprint(sides[side], result)
            same[s] = same[s] and got[0] == got[1]
    return [(plans[0][s][0], times[0][s], times[1][s], same[s]) for s in range(len(plans[0]))]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument("--calls", type=int, default=21)
    parser.add_argument("--scale", type=float, default=1.0)
    args = parser.parse_args(argv)
    if args.calls < 1 or args.scale <= 0:
        parser.error("--calls must be at least 1 and --scale positive")
    sides = [load(args.parent, "blockpart_parent"), load(args.change, "blockpart_change")]
    corpus = load_corpus(args.change)
    tables = fitted_tables(sides[1], args.seed, args.scale)
    print(f"seed {args.seed}, {args.calls} calls per side and stage, scale {args.scale}")
    print(f"{'workload':18} {'stage':24} {'parent ms':>10} {'change ms':>10} "
          f"{'change':>8} {'parent IQR':>10} same")
    with tempfile.TemporaryDirectory() as tmp:
        for name, M in matrices(corpus, args.seed, args.scale):
            path = str(pathlib.Path(tmp) / f"{name}.mtx")
            corpus.write_mtx(path, M)
            for stage, parent, change, same in compare(sides, name, path, tables, args.calls):
                p, c = statistics.median(parent), statistics.median(change)
                q = statistics.quantiles(parent, n=4) if len(parent) > 1 else [p, p, p]
                print(f"{name:18} {stage:24} {1e3 * p:10.3f} {1e3 * c:10.3f} "
                      f"{100 * (c / p - 1):+7.1f}% {100 * (q[2] - q[0]) / p:9.1f}% "
                      f"{'yes' if same else 'NO'}")


if __name__ == "__main__":
    main()
