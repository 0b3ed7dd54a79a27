"""Command-line driver.

Subcommands: partition, convert, spmv-bench, sweep, profile, calibrate,
gadget. The environment variable BLOCKPART_SEED overrides the default
RNG seed everywhere.
"""

import argparse
import json
import math
import sys

from . import bench, calibrate, gadgets, mmio
from .bench import resolve_seed, run_sweep
from .costs import cost_model_from_csv, cost_model_to_csv
from .formats import serialize_1dvbr, serialize_vbr, to_1dvbr, to_vbr
from .partition import alternating_partition, optimal_partition, overlap_partition, strict_partition
from .sparse import trivial_partition


def _load_model_spec(spec):
    if spec.startswith("file:"):
        with open(spec[5:], "r", encoding="ascii") as fh:
            return cost_model_from_csv(fh.read())
    if spec in ("blocks", "mem1d", "memvbr"):
        return spec
    raise SystemExit(f"unknown --model {spec!r}")


def _partition_args(sub, with_alternate=True):
    sub.add_argument("--matrix", required=True, help="Matrix Market file")
    sub.add_argument("--method", default="optimal", choices=["strict", "overlap", "optimal"])
    sub.add_argument("--rho", type=float, default=0.9, help="overlap similarity threshold")
    sub.add_argument("--model", default="mem1d",
                     help="blocks | mem1d | memvbr | file:PATH (optimal method only)")
    sub.add_argument("--umax", type=int, default=8)
    sub.add_argument("--wmax", type=int, default=8)
    if with_alternate:
        sub.add_argument("--alternate", type=int, default=0, metavar="N",
                         help="run N alternating half-steps to also partition columns")


def _emit(text, path):
    """Write ``text`` to ``path``, or to stdout when no path is given."""
    if path:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _run_partitioner(args, A):
    model_spec = _load_model_spec(args.model)
    rows = None
    cols = None
    if args.method == "strict":
        rows = strict_partition(A)
    elif args.method == "overlap":
        rows = overlap_partition(A, args.rho, args.umax)
    else:
        model = bench._resolve_model(model_spec, "1dvbr" if args.model == "mem1d" else "vbr",
                                     args.umax, args.wmax)
        if getattr(args, "alternate", 0):
            rows, cols = alternating_partition(A, model, args.umax, args.wmax,
                                               rounds=args.alternate)
        else:
            rows = optimal_partition(A, trivial_partition(A.n), model, args.umax)
    return rows, cols


def _cmd_partition(args):
    if args.alternate and args.method == "optimal" and args.model == "mem1d":
        raise ValueError("--alternate also partitions columns, so it needs a 2-D cost model: "
                         "--model memvbr, blocks or file:PATH (mem1d prices rows only)")
    A = mmio.read_matrix_market(args.matrix)
    rows, cols = _run_partitioner(args, A)
    out = {"spl_rows": rows.spl.tolist()}
    if cols is not None:
        out["spl_cols"] = cols.spl.tolist()
    _emit(json.dumps(out) + "\n", args.out)


def _cmd_convert(args):
    A = mmio.read_matrix_market(args.matrix)
    rows, cols = _run_partitioner(args, A)
    if args.format == "vbr":
        cols = cols if cols is not None else trivial_partition(A.n)
        payload = serialize_vbr(to_vbr(A, rows, cols))
    else:
        payload = serialize_1dvbr(to_1dvbr(A, rows))
    with open(args.out, "wb") as fh:
        fh.write(payload)
    print(f"wrote {len(payload)} bytes to {args.out}")


def _cmd_spmv_bench(args):
    A = mmio.read_matrix_market(args.matrix)
    spec = {"method": args.method}
    if args.method == "overlap":
        spec["rho"] = args.rho
    elif args.method == "optimal":
        spec["model"] = _load_model_spec(args.model)
    reports = run_sweep(A, args.matrix, [spec], formats=(args.format,) if args.format != "csr" else (),
                        u_max=args.umax, w_max=args.wmax, trials=args.trials,
                        warmup=args.warmup, time_budget=args.time_budget)
    for row in reports:
        print(row.to_json())


def _cmd_sweep(args):
    specs = []
    for item in args.methods.split(","):
        if item == "strict":
            specs.append({"method": "strict"})
        elif item.startswith("overlap:"):
            specs.append({"method": "overlap", "rho": float(item.split(":", 1)[1])})
        elif item.startswith("optimal:"):
            specs.append({"method": "optimal", "model": _load_model_spec(item.split(":", 1)[1])})
        elif item == "optimal":
            specs.append({"method": "optimal"})  # memory model matching each format
        else:
            raise SystemExit(f"unknown method {item!r}")
    formats = tuple(args.formats.split(","))
    all_reports = []
    for path in args.matrix:
        A = mmio.read_matrix_market(path)
        all_reports += run_sweep(A, path, specs, formats=formats, u_max=args.umax,
                                 w_max=args.wmax, trials=args.trials, warmup=args.warmup,
                                 time_budget=args.time_budget)
    _emit(bench.reports_to_jsonl(all_reports), args.out)
    if args.csv:
        with open(args.csv, "w", encoding="ascii") as fh:
            fh.write(_summary_csv(all_reports))


def _summary_csv(reports):
    cols = ["matrix_id", "format", "partitioner", "K", "L", "N_index", "N_value",
            "memory_bits", "partition_seconds", "convert_seconds", "multiply_seconds",
            "critical_point", "model_objective", "error"]
    lines = [",".join(cols)]
    for r in reports:
        row = []
        for c in cols:
            v = getattr(r, c)
            row.append("" if v is None else str(v))
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


_METRIC_FIELDS = {"memory": "memory_bits", "time": "multiply_seconds",
                  "critical": "critical_point"}


def _cmd_profile(args):
    rows = []
    for path in args.reports:
        with open(path, "r", encoding="ascii") as fh:
            rows += bench.reports_from_jsonl(fh.read())
    field = _METRIC_FIELDS[args.metric]
    values = {}
    for r in rows:
        method = f"{r.partitioner} {r.format}" if r.format != "csr" else "csr"
        v = getattr(r, field)
        if v is None:
            v = math.inf
        values.setdefault(method, {})[r.matrix_id] = v
    taus, fractions = bench.performance_profile(values)
    _emit(bench.profile_to_csv(taus, fractions), args.out)


def _cmd_calibrate(args):
    samples = calibrate.run_calibration(
        args.umax, args.wmax, blocks_per_row=args.blocks_per_row,
        min_bytes=args.min_bytes, trials=args.trials, seed=resolve_seed(),
        time_budget=args.time_budget)
    if args.samples_out:
        with open(args.samples_out, "w", encoding="ascii") as fh:
            fh.write(calibrate.samples_to_csv(samples))
    model = calibrate.fit_cost_model(samples, rank=args.rank)
    with open(args.out, "w", encoding="ascii") as fh:
        fh.write(cost_model_to_csv(model))
    print(f"fitted rank-{args.rank} model over u<={args.umax}, w<={args.wmax} -> {args.out}")


def _cmd_gadget(args):
    if args.kind in ("b1", "b2"):
        A = gadgets.build_gadget(args.kind.upper(), gadgets.GadgetParams(args.s))
    elif args.kind == "mini":
        A = gadgets.build_mini_pair()
    elif args.kind == "count":
        A = gadgets.build_count_gadget("B1", args.umax, args.wmax)
    elif args.kind == "reduction":
        n_vertices, edge_text = args.graph.split(";")
        edges = []
        for token in edge_text.split(","):
            a, b = token.split("-")
            edges.append((int(a), int(b)))
        A = gadgets.build_reduction_matrix(int(n_vertices), edges, gadgets.GadgetParams(args.s))
    else:
        raise SystemExit(f"unknown gadget kind {args.kind!r}")
    mmio.write_matrix_market(args.out, A, comment=f"gadget {args.kind}")
    print(f"wrote {A.m}x{A.n} gadget with {A.nnz} entries to {args.out}")


def main(argv=None):
    parser = argparse.ArgumentParser(prog="blockpart",
                                     description="sparse matrix blocking toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("partition", help="compute a row (and optionally column) partition")
    _partition_args(p)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_partition)

    p = sub.add_parser("convert", help="convert a matrix to a blocked format")
    _partition_args(p)
    p.add_argument("--format", required=True, choices=["vbr", "1dvbr"])
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser("spmv-bench", help="time one partitioner/format combination")
    _partition_args(p, with_alternate=False)
    p.add_argument("--format", default="1dvbr", choices=["csr", "vbr", "1dvbr"])
    p.add_argument("--trials", type=int, default=3)
    p.add_argument("--warmup", type=int, default=1)
    p.add_argument("--time-budget", type=float, default=None)
    p.set_defaults(func=_cmd_spmv_bench)

    p = sub.add_parser("sweep", help="benchmark partitioner/format combinations")
    p.add_argument("--matrix", required=True, action="append",
                   help="Matrix Market file (repeatable)")
    p.add_argument("--methods", default="strict,overlap:0.9,optimal",
                   help="comma list: strict | overlap:RHO | optimal[:MODEL]")
    p.add_argument("--formats", default="1dvbr,vbr")
    p.add_argument("--umax", type=int, default=8)
    p.add_argument("--wmax", type=int, default=8)
    p.add_argument("--trials", type=int, default=3)
    p.add_argument("--warmup", type=int, default=1)
    p.add_argument("--time-budget", type=float, default=None)
    p.add_argument("--out", help="JSON-lines report path (default stdout)")
    p.add_argument("--csv", help="also write a CSV summary here")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("profile", help="performance profile CSV from sweep reports")
    p.add_argument("--reports", required=True, action="append")
    p.add_argument("--metric", required=True, choices=sorted(_METRIC_FIELDS))
    p.add_argument("--out")
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser("calibrate", help="fit an empirical cost model")
    p.add_argument("--umax", type=int, default=8)
    p.add_argument("--wmax", type=int, default=8)
    p.add_argument("--rank", type=int, default=3)
    p.add_argument("--min-bytes", type=int, default=256 * 1024,
                   help="value storage per synthetic matrix (default: one L2 cache)")
    p.add_argument("--blocks-per-row", type=int, default=8)
    p.add_argument("--trials", type=int, default=3)
    p.add_argument("--time-budget", type=float, default=None)
    p.add_argument("--samples-out", help="also dump raw timing samples as CSV")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("gadget", help="emit a hardness gadget as Matrix Market")
    p.add_argument("--kind", required=True, choices=["b1", "b2", "mini", "count", "reduction"])
    p.add_argument("--s", type=float, default=1.0)
    p.add_argument("--umax", type=int, default=2)
    p.add_argument("--wmax", type=int, default=2)
    p.add_argument("--graph", default="2;0-1",
                   help="reduction input, e.g. '4;0-1,0-2,0-3,1-2'")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gadget)

    args = parser.parse_args(argv)
    try:
        args.func(args)
    except (ValueError, OSError) as exc:
        raise SystemExit(f"blockpart {args.command}: {exc}") from exc
    return 0


if __name__ == "__main__":
    sys.exit(main())
