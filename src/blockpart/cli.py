"""Command-line driver.

Subcommands: partition, convert, spmv-bench, sweep, profile, calibrate,
gadget. The environment variable BLOCKPART_SEED overrides the default
RNG seed everywhere.
"""

import argparse
import csv
import dataclasses
import io
import json
import math
import re
import sys

from . import bench, calibrate, gadgets, mmio
from .bench import resolve_seed, run_sweep
from .costs import cost_model_from_csv, cost_model_to_csv
from .formats import to_vbr


def _load_model_spec(spec, flag="--model"):
    if spec.startswith("file:"):
        with open(spec[5:], "r", encoding="ascii") as fh:
            return cost_model_from_csv(fh.read())
    if spec in ("blocks", "mem1d", "memvbr"):
        return spec
    raise ValueError(f"{flag} {spec!r} is not blocks, mem1d, memvbr or file:PATH")


def _partition_args(sub, with_alternate=True):
    sub.add_argument("--matrix", required=True, help="Matrix Market file")
    sub.add_argument("--method", choices=["strict", "overlap", "optimal"],
                     help="partitioner (default optimal)")
    sub.add_argument("--rho", type=float, help="overlap similarity threshold (overlap only; default 0.9)")
    sub.add_argument("--model", help="blocks | mem1d | memvbr | file:PATH (optimal method only; "
                                     "default: the storage model of the format)")
    sub.add_argument("--umax", type=int, help="tallest row part (default 8)")
    sub.add_argument("--wmax", type=int, help="widest column part (2-D requests only; default 8)")
    if with_alternate:
        sub.add_argument("--alternate", type=int, metavar="N",
                         help="run N alternating half-steps of the optimal method on rows "
                              "and columns (default 3 for a 2-D request)")


def _emit(text, path):
    """Write ``text`` to ``path``, or to stdout when no path is given."""
    if path:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _request(args, fmt):
    """Check the flags of a partition, convert or spmv-bench call that asks
    for ``fmt`` before any matrix is read, and return the sweep's spec,
    ``u_max`` and ``w_max``. An optimal spec without a model uses the
    storage model of ``fmt``. A flag the request would ignore is rejected."""
    if fmt == "csr":
        for flag in ("--method", "--rho", "--model", "--umax"):
            if getattr(args, flag[2:]) is not None:
                raise ValueError(f"{flag} sets up the blocked partition, so it needs "
                                 "--format 1dvbr or vbr")
    method = "optimal" if args.method is None else args.method
    flag_2d = "--alternate" if args.command == "partition" else "--format vbr"
    alternate = getattr(args, "alternate", None)
    if alternate is not None and (method != "optimal" or fmt != "vbr"):
        raise ValueError("--alternate alternates optimal row and column half-steps, so it needs "
                         "--method optimal" + ("" if flag_2d == "--alternate" else " and --format vbr"))
    if args.rho is not None and method != "overlap":
        raise ValueError("--rho is the overlap method's similarity threshold, so it needs "
                         "--method overlap")
    if args.rho is not None and not 0 < args.rho <= 1:
        raise ValueError(f"--rho must be in (0, 1], got {args.rho}")
    if args.wmax is not None and fmt != "vbr":
        raise ValueError(f"--wmax bounds the widths of column parts, so it needs {flag_2d}")
    if args.model is not None and method != "optimal":
        raise ValueError("--model prices the optimal method's partitions, so it needs "
                         "--method optimal")
    if fmt == "vbr" and method == "optimal" and args.model == "mem1d":
        raise ValueError(f"{flag_2d} also partitions columns, so it needs a 2-D cost model: "
                         "--model memvbr, blocks or file:PATH (mem1d prices rows only)")
    model = None if args.model is None else _load_model_spec(args.model)
    spec = {"method": method}
    if method == "overlap":
        spec["rho"] = 0.9 if args.rho is None else args.rho
    elif model is not None:
        spec["model"] = model
    return spec, 8 if args.umax is None else args.umax, 8 if args.wmax is None else args.wmax


def _partition(args, fmt):
    """Partition the matrix for ``fmt`` as a sweep would; returns (A, rows, cols)."""
    spec, u_max, w_max = _request(args, fmt)
    A = mmio.read_matrix_market(args.matrix)
    rounds = 3 if args.alternate is None else args.alternate
    rows, cols = bench._partition_for(spec, A, fmt, u_max, w_max, rounds)
    return A, rows, cols


def _cmd_partition(args):
    fmt = "1dvbr" if args.alternate is None else "vbr"
    _, rows, cols = _partition(args, fmt)
    out = {"spl_rows": rows.spl.tolist()}
    if fmt == "vbr":
        out["spl_cols"] = cols.spl.tolist()
    _emit(json.dumps(out) + "\n", args.out)


def _cmd_convert(args):
    A, rows, cols = _partition(args, args.format)
    serialize, _ = bench._FORMATS[args.format]
    payload = serialize(to_vbr(A, rows, cols))
    with open(args.out, "wb") as fh:
        fh.write(payload)
    print(f"wrote {len(payload)} bytes to {args.out}")


def _cmd_spmv_bench(args):
    spec, u_max, w_max = _request(args, args.format)
    A = mmio.read_matrix_market(args.matrix)
    reports = run_sweep(A, args.matrix, [spec], formats=(args.format,) if args.format != "csr" else (),
                        u_max=u_max, w_max=w_max, trials=args.trials,
                        warmup=args.warmup, time_budget=args.time_budget)
    for row in reports:
        print(row.to_json())


def _cmd_sweep(args):
    specs = []
    for item in args.methods.split(","):
        if item == "strict":
            specs.append({"method": "strict"})
        elif item.startswith("overlap:"):
            try:
                rho = float(item.split(":", 1)[1])
            except ValueError:
                rho = math.nan
            if not math.isfinite(rho):
                # a finite RHO outside (0, 1] becomes an error row; NaN or inf would not be JSON
                raise ValueError(f"--methods item {item!r}: RHO must be a finite number")
            specs.append({"method": "overlap", "rho": rho})
        elif item.startswith("optimal:"):
            model = _load_model_spec(item.split(":", 1)[1], f"--methods item {item!r}: MODEL")
            specs.append({"method": "optimal", "model": model})
        elif item == "optimal":
            specs.append({"method": "optimal"})  # memory model matching each format
        else:
            raise ValueError(f"--methods item {item!r} is not strict, overlap:RHO or optimal[:MODEL]")
    formats = tuple(args.formats.split(","))
    if args.wmax is not None and "vbr" not in formats:
        raise ValueError("--wmax bounds the widths of column parts, so it needs vbr in --formats")
    all_reports = []
    for path in args.matrix:
        A = mmio.read_matrix_market(path)
        all_reports += run_sweep(A, path, specs, formats=formats, u_max=args.umax,
                                 w_max=8 if args.wmax is None else args.wmax,
                                 trials=args.trials, warmup=args.warmup,
                                 time_budget=args.time_budget)
    _emit(bench.reports_to_jsonl(all_reports), args.out)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="") as fh:
            fh.write(_summary_csv(all_reports))


def _summary_csv(reports):
    """The reports' fields but ``params`` as CSV; None is an empty field."""
    cols = [f.name for f in dataclasses.fields(bench.BenchReport) if f.name != "params"]
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(cols)
    writer.writerows([getattr(r, c) for c in cols] for r in reports)
    return out.getvalue()


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
        kept = values.setdefault(method, {}).setdefault(r.matrix_id, v)
        if kept != v:
            raise ValueError(f"{method!r} on {r.matrix_id!r} has two {args.metric} values, "
                             f"{kept!r} and {v!r}; profile one value per method and matrix")
    taus, fractions = bench.performance_profile(values)
    _emit(bench.profile_to_csv(taus, fractions), args.out)


def _cmd_calibrate(args):
    if not 1 <= args.rank <= min(args.umax, args.wmax):
        raise ValueError(f"--rank must be in 1..{min(args.umax, args.wmax)}, got {args.rank}")
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


_GRAPH_FORM = "expected N;a-b,c-d,... with whole numbers, such as '4;0-1,0-2,0-3,1-2'"


def _parse_graph(text):
    """(vertex count, edge list) of a ``--graph`` value."""
    head, sep, edge_text = text.partition(";")
    if not sep:
        raise ValueError(f"--graph {text!r} has no ';' after the vertex count; {_GRAPH_FORM}")
    if not re.fullmatch(r"\s*\d+\s*", head):
        raise ValueError(f"--graph vertex count {head!r} is not a whole number; {_GRAPH_FORM}")
    edges = []
    for token in edge_text.split(","):
        ends = re.fullmatch(r"\s*(\d+)\s*-\s*(\d+)\s*", token)
        if ends is None:
            raise ValueError(f"--graph edge {token!r} is not a-b; {_GRAPH_FORM}")
        edges.append((int(ends[1]), int(ends[2])))
    return int(head), edges


def _cmd_gadget(args):
    if args.kind in ("b1", "b2"):
        A = gadgets.build_gadget(args.kind.upper(), gadgets.GadgetParams(args.s))
    elif args.kind == "mini":
        A = gadgets.build_mini_pair()
    elif args.kind == "count":
        A = gadgets.build_count_gadget("B1", args.umax, args.wmax)
    elif args.kind == "reduction":
        A = gadgets.build_reduction_matrix(*_parse_graph(args.graph), gadgets.GadgetParams(args.s))
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
    p.add_argument("--wmax", type=int, help="widest column part (needs vbr in --formats; default 8)")
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
    p.add_argument("--umax", type=int, default=2, help="count: block height cap")
    p.add_argument("--wmax", type=int, default=2,
                   help="count: block width cap; the gadget has about (umax+1)(wmax+1) "
                        "entries, and building and writing it peaks near 180 bytes each")
    p.add_argument("--graph", default="2;0-1",
                   help="reduction input, e.g. '4;0-1,0-2,0-3,1-2'")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gadget)

    args = parser.parse_args(argv)
    try:
        for flag in ("umax", "wmax", "trials", "alternate"):
            count = getattr(args, flag, None)
            if count is not None and count < 1:
                raise ValueError(f"--{flag} must be at least 1, got {count}")
        args.func(args)
    except (ValueError, OSError) as exc:
        raise SystemExit(f"blockpart {args.command}: {exc}") from exc
    return 0


if __name__ == "__main__":
    sys.exit(main())
