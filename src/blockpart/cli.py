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


def _parse_spec(text, flag):
    """The sweep spec ``text`` names in the grammar strict | overlap[:RHO] |
    optimal[:MODEL], MODEL being blocks, mem1d, memvbr or file:PATH. Bare
    overlap means overlap:0.9, and bare optimal the storage model of each
    format. Errors start with ``flag`` and the quoted text."""
    label = f"{flag} {text!r}"
    method, sep, arg = text.partition(":")
    if method == "strict" and not sep:
        return {"method": "strict"}
    if method == "overlap":
        try:
            rho = float(arg) if sep else 0.9
        except ValueError:
            rho = math.nan
        if not 0 < rho <= 1:  # NaN fails too
            raise ValueError(f"{label}: RHO must be a number in (0, 1]")
        return {"method": "overlap", "rho": rho}
    if method == "optimal":
        if not sep:
            return {"method": "optimal"}
        if arg in ("blocks", "mem1d", "memvbr"):
            return {"method": "optimal", "model": arg}
        if not arg.startswith("file:"):
            raise ValueError(f"{label}: MODEL {arg!r} is not blocks, mem1d, memvbr or file:PATH")
        try:
            with open(arg[5:], "r", encoding="ascii") as fh:
                return {"method": "optimal", "model": cost_model_from_csv(fh.read())}
        except (OSError, ValueError) as exc:
            raise ValueError(f"{label}: {exc}") from exc
    raise ValueError(f"{label} is not strict, overlap[:RHO] or optimal[:MODEL]")


def _partition_args(sub, formats, default=None):
    sub.add_argument("--matrix", required=True, help="Matrix Market file")
    sub.add_argument("--method", help="partitioner: strict | overlap[:RHO] | optimal[:MODEL], "
                                      "MODEL blocks | mem1d | memvbr | file:PATH (default "
                                      "optimal, the storage model of the format; RHO 0.9)")
    sub.add_argument("--format", choices=formats, default=default, required=default is None,
                     help="container: 1dvbr partitions the rows, vbr the rows and "
                          "the columns" + (f" (default {default})" if default else ""))
    sub.add_argument("--umax", type=int, help="tallest row part (default 8)")
    sub.add_argument("--wmax", type=int, help="widest column part (--format vbr only; default 8)")


def _emit(text, path):
    """Write ``text`` to ``path``, or to stdout when no path is given."""
    if path:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _request(args):
    """Check the flags of a partition, convert or spmv-bench call before any
    matrix is read, and return the sweep's spec, ``u_max`` and ``w_max``.
    A flag the request would ignore is rejected."""
    fmt = args.format
    if fmt == "csr":
        for flag in ("--method", "--umax"):
            if getattr(args, flag[2:]) is not None:
                raise ValueError(f"{flag} sets up the blocked partition, so it needs "
                                 "--format 1dvbr or vbr")
    spec = _parse_spec("optimal" if args.method is None else args.method, "--method")
    if args.wmax is not None and fmt != "vbr":
        raise ValueError("--wmax bounds the widths of column parts, so it needs --format vbr")
    if fmt == "vbr" and spec.get("model") == "mem1d":
        raise ValueError("--method 'optimal:mem1d' prices rows only, but --format vbr also "
                         "partitions columns: use optimal:memvbr, optimal:blocks or "
                         "optimal:file:PATH")
    return spec, 8 if args.umax is None else args.umax, 8 if args.wmax is None else args.wmax


def _partition(args):
    """Partition the matrix for ``--format`` as a sweep would; returns (A, rows, cols)."""
    spec, u_max, w_max = _request(args)
    A = mmio.read_matrix_market(args.matrix)
    rows, cols = bench._partition_for(spec, A, args.format, u_max, w_max)
    return A, rows, cols


def _cmd_partition(args):
    _, rows, cols = _partition(args)
    out = {"spl_rows": rows.spl.tolist()}
    if args.format == "vbr":
        out["spl_cols"] = cols.spl.tolist()
    _emit(json.dumps(out) + "\n", args.out)


def _cmd_convert(args):
    A, rows, cols = _partition(args)
    serialize, _ = bench._FORMATS[args.format]
    payload = serialize(to_vbr(A, rows, cols))
    with open(args.out, "wb") as fh:
        fh.write(payload)
    print(f"wrote {len(payload)} bytes to {args.out}")


def _cmd_spmv_bench(args):
    spec, u_max, w_max = _request(args)
    A = mmio.read_matrix_market(args.matrix)
    reports = run_sweep(A, args.matrix, [spec], formats=(args.format,) if args.format != "csr" else (),
                        u_max=u_max, w_max=w_max, trials=args.trials)
    for row in reports:
        print(row.to_json())


def _check_distinct(flag, items, labels):
    """Refuse two items with one report label: ``profile`` keeps one value
    per method and matrix, so it could not read their report."""
    seen = {}
    for item, label in zip(items, labels):
        if label in seen:
            how = "is given twice" if seen[label] == item else (
                f"shares the report label {label!r} with {seen[label]!r}")
            raise ValueError(f"{flag} {item!r} {how}; a report has one row per method, "
                             "format and matrix")
        seen[label] = item


def _cmd_sweep(args):
    items = args.methods.split(",")
    specs = [_parse_spec(item, "--methods item") for item in items]
    formats = tuple(args.formats.split(","))
    bench._check_formats(formats)
    _check_distinct("--methods item", items, map(bench._partitioner_id, specs))
    _check_distinct("--formats item", formats, formats)
    _check_distinct("--matrix", args.matrix, args.matrix)
    if args.wmax is not None and "vbr" not in formats:
        raise ValueError("--wmax bounds the widths of column parts, so it needs vbr in --formats")
    all_reports = []
    for path in args.matrix:
        A = mmio.read_matrix_market(path)
        all_reports += run_sweep(A, path, specs, formats=formats, u_max=args.umax,
                                 w_max=8 if args.wmax is None else args.wmax,
                                 trials=args.trials)
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
        min_bytes=args.min_bytes, trials=args.trials, seed=resolve_seed())
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
    else:  # reduction: argparse limits --kind to these five
        A = gadgets.build_reduction_matrix(*_parse_graph(args.graph), gadgets.GadgetParams(args.s))
    mmio.write_matrix_market(args.out, A, comment=f"gadget {args.kind}")
    print(f"wrote {A.m}x{A.n} gadget with {A.nnz} entries to {args.out}")


def main(argv=None):
    parser = argparse.ArgumentParser(prog="blockpart",
                                     description="sparse matrix blocking toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("partition", help="compute a row (and optionally column) partition")
    _partition_args(p, ["1dvbr", "vbr"], default="1dvbr")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_partition)

    p = sub.add_parser("convert", help="convert a matrix to a blocked format")
    _partition_args(p, ["1dvbr", "vbr"])
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser("spmv-bench", help="time one partitioner/format combination")
    _partition_args(p, ["csr", "1dvbr", "vbr"], default="1dvbr")
    p.add_argument("--trials", type=int, default=3)
    p.set_defaults(func=_cmd_spmv_bench)

    p = sub.add_parser("sweep", help="benchmark partitioner/format combinations")
    p.add_argument("--matrix", required=True, action="append",
                   help="Matrix Market file (repeatable)")
    p.add_argument("--methods", default="strict,overlap:0.9,optimal",
                   help="comma list of partitioners, each as --method takes it")
    p.add_argument("--formats", default="1dvbr,vbr")
    p.add_argument("--umax", type=int, default=8)
    p.add_argument("--wmax", type=int, help="widest column part (needs vbr in --formats; default 8)")
    p.add_argument("--trials", type=int, default=3)
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
    p.add_argument("--samples-out", help="also dump raw timing samples as CSV")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("gadget", help="emit a hardness gadget as Matrix Market")
    p.add_argument("--kind", required=True, choices=["b1", "b2", "mini", "count", "reduction"])
    p.add_argument("--s", type=float, default=1.0,
                   help="b1, b2, reduction: index weight; each gadget's side is about 56*s**2 "
                        "(209 at s = 1), and s above about 4.06e8 is refused")
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
        for flag in ("umax", "wmax", "trials"):
            count = getattr(args, flag, None)
            if count is not None and count < 1:
                raise ValueError(f"--{flag} must be at least 1, got {count}")
        args.func(args)
    except (ValueError, OSError) as exc:
        raise SystemExit(f"blockpart {args.command}: {exc}") from exc
    return 0


if __name__ == "__main__":
    sys.exit(main())
