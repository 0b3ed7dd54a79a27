"""Experiment driver: partition, convert, time, and report.

A sweep runs every requested (partitioner, format) combination on one
matrix, always alongside a CSR baseline, and records counts, storage
bits, timings, the amortization point, and the model objective as one
report row per combination. Rows that fail are kept, error-marked, and
the sweep continues.
"""

import json
import math
import numbers
import os
import re
from dataclasses import dataclass, asdict
from functools import partial

import numpy as np

from .calibrate import critical_point, default_clock, time_min
from .costs import model_block_count, model_memory_1dvbr, model_memory_vbr
from .formats import serialize_1dvbr, serialize_vbr, stored_counts, to_vbr
from .kernels import spmv_csr, spmv_vbr
from .partition import alternating_partition, optimal_partition, overlap_partition, strict_partition
from .sparse import csr_memory_bits, transpose, trivial_partition

__all__ = [
    "BenchReport",
    "run_sweep",
    "performance_profile",
    "profile_to_csv",
    "reports_to_jsonl",
    "reports_from_jsonl",
    "resolve_seed",
]

S_INDEX = 64
S_VALUE = 64

# format -> (serializer, the fixed index words its storage model leaves out);
# 1D-VBR is VBR on the trivial column partition, so both convert with to_vbr
_FORMATS = {"1dvbr": (serialize_1dvbr, 3), "vbr": (serialize_vbr, 4)}


@dataclass
class BenchReport:
    """One (matrix, partitioner, format) measurement."""

    matrix_id: str
    format: str
    partitioner: str
    params: dict
    K: int = None
    L: int = None
    N_index: int = None
    N_value: int = None
    memory_bits: int = None
    partition_seconds: float = None
    convert_seconds: float = None
    multiply_seconds: float = None
    critical_point: float = None
    model_objective: float = None
    error: str = None

    def to_json(self):
        """One strict RFC 8259 JSON object; an infinite critical point is
        written as null with ``critical_point_inf`` set."""
        row = asdict(self)
        row["critical_point_inf"] = row["critical_point"] == math.inf
        if row["critical_point_inf"]:
            row["critical_point"] = None
        return json.dumps(row, allow_nan=False)


def resolve_seed(seed=None):
    """Explicit seed, else BLOCKPART_SEED from the environment, else 0.

    A seed must be a non-negative whole number; any other value raises
    ValueError naming where it came from, the argument or the variable.
    """
    name = "seed"
    if seed is None:
        name, seed = "BLOCKPART_SEED", os.environ.get("BLOCKPART_SEED", "0")
        if re.fullmatch(r"\s*[0-9]+\s*", seed):
            seed = int(seed)
    if isinstance(seed, numbers.Real) and math.isfinite(seed) and seed == int(seed) and seed >= 0:
        return int(seed)
    raise ValueError(f"{name} must be a non-negative whole number, got {seed!r}")


def _resolve_model(spec, fmt, u_max, w_max):
    if spec == "blocks":
        return model_block_count(u_max, w_max)
    if spec == "mem1d":
        if fmt != "1dvbr":
            raise ValueError("model mem1d only applies to the 1dvbr format")
        return model_memory_1dvbr(S_INDEX, S_VALUE, u_max)
    if spec == "memvbr":
        return model_memory_vbr(S_INDEX, S_VALUE, u_max, w_max)
    if hasattr(spec, "beta_row"):
        return spec
    raise ValueError(f"unknown cost model {spec!r}")


def _partitioner_id(spec):
    method = spec["method"]
    if method == "strict":
        return "strict"
    if method == "overlap":
        return f"overlap({spec['rho']})"
    if method == "optimal":
        if "model" not in spec:
            return "optimal"  # memory model matching each format
        model = spec["model"]
        return f"optimal({model if isinstance(model, str) else 'custom'})"
    raise ValueError(f"unknown partitioner {spec!r}")


def _partition_for(spec, A, fmt, u_max, w_max):
    """Partition ``A`` for ``fmt`` as ``spec`` asks, returning (rows, cols).

    1dvbr keeps the columns trivial. For vbr, strict and overlap run again
    on the transpose and optimal alternates 3 half-steps. ``spec`` is one
    ``_partitioner_id`` accepts, which ``run_sweep`` checks first. Every
    method keeps parts within ``u_max`` rows and ``w_max`` columns. An
    optimal spec without a model uses the storage model of ``fmt``.
    No part is taller or wider than ``A``, so the bounds are first clamped
    to its shape: a built-in model's tables then grow with the matrix,
    not with ``u_max``, and every partition stays the same.
    """
    # a bound below 1 is left to fail as before
    u_max, w_max = min(u_max, max(A.m, 1)), min(w_max, max(A.n, 1))
    method = spec["method"]
    if method == "optimal":
        model = _resolve_model(spec.get("model", "mem1d" if fmt == "1dvbr" else "memvbr"),
                               fmt, u_max, w_max)
        if fmt == "vbr":
            return alternating_partition(A, model, u_max, w_max)
        cols = trivial_partition(A.n)
        return optimal_partition(A, cols, model, u_max), cols
    if method == "strict":
        heuristic = strict_partition
    else:  # overlap
        heuristic = partial(overlap_partition, rho=spec["rho"])
    rows = heuristic(A, u_max=u_max)
    cols = heuristic(transpose(A), u_max=w_max) if fmt == "vbr" else trivial_partition(A.n)
    return rows, cols


def _check_formats(formats):
    for fmt in formats:
        if fmt not in _FORMATS:
            raise ValueError(f"unknown format {fmt!r}: the sweep's formats are 1dvbr and vbr")


def run_sweep(A, matrix_id, partitioners, formats=("1dvbr", "vbr"), u_max=8, w_max=8,
              trials=3, clock=None, seed=None):
    """Benchmark every (partitioner, format) combination on one matrix.

    Rows run sequentially. The CSR baseline row comes first and its
    multiply time anchors every row's critical point. CSR and every
    container are measured alike: one warm-up call, ``time_min(f, 1)``,
    then ``multiply_seconds = time_min(f, trials)``; the warm-up time is
    discarded. ``convert_seconds`` times ``to_vbr``, which also builds the
    container's multiply plan. ``memory_bits`` is 8 times the length of
    the container's serialization, the file ``blockpart convert`` writes.
    Format names other than 1dvbr and vbr, and unknown partitioners, raise
    before anything is timed.
    """
    _check_formats(formats)
    labels = [_partitioner_id(spec) for spec in partitioners]
    clock = clock or default_clock
    rng = np.random.default_rng(resolve_seed(seed))
    x = rng.standard_normal(A.n)

    csr = partial(spmv_csr, A, x)
    time_min(csr, 1, clock=clock)
    t_csr = time_min(csr, trials, clock=clock)
    reports = [BenchReport(matrix_id, "csr", "none", {}, K=A.m, L=A.n, N_index=A.nnz,
                           N_value=A.nnz, memory_bits=csr_memory_bits(A, S_INDEX, S_VALUE),
                           partition_seconds=0.0, convert_seconds=0.0, multiply_seconds=t_csr,
                           critical_point=math.inf)]
    for spec, label in zip(partitioners, labels):
        for fmt in formats:
            # a NaN or infinite rho fails in the partitioner, and its row must
            # still be strict JSON: such a number is kept as its repr
            params = {k: v if not isinstance(v, float) or math.isfinite(v) else repr(v)
                      for k, v in spec.items()
                      if k != "method" and isinstance(v, (int, float, str))}
            try:
                t0 = clock()
                rows, cols = _partition_for(spec, A, fmt, u_max, w_max)
                t_part = (clock() - t0) / 1e9
                t0 = clock()
                B = to_vbr(A, rows, cols)
                t_conv = (clock() - t0) / 1e9
                serialize, fixed_words = _FORMATS[fmt]
                memory = 8 * len(serialize(B))
                blocked = partial(spmv_vbr, np.zeros(A.m), B, x)
                time_min(blocked, 1, clock=clock)
                t_mult = time_min(blocked, trials, clock=clock)
                n_index, n_value = stored_counts(B)
                fields = dict(K=rows.num_parts, L=cols.num_parts, N_index=n_index, N_value=n_value,
                              memory_bits=memory, partition_seconds=t_part, convert_seconds=t_conv,
                              multiply_seconds=t_mult,
                              critical_point=critical_point(t_part, t_conv, t_mult, t_csr),
                              model_objective=memory - fixed_words * S_INDEX)
            except (ValueError, IndexError) as exc:
                fields = {"error": str(exc)}
            reports.append(BenchReport(matrix_id, fmt, label, params, **fields))
    return reports


def performance_profile(values, taus=None):
    """Dolan-More style profile of per-instance method quality.

    ``values`` maps method -> {instance -> value}; smaller is better, and
    values must be non-negative, infinity allowed. Every method must cover
    every instance. Returns (taus, {method -> fractions}), where each
    fraction is the share of instances on which the method is within a
    factor tau of the best. ``taus`` defaults to the distinct finite ratios.
    """
    if not values:
        raise ValueError("no methods to profile")
    methods = sorted(values)
    instances = sorted(values[methods[0]])
    if not instances:
        raise ValueError("no instances to profile")
    for method in methods:
        if values[method].keys() != set(instances):
            raise ValueError(f"method {method!r} does not cover the instance set")
    table = np.array([[values[m][i] for i in instances] for m in methods], dtype=np.float64)
    if not np.all(table >= 0):
        raise ValueError("profile values must be non-negative numbers, not NaN")

    best = table.min(axis=0)
    # off the best v > best >= 0, so v / |best| is inf for an infinite v or a best of +-0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratios = np.where(table == best, 1.0, table / np.abs(best))
    if taus is None:
        taus = np.unique(ratios[np.isfinite(ratios)]).tolist() or [1.0]
    elif np.isnan(np.asarray(taus, dtype=np.float64)).any():
        raise ValueError("profile taus must not be NaN")
    # the share of a method's ratios <= tau, found by one search of its sorted ratios
    counts = [np.searchsorted(row, taus, side="right") for row in np.sort(ratios, axis=1)]
    return list(taus), {m: (c / len(instances)).tolist() for m, c in zip(methods, counts)}


def profile_to_csv(taus, fractions):
    lines = ["tau,method,fraction"]
    for method in sorted(fractions):
        for tau, frac in zip(taus, fractions[method]):
            lines.append(f"{float(tau)!r},{method},{float(frac)!r}")
    return "\n".join(lines) + "\n"


def reports_to_jsonl(reports):
    return "".join(r.to_json() + "\n" for r in reports)


def _reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


def _finite_float(text):
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text} is past the float range")
    return value


# the JSON type of each report field; every other field is a number or null
_FIELD_TYPES = {"matrix_id": (str, "a string"), "format": (str, "a string"),
                "partitioner": (str, "a string"), "error": ((str, type(None)), "a string or null"),
                "params": (dict, "an object"), "critical_point_inf": (bool, "true or false")}
_NUMBER = ((int, float, type(None)), "a number or null")


def reports_from_jsonl(text):
    """Parse ``reports_to_jsonl`` output; any other line, a number past the
    float range or a field of the wrong JSON type included, raises
    ValueError naming its line number."""
    rows = []
    for number, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        try:
            row = json.loads(line, parse_constant=_reject_constant, parse_float=_finite_float)
            if not isinstance(row, dict):
                raise ValueError("a report must be a JSON object")
            for name, value in row.items():
                types, kind = _FIELD_TYPES.get(name, _NUMBER)
                # true and false are ints to Python, but not numbers to JSON
                if not isinstance(value, types) or isinstance(value, bool) is not (types is bool):
                    raise ValueError(f"field {name!r} must be {kind}, got {json.dumps(value)}")
            if row.pop("critical_point_inf", False):
                if row.get("critical_point") is not None:
                    raise ValueError("critical_point_inf is true, so critical_point must be null")
                row["critical_point"] = math.inf
            rows.append(BenchReport(**row))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"report line {number}: {exc}") from exc
    return rows
