"""Experiment driver: partition, convert, time, and report.

A sweep runs every requested (partitioner, format) combination on one
matrix, always alongside a CSR baseline, and records counts, storage
bits, timings, the amortization point, and the model objective as one
report row per combination. Rows that fail are kept, error-marked, and
the sweep continues.
"""

import json
import math
import os
from dataclasses import dataclass, asdict

import numpy as np

from .calibrate import critical_point, default_clock, time_min
from .costs import (
    model_block_count,
    model_memory_1dvbr,
    model_memory_vbr,
    onedvbr_memory_bits,
    vbr_memory_bits,
)
from .formats import stored_counts, to_1dvbr, to_vbr
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
    """Explicit seed, else BLOCKPART_SEED from the environment, else 0."""
    if seed is not None:
        return int(seed)
    return int(os.environ.get("BLOCKPART_SEED", "0"))


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


def _partition_for(spec, A, fmt, u_max, w_max, rounds=3):
    """Partition ``A`` for ``fmt`` as ``spec`` asks, returning (rows, cols).

    1dvbr keeps the columns trivial. For vbr, strict and overlap run again
    on the transpose and optimal alternates ``rounds`` half-steps. An
    optimal spec without a model uses the storage model of ``fmt``.
    """
    method = spec["method"]
    if method == "strict":
        rows = strict_partition(A)
        cols = strict_partition(transpose(A)) if fmt == "vbr" else trivial_partition(A.n)
    elif method == "overlap":
        rho = spec["rho"]
        rows = overlap_partition(A, rho, u_max)
        cols = overlap_partition(transpose(A), rho, w_max) if fmt == "vbr" else trivial_partition(A.n)
    elif method == "optimal":
        model = _resolve_model(spec.get("model", "mem1d" if fmt == "1dvbr" else "memvbr"),
                               fmt, u_max, w_max)
        if fmt == "vbr":
            rows, cols = alternating_partition(A, model, u_max, w_max, rounds=rounds)
        else:
            cols = trivial_partition(A.n)
            rows = optimal_partition(A, cols, model, u_max)
    else:
        raise ValueError(f"unknown partitioner {spec!r}")
    return rows, cols


def run_sweep(A, matrix_id, partitioners, formats=("1dvbr", "vbr"), u_max=8, w_max=8,
              trials=3, warmup=1, clock=None, seed=None, time_budget=None):
    """Benchmark every (partitioner, format) combination on one matrix.

    Rows run sequentially. The CSR baseline row comes first and its
    multiply time anchors every row's critical point. The first multiply
    of each container is timed on its own and counts as one warm-up call:
    it also builds the container's multiply plan, so its excess over
    ``multiply_seconds`` is one-time set-up and is added to
    ``convert_seconds``.
    """
    clock = clock or default_clock
    rng = np.random.default_rng(resolve_seed(seed))
    x = rng.standard_normal(A.n)

    t_csr = time_min(lambda: spmv_csr(A, x), trials, clock=clock,
                     warmup=warmup, time_budget=time_budget)
    reports = [BenchReport(
        matrix_id=matrix_id,
        format="csr",
        partitioner="none",
        params={},
        K=A.m,
        L=A.n,
        N_index=A.nnz,
        N_value=A.nnz,
        memory_bits=csr_memory_bits(A, S_INDEX, S_VALUE),
        partition_seconds=0.0,
        convert_seconds=0.0,
        multiply_seconds=t_csr,
        critical_point=math.inf,
        model_objective=None,
    )]

    for spec in partitioners:
        for fmt in formats:
            row = BenchReport(
                matrix_id=matrix_id,
                format=fmt,
                partitioner=_partitioner_id(spec),
                params={k: v for k, v in spec.items() if k != "method" and isinstance(v, (int, float, str))},
            )
            try:
                t0 = clock()
                rows, cols = _partition_for(spec, A, fmt, u_max, w_max)
                t_part = (clock() - t0) / 1e9
                t0 = clock()
                if fmt == "vbr":
                    B = to_vbr(A, rows, cols)
                    memory = vbr_memory_bits(A, rows, cols, S_INDEX, S_VALUE)
                else:
                    B = to_1dvbr(A, rows)
                    memory = onedvbr_memory_bits(A, rows, S_INDEX, S_VALUE)
                t_conv = (clock() - t0) / 1e9
                y = np.zeros(A.m)
                t0 = clock()
                spmv_vbr(y, B, x)  # the first multiply also builds the plan
                t_first = (clock() - t0) / 1e9
                t_mult = time_min(lambda: spmv_vbr(y, B, x), trials, clock=clock,
                                  warmup=max(warmup - 1, 0), time_budget=time_budget)
                t_conv += max(t_first - t_mult, 0.0)
                row.K = rows.num_parts
                row.L = cols.num_parts
                row.N_index, row.N_value = stored_counts(B)
                row.memory_bits = memory
                row.partition_seconds = t_part
                row.convert_seconds = t_conv
                row.multiply_seconds = t_mult
                row.critical_point = critical_point(t_part, t_conv, t_mult, t_csr)
                # the storage model's value: the bits less its fixed offset words
                row.model_objective = memory - (4 if fmt == "vbr" else 3) * S_INDEX
            except (ValueError, IndexError) as exc:
                row.error = str(exc)
            reports.append(row)
    return reports


def performance_profile(values, taus=None):
    """Dolan-More style profile of per-instance method quality.

    ``values`` maps method -> {instance -> value}; smaller is better and
    infinity is allowed. Every method must cover every instance. Returns
    (taus, {method -> fractions}), where each fraction is the share of
    instances on which the method is within a factor tau of the best.
    """
    if not values:
        raise ValueError("no methods to profile")
    methods = sorted(values)
    instances = sorted(values[methods[0]])
    if not instances:
        raise ValueError("no instances to profile")
    for method in methods:
        missing = [i for i in instances if i not in values[method]]
        extra = [i for i in values[method] if i not in instances]
        if missing or extra:
            raise ValueError(f"method {method!r} does not cover the instance set")

    ratios = {}
    for inst in instances:
        best = min(values[m][inst] for m in methods)
        for m in methods:
            v = values[m][inst]
            if v == best:
                ratios[(m, inst)] = 1.0
            elif math.isinf(v) or best == 0:
                ratios[(m, inst)] = math.inf
            else:
                ratios[(m, inst)] = v / best

    if taus is None:
        finite = sorted({r for r in ratios.values() if math.isfinite(r)})
        taus = finite or [1.0]
    fractions = {
        m: [sum(1 for i in instances if ratios[(m, i)] <= tau) / len(instances) for tau in taus]
        for m in methods
    }
    return list(taus), fractions


def profile_to_csv(taus, fractions):
    lines = ["tau,method,fraction"]
    for method in sorted(fractions):
        for tau, frac in zip(taus, fractions[method]):
            lines.append(f"{float(tau)!r},{method},{float(frac)!r}")
    return "\n".join(lines) + "\n"


def reports_to_jsonl(reports):
    return "".join(r.to_json() + "\n" for r in reports)


def reports_from_jsonl(text):
    rows = []
    for line in text.splitlines():
        if line.strip():
            row = json.loads(line)
            if row.pop("critical_point_inf", False):
                row["critical_point"] = math.inf
            rows.append(BenchReport(**row))
    return rows
