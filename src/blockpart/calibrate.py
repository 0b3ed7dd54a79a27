"""Empirical cost-model calibration and the amortization metric.

The runtime of a blocked multiply is modeled as an affine function of the
partition shape: a per-row-part cost, a per-column-part cost, and a
per-block cost for each block size, plus a fixed cost per multiply.
Calibration times synthetic block-grid matrices in four shapes per block
size, fits the coefficients by least squares weighted to minimize
relative error, and compresses the block-cost table to a low rank with
an SVD. Each sample is drawn directly as a VbrMatrix from its block
columns and values, with no CSR assembly and no conversion; the
container builds its multiply plan as it is made, and one untimed
warm-up multiply precedes the timed ones. ``synth_block_matrix`` draws
the same grid and reads its CSR off that container.
"""

import csv
import io
import itertools
import math
import numbers
import time
from dataclasses import dataclass

import numpy as np

from .costs import CostModel
# to_vbr and build_csr go unused here: perfbench's TRACE_TARGETS looks them up in this module
from .formats import to_vbr, VbrMatrix
from .kernels import spmv_vbr
from .sparse import build_csr, CsrMatrix, Partition

__all__ = [
    "TimingSample",
    "VARIANTS",
    "synth_block_matrix",
    "run_calibration",
    "fit_cost_model",
    "critical_point",
    "jacobi_svd",
    "time_min",
    "samples_to_csv",
    "samples_from_csv",
    "default_clock",
]

# The measurement design: each variant multiplies the base grid's (block
# rows, block columns, blocks per row) by its factors, doubling one or none.
_DESIGN = {"base": (1, 1, 1), "double-blocks": (1, 1, 2),
           "double-rows": (2, 1, 1), "double-cols": (1, 2, 1)}
VARIANTS = tuple(_DESIGN)
# Stored values a batch of samples holds before it is timed: a memory cap.
# Cut into many batches, the fits degrade: at the CLI defaults (u, w <= 8,
# 256 KiB per matrix, 96 MiB of values in all; seeds 1-21) a matrix of
# aligned 3x3 blocks got a 3x3 partition from 11/21 fits timing each sample
# alone, 11/18 with 16 MiB batches, 18/21 with this cap (two batches) and
# 17/21 in one batch. The other three peaked at 47, 106 and 324 MB RSS;
# this cap peaks at 198 MB (ru_maxrss of ``blockpart calibrate`` with its
# defaults, 5 fresh processes on a 2-vCPU Xeon).
_BATCH_BYTES = 64 << 20


@dataclass(frozen=True)
class TimingSample:
    """One timed multiply of a synthetic u x w block-grid matrix."""

    u: int
    w: int
    m_rows: int
    blocks_per_row: int
    seconds: float
    variant: str

    def __post_init__(self):
        # numpy numbers are stored as Python ones, so samples_to_csv writes what reads back
        for field in ("u", "w", "m_rows", "blocks_per_row"):
            value = getattr(self, field)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{field} must be a whole number, got {value!r}")
            if value < 1:
                raise ValueError(f"{field} must be at least 1, got {value}")
            object.__setattr__(self, field, int(value))
        if not isinstance(self.seconds, numbers.Real) or not 0 < self.seconds < math.inf:
            raise ValueError(f"measured time must be positive and finite, got {self.seconds!r}")
        object.__setattr__(self, "seconds", float(self.seconds))
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        _sample_design(self)


def default_clock():
    """Monotonic nanoseconds; the clock is injectable everywhere."""
    return time.perf_counter_ns()


def time_min(fn, trials, clock=None):
    """Minimum wall time in seconds of ``trials`` calls of ``fn``.

    Every call is timed, with two clock reads each; there is no warm-up,
    so a caller that wants one makes it, usually as ``time_min(fn, 1)``.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    clock = clock or default_clock
    best = math.inf
    for _ in range(trials):
        t0 = clock()
        fn()
        best = min(best, (clock() - t0) / 1e9)
    return best


def _grid_vbr(u, w, n_block_rows, n_block_cols, blocks_per_row, rng):
    """A random block grid built directly as a VbrMatrix.

    Every block row holds ``blocks_per_row`` dense u x w blocks at distinct
    block columns, ascending. The block columns of all block rows come
    from one broadcast draw, and the values are drawn after them, block by
    block in draw order and row-major within a block. One gather of whole
    blocks from the values' transposed view then puts them in column order
    and column-major: the offsets are arithmetic, with no CSR and no sort
    of the entries. ``_grid_shape`` gives at least ``blocks_per_row`` block
    columns.
    """
    k, b = n_block_rows, blocks_per_row
    # Floyd's sampling, all block rows at once: the i-th draw picks from
    # [0, top] and takes top itself when the draw is already taken. Row i
    # of the broadcast draw is the stream of one size-k draw from [0, top].
    tops = np.arange(n_block_cols - b, n_block_cols)
    picks = rng.integers(0, tops[:, None] + 1, size=(b, k))
    for i, top in enumerate(tops.tolist()):
        picks[i, (picks[:i] == picks[i]).any(axis=0)] = top
    picks = picks.T
    vals = rng.uniform(0.1, 1.0, picks.size * u * w).reshape(k * b, u, w)
    order = np.argsort(picks, axis=1)
    blocks = (order + np.arange(0, k * b, b)[:, None]).ravel()
    pos = np.arange(k + 1) * b
    return VbrMatrix(np.arange(k + 1) * u, np.arange(n_block_cols + 1) * w,
                     pos, np.take_along_axis(picks, order, axis=1).ravel(), pos * (u * w),
                     np.take(vals.transpose(0, 2, 1), blocks, axis=0).ravel())


def _grid_shape(u, w, k0, b0, variant):
    """(block rows, block columns, blocks per row) of one measurement: the
    base grid has ``k0`` block rows of ``b0`` blocks, square-ish with room
    for twice the blocks, and ``variant`` scales it by its ``_DESIGN`` factors."""
    if u < 1 or w < 1 or b0 < 1:
        raise ValueError(f"block shape parameters must be positive: u={u}, w={w}, blocks_per_row={b0}")
    fk, fl, fb = _DESIGN[variant]
    return fk * k0, fl * max(math.ceil(k0 * u / w), 2 * b0), fb * b0


def _variant_shape(u, w, blocks_per_row, min_bytes, variant):
    """``_grid_shape`` with the fewest base block rows holding ``min_bytes`` of values."""
    k0 = max(1, math.ceil(min_bytes / (8 * u * w * blocks_per_row or 1)))  # _grid_shape rejects 0
    return _grid_shape(u, w, k0, blocks_per_row, variant)


def synth_block_matrix(u, w, blocks_per_row=8, min_bytes=256 * 1024, seed=0):
    """Random block-grid matrix with aligned dense u x w blocks.

    Every block row holds ``blocks_per_row`` blocks at distinct random
    block columns; the grid is sized so the dense value storage reaches
    ``min_bytes``. Deterministic for a fixed seed. Returns the matrix and
    its (row, column) partition pair.
    """
    k, l, b = _variant_shape(u, w, blocks_per_row, min_bytes, "base")
    B = _grid_vbr(u, w, k, l, b, np.random.default_rng(seed))
    # read off the container: every row holds b * w entries in column order
    idx = np.broadcast_to(B.idx.reshape(k, 1, b, 1) * w + np.arange(w), (k, u, b, w))
    A = CsrMatrix(B.m, B.n, np.arange(B.m + 1) * (b * w), idx.ravel(),
                  B.val.reshape(k, b, w, u).transpose(0, 3, 1, 2).ravel())
    return A, Partition(B.spl_rows), Partition(B.spl_cols)


def run_calibration(u_max, w_max, blocks_per_row=8, min_bytes=256 * 1024,
                    trials=3, clock=None, seed=0):
    """Time the four measurement variants for every block size.

    Runs strictly sequentially. The matrices are built in batches of up to
    ``_BATCH_BYTES`` of stored values, and each batch is then timed back
    to back, so the samples the fit compares are measured close together
    rather than each right after its own construction. Each container
    builds its multiply plan as it is made and gets exactly one untimed
    warm-up multiply while its batch is built, so neither falls between
    two timed samples. Its sample is then ``time_min`` of ``trials``
    calls. Returns the samples to feed ``fit_cost_model``.

    The CLI defaults make two batches, peak at 198 MB RSS (see
    ``_BATCH_BYTES``) and take 0.56-1.0 s, median 0.70 s, on a 2-vCPU
    Xeon (5 fresh processes), where assembling each grid as CSR and
    converting it took 2.4-2.8 s, and drawing each block column and
    building each plan with scatters 1.2 s, with the same draws.
    """
    rng = np.random.default_rng(seed)
    samples, batch, held = [], [], 0

    def time_batch():
        for u, w, b, variant, B, x, y in batch:
            seconds = time_min(lambda: spmv_vbr(y, B, x), trials, clock=clock)
            samples.append(TimingSample(u, w, B.m, b, seconds, variant))
        batch.clear()

    for u in range(1, u_max + 1):
        for w in range(1, w_max + 1):
            for variant in VARIANTS:
                k, l, b = _variant_shape(u, w, blocks_per_row, min_bytes, variant)
                B = _grid_vbr(u, w, k, l, b, rng)
                x = rng.standard_normal(B.n)
                y = np.zeros(B.m)
                spmv_vbr(y, B, x)  # the warm-up call
                batch.append((u, w, b, variant, B, x, y))
                held += B.val.nbytes
                if held >= _BATCH_BYTES:
                    time_batch()
                    held = 0
    time_batch()
    return samples


def _sample_design(sample):
    """(K, L, blocks) of a sample under the measurement design: its base
    block rows and blocks per row undo the variant's ``_DESIGN`` factors,
    which must divide them exactly."""
    fk, _, fb = _DESIGN[sample.variant]
    if sample.m_rows % (sample.u * fk):
        raise ValueError(f"m_rows {sample.m_rows} of a {sample.variant} sample is not "
                         f"a multiple of {sample.u * fk}")
    if sample.blocks_per_row % fb:  # the factors are 1 or 2
        raise ValueError(f"blocks_per_row {sample.blocks_per_row} of a {sample.variant} "
                         "sample is odd")
    k0, b0 = sample.m_rows // (sample.u * fk), sample.blocks_per_row // fb
    k, l, b = _grid_shape(sample.u, sample.w, k0, b0, sample.variant)
    return k, l, k * b


def fit_cost_model(samples, rank):
    """Fit the affine runtime model and truncate its block table to ``rank``.

    Every sample contributes one equation

        seconds = K * alpha_row[u] + L * alpha_col[w] + blocks * beta[u, w] + c

    with K, L, and the block count reconstructed by ``_sample_design`` and
    c the fixed cost of one multiply call. Each equation is divided by its
    measured time so the least-squares fit minimizes relative error. The
    returned model drops c: it is the same for every partition, so the
    model's value differs from the fitted runtime by a partition-independent
    constant and minimizers coincide. The fitted beta table is made
    monotone by a running maximum along both axes, then factored by an SVD
    and truncated to the requested rank.

    Fitted coefficients may be negative (noisy samples, or a cost the
    design cannot separate from another) and are kept as fitted: the DP
    and ``evaluate`` accept any finite model, and the partition minimizes
    the model as given.

    A design missing any (u, w, variant) cell is rejected, naming the
    missing cells.
    """
    if not samples:
        raise ValueError("no samples")
    u_max = max(s.u for s in samples)
    w_max = max(s.w for s in samples)
    have = {(s.u, s.w, s.variant) for s in samples}
    missing = [cell for cell in itertools.product(range(1, u_max + 1), range(1, w_max + 1),
                                                  VARIANTS) if cell not in have]
    if missing:
        raise ValueError(f"sample design incomplete; missing cells: {missing}")
    if not 1 <= rank <= min(u_max, w_max):
        raise ValueError(f"rank must be in 1..{min(u_max, w_max)}, got {rank}")

    n_unknowns = u_max + w_max + u_max * w_max + 1  # the last is c
    design = np.zeros((len(samples), n_unknowns))
    for row, s in enumerate(samples):
        k, l, blocks = _sample_design(s)
        design[row, s.u - 1] = k / s.seconds
        design[row, u_max + s.w - 1] = l / s.seconds
        design[row, u_max + w_max + (s.u - 1) * w_max + (s.w - 1)] = blocks / s.seconds
        design[row, -1] = 1 / s.seconds
    coef, *_ = np.linalg.lstsq(design, np.ones(len(samples)), rcond=None)

    beta = coef[u_max + w_max:-1].reshape(u_max, w_max)
    beta = np.maximum.accumulate(np.maximum.accumulate(beta, axis=0), axis=1)

    left, sing, right = jacobi_svd(beta)
    # CostModel stores every numpy entry as a Python float
    return CostModel(alpha_row=coef[:u_max], alpha_col=coef[u_max:u_max + w_max],
                     beta_row=(left[:, :rank] * sing[:rank]).T, beta_col=right[:, :rank].T)


def jacobi_svd(M):
    """SVD of a small dense matrix: (U, s, V) with M = U @ diag(s) @ V.T, s descending.

    This is numpy's LAPACK SVD, not a Jacobi iteration; the name is kept
    because it is part of the package's API.
    """
    U, sing, Vt = np.linalg.svd(np.asarray(M, dtype=np.float64), full_matrices=False)
    return U, sing, Vt.T


def critical_point(t_partition, t_convert, t_blocked_multiply, t_csr_multiply):
    """Multiplications needed before partitioning pays for itself.

    Infinite when the blocked multiply is not faster than CSR.
    """
    for name, t in (("partition", t_partition), ("convert", t_convert),
                    ("blocked multiply", t_blocked_multiply), ("csr multiply", t_csr_multiply)):
        if not t >= 0:  # NaN too
            raise ValueError(f"{name} time must be non-negative, got {t}")
    if t_blocked_multiply >= t_csr_multiply:
        return math.inf
    return (t_partition + t_convert) / (t_csr_multiply - t_blocked_multiply)


_SAMPLE_FIELDS = ("u", "w", "m_rows", "blocks_per_row", "variant", "seconds")


def samples_to_csv(samples):
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(_SAMPLE_FIELDS)
    for s in samples:
        writer.writerow([s.u, s.w, s.m_rows, s.blocks_per_row, s.variant, repr(s.seconds)])
    return out.getvalue()


def samples_from_csv(text):
    """Parse ``samples_to_csv`` output: a header naming the six fields in
    any order, then one row per sample. A missing field, a row of the wrong
    width or a bad value raises ValueError naming its line."""
    reader = csv.DictReader(io.StringIO(text))
    samples = []
    try:
        # empty text has no header and no samples
        missing = [f for f in _SAMPLE_FIELDS if f not in (reader.fieldnames or _SAMPLE_FIELDS)]
        if missing:
            raise ValueError(f"the header lacks {', '.join(missing)}")
        for row in reader:
            # DictReader files surplus fields under None and fills short rows with None
            if None in row or None in row.values():
                raise ValueError(f"expected {len(reader.fieldnames)} fields")
            counts = [int(row[field]) for field in ("u", "w", "m_rows", "blocks_per_row")]
            samples.append(TimingSample(*counts, float(row["seconds"]), row["variant"]))
    except (csv.Error, ValueError) as exc:
        raise ValueError(f"samples CSV line {reader.line_num}: {exc}") from exc
    return samples
