"""Seeded matrix generators for the pipeline benchmark.

Every generator takes a numpy ``Generator`` and the matrix size and returns
a ``Matrix``: CSR arrays built here, independently of the package under
test, so the benchmark can check that reading the written file back
gives exactly the generated matrix. ``write_mtx`` renders a matrix as a
coordinate Matrix Market file with shortest round-trip floats, so the
file bytes depend on the seed alone.
"""

import hashlib
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Matrix:
    m: int
    n: int
    pos: np.ndarray
    idx: np.ndarray
    val: np.ndarray

    @property
    def nnz(self):
        return int(self.pos[-1])


def _assemble(m, n, row_cols, rng):
    """CSR arrays from one sorted, duplicate-free column array per row."""
    lengths = np.array([len(c) for c in row_cols], dtype=np.int64)
    pos = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(lengths, out=pos[1:])
    idx = np.concatenate(row_cols).astype(np.int64) if m else np.zeros(0, np.int64)
    val = rng.uniform(-1.0, 1.0, size=len(idx))
    return Matrix(m, n, pos, idx, val)


def _runs(rng, total, max_run):
    """Lengths 1..max_run drawn uniformly, cut to sum exactly to ``total``."""
    lengths = rng.integers(1, max_run + 1, size=total)
    ends = np.cumsum(lengths)
    count = int(np.searchsorted(ends, total)) + 1
    lengths = lengths[:count].copy()
    lengths[-1] -= int(ends[count - 1]) - total
    return lengths


def rowruns(rng, m, n, width=10, max_run=6, extra=0.3):
    """Runs of 1..max_run rows share a random ``width``-column pattern;
    a fraction ``extra`` of rows gains one more column outside it."""
    row_cols = []
    for u in _runs(rng, m, max_run):
        pattern = rng.choice(n, size=width, replace=False)
        for _ in range(u):
            cols = pattern
            if rng.random() < extra:
                j = int(rng.integers(n))
                while j in pattern:
                    j = int(rng.integers(n))
                cols = np.append(pattern, j)
            row_cols.append(np.sort(cols))
    return _assemble(m, n, row_cols, rng)


def planted_blocks(rng, m, n, max_run=6, blocks_per_row=6, drop=0.1):
    """Variable 2-D blocks on random row and column runs of 1..max_run.

    Each block row holds ``blocks_per_row`` blocks at distinct random
    block columns; each block entry is dropped with probability ``drop``,
    so a partition recovering the blocks has to store some zeros.
    """
    col_spl = np.concatenate(([0], np.cumsum(_runs(rng, n, max_run))))
    n_col_parts = len(col_spl) - 1
    per_row = min(blocks_per_row, n_col_parts)
    row_cols = []
    for u in _runs(rng, m, max_run):
        parts = np.sort(rng.choice(n_col_parts, size=per_row, replace=False))
        span = np.concatenate([np.arange(col_spl[l], col_spl[l + 1]) for l in parts])
        for _ in range(u):
            row_cols.append(span[rng.random(len(span)) >= drop])
    return _assemble(m, n, row_cols, rng)


def aligned_blocks(rng, m, n, size=3, blocks_per_row=6):
    """Dense ``size`` x ``size`` blocks on the aligned grid.

    Block row k holds block column ``k mod L`` and ``blocks_per_row - 1``
    other distinct random block columns, so every block column is used
    and the grid tiling is the fill-free blocking with fewest blocks.
    """
    if m % size or n % size:
        raise ValueError(f"{m}x{n} is not a multiple of the block size {size}")
    n_parts = n // size
    per_row = min(blocks_per_row, n_parts)
    row_cols = []
    for k in range(m // size):
        diag = k % n_parts
        others = rng.choice(n_parts - 1, size=per_row - 1, replace=False)
        parts = np.sort(np.append(others + (others >= diag), diag))
        cols = (parts[:, None] * size + np.arange(size)).ravel()
        row_cols.extend([cols] * size)
    return _assemble(m, n, row_cols, rng)


def scatter(rng, m, n, per_row=10):
    """``per_row`` distinct uniformly random columns in every row."""
    row_cols = [np.sort(rng.choice(n, size=min(per_row, n), replace=False)) for _ in range(m)]
    return _assemble(m, n, row_cols, rng)


def write_mtx(path, A):
    """Write ``A`` as a general real coordinate file; return its sha256."""
    rows = np.repeat(np.arange(1, A.m + 1), np.diff(A.pos)).tolist()
    cols = (A.idx + 1).tolist()
    lines = [f"{i} {j} {v!r}\n" for i, j, v in zip(rows, cols, A.val.tolist())]
    text = f"%%MatrixMarket matrix coordinate real general\n{A.m} {A.n} {A.nnz}\n" + "".join(lines)
    data = text.encode("ascii")
    with open(path, "wb") as fh:
        fh.write(data)
    return hashlib.sha256(data).hexdigest()


def same_csr(A, csr):
    """True when ``csr`` (any object with m, n, pos, idx, val) equals ``A`` exactly."""
    return (
        A.m == csr.m
        and A.n == csr.n
        and np.array_equal(A.pos, csr.pos)
        and np.array_equal(A.idx, csr.idx)
        and np.array_equal(A.val, csr.val)
    )
