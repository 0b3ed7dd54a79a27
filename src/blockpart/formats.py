"""Variable-block-row containers and CSR conversion.

VbrMatrix groups both rows and columns; blocks are stored dense and
column-major, packed left to right within each block row. OneDVbrMatrix
is the VbrMatrix whose columns are ungrouped, so every block in a block
row is u x 1 and the value stride within the block row is constant.
"""

import numpy as np

from . import kernels
from .sparse import _block_pattern, _first_fall, _frozen, _offsets, Partition, trivial_partition

__all__ = [
    "VbrMatrix",
    "OneDVbrMatrix",
    "to_vbr",
    "to_1dvbr",
    "vbr_get",
    "onedvbr_get",
    "stored_counts",
    "serialize_vbr",
    "serialize_1dvbr",
]


class VbrMatrix:
    """Blocked matrix with contiguous row and column grouping.

    Arrays: ``spl_rows`` (K+1 row splits), ``spl_cols`` (L+1 column
    splits), ``pos`` (K+1 offsets into ``idx``), ``idx`` (column-part
    index of each stored block, ascending within a block row), ``ofs``
    (K+1 offsets of each block row's values), ``val`` (dense block
    values, column-major within each block). ``_plan`` holds the
    read-only multiply plan, built once when the container is made, after
    every check (see ``kernels``).
    """

    __slots__ = ("spl_rows", "spl_cols", "pos", "idx", "ofs", "val", "_plan")

    def __init__(self, spl_rows, spl_cols, pos, idx, ofs, val):
        self.spl_rows = Partition(spl_rows).spl
        self.spl_cols = Partition(spl_cols).spl
        self.pos = _frozen(pos, np.int64, "pos")
        self.idx = _frozen(idx, np.int64, "idx")
        self.ofs = _frozen(ofs, np.int64, "ofs")
        self.val = _frozen(val, np.float64)
        k = len(self.spl_rows) - 1
        n_parts = len(self.spl_cols) - 1
        if len(self.pos) != k + 1 or len(self.ofs) != k + 1:
            raise ValueError("pos and ofs must have one entry per block row plus one")
        if self.pos[k] != len(self.idx) or self.ofs[k] != len(self.val):
            raise ValueError("pos/ofs must end at the stored block and value counts")
        if self.pos[0] != 0 or np.any(np.diff(self.pos) < 0):
            raise ValueError("pos must start at 0 and be non-decreasing")
        if len(self.idx) and (self.idx.min() < 0 or self.idx.max() >= n_parts):
            raise ValueError(f"block column index outside [0, {n_parts})")
        q = _first_fall(self.pos, self.idx)
        if q is not None:
            raise ValueError("block column indices not increasing in block row "
                             f"{int(np.searchsorted(self.pos, q, side='right')) - 1}")
        # each block row's values: its height times the columns it stores
        stored = _offsets(np.diff(self.spl_cols)[self.idx])[self.pos]
        wrong = np.nonzero(_value_starts(np.diff(self.spl_rows), np.diff(stored)) != self.ofs)[0]
        if len(wrong):
            raise ValueError(f"block row {max(int(wrong[0]) - 1, 0)} disagrees with its pattern")
        self._plan = kernels._build_plan(self)

    @property
    def m(self):
        return int(self.spl_rows[-1])

    @property
    def n(self):
        return int(self.spl_cols[-1])

    def __repr__(self):
        return (f"{type(self).__name__}({self.m}x{self.n}, blocks={len(self.idx)}, "
                f"values={len(self.val)})")


class OneDVbrMatrix(VbrMatrix):
    """Blocked matrix with grouped rows and ungrouped columns.

    A VbrMatrix whose column partition is the trivial one on ``n``
    columns, so ``idx`` holds plain column indices and block q of block
    row k starts at ``ofs[k] + (q - pos[k]) * u_k`` in ``val``.
    """

    __slots__ = ()

    def __init__(self, n, spl_rows, pos, idx, ofs, val):
        super().__init__(spl_rows, trivial_partition(n).spl, pos, idx, ofs, val)


def _value_starts(heights, widths):
    """Offset of each block's values, plus the total, for blocks of the given shapes.

    A total past 2**62 is rejected rather than left to wrap. Summed in
    float64, a total of non-negative products is off by far less than a
    factor of 2, so below that no int64 product or partial sum overflows.
    ``np.einsum`` sums the products without BLAS, whose ``np.dot`` took
    about 8 ms in some processes that did not pin its threads.
    """
    if float(np.einsum("i,i->", heights, widths, dtype=np.float64)) > 2.0 ** 62:
        raise ValueError("block values do not fit 64-bit offsets")
    return _offsets(heights * widths)


def _blocked_arrays(A, rows, cols):
    """(pos, idx, ofs, val) of ``A`` blocked under the two partitions.

    Blocks are laid out column-major and packed left to right within each
    block row. Every stored entry is placed by one scatter into a zeroed
    value array, so a block covering a missing entry holds an explicit 0.0.
    Under two trivial partitions every block is one entry and these are
    A's own read-only arrays, with ``ofs = pos``; partitions of the wrong
    size go on to ``_block_pattern``, which rejects them. Otherwise each
    entry's block is its pair index, expanded here from the pattern's
    ``fresh`` mask, the one use of that index.
    """
    if rows.is_trivial() and cols.is_trivial() and (rows.size, cols.size) == (A.m, A.n):
        return A.pos, A.idx, A.pos, A.val
    k, l, fresh, order = _block_pattern(A, rows, cols)
    # each entry's pair index; a cumulative sum of int64 is several times
    # faster than one of bool
    rank = fresh.astype(np.int64)
    rank[:1] = 0
    pair = np.cumsum(rank, out=rank)
    if order is not None:
        pair = np.empty_like(rank)
        pair[order] = rank
    heights = rows.widths()[k]
    starts = _value_starts(heights, cols.widths()[l])
    pos = _offsets(np.bincount(k, minlength=rows.num_parts))
    # entry (i, j) of block (k, l) sits at starts + (j - spl_cols[l]) * height
    # + i - spl_rows[k], which is one base per block plus j * height + i
    base = starts[:-1] - cols.spl[l] * heights - rows.spl[k]
    at = base[pair] + A.idx * heights[pair] + A.entry_rows()
    val = np.zeros(int(starts[-1]))
    val[at] = A.val
    return pos, l, starts[pos], val


def to_vbr(A, row_partition, col_partition):
    """Convert CSR to VBR under the given partitions, zero-filling blocks.

    Under two trivial partitions the container shares A's read-only
    ``pos``, ``idx`` and ``val`` (``ofs`` is ``pos``) rather than copying
    them; only its multiply plan may copy values.
    """
    return VbrMatrix(row_partition.spl, col_partition.spl,
                     *_blocked_arrays(A, row_partition, col_partition))


def to_1dvbr(A, row_partition):
    """Convert CSR to 1D-VBR under the given row partition, zero-filling blocks.

    Under the trivial row partition the container shares A's read-only
    ``pos``, ``idx`` and ``val`` (``ofs`` is ``pos``) rather than copying
    them; only its multiply plan may copy values.
    """
    return OneDVbrMatrix(A.n, row_partition.spl,
                         *_blocked_arrays(A, row_partition, trivial_partition(A.n)))


def vbr_get(B, i, j):
    """Entry (i, j) of a VBR or 1D-VBR matrix; 0.0 when no block covers it."""
    if not (0 <= i < B.m and 0 <= j < B.n):
        raise IndexError(f"({i}, {j}) outside {B.m}x{B.n} matrix")
    k = int(np.searchsorted(B.spl_rows, i, side="right")) - 1
    l = int(np.searchsorted(B.spl_cols, j, side="right")) - 1
    lo, hi = int(B.pos[k]), int(B.pos[k + 1])
    q = lo + int(np.searchsorted(B.idx[lo:hi], l))
    if q == hi or B.idx[q] != l:
        return 0.0
    u = int(B.spl_rows[k + 1] - B.spl_rows[k])
    before = B.idx[lo:q]
    skipped = int((B.spl_cols[before + 1] - B.spl_cols[before]).sum())
    p = int(B.ofs[k]) + u * skipped
    return float(B.val[p + (j - B.spl_cols[l]) * u + (i - B.spl_rows[k])])


onedvbr_get = vbr_get


def stored_counts(B):
    """(stored block count, stored value count) of a blocked container."""
    return len(B.idx), len(B.val)


def _raw(arrays):
    return b"".join(np.ascontiguousarray(a).astype(a.dtype.newbyteorder("<")).tobytes()
                    for a in arrays)


def serialize_vbr(B):
    """Raw little-endian bytes: spl_rows, spl_cols, pos, idx, ofs, val.

    Index arrays are 64-bit ints and values 64-bit floats, so the byte
    length times 8 equals the VBR storage-bit formula at 64/64 widths.
    """
    return _raw([B.spl_rows, B.spl_cols, B.pos, B.idx, B.ofs, B.val])


def serialize_1dvbr(B):
    """Raw little-endian bytes: spl_rows, pos, idx, ofs, val.

    The column splits are left out, so ``B`` must have the trivial column
    partition; split points rise strictly from 0 to n, so n + 1 of them
    are exactly the trivial ones.
    """
    if len(B.spl_cols) != B.n + 1:
        raise ValueError(f"1D-VBR stores no column splits, but the {len(B.spl_cols) - 1} "
                         f"column parts of this {B.m}x{B.n} matrix are not its {B.n} columns")
    return _raw([B.spl_rows, B.pos, B.idx, B.ofs, B.val])
