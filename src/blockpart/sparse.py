"""Compressed sparse row matrices and contiguous partitions.

Everything in this package is built on two small immutable types: a CSR
matrix and a contiguous partition of an index range, stored as a vector of
split points. Both validate their invariants on construction and expose
read-only numpy arrays.

Coordinates travel as a 1-D record array of ``ENTRY_DTYPE``: int64 row,
int64 col and float64 val columns, one (row, col, value) triple per
record, which ``build_csr`` takes as is.
"""

import math
import numbers

import numpy as np

__all__ = [
    "CsrMatrix",
    "Partition",
    "ENTRY_DTYPE",
    "build_csr",
    "transpose",
    "row_pattern",
    "csr_memory_bits",
    "trivial_partition",
]


_INT64_MAX = int(np.iinfo(np.int64).max)

ENTRY_DTYPE = np.dtype([("row", np.int64), ("col", np.int64), ("val", np.float64)])
# the same triples with float coordinates, checked before the int64 cast
_FLOAT_ENTRY = np.dtype([("row", np.float64), ("col", np.float64), ("val", np.float64)])


def _frozen(arr, dtype, name="array"):
    """``arr`` as a read-only contiguous array of ``dtype``.

    Values bound for an integer dtype must be whole numbers, which the cast
    would otherwise cut down; ``name`` names the array in the error. Input
    that is already integer or bool is not checked; any other, floats or
    Python objects such as ``Fraction``, is checked as float64.
    """
    if np.dtype(dtype).kind == "i":
        arr = np.asarray(arr)
        if arr.dtype.kind not in "iub":
            _check_whole(np.asarray(arr, dtype=np.float64), name)
    out = np.ascontiguousarray(arr, dtype=dtype)
    out.flags.writeable = False
    return out


def _check_whole(a, name):
    """Refuse floats ``a`` that are not finite whole numbers, naming them ``name``."""
    whole = np.isfinite(a) & (a == np.trunc(a))
    if not whole.all():
        at = int(np.argmin(whole))
        raise ValueError(f"{name}: {float(a.flat[at])!r} at {at} is not a whole number")


def _dimension(value, name, least=None):
    """``value`` as an int if it is a whole number, and at least ``least``
    when that is given, else a ValueError naming ``name``. A bool is not
    a number here, as in ``TimingSample``."""
    if not (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value) and value == int(value)):
        raise ValueError(f"{name} must be a whole number, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be at least {least}, got {int(value)}")
    return int(value)


class CsrMatrix:
    """Immutable sparse matrix in compressed sparse row form.

    Attributes
    ----------
    m, n : int
        Row and column counts.
    pos : int64 array, shape (m + 1,)
        Offsets of each row's slice of ``idx`` and ``val``.
    idx : int64 array, shape (nnz,)
        Column indices, strictly increasing within each row.
    val : float64 array, shape (nnz,)
        Stored values. Explicitly stored zeros are legal and count
        toward ``nnz``.
    """

    __slots__ = ("m", "n", "pos", "idx", "val")

    def __init__(self, m, n, pos, idx, val):
        m, n = _dimension(m, "m"), _dimension(n, "n")
        pos = _frozen(pos, np.int64, "pos")
        idx = _frozen(idx, np.int64, "idx")
        val = _frozen(val, np.float64)
        if m < 0 or n < 0:
            raise ValueError(f"negative dimensions {m}x{n}")
        if pos.shape != (m + 1,):
            raise ValueError(f"pos has length {len(pos)}, expected {m + 1}")
        if pos[0] != 0 or (pos[1:] < pos[:-1]).any() or pos[m] != len(idx):
            raise ValueError("pos must start at 0, be non-decreasing, and end at nnz")
        if len(idx) != len(val):
            raise ValueError(f"idx/val length mismatch: {len(idx)} vs {len(val)}")
        if len(idx) and (idx.min() < 0 or idx.max() >= n):
            raise ValueError("column index out of range")
        if _first_fall(pos, idx) is not None:
            raise ValueError("column indices must be strictly increasing within a row")
        self.m = m
        self.n = n
        self.pos = pos
        self.idx = idx
        self.val = val

    @property
    def nnz(self):
        return int(self.pos[self.m])

    def row_cols(self, i):
        """Column indices stored in row ``i`` (sorted, read-only view)."""
        if not 0 <= i < self.m:
            raise IndexError(f"row {i} outside [0, {self.m})")
        return self.idx[self.pos[i]:self.pos[i + 1]]

    def entry_rows(self):
        """Row index of every stored entry, aligned with ``idx`` and ``val``."""
        return np.repeat(np.arange(self.m, dtype=np.int64), np.diff(self.pos))

    def to_dense(self):
        dense = np.zeros((self.m, self.n))
        dense[self.entry_rows(), self.idx] = self.val
        return dense

    def __eq__(self, other):
        if not isinstance(other, CsrMatrix):
            return NotImplemented
        return (
            self.m == other.m
            and self.n == other.n
            and np.array_equal(self.pos, other.pos)
            and np.array_equal(self.idx, other.idx)
            and np.array_equal(self.val, other.val)
        )

    def __repr__(self):
        return f"CsrMatrix({self.m}x{self.n}, nnz={self.nnz})"


class Partition:
    """Contiguous partition of ``range(size)`` into ``K`` parts.

    Stored as ``K + 1`` strictly increasing split points, with part ``k``
    covering the half-open range ``[spl[k], spl[k + 1])``.
    """

    __slots__ = ("spl",)

    def __init__(self, spl):
        spl = _frozen(spl, np.int64, "split points")
        if len(spl) == 0 or spl[0] != 0:
            raise ValueError("split points must start at 0")
        if (spl[1:] <= spl[:-1]).any():
            raise ValueError("split points must be strictly increasing")
        self.spl = spl

    @property
    def size(self):
        """Number of indices covered (the last split point)."""
        return int(self.spl[-1])

    @property
    def num_parts(self):
        return len(self.spl) - 1

    def widths(self):
        """Length of each part, as an int64 array of length K."""
        return self.spl[1:] - self.spl[:-1]

    def assignments(self):
        """Length-``size`` array mapping each index to its part."""
        return np.repeat(np.arange(self.num_parts, dtype=np.int64), self.widths())

    def inverse(self, i):
        """Part index containing ``i``."""
        if i < 0 or i >= self.size:
            raise IndexError(f"index {i} outside partitioned range [0, {self.size})")
        return int(np.searchsorted(self.spl, i, side="right")) - 1

    def is_trivial(self):
        return self.num_parts == self.size

    def __eq__(self, other):
        if not isinstance(other, Partition):
            return NotImplemented
        return np.array_equal(self.spl, other.spl)

    def __repr__(self):
        return f"Partition({self.spl.tolist()})"


def _first_fall(pos, idx):
    """Where ``idx`` first fails to rise strictly inside one of the
    segments ``idx[pos[k]:pos[k + 1]]``: the index j of the first such
    step idx[j - 1] -> idx[j], or None. A step may only fall where j starts
    a segment; ``pos`` must be non-decreasing, from 0 to ``len(idx)``."""
    falls = np.zeros(len(idx) + 1, dtype=bool)  # one slot past the end takes pos[-1]
    np.less_equal(idx[1:], idx[:-1], out=falls[1:-1])
    falls[pos] = False
    j = int(falls.argmax())
    return j if falls[j] else None


def trivial_partition(r):
    """Partition of ``range(r)`` with every index in its own part."""
    r = _dimension(r, "range size")
    if r < 0:
        raise ValueError(f"negative range size {r}")
    return Partition(np.arange(r + 1, dtype=np.int64))


def build_csr(m, n, entries):
    """Assemble a CSR matrix from (row, col, value) triples.

    ``entries`` is a 1-D record array of ``ENTRY_DTYPE``, used as is, or
    any iterable of triples (tuples, lists, a generator), converted by
    ``np.fromiter`` once the coordinates, read as floats, are found to be
    whole numbers. Entries are sorted row-major; duplicate coordinates are
    summed in input order. Each entry's int64 key (``_pair_keys``) is
    built once, and the keys are sorted only when they are out of order,
    a repeated key counting as out of order here since CSR stores each
    coordinate once: entries already in CSR order, as
    ``write_matrix_market`` writes them, skip the sort, about half the
    build on the benchmark files. Any other input goes through one
    ``np.unique`` of the same keys. Out-of-range coordinates are
    rejected, naming the offending entry.
    """
    m, n = _dimension(m, "m"), _dimension(n, "n")
    if not (isinstance(entries, np.ndarray) and entries.dtype == ENTRY_DTYPE):
        triples = list(map(tuple, entries))
        given = np.fromiter(triples, _FLOAT_ENTRY, len(triples))
        _check_whole(given["row"], "entry rows")
        _check_whole(given["col"], "entry columns")
        entries = np.fromiter(triples, ENTRY_DTYPE, len(triples))
    if not len(entries):
        return CsrMatrix(m, n, np.zeros(m + 1, np.int64), [], [])
    rows, cols = entries["row"], entries["col"]
    if rows.min() < 0 or rows.max() >= m or cols.min() < 0 or cols.max() >= n:
        b = int(np.argmax((rows < 0) | (rows >= m) | (cols < 0) | (cols >= n)))
        raise ValueError(
            f"entry {b} at (row, col)=({rows[b]}, {cols[b]}) is outside a {m}x{n} matrix"
        )
    keys = _pair_keys(rows, cols, m, n)
    if (keys[1:] > keys[:-1]).all():
        # in CSR order already: adding 0.0 reads -0.0 as +0.0 and quiets a
        # signalling NaN, as the sum below does, and as silently
        with np.errstate(invalid="ignore"):
            val = entries["val"] + 0.0
        return CsrMatrix(m, n, _offsets(np.bincount(rows, minlength=m)), cols, val)
    uniq, inverse = np.unique(keys, return_inverse=True)
    urows, ucols = np.divmod(uniq, n)
    summed = np.bincount(inverse, weights=entries["val"], minlength=len(uniq))
    return CsrMatrix(m, n, _offsets(np.bincount(urows, minlength=m)), ucols, summed)


def _offsets(sizes):
    """Where each of ``sizes`` starts when laid end to end, plus the total."""
    out = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(sizes, out=out[1:])
    return out


def _pair_keys(a, b, na, nb):
    """The int64 key ``a * nb + b`` of each pair of ``a`` in [0, na) and
    ``b`` in [0, nb), which orders the pairs lexicographically.

    Index ranges whose product does not fit in int64 are rejected rather
    than left to wrap.
    """
    if int(na) * int(nb) > _INT64_MAX:
        raise ValueError(f"{na} x {nb} index pairs do not fit a 64-bit key")
    return a * nb + b


def _row_pairs(A, cols):
    """The distinct (row, column part) pairs of ``A``'s stored entries under
    the column partition ``cols``: its pattern in CSR form with the columns
    grouped.

    Returns ``(pos, l, first)``: row i's pairs are ``l[pos[i]:pos[i + 1]]``,
    column parts ascending, and pair p holds the stored entries
    ``first[p]:first[p + 1]``, ``first`` ending at nnz. In CSR order a row's
    column parts rise, so a pair starts where the part changes or a row
    starts, and no sort is needed: O(nnz + m log P) time for P pairs. Under
    the trivial column partition every entry is its own pair: ``pos`` and
    ``l`` are ``A.pos`` and ``A.idx``, uncopied, and ``first`` is None.
    """
    if cols.size != A.n:
        raise ValueError(f"column partition covers {cols.size} columns, matrix has {A.n}")
    if cols.is_trivial():
        return A.pos, A.idx, None
    l = cols.assignments()[A.idx]
    # one slot past the entries takes the row starts at the end
    new = np.ones(len(l) + 1, dtype=bool)
    np.not_equal(l[1:], l[:-1], out=new[1:-1])
    new[A.pos] = True
    first = new.nonzero()[0]
    return first.searchsorted(A.pos), l[first[:-1]], first


def _block_pattern(A, rows, cols):
    """Nonzero blocks of ``A`` under a row and a column partition.

    The one answer to "which (block row, column part) pairs hold a stored
    entry", for the converters, the counters and ``evaluate``; the DP needs
    only the row pairs it starts from. Returns ``(k, l, pair)``: the block
    row and column part of every such block, sorted row-major, and the
    index in that list of the block that holds each stored entry.

    It starts from the row pairs (``_row_pairs``), which arrive by block
    row, each block row's as a few runs of ascending ``l``, one per row. One
    stable sort (Timsort) of their int64 keys (``_pair_keys``) merges the
    runs, and keeps every block row in place, only when the keys are out of
    order, which never happens under a trivial row partition nor when each
    block row holds one non-empty row. A block starts in the merged list
    where the key changes. Under grouped columns a row pair stands for its
    entries, so only it is sorted: 35,339 row pairs, not 114,082 entries,
    on the blocks-2d benchmark matrix.
    """
    if rows.size != A.m:
        raise ValueError(f"row partition covers {rows.size} rows, matrix has {A.m}")
    pos, l, first = _row_pairs(A, cols)
    k = np.repeat(rows.assignments(), np.diff(pos))
    keys = _pair_keys(k, l, rows.num_parts, cols.num_parts)
    order = np.argsort(keys, kind="stable") if (keys[1:] < keys[:-1]).any() else None
    listed = keys if order is None else keys[order]
    fresh = np.ones(len(keys), dtype=bool)  # where a block starts in the list
    np.not_equal(listed[1:], listed[:-1], out=fresh[1:])
    # each listed row pair's block; a cumulative sum of int64 is several
    # times faster than one of bool
    block = fresh.astype(np.int64)
    block[:1] = 0
    np.cumsum(block, out=block)
    # gathering at the kept indices beats a boolean mask several times over
    head = fresh.nonzero()[0]
    if order is not None:  # the i-th listed row pair is row pair order[i]
        head = order[head]
        # the keys are spent: their buffer, already paged in, takes the blocks
        keys[order], block = block, keys
    return k[head], l[head], block if first is None else np.repeat(block, np.diff(first))


def _stable_order(a, size):
    """The stable sorting permutation of ``a``, whose values lie in [0, size).

    numpy's stable sort of 16-bit integers is a radix sort, so ``a`` is
    sorted by one 16-bit digit at a time, the least significant first:
    O(len(a)) time for each of the ceil(log2(size) / 16) digits, with no
    comparisons. Entries in CSR order come out column-major, rows
    ascending within each column. ``transpose`` and ``overlap_partition``
    keep it because they need the permutation itself: ``np.argsort`` of
    the (column, row) key ``idx * m + row`` gives the same order 2.3-2.8x
    slower on the rowruns-1d, blocks-2d and scatter-heuristic benchmark
    matrices (min of 7 x 10 calls, 2 vCPUs). ``optimal_partition`` needs
    only its pairs in order, not the permutation, and sorts their keys.
    """
    order = np.argsort(a.astype(np.uint16), kind="stable")
    for shift in range(16, (int(size) - 1).bit_length(), 16):
        order = order[np.argsort((a[order] >> shift).astype(np.uint16), kind="stable")]
    return order


def transpose(A):
    """Transpose of ``A``, again in CSR form.

    The entries are in CSR order, rows ascending, so one stable sort by
    column alone (``_stable_order``, a radix sort) puts them in
    column-major order with rows ascending within each column, which is
    the transpose's CSR order; column counts give the new offsets. That is
    Gustavson's counting-sort transpose, with no (column, row) key.
    O(nnz * d + n) time for d = ceil(log2(n) / 16) digits, one while n
    <= 65536, and O(nnz + n) space.
    """
    order = _stable_order(A.idx, A.n)
    return CsrMatrix(A.n, A.m, _offsets(np.bincount(A.idx, minlength=A.n)),
                     A.entry_rows()[order], A.val[order])


def row_pattern(A, i, col_partition):
    """Sorted distinct column-part indices with a stored entry in row ``i``."""
    if col_partition.size != A.n:
        raise ValueError(
            f"column partition covers {col_partition.size} columns, matrix has {A.n}"
        )
    return np.unique(col_partition.assignments()[A.row_cols(i)])


def _check_widths(s_index, s_value):
    """Index and value widths as ints; each must be a positive whole bit count."""
    s_index, s_value = _dimension(s_index, "s_index"), _dimension(s_value, "s_value")
    if s_index <= 0 or s_value <= 0:
        raise ValueError(f"index and value widths must be positive, got {s_index} and {s_value}")
    return s_index, s_value


def csr_memory_bits(A, s_index, s_value):
    """Bits needed to store ``A`` in CSR with the given index/value widths."""
    s_index, s_value = _check_widths(s_index, s_value)
    nnz = A.nnz
    return (A.m + 1) * s_index + nnz * s_index + nnz * s_value
