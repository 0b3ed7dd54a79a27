"""Compressed sparse row matrices and contiguous partitions.

Everything in this package is built on two small immutable types: a CSR
matrix and a contiguous partition of an index range, stored as a vector of
split points. Both validate their invariants on construction and expose
read-only numpy arrays.

Coordinates travel as a 1-D record array of ``ENTRY_DTYPE``: int64 row,
int64 col and float64 val columns, one (row, col, value) triple per
record, which ``build_csr`` takes as is.
"""

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
        pos = _frozen(pos, np.int64, "pos")
        idx = _frozen(idx, np.int64, "idx")
        val = _frozen(val, np.float64)
        if m < 0 or n < 0:
            raise ValueError(f"negative dimensions {m}x{n}")
        if pos.shape != (m + 1,):
            raise ValueError(f"pos has length {len(pos)}, expected {m + 1}")
        if pos[0] != 0 or np.any(np.diff(pos) < 0) or pos[m] != len(idx):
            raise ValueError("pos must start at 0, be non-decreasing, and end at nnz")
        if len(idx) != len(val):
            raise ValueError(f"idx/val length mismatch: {len(idx)} vs {len(val)}")
        if len(idx) and (idx.min() < 0 or idx.max() >= n):
            raise ValueError("column index out of range")
        if _first_fall(pos, idx) is not None:
            raise ValueError("column indices must be strictly increasing within a row")
        self.m = int(m)
        self.n = int(n)
        self.pos = pos
        self.idx = idx
        self.val = val

    @property
    def nnz(self):
        return int(self.pos[self.m])

    def row_cols(self, i):
        """Column indices stored in row ``i`` (sorted, read-only view)."""
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
        if np.any(np.diff(spl) <= 0):
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
        return np.diff(self.spl)

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
    segments ``idx[pos[k]:pos[k + 1]]``: the index j + 1 of the first such
    step idx[j] -> idx[j + 1], or None. A step may only fall where j + 1
    starts a segment; ``pos`` must be non-decreasing."""
    if len(idx) < 2:
        return None
    falls = np.diff(idx) <= 0
    falls[pos[(pos > 0) & (pos < len(idx))] - 1] = False
    j = int(np.argmax(falls))
    return j + 1 if falls[j] else None


def trivial_partition(r):
    """Partition of ``range(r)`` with every index in its own part."""
    if r < 0:
        raise ValueError(f"negative range size {r}")
    return Partition(np.arange(r + 1, dtype=np.int64))


def build_csr(m, n, entries):
    """Assemble a CSR matrix from (row, col, value) triples.

    ``entries`` is a 1-D record array of ``ENTRY_DTYPE``, used as is, or
    any iterable of triples (tuples, lists, a generator), converted by
    ``np.fromiter`` once the coordinates, read as floats, are found to be
    whole numbers. Entries are sorted row-major; duplicate coordinates are
    summed in input order. Entries already in that order without
    duplicates, as ``write_matrix_market`` writes them, skip the sort,
    about half the build on the benchmark files: one pass over their keys
    finds them. Any other input is sorted by a sort that assumes no order.
    Out-of-range coordinates are rejected, naming the offending entry.
    """
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
    urows, ucols, inverse = _unique_pairs(rows, cols, m, n)
    summed = np.bincount(inverse, weights=entries["val"], minlength=len(urows))
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


def _unique_pairs(a, b, na, nb):
    """Sorted distinct pairs of ``a`` in [0, na) and ``b`` in [0, nb).

    Returns ``(a_pairs, b_pairs, inverse)``, with ``inverse`` giving each
    input's pair index. Pairs are ranked by their ``_pair_keys``.
    """
    uniq, inverse = np.unique(_pair_keys(a, b, na, nb), return_inverse=True)
    return uniq // nb, uniq % nb, inverse


def _block_pattern(A, rows, cols):
    """Nonzero blocks of ``A`` under a row and a column partition.

    The one answer to "which (block row, column part) pairs hold a
    stored entry", for the converters, the counters, ``evaluate`` and the
    DP. Returns ``(k, l, fresh, order)``: the block row and column part
    of every such pair, sorted row-major; the stored entries, listed in
    ``order`` (None for CSR order), run pair by pair, and the bool mask
    ``fresh`` marks each run's first entry in that list. Only the
    converters need each entry's pair index, so they expand it
    themselves.

    Under a trivial row partition the pairs are read off CSR order with
    no keys and no sort: a row's repeated parts are adjacent, so a pair
    starts wherever an entry's part differs from the previous entry's,
    or a row starts, and under two trivial partitions every entry is its
    own pair. Otherwise a block row's entries are a few ascending runs of
    int64 keys in CSR order, one per row, which a stable sort (Timsort)
    merges.
    """
    if rows.size != A.m:
        raise ValueError(f"row partition covers {rows.size} rows, matrix has {A.m}")
    if cols.size != A.n:
        raise ValueError(f"column partition covers {cols.size} columns, matrix has {A.n}")
    l = A.idx if cols.is_trivial() else cols.assignments()[A.idx]
    if rows.is_trivial():
        if cols.is_trivial():
            return A.entry_rows(), l, np.ones(len(l), dtype=bool), None
        fresh = np.ones(len(l) + 1, dtype=bool)
        np.not_equal(l[1:], l[:-1], out=fresh[1:-1])
        fresh[A.pos] = True  # a row's first entry
        # gathering at the kept indices beats a boolean mask several times over
        first = np.flatnonzero(fresh[:-1])
        return A.entry_rows()[first], l[first], fresh[:-1], None
    k = np.repeat(rows.assignments(), np.diff(A.pos))
    keys = _pair_keys(k, l, rows.num_parts, cols.num_parts)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    fresh = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=fresh[1:])
    first = order[np.flatnonzero(fresh)]
    return k[first], l[first], fresh, order


def _stable_order(a, size):
    """The stable sorting permutation of ``a``, whose values lie in [0, size).

    numpy's stable sort of 16-bit integers is a radix sort, so ``a`` is
    sorted by one 16-bit digit at a time, the least significant first:
    O(len(a)) time for each of the ceil(log2(size) / 16) digits, with no
    comparisons. Entries in CSR order come out column-major, rows
    ascending within each column.
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
    """Reject index or value widths that are not positive bit counts."""
    if s_index <= 0 or s_value <= 0:
        raise ValueError(f"index and value widths must be positive, got {s_index} and {s_value}")


def csr_memory_bits(A, s_index, s_value):
    """Bits needed to store ``A`` in CSR with the given index/value widths."""
    _check_widths(s_index, s_value)
    nnz = A.nnz
    return (A.m + 1) * s_index + nnz * s_index + nnz * s_value
