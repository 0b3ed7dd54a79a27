"""Executable fixtures for the max-cut hardness reduction.

The reduction tiles a matrix with two square gadgets whose partition cost
encodes cut membership. This module builds those gadgets, their reduced
3x3 cores, the block-count variants, the full reduction matrix for a
graph, and the closed-form block/value counts of the partition cases the
hardness argument enumerates, so that the bookkeeping can be checked by
actually counting blocks.
"""

import math
from dataclasses import dataclass

import numpy as np

from .sparse import ENTRY_DTYPE, build_csr, Partition, transpose

__all__ = [
    "GadgetParams",
    "build_gadget",
    "gadget_case_cost",
    "case_row_partition",
    "case_col_partition",
    "HAPPY_CASES",
    "SAD_CASES",
    "ALL_CASES",
    "build_mini_pair",
    "mini_pair_row_partition",
    "MINI_PAIR_COL_SPLITS",
    "build_count_gadget",
    "build_reduction_matrix",
    "symmetric_embed",
]


# the largest side a CsrMatrix can index
_MU_MAX = int(np.iinfo(np.int64).max)


@dataclass(frozen=True)
class GadgetParams:
    """Sizing constants of the cost-model gadget, derived from the index
    weight ``s`` (the per-block cost relative to a per-value cost of 1).

    The gadget's side ``mu`` is about 56 s**2: 209 at s = 1 and 56,125,028
    at s = 1000, whose row pointers alone take 449 MB. An ``s`` whose
    ``mu`` is past the int64 indices of a CsrMatrix, above about 4.06e8,
    is refused.
    """

    s: float

    def __post_init__(self):
        if not math.isfinite(self.s):
            raise ValueError(f"index weight must be finite, got {self.s}")
        if self.s < 1:
            raise ValueError(f"index weight must be at least 1, got {self.s}")
        # mu3's float product overflows near s = 6.4e306, so test s first
        if self.s > 1e9 or self.mu > _MU_MAX:
            raise ValueError(f"index weight {self.s} makes the gadget side mu larger than "
                             f"{_MU_MAX}, the int64 index range of a CsrMatrix; s may be at "
                             "most about 4.06e8")

    @property
    def mu1(self):
        """Width of each zero filler band."""
        return math.floor(self.s + 1)

    @property
    def mu2(self):
        """Repetitions of the full (three-entry) border pattern."""
        return 32

    @property
    def mu3(self):
        """Repetitions of each single-entry border pattern."""
        return math.ceil(28 * self.s - 10)

    @property
    def mu(self):
        """Gadget side length."""
        return 3 + self.mu1 + (1 + self.mu1) * self.mu2 + 2 * (1 + self.mu1) * self.mu3


# 3x3 cores: B1 holds the diagonal, B2 the anti-diagonal.
_CORES = {"B1": [(0, 0), (1, 1), (2, 2)], "B2": [(0, 2), (1, 1), (2, 0)]}


def _pattern_positions(p):
    """Positions of the full / top / bottom border patterns along one axis.

    Layout: 3 core lines, a filler band, then each pattern line followed
    by its own filler band: mu2 full patterns, mu3 first-line patterns,
    mu3 third-line patterns.
    """
    at = [3 + p.mu1 + g * (1 + p.mu1) for g in range(p.mu2 + 2 * p.mu3)]
    return at[:p.mu2], at[p.mu2:p.mu2 + p.mu3], at[p.mu2 + p.mu3:]


def build_gadget(kind, p):
    """One mu x mu gadget as a CSR matrix of unit values.

    ``kind`` selects the 3x3 core: "B1" has entries on the diagonal and
    "B2" on the anti-diagonal; the border patterns are the same for both.
    Core rows carry the full border columns plus (row 0) the top-pattern
    columns and (row 2) the bottom-pattern columns, and symmetrically for
    core columns.
    """
    if kind not in _CORES:
        raise ValueError(f"unknown gadget kind {kind!r}")
    full, first, third = _pattern_positions(p)
    border = ([(i, c) for c in full for i in range(3)]
              + [(0, c) for c in first] + [(2, c) for c in third])
    entries = _CORES[kind] + border + [(c, i) for i, c in border]
    return build_csr(p.mu, p.mu, [(i, j, 1.0) for i, j in entries])


# The hardness argument reduces every relevant partition to one of four
# groupings of a gadget's first three rows (and, independently, columns).
_CORE_SPLITS = {
    "singles": (0, 1, 2, 3),      # each of the first three alone
    "first-pair": (0, 2, 3),      # first two merged
    "last-pair": (0, 1, 3),       # last two merged
    "all": (0, 3),                # all three merged
}

HAPPY_CASES = tuple(
    (rc, cc) for rc in ("first-pair", "last-pair") for cc in ("first-pair", "last-pair")
)
ALL_CASES = tuple((rc, cc) for rc in _CORE_SPLITS for cc in _CORE_SPLITS)
SAD_CASES = tuple(c for c in ALL_CASES if c not in HAPPY_CASES)

# Closed-form (value count, block count) for gadget B1 with the case's
# grouping on the first three rows/columns and everything else singleton.
# Coefficients are (constant, mu2 weight, mu3 weight). The all-singletons
# value constant is 3 (the three 1x1 core blocks); the published table
# lists 9 there, which its own construction and bound do not support.
_B1_CASE_TABLE = {
    ("last-pair", "last-pair"): ((5, 6, 6), (2, 4, 4)),
    ("last-pair", "first-pair"): ((8, 6, 6), (3, 4, 4)),
    ("first-pair", "last-pair"): ((8, 6, 6), (3, 4, 4)),
    ("first-pair", "first-pair"): ((5, 6, 6), (2, 4, 4)),
    ("all", "all"): ((9, 6, 12), (1, 2, 4)),
    ("all", "last-pair"): ((9, 6, 9), (2, 3, 4)),
    ("all", "first-pair"): ((9, 6, 9), (2, 3, 4)),
    ("all", "singles"): ((9, 6, 8), (3, 4, 4)),
    ("last-pair", "all"): ((9, 6, 9), (2, 3, 4)),
    ("last-pair", "singles"): ((5, 6, 5), (3, 5, 4)),
    ("first-pair", "all"): ((9, 6, 9), (2, 3, 4)),
    ("first-pair", "singles"): ((5, 6, 5), (3, 5, 4)),
    ("singles", "all"): ((9, 6, 8), (3, 4, 4)),
    ("singles", "last-pair"): ((5, 6, 5), (3, 5, 4)),
    ("singles", "first-pair"): ((5, 6, 5), (3, 5, 4)),
    ("singles", "singles"): ((3, 6, 4), (3, 6, 4)),
}

_MIRROR = {"first-pair": "last-pair", "last-pair": "first-pair",
           "singles": "singles", "all": "all"}


def gadget_case_cost(kind, case, p):
    """(value count, block count) closed form for a partition case.

    ``case`` is a (row grouping, column grouping) pair over the gadget's
    first three rows and columns, with all other rows and columns kept
    singleton. B2 costs come from B1 by mirroring the row grouping, since
    reversing the first three rows maps one core onto the other.
    """
    if case not in _B1_CASE_TABLE:
        raise ValueError(f"unknown partition case {case!r}")
    row_case, col_case = case
    if kind == "B2":
        row_case = _MIRROR[row_case]
    elif kind != "B1":
        raise ValueError(f"unknown gadget kind {kind!r}")
    (av, bv, cv), (ai, bi, ci) = _B1_CASE_TABLE[(row_case, col_case)]
    n_value = av + bv * p.mu2 + cv * p.mu3
    n_index = ai + bi * p.mu2 + ci * p.mu3
    return n_value, n_index


def _case_partition(core_case, size):
    splits = list(_CORE_SPLITS[core_case]) + list(range(4, size + 1))
    return Partition(splits)


def case_row_partition(case, p):
    """Full-gadget row partition of a case (non-core rows singleton)."""
    return _case_partition(case[0], p.mu)


def case_col_partition(case, p):
    return _case_partition(case[1], p.mu)


# Stacked 3x3 cores of an edge's two endpoint gadgets: B1's diagonal on
# top and B2's anti-diagonal below, as in the reduction.
_MINI_ENTRIES = [(0, 0), (1, 1), (2, 2), (3, 2), (4, 1), (5, 0)]

# The two candidate column groupings the cut argument compares.
MINI_PAIR_COL_SPLITS = ((0, 2, 3), (0, 1, 3))


def build_mini_pair(side_top="V1", side_bottom="V2"):
    """6x3 stack of the two endpoint gadget cores of one edge.

    The matrix itself does not depend on which side of the cut each
    endpoint takes; the sides pick the row grouping of each half (see
    ``mini_pair_row_partition``). Only entry positions are stored; the
    zeros the proof figures draw inside blocks are fill-in that conversion
    reproduces.
    """
    for side in (side_top, side_bottom):
        if side not in ("V1", "V2"):
            raise ValueError(f"cut side must be 'V1' or 'V2', got {side!r}")
    return build_csr(6, 3, [(i, j, 1.0) for i, j in _MINI_ENTRIES])


def mini_pair_row_partition(side_top, side_bottom):
    """Row partition induced by the endpoints' cut sides.

    A vertex in V1 merges the first two rows of its core, one in V2 the
    last two. Same side gives cost 13 + 5s, opposite sides 10 + 4s
    (minimized over the two column groupings).
    """
    halves = []
    for base, side in ((0, side_top), (3, side_bottom)):
        if side == "V1":
            halves += [base + 2, base + 3]
        elif side == "V2":
            halves += [base + 1, base + 3]
        else:
            raise ValueError(f"cut side must be 'V1' or 'V2', got {side!r}")
    return Partition([0] + halves)


def build_count_gadget(kind, u_max, w_max):
    """Gadget for the pure block-count cost, sized by the block caps.

    A (2*u_max + 1) x (2*w_max + 1) matrix whose top-left
    (u_max + 1) x (w_max + 1) region is dense except for two opposite
    corners: B1 clears the upper-right and lower-left, B2 the upper-left
    and lower-right. Its cost grows with u_max * w_max: the region is a
    dense boolean mask of (u_max + 1)(w_max + 1) bytes, and nearly every
    cell becomes an entry, which the returned CSR stores in 16 bytes.
    Building it peaks near 100 bytes per entry, and writing it as Matrix
    Market near 180 (tracemalloc, 10^6 entries), so u_max = w_max =
    100,000 asks for about 1 TB. That is the gadget's size; no bound of
    its own is set.
    """
    if u_max < 2 or w_max < 2:
        raise ValueError("count gadget needs u_max >= 2 and w_max >= 2")
    if kind == "B1":
        holes = ([0, u_max], [w_max, 0])
    elif kind == "B2":
        holes = ([0, u_max], [0, w_max])
    else:
        raise ValueError(f"unknown gadget kind {kind!r}")
    keep = np.ones((u_max + 1, w_max + 1), bool)
    keep[holes] = False
    i, j = np.nonzero(keep)
    entries = np.rec.fromarrays([i, j, np.ones(i.size)], dtype=ENTRY_DTYPE)
    return build_csr(2 * u_max + 1, 2 * w_max + 1, entries)


def build_reduction_matrix(n_vertices, edges, p):
    """Reduction matrix of a simple undirected graph.

    Tiles are laid out like the graph's incidence matrix: one gadget row
    per vertex and one gadget column per edge, with B1 at the lower
    endpoint's tile and B2 at the higher endpoint's.
    """
    seen = set()
    norm = []
    for e, (a, b) in enumerate(edges):
        if a == b:
            raise ValueError(f"edge {e} is a self-loop ({a}, {b})")
        if not (0 <= a < n_vertices and 0 <= b < n_vertices):
            raise ValueError(f"edge {e} endpoint outside 0..{n_vertices - 1}")
        key = (min(a, b), max(a, b))
        if key in seen:
            raise ValueError(f"edge {e} duplicates {key}")
        seen.add(key)
        norm.append(key)

    mu = p.mu
    b1 = build_gadget("B1", p)
    b2 = build_gadget("B2", p)
    # per edge j: B1's entries at tile (lo, j), then B2's at tile (hi, j)
    ends = np.array(norm, dtype=np.int64).reshape(-1, 2)
    end = np.repeat([0, 1], [b1.nnz, b2.nnz])
    rows = (ends[:, end] * mu + np.concatenate([b1.entry_rows(), b2.entry_rows()])).ravel()
    cols = (np.arange(len(norm))[:, None] * mu + np.concatenate([b1.idx, b2.idx])).ravel()
    entries = np.rec.fromarrays([rows, cols, np.ones(rows.size)], dtype=ENTRY_DTYPE)
    return build_csr(n_vertices * mu, len(norm) * mu, entries)


def symmetric_embed(A):
    """Pattern-symmetric (m+n) x (m+n) embedding [[0, A], [A^T, 0]]."""
    At = transpose(A)
    entries = np.rec.fromarrays([
        np.concatenate([A.entry_rows(), A.m + At.entry_rows()]),
        np.concatenate([A.m + A.idx, At.idx]),
        np.concatenate([A.val, At.val]),
    ], dtype=ENTRY_DTYPE)
    return build_csr(A.m + A.n, A.m + A.n, entries)
