"""Properties of the shared block-pattern core, the blocked multiply and its
cached plan, and the CSR and partition invariants, checked against
independent references, plus regressions for inputs the core must reject.

The references walk the dense matrix entry by entry, so they share no code
with the vectorized counters, converters, ``evaluate`` or the DP.
"""

import itertools
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import blockpart.kernels as kernels
from blockpart import (
    CostModel,
    CsrMatrix,
    OneDVbrMatrix,
    Partition,
    VbrMatrix,
    alternating_partition,
    block_count,
    brute_force_partition,
    build_csr,
    cost_model_from_csv,
    evaluate,
    model_block_count,
    model_memory_vbr,
    onedvbr_get,
    onedvbr_memory_bits,
    optimal_partition,
    serialize_1dvbr,
    serialize_vbr,
    spmv_1dvbr,
    spmv_csr,
    spmv_vbr,
    stored_counts,
    to_1dvbr,
    to_vbr,
    transpose,
    trivial_partition,
    value_count,
    vbr_get,
    vbr_memory_bits,
)
from blockpart.calibrate import VARIANTS, _grid_shape, _grid_vbr
from blockpart.sparse import _block_pattern, _frozen, _offsets

PROPERTY = settings(derandomize=True, deadline=None, max_examples=100)
_EYE3 = build_csr(3, 3, [(i, i, 1.0) for i in range(3)])
VALUES = [0.0, 1.0, -2.5, 0.125, 7.0]


@st.composite
def partitions(draw, size):
    if size == 0:
        return Partition([0])
    cuts = draw(st.sets(st.integers(1, size - 1))) if size > 1 else set()
    return Partition([0] + sorted(cuts) + [size])


@st.composite
def partitions_or_trivial(draw, size):
    if draw(st.integers(0, 3)) == 0:
        return trivial_partition(size)
    return draw(partitions(size))


@st.composite
def blocked_inputs(draw, min_dim=0, max_dim=7):
    """A small CSR matrix (possibly 0 x n or m x 0, with empty rows and
    explicitly stored zeros) and a row and a column partition, each
    trivial one time in four and random otherwise."""
    m = draw(st.integers(min_dim, max_dim))
    n = draw(st.integers(min_dim, max_dim))
    cells = draw(st.sets(st.tuples(st.integers(0, m - 1), st.integers(0, n - 1)))) \
        if m and n else set()
    values = draw(st.lists(st.sampled_from(VALUES), min_size=len(cells), max_size=len(cells)))
    A = build_csr(m, n, [(i, j, v) for (i, j), v in zip(sorted(cells), values)])
    return A, draw(partitions_or_trivial(m)), draw(partitions_or_trivial(n))


@st.composite
def near_uniform_vbr(draw):
    """A VBR container whose block rows mostly share one height and one
    stored block count, with some of another height, another count or
    no block; the column parts are often all of one width."""
    n_parts = draw(st.integers(1, 5))
    if draw(st.booleans()):
        widths = [draw(st.integers(1, 3))] * n_parts
    else:
        widths = draw(st.lists(st.integers(1, 3), min_size=n_parts, max_size=n_parts))
    u, b = draw(st.integers(1, 3)), draw(st.integers(1, n_parts))
    heights, blocks = [], []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["same", "same", "same", "height", "count", "empty"]))
        heights.append(draw(st.integers(1, 3)) if kind == "height" else u)
        count = {"count": draw(st.integers(0, n_parts)), "empty": 0}.get(kind, b)
        blocks.append(sorted(draw(st.sets(st.integers(0, n_parts - 1),
                                          min_size=count, max_size=count))))
    return _numbered_vbr(heights, widths, blocks)


@st.composite
def mixed_vbr(draw):
    """A VBR container built of runs of block rows, each run of one height
    and one stored block pattern, some of them empty: a run can be a plan
    group on its own, consecutive and unpadded, while the container as a
    whole is not laid out as its plan. The column parts are one wide one
    time in two, so the columns are trivial."""
    n_parts = draw(st.integers(1, 4))
    widths = [1] * n_parts if draw(st.booleans()) else draw(
        st.lists(st.integers(1, 3), min_size=n_parts, max_size=n_parts))
    patterns = draw(st.lists(st.sets(st.integers(0, n_parts - 1), min_size=1),
                             min_size=1, max_size=3))
    heights, blocks = [], []
    for _ in range(draw(st.integers(1, 5))):
        size, u = draw(st.integers(1, 4)), draw(st.integers(1, 3))
        heights += [u] * size
        blocks += [sorted(draw(st.sampled_from([set(), *patterns])))] * size
    return _numbered_vbr(heights, widths, blocks)


@st.composite
def calibration_grids(draw):
    """A calibration grid of blocks up to 4 x 4, of any variant."""
    u, w = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    shape = _grid_shape(u, w, draw(st.integers(1, 5)), draw(st.integers(1, 3)),
                        draw(st.sampled_from(VARIANTS)))
    return _grid_vbr(u, w, *shape, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))


@st.composite
def plan_containers(draw):
    """Both containers of ``blocked_inputs()``, or a calibration grid, or a
    ``mixed_vbr()`` container."""
    kind = draw(st.sampled_from(["drawn", "grid", "mixed"]))
    if kind == "drawn":
        return blocked_pair(*draw(blocked_inputs()))
    return [draw(calibration_grids() if kind == "grid" else mixed_vbr())]


def _numbered_vbr(heights, widths, blocks):
    """The VbrMatrix of block rows of ``heights`` storing the column parts
    ``blocks`` of ``widths``, its values 1, 2, 3, ... in storage order."""
    values = [h * sum(widths[l] for l in row) for h, row in zip(heights, blocks)]
    ofs = _offsets(values)
    return VbrMatrix(_offsets(heights), _offsets(widths), _offsets([len(r) for r in blocks]),
                     [l for row in blocks for l in row], ofs,
                     np.arange(1.0, ofs[-1] + 1.0))


@st.composite
def vectors(draw, size):
    """A float vector of the given length; all zeros one time in two."""
    if draw(st.booleans()):
        return np.zeros(size)
    return np.array(draw(st.lists(st.floats(-100.0, 100.0), min_size=size, max_size=size)),
                    dtype=np.float64)


def blocked_pair(A, rows, cols):
    """The VBR and the 1D-VBR container of A."""
    return to_vbr(A, rows, cols), to_1dvbr(A, rows)


def within(got, want, bound):
    """Elementwise |got - want| <= 1e-12 * bound (bound: sum of |terms| per row)."""
    return bool(np.all(np.abs(got - want) <= 1e-12 * bound))


def ref_blocks(A, rows, cols):
    """Set of (block row, column part) holding a stored entry."""
    return {(rows.inverse(i), cols.inverse(int(j)))
            for i in range(A.m) for j in A.row_cols(i)}


def ref_cost(model, A, rows, cols):
    heights = rows.widths().tolist()
    widths = cols.widths().tolist()
    total = sum(model.alpha_row[u - 1] for u in heights)
    total += sum(model.alpha_col[w - 1] for w in widths)
    for k, l in ref_blocks(A, rows, cols):
        for r in range(model.rank):
            total += model.beta_row[r][heights[k] - 1] * model.beta_col[r][widths[l] - 1]
    return total


@st.composite
def models(draw, u_max, w_max, integer):
    if integer:
        entry = st.one_of(st.integers(-50, 50), st.integers(-10**20, 10**20))
    else:
        entry = st.floats(-10.0, 10.0, allow_nan=False)
    rank = draw(st.integers(1, 3))

    def table(size):
        return tuple(draw(st.lists(entry, min_size=size, max_size=size)))

    return CostModel(
        alpha_row=table(u_max),
        alpha_col=table(w_max),
        beta_row=tuple(table(u_max) for _ in range(rank)),
        beta_col=tuple(table(w_max) for _ in range(rank)),
    )


def max_size(part):
    return max(part.widths().tolist(), default=1)


class TestConverterProperties:
    @PROPERTY
    @given(blocked_inputs())
    def test_lookup_matches_dense(self, case):
        A, rows, cols = case
        B = to_vbr(A, rows, cols)
        D = to_1dvbr(A, rows)
        dense = A.to_dense()
        for i in range(A.m):
            for j in range(A.n):
                assert vbr_get(B, i, j) == dense[i, j]
                assert onedvbr_get(D, i, j) == dense[i, j]

    @PROPERTY
    @given(st.data())
    def test_spmv_matches_dense(self, data):
        A, rows, cols = data.draw(blocked_inputs())
        x = data.draw(vectors(A.n))
        dense = A.to_dense()
        want, bound = dense @ x, np.abs(dense) @ np.abs(x)
        y_csr = spmv_csr(A, x)
        assert within(y_csr, want, bound)
        B, D = blocked_pair(A, rows, cols)
        for y in (spmv_vbr(np.zeros(A.m), B, x), spmv_1dvbr(np.zeros(A.m), D, x)):
            assert within(y, want, bound) and within(y, y_csr, bound)

    @PROPERTY
    @given(blocked_inputs())
    def test_stored_counts_equal_counters(self, case):
        A, rows, cols = case
        trivial = trivial_partition(A.n)
        assert stored_counts(to_vbr(A, rows, cols)) == (
            block_count(A, rows, cols), value_count(A, rows, cols))
        assert stored_counts(to_1dvbr(A, rows)) == (
            block_count(A, rows, trivial), value_count(A, rows, trivial))

    @PROPERTY
    @given(blocked_inputs())
    def test_counters_match_reference(self, case):
        A, rows, cols = case
        blocks = ref_blocks(A, rows, cols)
        heights = rows.widths().tolist()
        widths = cols.widths().tolist()
        assert block_count(A, rows, cols) == len(blocks)
        assert value_count(A, rows, cols) == sum(heights[k] * widths[l] for k, l in blocks)

    @PROPERTY
    @given(blocked_inputs())
    def test_serialized_bits_equal_formulas(self, case):
        A, rows, cols = case
        blocks = ref_blocks(A, rows, cols)
        heights = rows.widths().tolist()
        widths = cols.widths().tolist()
        n_value = sum(heights[k] * widths[l] for k, l in blocks)
        K, L = rows.num_parts, cols.num_parts
        bits = (3 * (K + 1) + (L + 1) + len(blocks)) * 64 + n_value * 64
        assert vbr_memory_bits(A, rows, cols, 64, 64) == bits
        assert 8 * len(serialize_vbr(to_vbr(A, rows, cols))) == bits
        blocks_1d = ref_blocks(A, rows, trivial_partition(A.n))
        bits_1d = (3 * (K + 1) + len(blocks_1d)) * 64 + sum(
            heights[k] for k, _ in blocks_1d) * 64
        assert onedvbr_memory_bits(A, rows, 64, 64) == bits_1d
        assert 8 * len(serialize_1dvbr(to_1dvbr(A, rows))) == bits_1d

    @PROPERTY
    @given(blocked_inputs(), st.data())
    def test_trivial_partitions_share_the_csr_arrays(self, case, data):
        # CSR is the container with two trivial partitions: its 1x1 blocks
        # are the stored entries, -0.0 and explicit zeros among them
        A, _, _ = case
        signed = data.draw(st.lists(st.sampled_from([*VALUES, -0.0]),
                                    min_size=A.nnz, max_size=A.nnz))
        A = CsrMatrix(A.m, A.n, A.pos, A.idx, signed)
        rows, cols = trivial_partition(A.m), trivial_partition(A.n)
        dense = A.to_dense()
        vbr, onedvbr = to_vbr(A, rows, cols), to_1dvbr(A, rows)
        # the storage formulas with K = m, L = n and one value per block
        bits_1d = (3 * (A.m + 1) + A.nnz) * 64 + A.nnz * 64
        assert 8 * len(serialize_vbr(vbr)) == bits_1d + (A.n + 1) * 64
        assert 8 * len(serialize_1dvbr(onedvbr)) == bits_1d
        for B in (vbr, onedvbr):
            blocks = [(k, int(l)) for k in range(A.m) for l in B.idx[B.pos[k]:B.pos[k + 1]]]
            assert blocks == sorted(ref_blocks(A, rows, cols))
            want = np.array([dense[k, l] for k, l in blocks], dtype=np.float64)
            assert B.val.tobytes() == want.tobytes()  # -0.0 keeps its sign
            assert np.shares_memory(B.pos, A.pos) and np.shares_memory(B.ofs, A.pos)
            if A.nnz:
                assert np.shares_memory(B.val, A.val) and np.shares_memory(B.idx, A.idx)

    @PROPERTY
    @given(st.data())
    def test_one_filled_row_per_block_row_lists_entries_in_csr_order(self, data):
        # under a non-trivial row partition whose block rows each hold at
        # most one non-empty row, the pair keys arrive in order: no sort
        m, n = data.draw(st.integers(2, 7)), data.draw(st.integers(1, 7))
        rows = data.draw(partitions(m))
        if rows.is_trivial():
            rows = Partition(np.delete(rows.spl, 1))
        cols = data.draw(partitions_or_trivial(n))
        entries = []
        for a, b in zip(rows.spl[:-1].tolist(), rows.spl[1:].tolist()):
            if data.draw(st.booleans()):
                i = data.draw(st.integers(a, b - 1))
                row = data.draw(st.sets(st.integers(0, n - 1), min_size=1))
                entries += [(i, j, data.draw(st.sampled_from(VALUES))) for j in sorted(row)]
        A = build_csr(m, n, entries)
        assert _block_pattern(A, rows, cols)[3] is None
        B, D = blocked_pair(A, rows, cols)
        dense = A.to_dense()
        K, L = rows.num_parts, cols.num_parts
        for C, part in ((B, cols), (D, trivial_partition(n))):
            blocks = [(k, int(l)) for k in range(K) for l in C.idx[C.pos[k]:C.pos[k + 1]]]
            assert blocks == sorted(ref_blocks(A, rows, part))
            assert all(vbr_get(C, i, j) == dense[i, j] for i in range(m) for j in range(n))
        # the storage formulas, as test_serialized_bits_equal_formulas writes them
        heights, widths = rows.widths().tolist(), cols.widths().tolist()
        blocks = ref_blocks(A, rows, cols)
        n_value = sum(heights[k] * widths[l] for k, l in blocks)
        bits = (3 * (K + 1) + (L + 1) + len(blocks)) * 64 + n_value * 64
        assert vbr_memory_bits(A, rows, cols, 64, 64) == 8 * len(serialize_vbr(B)) == bits
        blocks_1d = ref_blocks(A, rows, trivial_partition(n))
        bits_1d = (3 * (K + 1) + len(blocks_1d)) * 64 + sum(heights[k] for k, _ in blocks_1d) * 64
        assert onedvbr_memory_bits(A, rows, 64, 64) == 8 * len(serialize_1dvbr(D)) == bits_1d


class TestMultiplyPlan:
    @PROPERTY
    @given(st.data())
    def test_repeated_calls_bit_identical(self, data):
        A, rows, cols = data.draw(blocked_inputs())
        x = data.draw(vectors(A.n))
        for B in blocked_pair(A, rows, cols):
            first = spmv_vbr(np.zeros(A.m), B, x).tobytes()
            for _ in range(2):
                assert spmv_vbr(np.zeros(A.m), B, x).tobytes() == first

    @PROPERTY
    @given(st.data())
    def test_plan_keeps_no_vector(self, data):
        A, rows, cols = data.draw(blocked_inputs())
        x0, x = data.draw(vectors(A.n)), data.draw(vectors(A.n))
        y0 = np.array(data.draw(st.lists(st.floats(-100.0, 100.0), min_size=A.m,
                                         max_size=A.m)), dtype=np.float64)
        bound = np.abs(y0) + np.abs(A.to_dense()) @ np.abs(x)
        for B in blocked_pair(A, rows, cols):
            spmv_vbr(np.zeros(A.m), B, x0)
            y = y0.copy()
            assert spmv_vbr(y, B, x) is y
            assert within(y, y0 + spmv_csr(A, x), bound)

    @pytest.mark.parametrize("m, n, entries, spl", [
        (0, 0, [], [0]),
        (0, 3, [], [0]),
        (3, 0, [], [0, 1, 3]),
        (3, 3, [], [0, 2, 3]),  # no stored block
        (4, 3, [(0, 0, 1.0), (3, 2, -2.5)], [0, 1, 3, 4]),  # empty middle block row
    ])
    def test_edge_cases(self, m, n, entries, spl):
        A = build_csr(m, n, entries)
        rows = Partition(spl)
        for x in (np.zeros(n), np.arange(1.0, n + 1.0)):
            for B in blocked_pair(A, rows, trivial_partition(n)):
                want = spmv_csr(A, x)
                assert np.array_equal(spmv_vbr(np.zeros(m), B, x), want)
                assert np.array_equal(spmv_vbr(np.ones(m), B, x), 1.0 + want)

    def test_plan_built_once_at_construction(self, example_matrix, monkeypatch):
        # the constructor builds the plan after its checks, and no multiply
        # builds or replaces it
        builds = []
        monkeypatch.setattr(kernels, "_build_plan",
                            lambda B, build=kernels._build_plan: builds.append(B) or build(B))
        A = example_matrix
        for B in blocked_pair(A, Partition([0, 2, 3, 6, 8]), Partition([0, 3, 4, 9])):
            plan = B._plan
            assert builds.count(B) == 1 and plan.groups
            spmv_vbr(np.zeros(A.m), B, np.ones(A.n))
            spmv_1dvbr(np.zeros(A.m), B, np.arange(A.n, dtype=np.float64))
            assert B._plan is plan
            assert builds.count(B) == 1
        with pytest.raises(ValueError, match="disagrees with its pattern"):  # the last check
            VbrMatrix([0, 2], [0, 1], [0, 1], [0], [0, 1], [1.0])
        assert len(builds) == 2

    def test_shape_errors_leave_the_plan(self, example_matrix):
        A = example_matrix
        for B in blocked_pair(A, Partition([0, 4, 8]), trivial_partition(A.n)):
            plan = B._plan
            with pytest.raises(ValueError, match="x has shape"):
                spmv_vbr(np.zeros(A.m), B, np.ones(A.n + 1))
            with pytest.raises(ValueError, match="y has shape"):
                spmv_vbr(np.zeros(A.m - 1), B, np.ones(A.n))
            assert B._plan is plan

    def test_plan_arrays_read_only(self, example_matrix):
        # every group's values and x columns, and where and target when they
        # are arrays; here where is one (the plan is not in row order)
        A = example_matrix
        for B in blocked_pair(A, Partition([0, 2, 3, 6, 8]), Partition([0, 3, 4, 9])):
            plan = B._plan
            assert plan.groups and isinstance(plan.where, np.ndarray)
            arrays = [array for values, cols, _ in plan.groups for array in (values, cols)]
            arrays += [a for a in (plan.where, plan.target) if isinstance(a, np.ndarray)]
            for array in arrays:
                assert not array.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    array[(0,) * array.ndim] = 1

    @PROPERTY
    @given(blocked_inputs(), st.sampled_from([0, 3, kernels._GROUP]))
    def test_plan_layout(self, case, group):
        # each group: (G, u, c) values, (G, c) x columns, (G, u) y rows; a block
        # row's stored columns in order, then pad slots up to c that hold 0.0
        # and read the zero slot x[n]; c is the group's largest stored count,
        # and one height's groups hold disjoint, ascending ranges of counts.
        # A small group cost splits heights these small matrices would merge.
        # where is slice(None) exactly when the rows, in plan order, ascend,
        # and target is a slice exactly when every block row stores a block.
        A, rows, cols = case
        dense = np.hstack([A.to_dense(), np.zeros((A.m, 1))])
        with mock.patch.object(kernels, "_GROUP", group):
            containers = blocked_pair(A, rows, cols)
        for B, part in zip(containers, (cols, trivial_partition(A.n))):
            blocks = ref_blocks(A, rows, part)
            want_rows, got_rows = [], []
            for k in range(rows.num_parts):
                if any((k, l) in blocks for l in range(part.num_parts)):
                    want_rows.extend(range(rows.spl[k], rows.spl[k + 1]))
            shapes = [values.shape[1:] for values, _, _ in plan_groups(B._plan)]
            assert shapes == sorted(set(shapes))
            ranges = {}  # height -> (fewest, most) stored columns of each group, in plan order
            in_plan_order = []  # the y row of each product, in the order of z
            for values, x_cols, y_rows in plan_groups(B._plan):
                g, u, c = values.shape
                in_plan_order += y_rows.ravel("F").tolist()
                assert x_cols.shape == (g, c) and y_rows.shape == (g, u)
                assert np.array_equal(values, dense[y_rows[:, :, None], x_cols[:, None, :]])
                counts = []
                for r, xc in zip(y_rows, x_cols):
                    k = rows.inverse(int(r[0]))
                    assert r.tolist() == list(range(rows.spl[k], rows.spl[k + 1]))
                    stored = [j for l in range(part.num_parts) if (k, l) in blocks
                              for j in range(part.spl[l], part.spl[l + 1])]
                    assert xc.tolist() == stored + [A.n] * (c - len(stored))
                    counts.append(len(stored))
                assert max(counts) == c
                ranges.setdefault(u, []).append((min(counts), c))
                got_rows.extend(y_rows.ravel().tolist())
            for spans in ranges.values():
                assert all(most < fewest for (_, most), (fewest, _) in zip(spans, spans[1:]))
            # one y row per row of a non-empty block row, none per product
            assert sorted(got_rows) == want_rows
            assert isinstance(B._plan.where, slice) == (in_plan_order == want_rows)
            assert isinstance(B._plan.target, slice) == (len(want_rows) == A.m)

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(st.data())
    def test_plan_matches_the_scattering_build(self, data):
        # the plan takes a group of consecutive, unpadded block rows as
        # slices of the container and gathers any other group; both must
        # give the groups of the build that always scatters, bit for bit
        kind = data.draw(st.sampled_from(["drawn", "grid", "near-uniform", "mixed"]))
        if kind == "drawn":
            A, rows, cols = data.draw(blocked_inputs())
            containers = blocked_pair(A, rows, cols)
        elif kind == "grid":
            containers = [data.draw(calibration_grids())]
        elif kind == "near-uniform":
            containers = [data.draw(near_uniform_vbr())]
        else:
            containers = [data.draw(mixed_vbr())]
        for B in containers:
            got, want = plan_groups(kernels._build_plan(B)), _scattering_plan(B)
            assert len(got) == len(want)
            for got_group, want_group in zip(got, want):
                for a, b in zip(got_group, want_group):
                    assert (a.dtype, a.shape, a.flags.writeable) == (b.dtype, b.shape, False)
                    assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("k", [1, 4])
    @pytest.mark.parametrize("u", [1, 3])
    @pytest.mark.parametrize("width", [1, 2], ids=["trivial-columns", "grouped-columns"])
    def test_one_shape_plan_is_the_scattering_build(self, k, u, width):
        # block rows all u tall, each storing two blocks of one width: the plan
        # is one group built with no sort, which must equal the scattering
        # build bit for bit; a u = 1 group stays a view of val, and of idx
        # under trivial columns, and z is then in row order
        patterns = [[0, 2], [1, 2], [0, 1], [0, 2]][:k]
        with mock.patch.object(kernels, "_one_shape_plan",
                               wraps=kernels._one_shape_plan) as one_shape:
            B = _numbered_vbr([u] * k, [width] * 3, patterns)
        assert one_shape.call_count == 1
        plan = B._plan
        (values, cols, span), = plan.groups
        (want_values, want_cols, rows), = _scattering_plan(B)
        for a, b in ((values, want_values), (cols, want_cols)):
            assert (a.dtype, a.shape, a.flags.writeable) == (b.dtype, b.shape, False)
            assert a.tobytes() == b.tobytes()
        assert (span, plan.size, plan.target, plan.pad) == (slice(0, B.m), B.m, slice(0, B.m),
                                                            False)
        assert rows.ravel("F")[plan.where].tolist() == list(range(B.m))
        assert isinstance(plan.where, slice) == (u == 1 or k == 1)
        if not isinstance(plan.where, slice):
            assert not plan.where.flags.writeable
        assert np.shares_memory(values, B.val) == (u == 1)
        assert np.shares_memory(cols, B.idx) == (u == 1 and width == 1)
        if u > 1:
            assert values.flags.f_contiguous and cols.flags.f_contiguous

    @pytest.mark.parametrize("heights, widths, patterns", [
        ([2, 2, 2], [2, 2, 2], [[0, 2], [1], [0, 1]]),  # one block row stores fewer blocks
        ([2, 2, 2], [2, 2, 2], [[0, 2], [], [0, 1]]),  # or none
        ([2, 1, 2], [2, 2, 2], [[0, 2], [1, 2], [0, 1]]),  # one is shorter
        ([1, 1, 1], [2, 1, 2], [[0, 1], [1, 2], [0, 1]]),  # one holds a block of another width
    ], ids=["count", "empty", "height", "width"])
    def test_near_one_shape_takes_the_general_build(self, heights, widths, patterns):
        # each container misses one shape by one block row: it must not take
        # the one-group build, and its plan must still be the scattering one
        with mock.patch.object(kernels, "_one_shape_plan",
                               wraps=kernels._one_shape_plan) as one_shape:
            B = _numbered_vbr(heights, widths, patterns)
        assert one_shape.call_count == 0
        got, want = plan_groups(B._plan), _scattering_plan(B)
        assert len(got) == len(want)
        for got_group, want_group in zip(got, want):
            for a, b in zip(got_group, want_group):
                assert a.shape == b.shape and a.tobytes() == b.tobytes()

    @PROPERTY
    @given(plan_containers())
    def test_copied_groups_run_block_rows_fastest(self, containers):
        # a group the plan copies keeps the same slot of its block rows side by
        # side (ELLPACK's column-major order), so the multiply's inner loop runs
        # over the block rows, and so does its stretch of z; a group of
        # consecutive, unpadded block rows stays a view of the container's
        # values exactly when it is one row tall, and no other group shares
        # memory with them
        for B in containers:
            for values, cols, rows in plan_groups(B._plan):
                view = np.shares_memory(values, B.val)
                assert view == (values.shape[1] == 1 and _consecutive(rows) and B.n not in cols)
                if not view:
                    assert values.flags.f_contiguous and cols.flags.f_contiguous

    @PROPERTY
    @given(plan_containers())
    def test_target_and_where_add_each_row_once(self, containers):
        # y[target] += z[where] adds each row of every non-empty block row
        # once, from the z slot of its products, and touches no other row;
        # where is slice(None) exactly when plan order is row order. The
        # plan order comes from the scattering build, each group's stretch
        # of z in Fortran order. No array is longer than the stored values.
        for B in containers:
            plan = B._plan
            want = [i for k in range(len(B.spl_rows) - 1) if B.pos[k + 1] > B.pos[k]
                    for i in range(B.spl_rows[k], B.spl_rows[k + 1])]
            in_plan_order = []
            for _, _, rows in _scattering_plan(B):
                in_plan_order += rows.ravel("F").tolist()
            assert plan.size == len(in_plan_order) == len(want)
            target = np.arange(B.m)[plan.target]
            assert target.tolist() == want
            assert np.array(in_plan_order, dtype=np.int64)[plan.where].tolist() == want
            assert isinstance(plan.where, slice) == (in_plan_order == want)
            assert isinstance(plan.target, slice) == (len(want) == B.m)
            assert all(len(a) <= len(B.val) for a in (plan.where, plan.target)
                       if isinstance(a, np.ndarray))

    @pytest.mark.parametrize("m, n, entries, spl, shapes", [
        (0, 0, [], [0], []),
        (0, 3, [], [0], []),
        (3, 0, [], [0, 1, 3], []),
        # block rows of heights 2, 1, 1 and 2 storing 5, 0, 1 and 4 columns: the
        # two of height 2 share one group padded to 5, which costs _GROUP + 5 * 2
        # against 2 * _GROUP + 4 + 5 for two groups; 5 y rows, 21 products
        (6, 6, [(0, 0, 1.0), (0, 2, 2.0), (0, 4, 3.0), (1, 1, 4.0), (1, 3, 5.0), (3, 5, 6.0),
                (4, 0, 7.0), (4, 1, 8.0), (5, 2, 9.0), (5, 3, 10.0)], [0, 2, 3, 4, 6],
         [((1, 1, 1), [[3]], [[5]]),
          ((2, 2, 5), [[4, 5], [0, 1]], [[0, 1, 2, 3, 6], [0, 1, 2, 3, 4]])]),
    ])
    def test_plan_groups(self, m, n, entries, spl, shapes):
        A = build_csr(m, n, entries)
        B = to_1dvbr(A, Partition(spl))
        x = np.arange(1.0, n + 1.0)
        assert np.array_equal(spmv_vbr(np.zeros(m), B, x), spmv_csr(A, x))
        assert [(v.shape, r.tolist(), c.tolist()) for v, c, r in plan_groups(B._plan)] == shapes

    def test_calibration_grid_gets_a_slice(self):
        # every block row of a grid stores the same columns: one group over
        # all the rows in order, no pad, so y is updated through y[0:m]; the
        # group is a copy, so its stretch of z holds the rows block row fastest
        B = _grid_vbr(3, 2, *_grid_shape(3, 2, 5, 2, "base"), np.random.default_rng(0))
        x = np.arange(1.0, B.n + 1.0)
        y = spmv_vbr(np.zeros(B.m), B, x)
        ((values, cols, span),) = B._plan.groups
        assert (B._plan.target, span) == (slice(0, B.m), slice(0, B.m))
        assert B._plan.where.tolist() == np.arange(B.m).reshape(3, 5).T.ravel().tolist()
        assert values.shape == (5, 3, 2 * 2) and B.n not in cols and not B._plan.pad
        assert np.array_equal(y, np.einsum("guc,gc->gu", values, x[cols]).ravel())

    def test_equal_length_rows_get_a_slice(self):
        # 1x1 blocks whose rows all store 2 entries: one group, no pad, its
        # y rows a slice and its values a read-only view of B.val itself
        A = build_csr(4, 5, [(i, j, float(5 * i + j + 1)) for i in range(4)
                             for j in (i, (i + 2) % 5)])
        for B in (to_vbr(A, trivial_partition(4), trivial_partition(5)),
                  to_1dvbr(A, trivial_partition(4))):
            x = np.arange(1.0, 6.0)
            assert np.array_equal(spmv_vbr(np.zeros(4), B, x), spmv_csr(A, x))
            ((values, cols, span),) = B._plan.groups
            assert (span, values.shape) == (slice(0, 4), (4, 1, 2)) and B.n not in cols
            assert (B._plan.target, B._plan.where, B._plan.pad) == (slice(0, 4), slice(None), False)
            assert np.shares_memory(values, B.val) and not values.flags.writeable

    @pytest.mark.parametrize("spl, columns, view", [
        # heights 2, 1, 1: block rows 1 and 2 form the u = 1 group, consecutive
        # and unpadded, though the container as a whole is not laid out as
        # its plan, having two heights
        ([0, 2, 3, 4], [0, 2], (2, 4)),
        # heights 1, 1, 2: the u = 1 group is block rows 0 and 1
        ([0, 1, 2, 4], [0, 2], (0, 2)),
        # heights 2, 2, 1, 1, every row storing column 1 alone: the u = 2
        # group stores one column (c_pad = 1) and is still a Fortran copy
        ([0, 2, 4, 5, 6], [1], (4, 6)),
    ], ids=["heights-2-1-1", "heights-1-1-2", "one-column"])
    def test_consecutive_unpadded_group_is_a_view(self, spl, columns, view):
        # every row stores the same columns: each group is read off the
        # container, the u = 1 group's values are a view of B.val and the
        # u = 2 group's a copy with block rows fastest
        m, c = spl[-1], len(columns)
        A = build_csr(m, 3, [(i, j, float(3 * i + j + 1)) for i in range(m) for j in columns])
        B = to_1dvbr(A, Partition(spl))
        x = np.array([1.0, 2.0, 3.0])
        assert np.array_equal(spmv_vbr(np.zeros(m), B, x), spmv_csr(A, x))
        (ones, ones_cols, ones_rows), (twos, twos_cols, twos_rows) = plan_groups(B._plan)
        assert (ones.shape, ones_rows.ravel().tolist(), ones_cols.tolist()) == (
            (2, 1, c), list(range(*view)), [columns] * 2)
        assert np.shares_memory(ones, B.val) and not ones.flags.writeable
        assert (twos.shape[1:], twos_cols.tolist()) == ((2, c), [columns] * len(twos))
        assert _consecutive(twos_rows) and not np.shares_memory(twos, B.val)
        assert twos.flags.f_contiguous and twos_cols.flags.f_contiguous

    @pytest.mark.parametrize("entries, pad, rows", [
        # rows 0 and 2 store 2 entries each and row 1 none: one unpadded
        # group whose rows skip row 1
        ([(0, 0, 1.0), (0, 1, 2.0), (2, 1, 3.0), (2, 2, 4.0)], False, [[0], [2]]),
        # rows 0 and 1 store 2 and 1 entries: one group padded to 2 that
        # covers rows 0..1, but in the order 1, 0 of its stored counts
        ([(0, 0, 1.0), (0, 1, 2.0), (1, 2, 3.0)], True, [[1], [0]]),
    ])
    def test_rows_out_of_order_keep_an_index_array(self, entries, pad, rows):
        # row 2 or 1 is empty, so target lists the rows that get products;
        # where gives each row's z slot, and is an array exactly when the
        # rows are out of order in the plan
        A = build_csr(3, 3, entries)
        B = to_1dvbr(A, trivial_partition(3))
        x = np.array([1.0, 2.0, 3.0])
        assert np.array_equal(spmv_vbr(np.ones(3), B, x), 1.0 + spmv_csr(A, x))
        ((_, cols, got_rows),) = plan_groups(B._plan)
        assert (B.n in cols) == pad == B._plan.pad
        assert got_rows.tolist() == rows
        flat = sum(rows, [])
        target, where = B._plan.target, B._plan.where
        assert isinstance(target, np.ndarray) and not target.flags.writeable
        assert target.tolist() == sorted(flat)
        if flat == sorted(flat):
            assert where == slice(None)
        else:
            assert where.tolist() == np.argsort(flat).tolist() and not where.flags.writeable

    @PROPERTY
    @given(st.lists(st.integers(1, 3000), min_size=1, max_size=8, unique=True), st.data())
    def test_pad_classes_are_optimal(self, counts, data):
        # the DP's classing costs the least of all 2^(k-1) contiguous ones,
        # and never more than padding each count to a multiple of 4
        counts.sort()
        sizes = data.draw(st.lists(st.integers(1, 400), min_size=len(counts),
                                   max_size=len(counts)))

        def cost(padded):  # a class is the counts padded to one value
            rows = {}
            for p, size in zip(padded, sizes):
                rows[p] = rows.get(p, 0) + size
            return sum(kernels._GROUP + p * size for p, size in rows.items())

        got = kernels._pad_classes(counts, sizes)
        assert set(got) <= set(counts) and got == sorted(got)
        assert all(c <= p for c, p in zip(counts, got))
        classings = []
        for cuts in itertools.product((False, True), repeat=len(counts) - 1):
            padded, start = [], 0
            for j, cut in enumerate([*cuts, True]):
                if cut:  # counts[start..j] form a class
                    padded += [counts[j]] * (j + 1 - start)
                    start = j + 1
            classings.append(cost(padded))
        assert cost(got) == min(classings)
        assert cost(got) <= cost([-(-c // 4) * 4 for c in counts])

    @PROPERTY
    @given(st.data())
    def test_pad_adds_zero_whatever_x_holds(self, data):
        # rows whose block row stores no slot of column j are finite and equal
        # spmv_csr when x[j] is inf or NaN, though their pad is multiplied too
        A, rows, cols = data.draw(blocked_inputs(min_dim=1))
        j = data.draw(st.integers(0, A.n - 1))
        x = data.draw(vectors(A.n))
        bound = np.abs(A.to_dense()) @ np.abs(x)
        x[j] = data.draw(st.sampled_from([math.inf, -math.inf, math.nan]))
        with np.errstate(invalid="ignore"):  # stored zeros times inf in the other rows
            want = spmv_csr(A, x)
            ys = [spmv_vbr(np.zeros(A.m), B, x) for B in blocked_pair(A, rows, cols)]
        for y, part in zip(ys, (cols, trivial_partition(A.n))):
            blocks = ref_blocks(A, rows, part)
            clear = [i for i in range(A.m)
                     if (rows.inverse(i), part.inverse(j)) not in blocks]
            y = y[clear]
            assert np.all(np.isfinite(y)) and within(y, want[clear], bound[clear])


class TestCsrAndPartitionProperties:
    @PROPERTY
    @given(st.data())
    def test_build_csr_sorts_and_sums_duplicates(self, data):
        m, n = data.draw(st.integers(0, 6)), data.draw(st.integers(0, 6))
        entries = data.draw(st.lists(st.tuples(st.integers(0, m - 1), st.integers(0, n - 1),
                                               st.sampled_from(VALUES)), max_size=20)) \
            if m and n else []
        A = build_csr(m, n, entries)
        assert A.pos[0] == 0 and A.pos[-1] == len(A.idx) and np.all(np.diff(A.pos) >= 0)
        want = {}
        for i, j, v in entries:
            want[i, j] = want.get((i, j), 0.0) + v
        got = {}
        for i in range(m):
            row_cols = A.row_cols(i)
            assert np.all(np.diff(row_cols) > 0)
            got.update({(i, int(j)): float(v)
                        for j, v in zip(row_cols, A.val[A.pos[i]:A.pos[i + 1]])})
        assert got == want

    @PROPERTY
    @given(blocked_inputs())
    def test_transpose_twice_is_identity(self, case):
        A, _, _ = case
        At = transpose(A)
        assert np.array_equal(At.to_dense(), A.to_dense().T)
        assert transpose(At) == A

    @PROPERTY
    @given(st.integers(0, 12).flatmap(partitions))
    def test_partition_splits_widths_and_assignments(self, part):
        assert part.spl[0] == 0 and np.all(np.diff(part.spl) > 0)
        assert int(part.widths().sum()) == part.size
        owner = part.assignments()
        assert len(owner) == part.size
        for k in range(part.num_parts):
            assert np.all(owner[part.spl[k]:part.spl[k + 1]] == k)
        assert [part.inverse(i) for i in range(part.size)] == owner.tolist()

    @pytest.mark.parametrize("spl", [[0, 2, 2], [0, 3, 1], [1, 2]])
    def test_partition_rejects_bad_splits(self, spl):
        with pytest.raises(ValueError):
            Partition(spl)


class TestCostProperties:
    @PROPERTY
    @given(st.data())
    def test_evaluate_integer_models_exact(self, data):
        A, rows, cols = data.draw(blocked_inputs())
        model = data.draw(models(max_size(rows), max_size(cols), integer=True))
        got = evaluate(model, A, rows, cols)
        assert type(got) is int
        assert got == ref_cost(model, A, rows, cols)

    @PROPERTY
    @given(st.data())
    def test_evaluate_float_models(self, data):
        A, rows, cols = data.draw(blocked_inputs())
        model = data.draw(models(max_size(rows), max_size(cols), integer=False))
        want = ref_cost(model, A, rows, cols)
        scale = ref_cost(CostModel(
            alpha_row=tuple(map(abs, model.alpha_row)),
            alpha_col=tuple(map(abs, model.alpha_col)),
            beta_row=tuple(tuple(map(abs, t)) for t in model.beta_row),
            beta_col=tuple(tuple(map(abs, t)) for t in model.beta_col),
        ), A, rows, cols)
        assert abs(evaluate(model, A, rows, cols) - want) <= 1e-12 * scale

    @PROPERTY
    @given(st.data())
    def test_dp_matches_brute_force_on_integer_models(self, data):
        # entries up to 1e20 push the window costs past int64, so the DP
        # must fall back to exact Python integers
        A, _, cols = data.draw(blocked_inputs(min_dim=2, max_dim=6))
        u_max = data.draw(st.integers(2, 4))
        model = data.draw(models(u_max, max_size(cols), integer=True))
        dp = optimal_partition(A, cols, model, u_max)
        oracle = brute_force_partition(A, cols, model, u_max)
        assert evaluate(model, A, dp, cols) == evaluate(model, A, oracle, cols)
        assert dp == oracle  # equal costs tie-break to the same partition

    @PROPERTY
    @given(st.data())
    def test_dp_matches_brute_force_with_negative_float_entries(self, data):
        # fitted models may hold negative coefficients and are kept as
        # fitted; eighths keep every sum exact, so ties are exact too
        A, _, cols = data.draw(blocked_inputs(min_dim=2, max_dim=6))
        u_max = data.draw(st.integers(2, 4))
        entry = st.integers(-40, 40).map(lambda v: v / 8)

        def table(size):
            return tuple(data.draw(st.lists(entry, min_size=size, max_size=size)))

        w_max = max_size(cols)
        model = CostModel(alpha_row=table(u_max), alpha_col=table(w_max),
                          beta_row=(table(u_max), table(u_max)),
                          beta_col=(table(w_max), table(w_max)))
        dp = optimal_partition(A, cols, model, u_max)
        assert dp == brute_force_partition(A, cols, model, u_max)


def same_parts(got, want):
    """Whether two containers, or two parts of their plans, are equal part by
    part: each array's dtype, shape, memory order, read-only flag and bytes,
    and every other part by type and value."""
    if isinstance(want, np.ndarray):
        return isinstance(got, np.ndarray) and (got.dtype, got.shape) == (want.dtype, want.shape) \
            and all(got.flags[f] == want.flags[f] for f in ("C", "F", "W")) \
            and got.tobytes() == want.tobytes()
    if isinstance(want, VbrMatrix):
        return type(got) is type(want) and all(
            same_parts(getattr(got, name), getattr(want, name)) for name in VbrMatrix.__slots__)
    if isinstance(want, tuple):
        return type(got) is type(want) and len(got) == len(want) and all(
            same_parts(a, b) for a, b in zip(got, want))
    return type(got) is type(want) and got == want


def checked_copy(B):
    """``B`` made again by the public constructor from writeable copies of its arrays."""
    copies = [np.array(getattr(B, name)) for name in VbrMatrix.__slots__[:-1]]
    if type(B) is OneDVbrMatrix:
        return OneDVbrMatrix(B.n, copies[0], *copies[2:])
    return VbrMatrix(*copies)


class TestBuiltContainers:
    @PROPERTY
    @given(st.data())
    def test_built_equals_checked(self, data):
        # the converters and the calibration grids skip the constructor's
        # checks; what they build must be what the constructor builds from
        # the same arrays: every array read-only and equal, and every plan
        # field equal, its value groups viewing the container's values alike
        kind = data.draw(st.sampled_from(["drawn", "grid", "mixed"]))
        if kind == "drawn":
            containers = blocked_pair(*data.draw(blocked_inputs()))
        elif kind == "grid":
            containers = [data.draw(calibration_grids())]
        else:  # the CSR of a checked container converts back to it: no block holds a zero
            M = data.draw(mixed_vbr())
            dense = np.array([[vbr_get(M, i, j) for j in range(M.n)] for i in range(M.m)])
            A = build_csr(M.m, M.n, [(i, j, v) for (i, j), v in np.ndenumerate(dense) if v])
            rows = Partition(M.spl_rows)
            containers = blocked_pair(A, rows, Partition(M.spl_cols))
            assert same_parts(containers[0], M)
        for B in containers:
            want = checked_copy(B)
            assert same_parts(B, want)
            assert [np.shares_memory(g[0], B.val) for g in B._plan.groups] == [
                np.shares_memory(g[0], want.val) for g in want._plan.groups]


class TestContainerChecks:
    def test_direct_construction(self):
        A = build_csr(2, 3, [(0, 0, 1.0), (1, 2, 2.0)])
        B = VbrMatrix([0, 2], [0, 1, 3], [0, 2], [0, 1], [0, 6],
                      [1.0, 0.0, 0.0, 0.0, 0.0, 2.0])
        assert B.m == 2 and B.n == 3
        assert vbr_get(B, 1, 2) == 2.0
        D = OneDVbrMatrix(3, [0, 2], [0, 2], [0, 2], [0, 4], [1.0, 0.0, 0.0, 2.0])
        assert (D.n, D.m) == (3, 2)
        assert serialize_1dvbr(D) == serialize_1dvbr(to_1dvbr(A, Partition([0, 2])))
        assert np.array_equal(spmv_1dvbr(np.zeros(2), D, np.ones(3)), [1.0, 2.0])

    @pytest.mark.parametrize("pos, ofs, message", [
        ([0, 1], [0, 1, 1], "pos and ofs must have one entry per block row plus one"),
        ([0, 1, 1], [0, 1], "pos and ofs must have one entry per block row plus one"),
        ([0, 1, 2], [0, 1, 1], "pos/ofs must end at the stored block and value counts"),
        ([0, 1, 1], [0, 1, 2], "pos/ofs must end at the stored block and value counts"),
        ([1, 1, 1], [0, 1, 1], "pos must start at 0 and be non-decreasing"),
        ([0, 2, 1], [0, 1, 1], "pos must start at 0 and be non-decreasing"),
    ], ids=["pos-length", "ofs-length", "pos-end", "ofs-end", "pos-start", "pos-falls"])
    def test_vbr_rejects_bad_offsets(self, pos, ofs, message):
        # two block rows of one row each, one column, one stored 1x1 block
        VbrMatrix([0, 1, 2], [0, 1], [0, 1, 1], [0], [0, 1, 1], [1.0])
        with pytest.raises(ValueError, match=f"^{message}$"):
            VbrMatrix([0, 1, 2], [0, 1], pos, [0], ofs, [1.0])

    @pytest.mark.parametrize("bad", [-1, 3, 7])
    def test_vbr_rejects_block_index_outside_parts(self, bad):
        with pytest.raises(ValueError, match="outside"):
            VbrMatrix([0, 1], [0, 1, 2, 3], [0, 1], [bad], [0, 1], [10.0])

    @pytest.mark.parametrize("bad", [-1, 2])
    def test_1dvbr_rejects_column_outside_matrix(self, bad):
        # accepted, idx=[-1] would make spmv_1dvbr return [10, 0] silently
        with pytest.raises(ValueError, match="outside"):
            OneDVbrMatrix(2, [0, 1, 2], [0, 1, 1], [bad], [0, 1, 1], [10.0])

    def test_rejects_values_that_disagree_with_pattern(self):
        with pytest.raises(ValueError, match="block row 0"):
            OneDVbrMatrix(2, [0, 2], [0, 1], [0], [0, 3], [1.0, 2.0, 3.0])

    def test_rejects_unsorted_blocks(self):
        with pytest.raises(ValueError, match="not increasing in block row 0"):
            VbrMatrix([0, 1], [0, 1, 2], [0, 2], [1, 0], [0, 2], [1.0, 2.0])
        # block rows 0, 1 (empty) and 2: a fall may only start block row 2
        VbrMatrix([0, 1, 2, 3], [0, 1, 2], [0, 1, 1, 3], [1, 0, 1], [0, 1, 1, 3], [1.0] * 3)
        with pytest.raises(ValueError, match="not increasing in block row 2"):
            VbrMatrix([0, 1, 2, 3], [0, 1, 2], [0, 1, 1, 3], [0, 1, 0], [0, 1, 1, 3], [1.0] * 3)

    @pytest.mark.parametrize("field", ["pos", "idx", "ofs"])
    def test_vbr_rejects_indices_that_are_not_whole(self, field):
        # one 1x1 block row storing one block; 0.9 would be cut down to 0
        arrays = {"pos": [0, 1], "idx": [0], "ofs": [0, 1]}
        arrays[field] = [0.9] if field == "idx" else [0, 0.9]
        at = 0 if field == "idx" else 1
        with pytest.raises(ValueError, match=f"^{field}: 0.9 at {at} is not a whole number$"):
            VbrMatrix([0, 1], [0, 1], arrays["pos"], arrays["idx"], arrays["ofs"], [1.0])
        B = VbrMatrix([0, 1], [0, 1], [0.0, 1.0], [0.0], [0.0, 1.0], [1.0])
        assert B.idx.tolist() == [0]

    def test_rejects_block_sizes_past_int64(self):
        big = 2**62
        with pytest.raises(ValueError, match="64-bit"):
            VbrMatrix([0, big], [0, 4], [0, 1], [0], [0, 0], [])
        # what is stored fits, however tall an empty block row is, and so
        # does the plan: it lists only the rows of non-empty block rows, so
        # no array in it is longer than the stored values
        B = VbrMatrix([0, big, big + 1], [0, 4], [0, 0, 1], [0], [0, 0, 4], [1.0] * 4)
        assert B.m == big + 1
        plan = B._plan
        arrays = [array for values, cols, _ in plan.groups for array in (values, cols)]
        arrays += [a for a in (plan.where, plan.target) if isinstance(a, np.ndarray)]
        assert max(array.size for array in arrays) <= len(B.val)
        assert (plan.target.tolist(), plan.where, plan.size) == ([big], slice(None), 1)


class TestModelAndDpChecks:
    def test_model_rejects_non_finite_entries(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="not finite"):
                CostModel(alpha_row=(bad,), alpha_col=(0,), beta_row=((1,),), beta_col=((1,),))
            with pytest.raises(ValueError, match="not finite"):
                CostModel(alpha_row=(0,), alpha_col=(0,), beta_row=((1,),), beta_col=((bad,),))

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
    def test_csv_rejects_non_finite_text(self, text):
        csv = f"alpha_row,1\nalpha_col,1\nbeta_row r=1,{text}\nbeta_col r=1,1\n"
        with pytest.raises(ValueError, match="not finite"):
            cost_model_from_csv(csv)

    @pytest.mark.parametrize("call, message", [
        (lambda: CostModel(alpha_row=(), alpha_col=(0,), beta_row=((),), beta_col=((1,),)),
         "alpha tables must cover at least size 1"),
        (lambda: CostModel(alpha_row=(0,), alpha_col=(), beta_row=((1,),), beta_col=((),)),
         "alpha tables must cover at least size 1"),
        (lambda: CostModel(alpha_row=(0,), alpha_col=(0,), beta_row=((1,), (1,)),
                           beta_col=((1,),)),
         "beta_row and beta_col must list the same rank >= 1"),
        (lambda: CostModel(alpha_row=(0,), alpha_col=(0,), beta_row=(), beta_col=()),
         "beta_row and beta_col must list the same rank >= 1"),
        (lambda: model_block_count(0, 2), "table sizes must be positive"),
        (lambda: model_block_count(2, 0), "table sizes must be positive"),
        (lambda: model_memory_vbr(64, 64, 0, 2), "table sizes must be positive"),
        (lambda: model_memory_vbr(64, 64, 2, 0), "table sizes must be positive"),
        (lambda: optimal_partition(_EYE3, trivial_partition(3), model_block_count(2, 1), 0),
         "u_max must be at least 1, got 0"),
        (lambda: optimal_partition(_EYE3, trivial_partition(2), model_block_count(2, 1), 2),
         "column partition covers 2 columns, matrix has 3"),
        (lambda: brute_force_partition(_EYE3, trivial_partition(3), model_block_count(2, 1), 0),
         "u_max must be at least 1, got 0"),
        (lambda: alternating_partition(_EYE3, model_block_count(2, 2), 3, 2),
         "u_max/w_max exceed the model's table ranges"),
        (lambda: alternating_partition(_EYE3, model_block_count(2, 2), 2, 3),
         "u_max/w_max exceed the model's table ranges"),
    ], ids=["alpha-row-empty", "alpha-col-empty", "rank-mismatch", "rank-zero",
            "count-u0", "count-w0", "vbr-u0", "vbr-w0", "dp-u0", "dp-columns", "brute-u0",
            "alternating-u", "alternating-w"])
    def test_rejects_bad_tables_and_bounds(self, call, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()

    def test_dp_raises_when_costs_overflow(self):
        # 1e308 per row part: the second row's total is inf, so no choice
        # is finite, and reconstructing the splits would never end
        A = build_csr(3, 1, [(0, 0, 1.0), (1, 0, 1.0), (2, 0, 1.0)])
        model = CostModel(alpha_row=(1e308,), alpha_col=(0.0,),
                          beta_row=((1.0,),), beta_col=((1.0,),))
        with pytest.raises(ValueError, match="finite"):
            optimal_partition(A, trivial_partition(1), model, 1)


class TestPairKeyOverflow:
    def test_build_csr_rejects_wrapping_key(self):
        # 4 * 2**62 + 7 wraps int64 to 7, which would put the entry in row 0
        with pytest.raises(ValueError, match="64-bit"):
            build_csr(5, 2**62, [(4, 7, 1.0)])

    def test_build_csr_widest_key_that_fits(self):
        A = build_csr(1, 2**62, [(0, 7, 1.0)])
        assert A.pos.tolist() == [0, 1]
        assert A.idx.tolist() == [7]


def plan_groups(plan):
    """The groups of a multiply plan as (values, x columns, y rows): the
    read-only (G, u) array of the y row each product adds into, read back
    from ``target`` and ``where`` through the group's stretch of z."""
    target = plan.target
    if isinstance(target, slice):
        target = np.arange(target.start, target.stop)
    rows = np.empty(plan.size, dtype=np.int64)  # the y row of each slot of z
    rows[plan.where] = target
    out = []
    for values, cols, span in plan.groups:
        group_rows = rows[span].reshape(values.shape[:2], order="F")
        group_rows.flags.writeable = False
        out.append((values, cols, group_rows))
    return out


def _consecutive(rows):
    """Whether the (G, u) rows are lo, lo + 1, ..., hi - 1, block row after block row."""
    flat = rows.ravel().tolist()
    return flat == list(range(flat[0], flat[0] + len(flat)))


def _scattering_plan(B):
    """Reference multiply plan of ``B``: ``kernels._build_plan`` as it was
    before it laid block rows out in place, scattering every block row's
    values and x columns into their group slots whether they move or not."""
    heights = np.diff(B.spl_rows)
    widths = np.diff(B.spl_cols)[B.idx]
    first = _offsets(widths)
    stored = np.diff(first[B.pos])
    kept = np.flatnonzero(stored)
    order = kept[np.lexsort((stored[kept], heights[kept]))]
    u, c = heights[order], stored[order]
    runs = kernels._starts(u, c)
    first_runs = kernels._starts(u[runs])
    if len(first_runs) < len(runs):
        sizes = np.diff(runs, append=len(order)).tolist()
        counts = c[runs].tolist()
        for a, b in zip(first_runs.tolist(), [*first_runs[1:].tolist(), len(runs)]):
            if b - a > 1:
                counts[a:b] = kernels._pad_classes(counts[a:b], sizes[a:b])
        c = np.repeat(counts, sizes)
        runs = kernels._starts(u, c)
    at_val, at_col = _offsets(u * c), _offsets(c)
    shift = np.zeros(len(heights), dtype=np.int64)
    shift[order] = at_val[:-1] - B.ofs[order]
    by_column = np.zeros(int(at_val[-1]))
    by_column[np.arange(len(B.val)) + np.repeat(shift, np.diff(B.ofs))] = B.val
    shift[order] = at_col[:-1] - first[B.pos[order]]
    column = np.arange(first[-1])
    cols = np.full(int(at_col[-1]), B.n, dtype=np.int64)
    cols[column + np.repeat(shift, stored)] = (
        column + np.repeat(B.spl_cols[B.idx] - first[:-1], widths))
    cols = _frozen(cols, np.int64)
    lo = runs.tolist()
    groups = []
    for a, b in zip(lo, [*lo[1:], len(order)]):
        g, gu, gc = b - a, int(u[a]), int(c[a])
        values = by_column[at_val[a]:at_val[b]].reshape(g, gc, gu).transpose(0, 2, 1).copy()
        groups.append((_frozen(values, np.float64),
                       cols[at_col[a]:at_col[b]].reshape(g, gc),
                       _frozen(B.spl_rows[order[a:b], None] + np.arange(gu), np.int64)))
    return tuple(groups)
