"""Properties of the shared block-pattern core, the blocked multiply and its
cached plan, and the CSR and partition invariants, checked against
independent references, plus regressions for inputs the core must reject.

The references walk the dense matrix entry by entry, so they share no code
with the vectorized counters, converters, ``evaluate`` or the DP.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import blockpart.kernels as kernels
from blockpart import (
    CostModel,
    OneDVbrMatrix,
    Partition,
    VbrMatrix,
    block_count,
    brute_force_partition,
    build_csr,
    cost_model_from_csv,
    evaluate,
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

PROPERTY = settings(derandomize=True, deadline=None, max_examples=100)
VALUES = [0.0, 1.0, -2.5, 0.125, 7.0]


@st.composite
def partitions(draw, size):
    if size == 0:
        return Partition([0])
    cuts = draw(st.sets(st.integers(1, size - 1))) if size > 1 else set()
    return Partition([0] + sorted(cuts) + [size])


@st.composite
def blocked_inputs(draw, min_dim=0, max_dim=7):
    """A small CSR matrix (possibly 0 x n or m x 0, with empty rows and
    explicitly stored zeros) and a random row and column partition."""
    m = draw(st.integers(min_dim, max_dim))
    n = draw(st.integers(min_dim, max_dim))
    cells = draw(st.sets(st.tuples(st.integers(0, m - 1), st.integers(0, n - 1)))) \
        if m and n else set()
    values = draw(st.lists(st.sampled_from(VALUES), min_size=len(cells), max_size=len(cells)))
    A = build_csr(m, n, [(i, j, v) for (i, j), v in zip(sorted(cells), values)])
    return A, draw(partitions(m)), draw(partitions(n))


@st.composite
def vectors(draw, size):
    """A float vector of the given length; all zeros one time in two."""
    if draw(st.booleans()):
        return np.zeros(size)
    return np.array(draw(st.lists(st.floats(-100.0, 100.0), min_size=size, max_size=size)),
                    dtype=np.float64)


def blocked_pair(A, rows, cols):
    """The VBR and the 1D-VBR container of A, each with no plan built yet."""
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

    def test_plan_built_once_per_container(self, example_matrix, monkeypatch):
        builds = []
        monkeypatch.setattr(kernels, "_build_plan",
                            lambda B, build=kernels._build_plan: builds.append(B) or build(B))
        A = example_matrix
        for B in blocked_pair(A, Partition([0, 2, 3, 6, 8]), Partition([0, 3, 4, 9])):
            assert B._plan is None
            spmv_vbr(np.zeros(A.m), B, np.ones(A.n))
            plan = B._plan
            assert plan is not None
            spmv_1dvbr(np.zeros(A.m), B, np.arange(A.n, dtype=np.float64))
            assert B._plan is plan
            assert builds.count(B) == 1

    def test_shape_errors_raise_before_plan(self, example_matrix):
        A = example_matrix
        for B in blocked_pair(A, Partition([0, 4, 8]), trivial_partition(A.n)):
            with pytest.raises(ValueError, match="x has shape"):
                spmv_vbr(np.zeros(A.m), B, np.ones(A.n + 1))
            with pytest.raises(ValueError, match="y has shape"):
                spmv_vbr(np.zeros(A.m - 1), B, np.ones(A.n))
            assert B._plan is None

    def test_plan_arrays_read_only(self, example_matrix):
        A = example_matrix
        for B in blocked_pair(A, Partition([0, 2, 3, 6, 8]), Partition([0, 3, 4, 9])):
            spmv_vbr(np.zeros(A.m), B, np.ones(A.n))
            groups, rows = B._plan
            assert groups and not rows.flags.writeable
            for blocks, cols in groups:
                assert not blocks.flags.writeable and not cols.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                groups[0][0][0, 0, 0] = 1.0


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
        with pytest.raises(ValueError, match="not increasing"):
            VbrMatrix([0, 1], [0, 1, 2], [0, 2], [1, 0], [0, 2], [1.0, 2.0])

    def test_rejects_block_sizes_past_int64(self):
        big = 2**62
        with pytest.raises(ValueError, match="64-bit"):
            VbrMatrix([0, big], [0, 4], [0, 1], [0], [0, 0], [])


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
