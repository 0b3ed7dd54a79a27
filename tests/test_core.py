"""Properties of the shared block-pattern core, checked against independent
references, plus regressions for inputs the core must reject.

The references walk the dense matrix entry by entry, so they share no code
with the vectorized counters, converters, ``evaluate`` or the DP.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    trivial_partition,
    value_count,
    vbr_get,
    vbr_memory_bits,
)

PROPERTY = settings(derandomize=True, deadline=None, max_examples=100)


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
    values = draw(st.lists(st.sampled_from([0.0, 1.0, -2.5, 0.125, 7.0]),
                           min_size=len(cells), max_size=len(cells)))
    A = build_csr(m, n, [(i, j, v) for (i, j), v in zip(sorted(cells), values)])
    return A, draw(partitions(m)), draw(partitions(n))


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
    @given(blocked_inputs())
    def test_spmv_matches_dense(self, case):
        A, rows, cols = case
        x = np.arange(1.0, A.n + 1.0)
        want = A.to_dense() @ x
        assert np.allclose(spmv_csr(A, x), want)
        assert np.allclose(spmv_vbr(np.zeros(A.m), to_vbr(A, rows, cols), x), want)
        assert np.allclose(spmv_1dvbr(np.zeros(A.m), to_1dvbr(A, rows), x), want)

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
