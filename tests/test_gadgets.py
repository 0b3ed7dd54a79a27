import re

import numpy as np
import pytest

from blockpart import (
    GadgetParams,
    Partition,
    block_count,
    build_count_gadget,
    build_gadget,
    build_mini_pair,
    build_reduction_matrix,
    gadget_case_cost,
    symmetric_embed,
    transpose,
    value_count,
)
from blockpart.gadgets import (
    ALL_CASES,
    HAPPY_CASES,
    MINI_PAIR_COL_SPLITS,
    SAD_CASES,
    case_col_partition,
    case_row_partition,
    mini_pair_row_partition,
)

from conftest import partitions_capped, random_csr


class TestGadgetParams:
    def test_unit_weight(self):
        p = GadgetParams(1)
        assert (p.mu1, p.mu2, p.mu3) == (2, 32, 18)
        assert p.mu == 3 + 2 + 3 * 32 + 2 * 3 * 18 == 209

    def test_formula_consistency(self):
        for s in (1, 1.25, 1.5, 2, 3.75):
            p = GadgetParams(s)
            assert p.mu1 >= 2
            assert p.mu3 >= 18
            assert p.mu == 3 + p.mu1 + (1 + p.mu1) * p.mu2 + 2 * (1 + p.mu1) * p.mu3

    def test_rejects_small_weight(self):
        with pytest.raises(ValueError):
            GadgetParams(0.5)

    @pytest.mark.parametrize("s", [np.inf, -np.inf, np.nan])
    def test_rejects_non_finite_weight(self, s):
        with pytest.raises(ValueError, match=r"^index weight must be finite, got "):
            GadgetParams(s)

    @pytest.mark.parametrize("s", [405836262.0, 1e9, 1e300, 1e308])
    def test_rejects_a_side_past_the_int64_indices(self, s):
        # 1e308 raised OverflowError from mu3, and building a 1e300 gadget hung
        with pytest.raises(ValueError, match=rf"^index weight {re.escape(str(s))} makes the gadget side mu "
                                             rf"larger than {2**63 - 1}, "):
            GadgetParams(s)

    def test_largest_weight_fits_the_int64_indices(self):
        # nothing is built: the largest accepted s has its side just in range
        assert 2**63 - 2 * 10**9 < GadgetParams(405836261.99999994).mu <= 2**63 - 1


class TestBuildGadget:
    def test_row_zero_population(self):
        p = GadgetParams(1)
        G = build_gadget("B1", p)
        assert G.m == G.n == p.mu
        # core diagonal + one entry per full column + one per top column
        assert len(G.row_cols(0)) == 1 + p.mu2 + p.mu3

    def test_kinds_differ_only_in_core(self):
        p = GadgetParams(1)
        b1 = build_gadget("B1", p)
        b2 = build_gadget("B2", p)
        d1, d2 = b1.to_dense(), b2.to_dense()
        assert not np.array_equal(d1[:3, :3], d2[:3, :3])
        d1[:3, :3] = 0
        d2[:3, :3] = 0
        assert np.array_equal(d1, d2)

    def test_core_patterns(self):
        p = GadgetParams(1)
        assert np.array_equal(build_gadget("B1", p).to_dense()[:3, :3], np.eye(3))
        assert np.array_equal(build_gadget("B2", p).to_dense()[:3, :3], np.eye(3)[::-1])

    def test_filler_rows_are_empty(self):
        p = GadgetParams(1)
        G = build_gadget("B1", p)
        # rows 3 and 4 are the first filler band
        for i in (3, 4):
            assert len(G.row_cols(i)) == 0


class TestCaseCosts:
    @pytest.mark.parametrize("s", [1, 1.5, 2])
    @pytest.mark.parametrize("kind", ["B1", "B2"])
    def test_closed_forms_match_counting(self, s, kind):
        p = GadgetParams(s)
        G = build_gadget(kind, p)
        for case in ALL_CASES:
            rows = case_row_partition(case, p)
            cols = case_col_partition(case, p)
            got = (value_count(G, rows, cols), block_count(G, rows, cols))
            assert got == gadget_case_cost(kind, case, p), case

    @pytest.mark.parametrize("s", [1, 1.5, 2])
    def test_happy_below_sad_above(self, s):
        p = GadgetParams(s)
        happy_bound = 146 + 263 * s + 112 * s * s
        sad_bound = 147 + 263 * s + 112 * s * s
        for case in HAPPY_CASES:
            nv, ni = gadget_case_cost("B1", case, p)
            assert nv + s * ni <= happy_bound
        for case in SAD_CASES:
            nv, ni = gadget_case_cost("B1", case, p)
            assert nv + s * ni >= sad_bound

    def test_case_enumeration(self):
        assert len(HAPPY_CASES) == 4
        assert len(SAD_CASES) == 12
        assert set(HAPPY_CASES) | set(SAD_CASES) == set(ALL_CASES)

    def test_known_tables(self):
        p = GadgetParams(1)
        assert gadget_case_cost("B1", ("last-pair", "last-pair"), p) == (305, 202)
        assert gadget_case_cost("B1", ("all", "all"), p) == (
            9 + 6 * 32 + 12 * 18, 1 + 2 * 32 + 4 * 18)
        assert gadget_case_cost("B1", ("singles", "singles"), p) == (
            3 + 6 * 32 + 4 * 18, 3 + 6 * 32 + 4 * 18)

    def test_unknown_case_rejected(self):
        with pytest.raises(ValueError):
            gadget_case_cost("B1", ("pairs", "pairs"), GadgetParams(1))


class TestMiniPair:
    def test_pattern(self):
        M = build_mini_pair("V1", "V2")
        assert (M.m, M.n) == (6, 3)
        expect = np.vstack([np.eye(3), np.eye(3)[::-1]])
        assert np.array_equal(M.to_dense(), expect)

    @pytest.mark.parametrize("s", [1, 2, 5])
    def test_same_side_cost(self, s):
        M = build_mini_pair("V1", "V1")
        rows = mini_pair_row_partition("V1", "V1")
        costs = [
            value_count(M, rows, Partition(spl)) + s * block_count(M, rows, Partition(spl))
            for spl in MINI_PAIR_COL_SPLITS
        ]
        # either column arrangement costs the same
        assert costs[0] == costs[1] == 13 + 5 * s

    @pytest.mark.parametrize("s", [1, 2, 5])
    def test_cut_cost(self, s):
        M = build_mini_pair("V1", "V2")
        rows = mini_pair_row_partition("V1", "V2")
        best = min(
            value_count(M, rows, Partition(spl)) + s * block_count(M, rows, Partition(spl))
            for spl in MINI_PAIR_COL_SPLITS
        )
        assert best == 10 + 4 * s
        assert best < 13 + 5 * s

    def test_rejects_unknown_side(self):
        with pytest.raises(ValueError):
            mini_pair_row_partition("V3", "V1")
        with pytest.raises(ValueError):
            build_mini_pair("left", "right")


class TestCountGadget:
    def test_three_by_three_pattern(self):
        b1 = build_count_gadget("B1", 3, 3)
        assert (b1.m, b1.n) == (7, 7)
        dense = b1.to_dense()
        region = dense[:4, :4]
        assert region[0, 3] == 0 and region[3, 0] == 0
        assert region.sum() == 16 - 2
        assert dense[4:, :].sum() == 0 and dense[:, 4:].sum() == 0
        b2 = build_count_gadget("B2", 3, 3)
        region2 = b2.to_dense()[:4, :4]
        assert region2[0, 0] == 0 and region2[3, 3] == 0

    def test_isolating_split_gives_three_blocks(self):
        G = build_count_gadget("B1", 2, 2)
        singles = list(range(4, 6))
        rows = Partition([0, 1, 3] + singles)   # split after row 0
        cols = Partition([0, 2, 3] + singles)   # split after column 1
        assert block_count(G, rows, cols) == 3

    def test_non_isolating_splits_give_four(self):
        G = build_count_gadget("B1", 2, 2)
        tail = list(range(4, 6))
        at_1 = [0, 1, 3] + tail
        at_2 = [0, 2, 3] + tail
        for rows, cols in ((at_1, at_1), (at_2, at_2)):
            assert block_count(G, Partition(rows), Partition(cols)) == 4

    def test_exhaustive_minimum_is_three(self):
        G = build_count_gadget("B1", 2, 2)
        parts = list(partitions_capped(5, 2))
        best = min(block_count(G, p, q) for p in parts for q in parts)
        assert best == 3

    def test_rejects_small_caps(self):
        with pytest.raises(ValueError):
            build_count_gadget("B1", 1, 2)


class TestReductionMatrix:
    def test_single_edge(self):
        p = GadgetParams(1)
        A = build_reduction_matrix(2, [(0, 1)], p)
        assert (A.m, A.n) == (418, 209)
        dense = A.to_dense()
        assert np.array_equal(dense[:209, :209], build_gadget("B1", p).to_dense())
        assert np.array_equal(dense[209:, :209], build_gadget("B2", p).to_dense())

    def test_four_vertex_graph_tiling(self):
        # vertices as gadget rows, edges as gadget columns (incidence layout)
        p = GadgetParams(1)
        edges = [(0, 1), (0, 2), (0, 3), (1, 2)]
        A = build_reduction_matrix(4, edges, p)
        assert (A.m, A.n) == (4 * p.mu, 4 * p.mu)
        dense = A.to_dense()
        occupancy = {
            (i, j)
            for i in range(4)
            for j in range(4)
            if dense[i * p.mu:(i + 1) * p.mu, j * p.mu:(j + 1) * p.mu].any()
        }
        expect = set()
        for j, (a, b) in enumerate(edges):
            expect.add((a, j))
            expect.add((b, j))
        assert occupancy == expect

    def test_empty_graph(self):
        A = build_reduction_matrix(2, [], GadgetParams(1))
        assert A.nnz == 0

    @pytest.mark.parametrize("edges, message", [
        ([(0, 0)], r"edge 0 is a self-loop \(0, 0\)"),
        ([(0, 1), (1, 0)], r"edge 1 duplicates \(0, 1\)"),
        ([(0, 1), (1, 2)], r"edge 1 endpoint outside 0\.\.1"),
        ([(-1, 1)], r"edge 0 endpoint outside 0\.\.1"),
    ], ids=["self-loop", "duplicate", "endpoint-past-end", "endpoint-negative"])
    def test_rejects_self_loop_duplicate_and_outside_endpoint(self, edges, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            build_reduction_matrix(2, edges, GadgetParams(1))


@pytest.mark.parametrize("build", [
    lambda: build_gadget("B3", GadgetParams(1)),
    lambda: gadget_case_cost("B3", ("all", "all"), GadgetParams(1)),
    lambda: build_count_gadget("B3", 2, 2),
], ids=["build_gadget", "gadget_case_cost", "build_count_gadget"])
def test_unknown_gadget_kind_rejected(build):
    with pytest.raises(ValueError, match="^unknown gadget kind 'B3'$"):
        build()


class TestSymmetricEmbed:
    def test_single_entry(self):
        from blockpart import build_csr

        A = build_csr(1, 1, [(0, 0, 3.0)])
        B = symmetric_embed(A)
        assert B.to_dense().tolist() == [[0.0, 3.0], [3.0, 0.0]]

    def test_pattern_symmetric_and_doubled(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            A = random_csr(int(rng.integers(1, 7)), int(rng.integers(1, 7)), 0.5, rng)
            B = symmetric_embed(A)
            assert (B.m, B.n) == (A.m + A.n, A.m + A.n)
            assert B.nnz == 2 * A.nnz
            assert B == transpose(B)
