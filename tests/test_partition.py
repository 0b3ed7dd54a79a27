import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import blockpart.partition as partition
import blockpart.sparse as sparse
from blockpart import (
    CostModel,
    CsrMatrix,
    Partition,
    alternating_partition,
    brute_force_partition,
    build_csr,
    evaluate,
    model_block_count,
    model_memory_1dvbr,
    model_memory_vbr,
    onedvbr_memory_bits,
    optimal_partition,
    overlap_partition,
    strict_partition,
    trivial_partition,
)

from conftest import (identity, partitions_capped, patterned_csr, random_csr,
                      random_partition, planted_model)

PROPERTY = settings(derandomize=True, deadline=None, max_examples=150)


class TestOptimalPartition:
    def test_identity_memory(self):
        A = identity(4)
        model = model_memory_1dvbr(1, 1, 4)
        got = optimal_partition(A, trivial_partition(4), model, 4)
        assert got.spl.tolist() == [0, 2, 4]
        # brute force over all 8 contiguous partitions agrees, at 21 bits
        oracle = brute_force_partition(A, trivial_partition(4), model, 4)
        t_cols = trivial_partition(4)
        assert evaluate(model, A, got, t_cols) == evaluate(model, A, oracle, t_cols)
        assert onedvbr_memory_bits(A, got, 1, 1) == 21

    def test_identical_rows_merge(self):
        A = build_csr(2, 2, [(0, 0, 1.0), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 1.0)])
        got = optimal_partition(A, trivial_partition(2), model_block_count(2, 2), 2)
        assert got.spl.tolist() == [0, 2]

    def test_single_row(self):
        A = build_csr(1, 3, [(0, 1, 1.0)])
        for model in (model_block_count(1, 3), model_memory_1dvbr(64, 64, 1)):
            assert optimal_partition(A, trivial_partition(3), model, 1).spl.tolist() == [0, 1]

    def test_u_max_one_is_trivial(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            A = random_csr(7, 5, 0.4, rng)
            got = optimal_partition(A, trivial_partition(5), model_block_count(1, 1), 1)
            assert got.is_trivial()

    def test_matches_brute_force(self):
        rng = np.random.default_rng(1)
        for trial in range(60):
            m, n = int(rng.integers(1, 9)), int(rng.integers(1, 9))
            A = random_csr(m, n, [0.1, 0.3, 0.6][trial % 3], rng)
            cols = random_partition(n, 3, rng)
            w_cap = int(cols.widths().max())
            u_max = 1 + trial % 4
            for model in (
                model_block_count(u_max, w_cap),
                model_memory_vbr(64, 64, u_max, w_cap),
                planted_model(u_max, w_cap, rng),
            ):
                fast = optimal_partition(A, cols, model, u_max)
                slow = brute_force_partition(A, cols, model, u_max)
                a = evaluate(model, A, fast, cols)
                b = evaluate(model, A, slow, cols)
                if model.exact:
                    assert a == b
                else:
                    assert a == pytest.approx(b, rel=1e-9)

    def test_rejects_umax_beyond_model(self):
        A = identity(3)
        with pytest.raises(ValueError, match="exceeds model table range"):
            optimal_partition(A, trivial_partition(3), model_block_count(2, 3), 3)

    def test_rejects_wide_column_part(self):
        A = identity(3)
        with pytest.raises(ValueError, match="column part"):
            optimal_partition(A, Partition([0, 3]), model_block_count(2, 2), 2)

    def test_all_zero_rows(self):
        A = build_csr(5, 5, [])
        got = optimal_partition(A, trivial_partition(5), model_block_count(3, 1), 3)
        assert got.is_trivial()

    def test_path_sums_past_int64_stay_exact(self):
        # every window costs under 2**62 and fits int64, but the best path
        # sums to 2**63 + 44: the pass must take exact integers, not wrap
        A = identity(7)
        model = CostModel(alpha_row=(2**61, 2**61 + 3), alpha_col=(0,),
                          beta_row=((1, 1),), beta_col=((5,),))
        got = optimal_partition(A, trivial_partition(7), model, 2)
        assert got.spl.tolist() == [0, 1, 3, 5, 7]  # equal totals: the shorter part first
        assert type(got.cost) is int and got.cost == 2**63 + 44
        assert (got.spl.tolist(), got.cost) == _scalar_dp(A, trivial_partition(7), model, 2)

    @PROPERTY
    @given(st.data())
    def test_matches_scalar_pass(self, data):
        """Same splits and the same exact cost as the scalar pass on integer
        models, int64 and Python-int alike; an optimum within 1e-12 of its
        cost on float models. Row counts sit on and around the chunk
        edges: below u_max = sqrt(m) a chunk holds L = ceil(sqrt(m)) rows,
        so m = k*k fills k chunks, m = k*k - 1 pads the top one by a row
        and m = k*k + 1 by k - 1 rows; u_max = 1 and u_max >= m are drawn
        too."""
        m = data.draw(st.sampled_from([0, 1, 2, 3, 4, 5, 8, 9, 10, 15, 16, 17, 24, 25, 26, 30]))
        A = data.draw(patterned_csr(max_cols=8, m=m))
        cuts = data.draw(st.sets(st.integers(1, A.n - 1))) if A.n > 1 else set()
        cols = Partition([0, *sorted(cuts), A.n])
        w_max = int(cols.widths().max())
        u_max = data.draw(st.sampled_from([1, 2, 3, 7, max(m, 1), m + 2]))
        kind = data.draw(st.sampled_from(["int", "int", "float"]))
        if kind == "int":
            # entries up to 2**20 keep every sum in int64; up to 2**31 they
            # often, and up to 2**40 always, take Python ints
            top = 2 ** data.draw(st.sampled_from([5, 20, 31, 40]))
            entry = st.integers(-top, top)
        else:
            entry = st.floats(-10.0, 10.0, allow_nan=False)
        rank = data.draw(st.integers(1, 2))

        def table(size):
            return tuple(data.draw(st.lists(entry, min_size=size, max_size=size)))

        model = CostModel(alpha_row=table(u_max), alpha_col=table(w_max),
                          beta_row=tuple(table(u_max) for _ in range(rank)),
                          beta_col=tuple(table(w_max) for _ in range(rank)))
        got = optimal_partition(A, cols, model, u_max)
        splits, cost = _scalar_dp(A, cols, model, u_max)
        if model.exact:
            assert got.spl.tolist() == splits
            assert type(got.cost) is type(cost) and got.cost == cost
        else:
            want = evaluate(model, A, Partition(splits), cols)
            scale = evaluate(CostModel(alpha_row=tuple(map(abs, model.alpha_row)),
                                       alpha_col=tuple(map(abs, model.alpha_col)),
                                       beta_row=tuple(tuple(map(abs, t)) for t in model.beta_row),
                                       beta_col=tuple(tuple(map(abs, t)) for t in model.beta_col)),
                             A, Partition(splits), cols)
            assert abs(evaluate(model, A, got, cols) - want) <= 1e-12 * max(scale, 1)
            assert abs(got.cost - cost) <= 1e-12 * max(scale, 1)


    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(st.data())
    def test_matches_the_key_sort_past_one_radix_digit(self, data):
        # more than 65536 column parts, under the trivial partition and under
        # one that merges a few column pairs: pair keys far past 16 bits
        A = _widen(data.draw(patterned_csr(max_rows=12, max_cols=8)))
        merged = data.draw(st.sets(st.integers(1, A.n - 1), max_size=4))
        cols = Partition(np.setdiff1d(np.arange(A.n + 1), sorted(merged)))
        u_max = data.draw(st.sampled_from([1, 2, 3, 7]))
        model = model_block_count(u_max, int(cols.widths().max()))
        got = optimal_partition(A, cols, model, u_max)
        assert (got.spl.tolist(), got.cost) == _scalar_dp(A, cols, model, u_max)


class TestBruteForce:
    def test_single_row(self):
        A = build_csr(1, 1, [(0, 0, 1.0)])
        assert brute_force_partition(A, trivial_partition(1), model_block_count(1, 1), 1).spl.tolist() == [0, 1]

    def test_beats_trivial(self):
        rng = np.random.default_rng(2)
        model = model_block_count(3, 1)
        for _ in range(10):
            A = random_csr(6, 6, 0.4, rng)
            cols = trivial_partition(6)
            best = brute_force_partition(A, cols, model, 3)
            assert evaluate(model, A, best, cols) <= evaluate(model, A, trivial_partition(6), cols)

    def test_tie_breaks_lexicographically(self):
        # all-zero matrix: every partition costs zero blocks
        A = build_csr(3, 3, [])
        got = brute_force_partition(A, trivial_partition(3), model_block_count(3, 1), 3)
        assert got.is_trivial()

    def test_rejects_large_matrix(self):
        A = build_csr(21, 1, [])
        with pytest.raises(ValueError, match="20 rows"):
            brute_force_partition(A, trivial_partition(1), model_block_count(1, 1), 1)


class TestStrictPartition:
    def test_identity_stays_trivial(self):
        assert strict_partition(identity(4)).is_trivial()

    def test_identical_rows_grouped(self):
        A = build_csr(4, 3, [(i, j, 1.0) for i in range(4) for j in (0, 2)])
        assert strict_partition(A).spl.tolist() == [0, 4]

    def test_example_matrix(self, example_matrix):
        # rows 4 and 5 share the pattern {2, 7}; everything else differs
        assert strict_partition(example_matrix).spl.tolist() == [0, 1, 2, 3, 4, 6, 7, 8]

    def test_optional_cap(self):
        A = build_csr(4, 3, [(i, j, 1.0) for i in range(4) for j in (0, 2)])
        assert strict_partition(A, u_max=2).spl.tolist() == [0, 2, 4]

    def test_empty(self):
        assert strict_partition(build_csr(0, 3, [])).spl.tolist() == [0]

    def test_rejects_bad_cap(self):
        for u_max in (0, -2):
            with pytest.raises(ValueError, match="u_max"):
                strict_partition(identity(3), u_max)

    @PROPERTY
    @given(patterned_csr())
    def test_matches_row_walk(self, A):
        for u_max in [None, *range(1, A.m + 2)]:
            assert strict_partition(A, u_max) == _strict_walk(A, u_max)


class TestSplitChain:
    @PROPERTY
    @given(st.data())
    def test_follows_the_links(self, data):
        # the Python walk that both partitioners once ran is the reference;
        # a small longest step gives chains of up to 70 links
        m = data.draw(st.integers(0, 70))
        longest = data.draw(st.integers(1, max(m, 1)))
        nxt = np.array([data.draw(st.integers(i + 1, min(i + longest, m))) for i in range(m)],
                       dtype=np.int64)
        splits = [0]
        while splits[-1] != m:
            splits.append(int(nxt[splits[-1]]))
        assert partition._chain(nxt).tolist() == splits


class TestOverlapPartition:
    def test_merges_at_half(self):
        A = build_csr(2, 3, [(0, 0, 1.0), (0, 1, 1.0), (1, 1, 1.0), (1, 2, 1.0)])
        # overlap 1 >= 0.5 * min(2, 2)
        assert overlap_partition(A, 0.5, 4).spl.tolist() == [0, 2]

    def test_splits_at_point_six(self):
        A = build_csr(2, 3, [(0, 0, 1.0), (0, 1, 1.0), (1, 1, 1.0), (1, 2, 1.0)])
        # overlap 1 < 0.6 * min(2, 2)
        assert overlap_partition(A, 0.6, 4).spl.tolist() == [0, 1, 2]

    def test_height_cap_binds(self):
        A = build_csr(6, 2, [(i, 0, 1.0) for i in range(6)])
        got = overlap_partition(A, 0.5, 2)
        assert got.spl.tolist() == [0, 2, 4, 6]
        assert int(got.widths().max()) <= 2

    def test_heights_never_exceed_cap(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            A = random_csr(int(rng.integers(1, 15)), 8, 0.5, rng)
            u_max = int(rng.integers(1, 5))
            got = overlap_partition(A, float(rng.uniform(0.1, 1.0)), u_max)
            assert int(got.widths().max()) <= u_max

    def test_comparison_is_against_first_row(self):
        # rows: {0,1}, {1,2}, {2,3}: row 2 overlaps row 1 but not row 0
        A = build_csr(3, 4, [(0, 0, 1.0), (0, 1, 1.0), (1, 1, 1.0), (1, 2, 1.0),
                             (2, 2, 1.0), (2, 3, 1.0)])
        got = overlap_partition(A, 0.5, 4)
        # row 1 joins row 0's group; row 2 shares nothing with row 0, so it splits
        assert got.spl.tolist() == [0, 2, 3]

    def test_nonempty_row_never_joins_empty_leader(self):
        # row 0 is empty, so rho * min(0, |v|) is 0 for every following row
        A = build_csr(4, 6, [(1, 0, 1.0), (2, 5, 1.0), (3, 2, 1.0)])
        assert overlap_partition(A, 0.9, 4).spl.tolist() == [0, 1, 2, 3, 4]

    def test_empty_rows_still_group(self):
        # rows 0 and 1 are empty and share a group; row 2 starts its own
        A = build_csr(3, 2, [(2, 0, 1.0)])
        assert overlap_partition(A, 0.9, 4).spl.tolist() == [0, 2, 3]

    def test_rejects_bad_rho(self):
        A = identity(2)
        for rho in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError, match="rho"):
                overlap_partition(A, rho, 2)

    def test_rejects_bad_cap(self):
        for u_max in (0, -2):
            with pytest.raises(ValueError, match="u_max"):
                overlap_partition(identity(2), 0.5, u_max)

    def test_exact_past_the_old_key_limit(self, monkeypatch):
        # a (column, row) key once had to fit in int64; with 3 * 4 - 1 as the
        # limit it wrapped on this 3 x 4 matrix, and now no key is formed
        A = build_csr(3, 4, [(0, 1, 1.0), (2, 3, 1.0)])
        monkeypatch.setattr(sparse, "_INT64_MAX", 3 * 4 - 1)
        assert overlap_partition(A, 0.5, 2).spl.tolist() == [0, 2, 3]

    def test_overlaps_beyond_one_byte(self):
        # rows of 300 and 299 entries: the overlap table must hold 300
        wide = list(range(300))
        entries = [(i, j, 1.0) for i, cols in enumerate([wide, wide, wide[1:], [400, 401]])
                   for j in cols]
        A = build_csr(4, 402, entries)
        assert overlap_partition(A, 1.0, 4).spl.tolist() == [0, 3, 4]
        assert overlap_partition(A, 1.0, 4) == _overlap_walk(A, 1.0, 4)

    def test_overlap_table_memory_is_bounded(self):
        # runs of 4 rows share 6 columns; a u_max x m table of int64
        # overlaps alone would take 8 MB here
        m, u_max = 4000, 256
        rows = np.repeat(np.arange(m), 6)
        cols = ((rows // 4) * 6 + np.tile(np.arange(6), m)) % m
        cols[::7] = (cols[::7] + 3001) % m
        A = build_csr(m, m, np.rec.fromarrays([rows, cols, np.ones(len(rows))],
                                               dtype=sparse.ENTRY_DTYPE))
        tracemalloc.start()
        try:
            got = overlap_partition(A, 0.5, u_max)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.spl.tolist() == list(range(0, m + 1, 4))
        assert peak < u_max * m * 8 / 2

    @PROPERTY
    @given(patterned_csr(), st.floats(0.0, 1.0, exclude_min=True))
    def test_matches_entry_walk(self, A, drawn_rho):
        for rho in (1 / 3, 0.5, 0.9, 1.0, drawn_rho):
            for u_max in range(1, A.m + 2):
                assert overlap_partition(A, rho, u_max) == _overlap_walk(A, rho, u_max)

    @settings(derandomize=True, deadline=None, max_examples=80)
    @given(st.data())
    def test_matches_the_key_sort(self, data):
        A = data.draw(st.sampled_from([lambda A: A, _widen]))(data.draw(patterned_csr()))
        rho = data.draw(st.sampled_from([1 / 3, 0.5, 0.9, 1.0]))
        u_max = data.draw(st.integers(1, A.m + 1))
        assert overlap_partition(A, rho, u_max) == _key_sort_overlap(A, rho, u_max)

    def test_strict_refines_overlap(self):
        # identical adjacent rows always land in one part for both
        rng = np.random.default_rng(4)
        for _ in range(30):
            m = int(rng.integers(2, 10))
            A = random_csr(m, 6, 0.5, rng)
            strict = strict_partition(A)
            laxer = overlap_partition(A, 1.0, m)
            inv = laxer.assignments()
            for i in range(1, m):
                same_pattern = (
                    len(A.row_cols(i)) == len(A.row_cols(i - 1))
                    and bool((A.row_cols(i) == A.row_cols(i - 1)).all())
                )
                if same_pattern:
                    assert inv[i] == inv[i - 1]


class TestAlternating:
    def test_block_diagonal(self):
        entries = [(i, j, 1.0) for b in (0, 2) for i in (b, b + 1) for j in (b, b + 1)]
        A = build_csr(4, 4, entries)
        model = model_memory_vbr(64, 64, 2, 2)
        rows, cols = alternating_partition(A, model, 2, 2, rounds=3)
        # oracle: exhaustive minimum over all (row, column) partition pairs
        best = min(
            evaluate(model, A, p, q)
            for p in partitions_capped(4, 2)
            for q in partitions_capped(4, 2)
        )
        assert evaluate(model, A, rows, cols) == best
        assert rows.spl.tolist() == [0, 2, 4]
        assert cols.spl.tolist() == [0, 2, 4]

    def test_all_zero(self):
        A = build_csr(3, 3, [])
        rows, cols = alternating_partition(A, model_block_count(3, 3), 3, 3)
        assert evaluate(model_block_count(3, 3), A, rows, cols) == 0
        assert rows.is_trivial() and cols.is_trivial()

    def test_objective_never_increases(self):
        rng = np.random.default_rng(5)
        model = model_memory_vbr(64, 64, 8, 8)
        for _ in range(50):
            A = random_csr(8, 8, float(rng.uniform(0.1, 0.6)), rng)
            trace = []
            alternating_partition(A, model, 8, 8, rounds=5, objective_trace=trace)
            assert all(b <= a for a, b in zip(trace, trace[1:]))

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(st.integers(0, 7), st.integers(0, 7), st.integers(1, 4), st.integers(0, 2**32 - 1),
           st.sampled_from(["blocks", "memvbr", "float"]), st.data())
    def test_objective_trace_is_evaluate(self, m, n, rounds, seed, kind, data):
        """Each traced objective equals ``evaluate`` of the pair after that
        half-step, recomputed from the partitions rather than the DP."""
        rng = np.random.default_rng(seed)
        cells = data.draw(st.sets(st.tuples(st.integers(0, m - 1), st.integers(0, n - 1)))
                          if m and n else st.just(set()))
        A = build_csr(m, n, [(i, j, 1.0) for i, j in sorted(cells)])
        u_max, w_max = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
        model = {"blocks": model_block_count(u_max, w_max),
                 "memvbr": model_memory_vbr(32, 64, u_max, w_max),
                 "float": planted_model(u_max, w_max, rng)}[kind]
        trace = []
        for r in range(1, rounds + 1):
            trace_r = []
            rows, cols = alternating_partition(A, model, u_max, w_max, rounds=r,
                                               objective_trace=trace_r)
            assert trace_r[:-1] == trace
            trace = trace_r
            expected = evaluate(model, A, rows, cols)
            if model.exact:
                assert trace[-1] == expected and isinstance(trace[-1], int)
            else:
                assert abs(trace[-1] - expected) <= 1e-12 * abs(expected)

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(patterned_csr(max_rows=20, max_cols=8), st.integers(2, 3), st.integers(1, 4),
           st.integers(1, 4), st.sampled_from(["blocks", "memvbr", "float"]),
           st.integers(0, 2**32 - 1))
    def test_first_half_step_is_the_dp_alone(self, A, rounds, u_max, w_max, kind, seed):
        """The first half-step reads its pairs off the transpose: it must
        give the partition and the cost of the DP run alone, which lists
        them itself."""
        model = {"blocks": model_block_count(u_max, w_max),
                 "memvbr": model_memory_vbr(32, 64, u_max, w_max),
                 "float": planted_model(u_max, w_max, np.random.default_rng(seed))}[kind]
        calls = []

        def dp(*args, run=partition.optimal_partition, **kwargs):
            calls.append((kwargs, run(*args, **kwargs)))
            return calls[-1][1]

        with mock.patch.object(partition, "optimal_partition", dp):
            alternating_partition(A, model, u_max, w_max, rounds=rounds)
        (kwargs, first), *_ = calls
        assert kwargs["_transposed"] is not None
        alone = optimal_partition(A, trivial_partition(A.n), model, u_max)
        assert first.spl.tolist() == alone.spl.tolist()
        assert type(first.cost) is type(alone.cost) and first.cost == alone.cost

    def test_one_round_skips_transpose(self, monkeypatch):
        def no_transpose(A):
            raise AssertionError("transpose built for a rows-only run")

        monkeypatch.setattr(partition, "transpose", no_transpose)
        A = build_csr(3, 2, [(0, 0, 1.0), (1, 0, 1.0), (2, 1, 1.0)])
        trace = []
        rows, cols = alternating_partition(A, model_block_count(3, 2), 3, 2, rounds=1,
                                           objective_trace=trace)
        assert rows.spl.tolist() == [0, 2, 3] and cols.is_trivial()
        assert trace == [2]
        with pytest.raises(AssertionError, match="rows-only"):
            alternating_partition(A, model_block_count(3, 2), 3, 2, rounds=2)

    def test_rejects_bad_rounds(self):
        with pytest.raises(ValueError):
            alternating_partition(identity(2), model_block_count(2, 2), 2, 2, rounds=0)

    @pytest.mark.parametrize("u_max, w_max, rounds, message", [
        (0, 2, 3, "u_max must be at least 1, got 0"),
        (2, 0, 3, "w_max must be at least 1, got 0"),
        (2, -1, 1, "w_max must be at least 1, got -1"),
    ], ids=["u_max", "w_max", "w_max-rows-only"])
    def test_rejects_bounds_below_one_before_any_dp(self, monkeypatch, u_max, w_max, rounds,
                                                     message):
        def no_dp(*args):
            raise AssertionError("a DP ran before the bounds were checked")

        monkeypatch.setattr(partition, "optimal_partition", no_dp)
        with pytest.raises(ValueError, match=f"^{message}$"):
            alternating_partition(identity(2), model_block_count(2, 2), u_max, w_max,
                                  rounds=rounds)


# each partitioner's cap, called on a matrix and a value for it
_CAPS = {
    "strict": (lambda A, v: strict_partition(A, v), "u_max"),
    "overlap": (lambda A, v: overlap_partition(A, 0.9, v), "u_max"),
    "optimal": (lambda A, v: optimal_partition(A, trivial_partition(2), model_block_count(4, 1),
                                               v), "u_max"),
    "brute-force": (lambda A, v: brute_force_partition(A, trivial_partition(2),
                                                       model_block_count(4, 1), v), "u_max"),
    "alternating-u_max": (lambda A, v: alternating_partition(A, model_block_count(4, 4), v, 2),
                          "u_max"),
    "alternating-w_max": (lambda A, v: alternating_partition(A, model_block_count(4, 4), 2, v),
                          "w_max"),
    "alternating-rounds": (lambda A, v: alternating_partition(A, model_block_count(4, 4), 2, 2,
                                                              rounds=v), "rounds"),
}


class TestWholeCaps:
    @pytest.mark.parametrize("call, name", _CAPS.values(), ids=_CAPS.keys())
    def test_caps_must_be_whole_numbers(self, call, name):
        A = build_csr(10, 2, [(i, j, 1.0) for i in range(10) for j in (0, 1)])
        with pytest.raises(ValueError, match=f"^{name} must be a whole number, got 2.5$"):
            call(A, 2.5)
        assert call(A, 2.0) == call(A, 2)
        assert call(A, np.int64(3)) == call(A, 3)


def _strict_walk(A, u_max):
    """Reference strict partition: compare each row with the one above."""
    splits = [0]
    run = 1
    for i in range(1, A.m):
        prev, cur = A.row_cols(i - 1), A.row_cols(i)
        same = len(prev) == len(cur) and bool((prev == cur).all())
        if same and (u_max is None or run < u_max):
            run += 1
        else:
            splits.append(i)
            run = 1
    if A.m:
        splits.append(A.m)
    return Partition(splits)


def _overlap_walk(A, rho, u_max):
    """Reference overlap partition: a length-n workspace stamps the
    leader's columns, and each following row's entries are looked up."""
    if A.m == 0:
        return Partition([0])
    idx, pos = A.idx.tolist(), A.pos.tolist()
    stamp = [-1] * A.n
    splits = [0]
    leader = 0
    for p in range(pos[0], pos[1]):
        stamp[idx[p]] = 0
    leader_len = pos[1] - pos[0]
    for i in range(1, A.m):
        lo, hi = pos[i], pos[i + 1]
        overlap = sum(stamp[idx[p]] == leader for p in range(lo, hi))
        if i - leader == u_max or (hi > lo and overlap < max(rho * min(leader_len, hi - lo), 1)):
            splits.append(i)
            leader = i
            leader_len = hi - lo
            for p in range(lo, hi):
                stamp[idx[p]] = i
    splits.append(A.m)
    return Partition(splits)


def _widen(A):
    """``A`` with its columns spread over more than 65536, keeping their
    order: column j moves to 65531 + 3 j, so the columns straddle 2**16."""
    return CsrMatrix(A.m, 65531 + 3 * A.n, A.pos, 65531 + 3 * A.idx, A.val)


def _key_sort_overlap(A, rho, u_max):
    """Reference overlap partition: ``overlap_partition`` as it was when it
    took the column-major order from one sort of (column, row) keys."""
    m = A.m
    if m == 0:
        return Partition([0])
    u = min(u_max, m)
    lens = np.diff(A.pos)
    col, row = np.divmod(np.sort(sparse._pair_keys(A.idx, A.entry_rows(), A.n, m)), m)
    shared = np.zeros(u * m, dtype=np.min_scalar_type(int(lens.max())))
    one = shared.dtype.type(1)
    for j in range(1, u):
        lag = row[j:] - row[:-j]
        hit = np.flatnonzero((col[j:] == col[:-j]) & (lag < u))
        if not len(hit):
            break
        np.add.at(shared, lag[hit] * m + row[hit], one)
    shared = shared.reshape(u, m)
    end = np.minimum(np.arange(m) + u, m)
    for d in range(u - 1, 0, -1):
        cur = lens[d:]
        need = np.maximum(rho * np.minimum(lens[:m - d], cur), 1)
        fails = (cur > 0) & (shared[d, :m - d] < need)
        end[:m - d][fails] = np.flatnonzero(fails) + d
    end = end.tolist()
    splits = [0]
    while splits[-1] != m:
        splits.append(end[splits[-1]])
    return Partition(splits)


def _scalar_dp(A, col_partition, model, u_max):
    """Reference optimal partition, returned as (splits, cost): the
    (column part, row) pairs from one sort of their keys, as
    ``optimal_partition`` took them before it sorted by part alone, the
    window costs of each height from one ``np.bincount`` of the window
    bounds, then a backward pass over the rows in Python numbers that
    keeps, per row, the shortest part of least total."""
    m = A.m
    key = np.sort(sparse._pair_keys(col_partition.assignments()[A.idx], A.entry_rows(),
                                    col_partition.num_parts, m))
    fresh = np.ones(len(key), dtype=bool)
    np.not_equal(key[1:], key[:-1], out=fresh[1:])
    l, t = np.divmod(key[fresh], max(m, 1))
    prev = np.full(len(t), -1, dtype=np.int64)
    same = l[1:] == l[:-1]
    prev[1:][same] = t[:-1][same]
    widths, width_class = np.unique(col_partition.widths(), return_inverse=True)
    nw = len(widths)
    heights = range(1, min(u_max, m) + 1)
    prices = [[model._price(u, w) for w in widths.tolist()] for u in heights]
    dtype = np.float64
    if model.exact:
        # a window's cost, but no sum of several, is bounded here: the
        # pass below adds Python numbers
        bound = max(map(abs, model.alpha_row))
        bound += max(len(t), 1) * max((abs(p) for row in prices for p in row), default=0)
        dtype = np.int64 if bound <= sparse._INT64_MAX else object
    # pair (t, l) is new to the windows starting in (max(prev, t - u), t]
    end_key = (t + 1) * nw + width_class[l]
    ends = np.bincount(end_key, minlength=(m + 1) * nw).reshape(m + 1, nw)
    window_cost = []
    for u in heights:
        start_key = end_key - np.minimum(t - prev, u) * nw
        starts = np.bincount(start_key, minlength=(m + 1) * nw).reshape(m + 1, nw) - ends
        diff = np.cumsum(starts @ np.array(prices[u - 1], dtype=dtype))
        window_cost.append((diff[:m - u + 1] + model.alpha_row[u - 1]).tolist())
    best = [0] * (m + 1)
    next_split = [0] * (m + 1)
    for i in range(m - 1, -1, -1):
        best_i = math.inf
        for u, cost in enumerate(window_cost[:m - i], 1):
            total = cost[i] + best[i + u]
            if total < best_i:
                best_i, next_split[i] = total, i + u
        if not next_split[i]:
            raise ValueError(f"no part starting at row {i} has a finite cost")
        best[i] = best_i
    splits = [0]
    while splits[-1] != m:
        splits.append(next_split[splits[-1]])
    return splits, best[0]
