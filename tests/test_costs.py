import re

import numpy as np
import pytest

from blockpart import (
    CostModel,
    Partition,
    block_count,
    build_csr,
    cost_model_from_csv,
    csr_memory_bits,
    cost_model_to_csv,
    evaluate,
    model_block_count,
    model_memory_1dvbr,
    model_memory_vbr,
    onedvbr_memory_bits,
    serialize_1dvbr,
    serialize_vbr,
    to_1dvbr,
    to_vbr,
    trivial_partition,
    value_count,
    vbr_memory_bits,
)
from blockpart.gadgets import GadgetParams, build_gadget, case_row_partition, case_col_partition
from blockpart.partition import optimal_partition

from conftest import identity, random_csr, random_partition, planted_model


def dense_2x2():
    return build_csr(2, 2, [(0, 0, 1.0), (0, 1, 2.0), (1, 0, 3.0), (1, 1, 4.0)])


class TestCounts:
    def test_one_part_each(self):
        A = dense_2x2()
        one = Partition([0, 2])
        assert block_count(A, one, one) == 1
        assert value_count(A, one, one) == 4

    def test_identity_trivial_cols(self):
        A = identity(4)
        for rows in (trivial_partition(4), Partition([0, 2, 4]), Partition([0, 4])):
            assert block_count(A, rows, trivial_partition(4)) == 4

    def test_gadget_case(self):
        # two-part grouping of the first three rows and columns, s = 1
        p = GadgetParams(1)
        assert (p.mu2, p.mu3) == (32, 18)
        G = build_gadget("B1", p)
        case = ("last-pair", "last-pair")
        rows, cols = case_row_partition(case, p), case_col_partition(case, p)
        assert block_count(G, rows, cols) == 2 + 4 * 32 + 4 * 18 == 202
        assert value_count(G, rows, cols) == 5 + 6 * 32 + 6 * 18 == 305

    def test_gadget_merged_core(self):
        p = GadgetParams(1)
        G = build_gadget("B1", p)
        case = ("all", "all")
        rows, cols = case_row_partition(case, p), case_col_partition(case, p)
        assert value_count(G, rows, cols) == 9 + 6 * 32 + 12 * 18 == 417

    def test_partition_mismatch_rejected(self):
        A = dense_2x2()
        with pytest.raises(ValueError):
            block_count(A, Partition([0, 3]), trivial_partition(2))

    def test_counts_vs_stored_entries(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            A = random_csr(int(rng.integers(1, 9)), int(rng.integers(1, 9)),
                           float(rng.uniform(0, 0.7)), rng)
            t_rows = trivial_partition(A.m)
            t_cols = trivial_partition(A.n)
            assert block_count(A, t_rows, t_cols) == A.nnz
            assert value_count(A, t_rows, t_cols) == A.nnz
            rows = random_partition(A.m, 3, rng)
            cols = random_partition(A.n, 3, rng)
            nv = value_count(A, rows, cols)
            assert nv >= A.nnz
            assert nv >= block_count(A, rows, cols)


class TestMemoryFormulas:
    def test_vbr_one_entry(self):
        A = build_csr(1, 1, [(0, 0, 2.0)])
        one = Partition([0, 1])
        assert vbr_memory_bits(A, one, one, 1, 1) == (6 + 2 + 1) + 1 == 10

    def test_vbr_identity_pairs(self):
        # oracle: array lengths of the actual conversion
        A = identity(4)
        pairs = Partition([0, 2, 4])
        B = to_vbr(A, pairs, pairs)
        blocks, values = len(B.idx), len(B.val)
        assert (blocks, values) == (2, 8)
        expect = (3 * 3 + 3 + blocks) * 64 + values * 64
        assert vbr_memory_bits(A, pairs, pairs, 64, 64) == expect == 1408

    def test_onedvbr_identity(self):
        A = identity(4)
        assert onedvbr_memory_bits(A, Partition([0, 2, 4]), 1, 1) == (9 + 4) + 8 == 21
        assert onedvbr_memory_bits(A, trivial_partition(4), 1, 1) == (15 + 4) + 4 == 23

    def test_onedvbr_one_entry(self):
        A = build_csr(1, 1, [(0, 0, 2.0)])
        assert onedvbr_memory_bits(A, Partition([0, 1]), 1, 1) == (6 + 1) + 1 == 8

    def test_formula_matches_serialization(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            A = random_csr(int(rng.integers(1, 10)), int(rng.integers(1, 10)),
                           float(rng.uniform(0.05, 0.7)), rng)
            rows = random_partition(A.m, 4, rng)
            cols = random_partition(A.n, 4, rng)
            assert vbr_memory_bits(A, rows, cols, 64, 64) == 8 * len(serialize_vbr(to_vbr(A, rows, cols)))
            assert onedvbr_memory_bits(A, rows, 64, 64) == 8 * len(serialize_1dvbr(to_1dvbr(A, rows)))


class TestStorageWidths:
    @pytest.mark.parametrize("s_index, s_value", [(-64, 64), (64, 0), (0, 0)])
    def test_every_formula_rejects_non_positive_widths(self, s_index, s_value):
        A = dense_2x2()
        r = trivial_partition(2)
        for count in (lambda: csr_memory_bits(A, s_index, s_value),
                      lambda: vbr_memory_bits(A, r, r, s_index, s_value),
                      lambda: onedvbr_memory_bits(A, r, s_index, s_value),
                      lambda: model_memory_1dvbr(s_index, s_value, 2),
                      lambda: model_memory_vbr(s_index, s_value, 2, 2)):
            with pytest.raises(ValueError, match="widths must be positive"):
                count()

    @pytest.mark.parametrize("count, message", [
        (lambda A, r: csr_memory_bits(A, float("nan"), 64), "s_index must be a whole number, got nan"),
        (lambda A, r: vbr_memory_bits(A, r, r, 64, float("nan")),
         "s_value must be a whole number, got nan"),
        (lambda A, r: onedvbr_memory_bits(A, r, 2.5, 64), "s_index must be a whole number, got 2.5"),
        (lambda A, r: model_memory_vbr(2.5, 64, 2, 2), "s_index must be a whole number, got 2.5"),
        (lambda A, r: model_memory_1dvbr(64, True, 2), "s_value must be a whole number, got True"),
        (lambda A, r: model_block_count(2.5, 2), "u_max must be a whole number, got 2.5"),
        (lambda A, r: model_block_count(True, 2), "u_max must be a whole number, got True"),
        (lambda A, r: model_memory_vbr(64, 64, 2, 2.5), "w_max must be a whole number, got 2.5"),
        (lambda A, r: model_memory_1dvbr(64, 64, float("inf")),
         "u_max must be a whole number, got inf"),
    ], ids=["csr-nan", "vbr-nan", "1dvbr-fraction", "model-vbr-width", "model-1dvbr-bool",
            "count-fraction", "count-bool", "model-vbr-size", "model-1dvbr-inf"])
    def test_widths_and_table_sizes_are_whole_numbers(self, count, message):
        # a width or table size that is not a whole number is refused, not
        # counted into a float, a NaN or a bare TypeError; a whole float is
        # read as the int it equals
        A, r = dense_2x2(), trivial_partition(2)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            count(A, r)
        assert csr_memory_bits(A, 64.0, np.int64(32)) == csr_memory_bits(A, 64, 32)
        assert type(csr_memory_bits(A, 64.0, 32.0)) is int
        assert model_memory_vbr(64.0, 64, 2.0, 2) == model_memory_vbr(64, 64, 2, 2)


class TestEvaluate:
    def test_block_count_model_equivalence(self):
        rng = np.random.default_rng(6)
        model = model_block_count(5, 5)
        for _ in range(100):
            A = random_csr(int(rng.integers(1, 9)), int(rng.integers(1, 9)),
                           float(rng.uniform(0, 0.7)), rng)
            rows = random_partition(A.m, 5, rng)
            cols = random_partition(A.n, 5, rng)
            got = evaluate(model, A, rows, cols)
            assert isinstance(got, int)
            assert got == block_count(A, rows, cols)

    def test_memory_model_constant_offset(self):
        rng = np.random.default_rng(7)
        s_index = 64
        model = model_memory_1dvbr(s_index, 64, 6)
        for _ in range(50):
            A = random_csr(6, 6, 0.4, rng)
            rows = random_partition(6, 6, rng)
            got = evaluate(model, A, rows, trivial_partition(6))
            # the model drops the fixed share of the offset arrays
            assert onedvbr_memory_bits(A, rows, s_index, 64) - got == 3 * s_index

    def test_memory_model_argmin_matches_bits(self):
        rng = np.random.default_rng(8)
        model = model_memory_1dvbr(64, 64, 6)
        for _ in range(20):
            m = int(rng.integers(1, 7))
            A = random_csr(m, int(rng.integers(1, 7)), 0.4, rng)
            t_cols = trivial_partition(A.n)
            parts = list(_all_partitions(m))
            best_eval = min(parts, key=lambda p: evaluate(model, A, p, t_cols))
            best_bits = min(onedvbr_memory_bits(A, p, 64, 64) for p in parts)
            assert onedvbr_memory_bits(A, best_eval, 64, 64) == best_bits

    def test_mini_gadget_cost(self):
        from blockpart.gadgets import build_mini_pair, mini_pair_row_partition

        M = build_mini_pair("V1", "V1")
        rows = mini_pair_row_partition("V1", "V1")
        cols = Partition([0, 2, 3])
        s = 1
        cost = value_count(M, rows, cols) + s * block_count(M, rows, cols)
        assert cost == 13 + 5 * s == 18

    def test_rejects_part_exceeding_tables(self):
        A = identity(4)
        model = model_block_count(2, 2)
        with pytest.raises(ValueError, match="row part 0"):
            evaluate(model, A, Partition([0, 4]), trivial_partition(4))
        with pytest.raises(ValueError, match="column part 0"):
            evaluate(model, A, trivial_partition(4), Partition([0, 4]))

    def test_vbr_memory_model_constant_offset(self):
        rng = np.random.default_rng(9)
        model = model_memory_vbr(64, 64, 6, 6)
        for _ in range(30):
            A = random_csr(6, 5, 0.4, rng)
            rows = random_partition(6, 6, rng)
            cols = random_partition(5, 6, rng)
            got = evaluate(model, A, rows, cols)
            assert vbr_memory_bits(A, rows, cols, 64, 64) - got == 4 * 64


def _all_partitions(r):
    def extend(splits):
        if splits[-1] == r:
            yield Partition(splits)
            return
        for nxt in range(splits[-1] + 1, r + 1):
            yield from extend(splits + [nxt])

    yield from extend([0])


class TestModelTables:
    def test_block_count_shape(self):
        model = model_block_count(3, 2)
        assert model.rank == 1 and model.u_max == 3 and model.w_max == 2
        assert model.exact

    def test_csv_round_trip_int(self):
        model = model_memory_vbr(64, 64, 4, 3)
        again = cost_model_from_csv(cost_model_to_csv(model))
        assert again == model
        assert again.exact

    def test_csv_skips_blank_lines(self):
        model = model_memory_vbr(64, 64, 4, 3)
        text = "\n" + cost_model_to_csv(model).replace("\n", "\n \n", 2) + "\t\n"
        assert cost_model_from_csv(text) == model

    def test_csv_round_trip_float(self):
        rng = np.random.default_rng(10)
        model = planted_model(4, 3, rng)
        again = cost_model_from_csv(cost_model_to_csv(model))
        assert again == model
        assert not again.exact

    @pytest.mark.parametrize("edit, message", [
        (lambda lines: lines[:3] + lines[4:], "'beta_col r=1' is missing"),
        (lambda lines: lines + [lines[0]], "repeats 'alpha_row'"),
        (lambda lines: [lines[0].replace("alpha_row", "alpha_col")] + lines[1:], "repeats 'alpha_col'"),
        (lambda lines: lines[:2] + ["beta_row" + lines[2][len("beta_row r=1"):]] + lines[3:],
         "'beta_row r=1' is missing; 'beta_row' is unknown"),
        (lambda lines: lines[:4] + lines[6:],
         "'beta_row r=2' is missing; 'beta_col r=2' is missing; 'beta_col r=3' is unknown; "
         "'beta_row r=3' is unknown"),
        (lambda lines: lines[:2], "'beta_row r=1' is missing; 'beta_col r=1' is missing"),
        (lambda lines: lines + ["gamma,1"], "'gamma' is unknown"),
    ])
    def test_csv_needs_each_table_once(self, edit, message):
        # rank 3: alpha_row, alpha_col, then beta_row and beta_col for r = 1, 2, 3
        lines = cost_model_to_csv(planted_model(3, 2, np.random.default_rng(3))).splitlines()
        with pytest.raises(ValueError, match=message.replace("(", r"\(")):
            cost_model_from_csv("\n".join(edit(lines)))

    def test_rejects_inconsistent_tables(self):
        with pytest.raises(ValueError):
            CostModel(alpha_row=(0,), alpha_col=(0,), beta_row=((1, 1),), beta_col=((1,),))

    def test_numpy_integer_tables_stay_exact(self):
        # np.int64 entries are stored as Python ints: the model is exact, so
        # the DP runs in integers, the CSV reads 192 and not 192.0, and
        # evaluate does not wrap at 2**63
        reference = model_memory_vbr(64, 64, 4, 3)
        numpy_model = CostModel(
            alpha_row=np.array(reference.alpha_row), alpha_col=np.array(reference.alpha_col),
            beta_row=[np.array(t) for t in reference.beta_row],
            beta_col=np.array(reference.beta_col))
        assert numpy_model == reference and numpy_model.exact
        assert cost_model_to_csv(numpy_model) == cost_model_to_csv(reference)
        rng = np.random.default_rng(5)
        A = random_csr(12, 9, 0.3, rng)
        rows, cols = random_partition(12, 4, rng), random_partition(9, 3, rng)
        assert evaluate(numpy_model, A, rows, cols) == evaluate(reference, A, rows, cols)
        found, want = (optimal_partition(A, cols, m, 4) for m in (numpy_model, reference))
        assert found == want and found.cost == want.cost and isinstance(found.cost, int)

        big = np.int64(2**62)
        column = build_csr(3, 1, [(i, 0, 1.0) for i in range(3)])
        wide = CostModel(alpha_row=(big,), alpha_col=(np.int64(0),),
                         beta_row=((big,),), beta_col=((np.int64(1),),))
        assert evaluate(wide, column, trivial_partition(3), trivial_partition(1)) == 6 * 2**62

    @pytest.mark.parametrize("bad", ["1", None, np.bool_(True)], ids=["str", "None", "np-bool"])
    def test_non_number_entries_rejected(self, bad):
        with pytest.raises(ValueError, match=r"^cost table entry beta_col\[0\]\[1\] = "
                                             r".* is not a real number$"):
            CostModel(alpha_row=(0,), alpha_col=(0, 0), beta_row=((1,),), beta_col=((1, bad),))
