import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import blockpart.sparse as sparse
from blockpart import (
    CsrMatrix,
    OneDVbrMatrix,
    build_csr,
    csr_memory_bits,
    row_pattern,
    run_calibration,
    strict_partition,
    time_min,
    transpose,
    trivial_partition,
    Partition,
)

from conftest import patterned_csr, random_csr, random_partition


class TestBuildCsr:
    def test_single_entry(self):
        A = build_csr(1, 1, [(0, 0, 5.0)])
        assert A.pos.tolist() == [0, 1]
        assert A.idx.tolist() == [0]
        assert A.val.tolist() == [5.0]

    def test_empty_matrix(self):
        A = build_csr(2, 2, [])
        assert A.pos.tolist() == [0, 0, 0]
        assert A.nnz == 0

    def test_duplicates_summed(self):
        A = build_csr(2, 2, [(0, 0, 1.0), (0, 0, 2.0)])
        assert A.nnz == 1
        assert A.val.tolist() == [3.0]

    def test_sorting(self):
        A = build_csr(2, 3, [(1, 2, 1.0), (0, 1, 2.0), (1, 0, 3.0), (0, 0, 4.0)])
        assert A.idx.tolist() == [0, 1, 0, 2]
        assert A.val.tolist() == [4.0, 2.0, 3.0, 1.0]

    def test_rejects_out_of_range(self):
        # past each of the four bounds, after an entry inside them
        for i, j in [(2, 0), (-1, 1), (1, 2), (0, -1)]:
            with pytest.raises(ValueError, match=rf"entry 1 at \(row, col\)=\({i}, {j}\) "
                                                 "is outside a 2x2 matrix"):
                build_csr(2, 2, [(0, 0, 1.0), (i, j, 1.0), (1, 1, 1.0)])

    def test_rejects_coordinates_that_are_not_whole(self):
        # the int64 cast would cut 1.9 down to 1; whole floats and int64
        # coordinates past 2**53 stay exact
        for i, j, message in [(1.9, 1, "entry rows: 1.9"), (1, 0.5, "entry columns: 0.5"),
                              (float("nan"), 0, "entry rows: nan"),
                              (0, float("inf"), "entry columns: inf")]:
            with pytest.raises(ValueError, match=f"^{message} at 1 is not a whole number$"):
                build_csr(2, 2, [(0, 0, 1.0), (i, j, 1.0)])
        assert build_csr(2, 2, [(1.0, 0.0, 1.0)]).to_dense().tolist() == [[0.0, 0.0], [1.0, 0.0]]
        assert build_csr(1, 2**62, [(0, 2**53 + 1, 1.0)]).idx.tolist() == [2**53 + 1]

    def test_explicit_zero_counts(self):
        A = build_csr(1, 2, [(0, 0, 0.0), (0, 1, 1.0)])
        assert A.nnz == 2

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(st.data())
    def test_sorted_input_matches_the_sorting_path(self, data):
        # entries in CSR order skip the sort; whatever the order, the
        # arrays must be byte for byte those of the sorting path, which
        # reads -0.0 as +0.0 and keeps the bits of a NaN
        m, n = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
        cells = data.draw(st.lists(st.tuples(st.integers(0, m - 1), st.integers(0, n - 1)),
                                   min_size=1, max_size=20))
        order = data.draw(st.sampled_from(["sorted", "sorted", "duplicated", "shuffled"]))
        if order == "sorted":
            cells = sorted(set(cells))
        elif order == "duplicated":
            cells = sorted(cells)
        values = data.draw(st.lists(st.sampled_from(ODD_VALUES) | st.floats(-10.0, 10.0),
                                    min_size=len(cells), max_size=len(cells)))
        entries = np.array([(i, j, v) for (i, j), v in zip(cells, values)],
                           dtype=sparse.ENTRY_DTYPE)
        A = build_csr(m, n, entries)
        for got, want in zip((A.pos, A.idx, A.val), _sorting_build(m, n, entries)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(st.data())
    def test_column_major_and_shuffled_entries_match_the_sorted_ones(self, data):
        m, n = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 8))
        cells = sorted(data.draw(st.sets(st.tuples(st.integers(0, m - 1), st.integers(0, n - 1)),
                                         min_size=1, max_size=30)))
        entries = np.array([(i, j, k + 1.0) for k, (i, j) in enumerate(cells)],
                           dtype=sparse.ENTRY_DTYPE)
        want = build_csr(m, n, entries)
        column_major = entries[np.lexsort((entries["row"], entries["col"]))]
        shuffled = entries[data.draw(st.permutations(range(len(entries))))]
        assert build_csr(m, n, column_major) == want
        assert build_csr(m, n, shuffled) == want


# +-0.0, infinities and NaNs of either sign, quiet and signalling, with payloads
ODD_VALUES = [0.0, -0.0, np.inf, -np.inf, *np.array(
    [0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000123, 0x7FF0000000000001],
    dtype=np.uint64).view(np.float64).tolist()]


def _sorting_build(m, n, entries):
    """(pos, idx, val) as ``build_csr`` makes them from unsorted entries:
    one sort of the distinct pair keys, duplicates summed by ``np.bincount``."""
    uniq, inverse = np.unique(sparse._pair_keys(entries["row"], entries["col"], m, n),
                              return_inverse=True)
    urows, ucols = np.divmod(uniq, n)
    summed = np.bincount(inverse, weights=entries["val"], minlength=len(uniq))
    return sparse._offsets(np.bincount(urows, minlength=m)), ucols, summed


class TestInvariantValidation:
    @pytest.mark.parametrize("m, n, pos, idx, message", [
        (-1, 2, [], [], "negative dimensions -1x2"),
        (2, 2, [0, 1], [0], "pos has length 2, expected 3"),
        (1, 1, [0, 2], [0], "pos must start at 0, be non-decreasing, and end at nnz"),
        (1, 2, [0, 2], [0, 1], "idx/val length mismatch: 2 vs 1"),
        (1, 2, [0, 1], [2], "column index out of range"),
        (1, 2, [0, 1], [-1], "column index out of range"),
    ], ids=["negative", "pos-length", "pos-end", "idx-val", "column-past-n", "column-negative"])
    def test_rejects_bad_fields(self, m, n, pos, idx, message):
        from blockpart import CsrMatrix

        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            CsrMatrix(m, n, pos, idx, [1.0])

    @pytest.mark.parametrize("pos, idx, message", [
        ([0, 1, 2], [0.7, 2.2], "idx: 0.7 at 0 is not a whole number"),
        ([0, 1.5, 2], [0, 2], "pos: 1.5 at 1 is not a whole number"),
        ([0, 1, 2], [0, np.nan], "idx: nan at 1 is not a whole number"),
    ], ids=["idx", "pos", "nan"])
    def test_rejects_indices_that_are_not_whole(self, pos, idx, message):
        from blockpart import CsrMatrix

        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            CsrMatrix(2, 3, pos, idx, [1.0, 2.0])
        A = CsrMatrix(2, 3, np.array([0.0, 1.0, 2.0]), np.array([0.0, 2.0]), [1.0, 2.0])
        assert (A.pos.tolist(), A.idx.tolist()) == ([0, 1, 2], [0, 2])

    def test_unsorted_row(self):
        from blockpart import CsrMatrix

        with pytest.raises(ValueError, match="strictly increasing"):
            CsrMatrix(1, 3, [0, 2], [2, 0], [1.0, 1.0])


    def test_fall_across_an_empty_row_passes(self):
        from blockpart import CsrMatrix

        A = CsrMatrix(3, 3, [0, 1, 1, 3], [2, 0, 1], [1.0, 2.0, 3.0])
        assert A.to_dense()[2].tolist() == [2.0, 3.0, 0.0]

    @pytest.mark.parametrize("row", [[2, 1], [1, 1]])
    @pytest.mark.parametrize("empty_rows", ["leading", "trailing"])
    def test_fall_inside_a_row_next_to_empty_rows(self, row, empty_rows):
        # the bad row is the first non-empty row or the last one
        from blockpart import CsrMatrix

        pos, idx = ([0, 0, 0, 2, 3], row + [0]) if empty_rows == "leading" else ([0, 1, 3, 3, 3], [0] + row)
        with pytest.raises(ValueError, match="strictly increasing"):
            CsrMatrix(4, 3, pos, idx, [1.0] * 3)


class TestDimensions:
    # a dimension is read as an int before any check uses it, so one that
    # is not a whole number is refused rather than cut down after the checks
    @pytest.mark.parametrize("call, message", [
        (lambda: CsrMatrix(2.5, 2, [0, 0, 0], [], []), "m must be a whole number, got 2.5"),
        (lambda: CsrMatrix(2, None, [0, 0, 0], [], []), "n must be a whole number, got None"),
        (lambda: build_csr(2, 2.5, [(0, 2, 1.0)]), "n must be a whole number, got 2.5"),
        (lambda: build_csr(float("nan"), 2, []), "m must be a whole number, got nan"),
        (lambda: trivial_partition(2.5), "range size must be a whole number, got 2.5"),
        (lambda: trivial_partition("3"), "range size must be a whole number, got '3'"),
        (lambda: OneDVbrMatrix(2.5, [0, 1], [0, 0], [], [0, 0], []),
         "n must be a whole number, got 2.5"),
    ], ids=["csr-m", "csr-n-none", "build-n", "build-m-nan", "trivial", "trivial-str", "1dvbr-n"])
    def test_rejects_dimensions_that_are_not_whole(self, call, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()

    @pytest.mark.parametrize("two", [2.0, np.float64(2.0), np.int32(2), Fraction(4, 2)],
                             ids=["float", "float64", "int32", "fraction"])
    def test_whole_dimensions_become_int(self, two):
        for A in (CsrMatrix(two, two, [0, 0, 1], [1], [1.0]), build_csr(two, two, [(1, 1, 1.0)])):
            assert (A.m, A.n, type(A.m), type(A.n)) == (2, 2, int, int)
            assert A.to_dense().tolist() == [[0.0, 0.0], [0.0, 1.0]]
        assert trivial_partition(two) == Partition([0, 1, 2])
        B = OneDVbrMatrix(two, [0, 1], [0, 0], [], [0, 0], [])
        assert (B.n, type(B.n)) == (2, int)

    @pytest.mark.parametrize("call, message", [
        (lambda: CsrMatrix(True, 1, [0, 1], [0], [1.0]), "m must be a whole number, got True"),
        (lambda: run_calibration(True, 1), "u_max must be a whole number, got True"),
        (lambda: strict_partition(build_csr(1, 1, [(0, 0, 1.0)]), True),
         "u_max must be a whole number, got True"),
        (lambda: time_min(lambda: None, True), "trials must be a whole number, got True"),
    ], ids=["csr-m", "calibration", "strict", "time-min"])
    def test_bool_dimensions_are_refused(self, call, message):
        # as TimingSample refuses them: a bool is a flag, not a count
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()


class TestTranspose:
    def test_identity(self):
        A = build_csr(3, 3, [(i, i, 1.0) for i in range(3)])
        assert transpose(A) == A

    def test_one_by_two(self):
        A = build_csr(1, 2, [(0, 0, 1.0), (0, 1, 2.0)])
        T = transpose(A)
        assert (T.m, T.n) == (2, 1)
        assert T.to_dense().tolist() == [[1.0], [2.0]]

    def test_involution_on_random(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            m, n = int(rng.integers(1, 12)), int(rng.integers(1, 12))
            A = random_csr(m, n, float(rng.uniform(0, 0.8)), rng)
            assert transpose(transpose(A)) == A

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(patterned_csr())
    def test_matches_dense_transpose(self, A):
        T = transpose(A)
        assert (T.m, T.n, T.nnz) == (A.n, A.m, A.nnz)
        assert np.array_equal(T.to_dense(), A.to_dense().T)

    def test_exact_past_the_old_key_limit(self, monkeypatch):
        # a (column, row) key once had to fit in int64; with 3 * 4 - 1 as the
        # limit it wrapped on this 3 x 4 matrix, and now no key is formed
        A = build_csr(3, 4, [(0, 1, 1.0), (0, 3, 3.0), (2, 1, 2.0), (2, 3, 4.0)])
        monkeypatch.setattr(sparse, "_INT64_MAX", 3 * 4 - 1)
        T = transpose(A)
        assert (T.m, T.n) == (4, 3)
        assert T.pos.tolist() == [0, 0, 2, 2, 4]
        assert T.idx.tolist() == [0, 2, 0, 2]
        assert T.val.tolist() == [1.0, 2.0, 3.0, 4.0]

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(st.data())
    def test_matches_dense_transpose_on_edge_shapes(self, data):
        # more than 65536 columns take a second radix digit; an empty
        # matrix and a single column take one digit of one value
        shape = data.draw(st.sampled_from(["wide", "empty", "column"]))
        m = data.draw(st.integers(0 if shape == "empty" else 1, 3))
        n = {"wide": data.draw(st.sampled_from([65537, 65536 + 300, 2 * 65536 + 5])),
             "empty": data.draw(st.integers(0, 3)), "column": 1}[shape]
        cols = st.sampled_from([0, 1, 65535, 65536, 65537, n - 1]).filter(lambda j: j < n)
        cells = set() if shape == "empty" or not m else data.draw(st.sets(
            st.tuples(st.integers(0, m - 1), cols | st.integers(0, n - 1)), max_size=25))
        A = build_csr(m, n, [(i, j, float(k + 1)) for k, (i, j) in enumerate(sorted(cells))])
        T = transpose(A)
        assert (T.m, T.n, T.nnz) == (A.n, A.m, A.nnz)
        assert np.array_equal(T.to_dense(), A.to_dense().T)


class TestStableOrder:
    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(st.data())
    def test_matches_a_stable_argsort(self, data):
        # one, two and three 16-bit digits, with values on the digit edges
        size = data.draw(st.sampled_from([1, 2, 2**16, 2**16 + 1, 2**32, 2**32 + 7, 2**47]))
        edges = [v for v in (0, 1, 2**16 - 1, 2**16, 2**32 - 1, 2**32, size - 1) if v < size]
        values = data.draw(st.lists(st.sampled_from(edges) | st.integers(0, size - 1),
                                    max_size=40))
        a = np.array(values, dtype=np.int64)
        assert np.array_equal(sparse._stable_order(a, size), np.argsort(a, kind="stable"))

    def test_csr_order_becomes_the_column_key_order(self):
        # the order transpose and overlap_partition take: rows ascending
        # within each column, as one sort of the (column, row) keys gives
        rng = np.random.default_rng(5)
        for _ in range(30):
            A = random_csr(int(rng.integers(1, 12)), int(rng.integers(1, 12)), 0.4, rng)
            keys = sparse._pair_keys(A.idx, A.entry_rows(), A.n, A.m)
            assert np.array_equal(sparse._stable_order(A.idx, A.n), np.argsort(keys))


class TestBlockPattern:
    @pytest.mark.parametrize("rows, cols, message", [
        ([0, 1], [0, 3], "row partition covers 1 rows, matrix has 2"),
        ([0, 2], [0, 2], "column partition covers 2 columns, matrix has 3"),
    ], ids=["rows", "columns"])
    def test_rejects_partitions_of_other_sizes(self, rows, cols, message):
        A = build_csr(2, 3, [(0, 0, 1.0)])
        with pytest.raises(ValueError, match=f"^{message}$"):
            sparse._block_pattern(A, Partition(rows), Partition(cols))

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(st.data())
    def test_matches_a_unique_oracle(self, data):
        # block rows mix empty rows, short ones and long ones
        m, n = data.draw(st.integers(1, 12)), data.draw(st.integers(1, 40))
        rows = []
        for _ in range(m):
            kind = data.draw(st.sampled_from(["empty", "short", "long"]))
            size = {"empty": 0, "short": min(n, 2), "long": n}[kind]
            rows.append(data.draw(st.sets(st.integers(0, n - 1), max_size=size)))
        A = build_csr(m, n, [(i, j, 1.0) for i, cols in enumerate(rows) for j in sorted(cols)])

        def partition(size):
            # trivial one time in four: the pair keys then arrive in CSR order
            if data.draw(st.integers(0, 3)) == 0:
                return trivial_partition(size)
            cuts = data.draw(st.sets(st.integers(1, size - 1))) if size > 1 else set()
            return Partition([0, *sorted(cuts), size])

        row_part, col_part = partition(m), partition(n)
        k, l, fresh, order = sparse._block_pattern(A, row_part, col_part)
        keys = (np.repeat(row_part.assignments(), np.diff(A.pos)) * col_part.num_parts
                + col_part.assignments()[A.idx])
        uniq, want = np.unique(keys, return_inverse=True)
        assert k.tolist() == (uniq // col_part.num_parts).tolist()
        assert l.tolist() == (uniq % col_part.num_parts).tolist()
        # each entry's pair index as ``formats._blocked_arrays`` expands it:
        # the entries listed in ``order`` run pair by pair, each run's first
        # marked in ``fresh``
        assert (order is None) == bool((np.diff(keys) >= 0).all())
        listed = np.arange(A.nnz) if order is None else order
        assert fresh.dtype == bool and fresh.shape == (A.nnz,) and fresh[:1].all()
        pair = np.empty(A.nnz, dtype=np.int64)
        pair[listed] = np.cumsum(fresh) - 1
        assert pair.tolist() == want.tolist()


class TestRowPattern:
    def test_rejects_partition_of_other_width(self):
        A = build_csr(1, 3, [(0, 0, 1.0)])
        with pytest.raises(ValueError, match="^column partition covers 2 columns, matrix has 3$"):
            row_pattern(A, 0, trivial_partition(2))

    def test_trivial_partition_gives_columns(self):
        A = build_csr(1, 3, [(0, 0, 1.0), (0, 1, 1.0)])
        assert row_pattern(A, 0, trivial_partition(3)).tolist() == [0, 1]

    @pytest.mark.parametrize("i", [-3, -1, 3])
    def test_rejects_rows_out_of_range(self, i):
        # a negative i would otherwise slice pos[i]:pos[i + 1] from the end
        A = build_csr(3, 3, [(0, 0, 1.0), (1, 2, 2.0), (2, 1, 3.0)])
        message = f"^{re.escape(f'row {i} outside [0, 3)')}$"
        with pytest.raises(IndexError, match=message):
            A.row_cols(i)
        with pytest.raises(IndexError, match=message):
            row_pattern(A, i, trivial_partition(3))
        assert [A.row_cols(r).tolist() for r in range(3)] == [[0], [2], [1]]

    def test_merged_columns(self):
        A = build_csr(1, 2, [(0, 0, 1.0), (0, 1, 1.0)])
        assert row_pattern(A, 0, Partition([0, 2])).tolist() == [0]

    def test_empty_row(self):
        A = build_csr(2, 2, [(0, 0, 1.0)])
        assert row_pattern(A, 1, trivial_partition(2)).tolist() == []

    def test_matches_stored_columns_under_trivial(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            A = random_csr(6, 7, 0.4, rng)
            for i in range(6):
                expect = A.row_cols(i).tolist()
                assert row_pattern(A, i, trivial_partition(7)).tolist() == expect


class TestCsrMemoryBits:
    def test_direct_formula(self):
        A = build_csr(2, 2, [(0, 0, 1.0), (0, 1, 1.0), (1, 1, 1.0)])
        assert csr_memory_bits(A, 32, 64) == 96 + 96 + 192

    def test_empty(self):
        A = build_csr(1, 1, [])
        assert csr_memory_bits(A, 64, 64) == 128

    def test_example_matrix(self, example_matrix):
        # 32 entries counted off the worked example's pattern
        assert example_matrix.nnz == 32
        assert csr_memory_bits(example_matrix, 64, 64) == (9 + 32 + 32) * 64

    def test_monotone(self):
        rng = np.random.default_rng(2)
        A = random_csr(5, 5, 0.3, rng)
        bigger = build_csr(5, 5, [(i, int(A.idx[q]), float(A.val[q]))
                                  for i in range(5)
                                  for q in range(A.pos[i], A.pos[i + 1])] + [(4, 4, 9.0), (0, 4, 1.0)])
        assert csr_memory_bits(bigger, 64, 64) >= csr_memory_bits(A, 64, 64)
        assert csr_memory_bits(A, 64, 64) < csr_memory_bits(A, 64, 128)
        assert csr_memory_bits(A, 64, 64) < csr_memory_bits(A, 128, 64)

    def test_rejects_bad_widths(self):
        A = build_csr(1, 1, [])
        with pytest.raises(ValueError):
            csr_memory_bits(A, 0, 64)


class TestPartition:
    def test_trivial(self):
        assert trivial_partition(0).spl.tolist() == [0]
        assert trivial_partition(1).spl.tolist() == [0, 1]
        assert trivial_partition(3).spl.tolist() == [0, 1, 2, 3]

    def test_widths_cover_range(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            r = int(rng.integers(0, 30))
            p = random_partition(r, 5, rng)
            assert int(p.widths().sum()) == r
            # contiguity: the inverse map is total and non-decreasing
            if r:
                inv = [p.inverse(i) for i in range(r)]
                assert inv == sorted(inv)
                assert p.assignments().tolist() == inv

    @pytest.mark.parametrize("call, error, message", [
        (lambda: Partition([0, 2, 3]).inverse(3), IndexError,
         "index 3 outside partitioned range [0, 3)"),
        (lambda: Partition([0, 2, 3]).inverse(-1), IndexError,
         "index -1 outside partitioned range [0, 3)"),
        (lambda: trivial_partition(-1), ValueError, "negative range size -1"),
    ], ids=["inverse-past-end", "inverse-negative", "trivial-negative"])
    def test_rejects_indices_out_of_range(self, call, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            call()

    def test_rejects_splits_that_are_not_whole(self):
        for spl in ([0, 1.5, 3], np.array([0, 1.5, 3], dtype=object), [0, Fraction(3, 2), 3]):
            with pytest.raises(ValueError, match=r"^split points: 1\.5 at 1 is not a whole number$"):
                Partition(spl)
        assert Partition(np.array([0.0, 2.0, 3.0])) == Partition([0, 2, 3])

    def test_rejects_bad_splits(self):
        with pytest.raises(ValueError):
            Partition([1, 2])
        with pytest.raises(ValueError):
            Partition([0, 2, 2])
        with pytest.raises(ValueError):
            Partition([])
