import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import blockpart.sparse as sparse
from blockpart import (
    build_csr,
    csr_memory_bits,
    row_pattern,
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
        with pytest.raises(ValueError, match=r"entry 1 .*\(2, 0\)"):
            build_csr(2, 2, [(0, 0, 1.0), (2, 0, 1.0)])
        with pytest.raises(ValueError, match="outside"):
            build_csr(2, 2, [(0, -1, 1.0)])

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


# +-0.0, infinities and NaNs of either sign, quiet and signalling, with payloads
ODD_VALUES = [0.0, -0.0, np.inf, -np.inf, *np.array(
    [0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000123, 0x7FF0000000000001],
    dtype=np.uint64).view(np.float64).tolist()]


def _sorting_build(m, n, entries):
    """(pos, idx, val) as ``build_csr`` makes them from unsorted entries:
    one sort of the distinct pair keys, duplicates summed by ``np.bincount``."""
    urows, ucols, inverse = sparse._unique_pairs(entries["row"], entries["col"], m, n)
    summed = np.bincount(inverse, weights=entries["val"], minlength=len(urows))
    return sparse._offsets(np.bincount(urows, minlength=m)), ucols, summed


class TestInvariantValidation:
    def test_bad_pos(self):
        from blockpart import CsrMatrix

        with pytest.raises(ValueError):
            CsrMatrix(1, 1, [0, 2], [0], [1.0])

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

    def test_rejects_wrapping_key(self, monkeypatch):
        A = build_csr(3, 4, [(0, 1, 1.0), (2, 3, 2.0)])
        monkeypatch.setattr(sparse, "_INT64_MAX", 3 * 4)
        assert transpose(A).to_dense().tolist() == A.to_dense().T.tolist()
        monkeypatch.setattr(sparse, "_INT64_MAX", 3 * 4 - 1)
        with pytest.raises(ValueError, match="64-bit"):
            transpose(A)


class TestRowPattern:
    def test_trivial_partition_gives_columns(self):
        A = build_csr(1, 3, [(0, 0, 1.0), (0, 1, 1.0)])
        assert row_pattern(A, 0, trivial_partition(3)).tolist() == [0, 1]

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

    def test_rejects_bad_splits(self):
        with pytest.raises(ValueError):
            Partition([1, 2])
        with pytest.raises(ValueError):
            Partition([0, 2, 2])
        with pytest.raises(ValueError):
            Partition([])
