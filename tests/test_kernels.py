import math

import numpy as np
import pytest

from blockpart import (
    Partition,
    build_csr,
    spmv_1dvbr,
    spmv_csr,
    spmv_vbr,
    to_1dvbr,
    to_vbr,
)

from conftest import random_csr, random_partition


def identity(n):
    return build_csr(n, n, [(i, i, 1.0) for i in range(n)])


def mixed_tolerance(A, x):
    return 1e-12 * np.abs(A.val).max(initial=0.0) * np.abs(x).max(initial=0.0)


class TestSpmvCsr:
    def test_identity(self):
        x = np.array([3.0, -1.0, 2.0])
        assert spmv_csr(identity(3), x).tolist() == x.tolist()

    def test_dense(self):
        A = build_csr(2, 2, [(0, 0, 1.0), (0, 1, 2.0), (1, 0, 3.0), (1, 1, 4.0)])
        assert spmv_csr(A, np.array([1.0, 1.0])).tolist() == [3.0, 7.0]

    def test_zero_matrix(self):
        A = build_csr(3, 2, [])
        assert spmv_csr(A, np.ones(2)).tolist() == [0.0, 0.0, 0.0]

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            spmv_csr(identity(3), np.ones(2))

    @pytest.mark.parametrize("m, n, entries", [
        (0, 0, []),
        (0, 3, []),
        (3, 0, []),
        (5, 3, [(1, 0, 2.0), (1, 2, -1.0), (3, 1, 4.0)]),  # empty first, middle and last rows
    ])
    def test_empty_rows_and_matrices(self, m, n, entries):
        A = build_csr(m, n, entries)
        x = np.arange(1.0, n + 1.0)
        y = spmv_csr(A, x)
        assert y.dtype == np.float64 and y.tolist() == (A.to_dense() @ x).tolist()

    def test_long_rows_within_rounding(self):
        rng = np.random.default_rng(5)
        A = random_csr(4, 40, 0.9, rng)
        x = rng.standard_normal(40)
        want = [math.fsum(A.val[q] * x[A.idx[q]] for q in range(A.pos[i], A.pos[i + 1]))
                for i in range(4)]
        assert np.abs(spmv_csr(A, x) - want).max() <= mixed_tolerance(A, x)


class TestSpmvVbr:
    def test_identity_pairs(self):
        B = to_vbr(identity(4), Partition([0, 2, 4]), Partition([0, 2, 4]))
        y = spmv_vbr(np.zeros(4), B, np.array([1.0, 2.0, 3.0, 4.0]))
        assert y.tolist() == [1.0, 2.0, 3.0, 4.0]

    def test_accumulates_in_place(self):
        A = build_csr(2, 2, [(0, 0, 1.0), (0, 1, 2.0), (1, 0, 3.0), (1, 1, 4.0)])
        B = to_vbr(A, Partition([0, 2]), Partition([0, 2]))
        y = np.array([1.0, 1.0])
        out = spmv_vbr(y, B, np.array([1.0, 1.0]))
        assert out is y
        assert y.tolist() == [4.0, 8.0]

    def test_matches_csr_on_random(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            A = random_csr(int(rng.integers(1, 12)), int(rng.integers(1, 12)),
                           float(rng.uniform(0.05, 0.7)), rng)
            rows = random_partition(A.m, 4, rng)
            cols = random_partition(A.n, 4, rng)
            x = rng.standard_normal(A.n)
            expect = spmv_csr(A, x)
            got = spmv_vbr(np.zeros(A.m), to_vbr(A, rows, cols), x)
            assert np.abs(got - expect).max(initial=0.0) <= mixed_tolerance(A, x)


class TestSpmv1dVbr:
    def test_identity_pairs(self):
        B = to_1dvbr(identity(4), Partition([0, 2, 4]))
        x = np.array([1.0, 2.0, 3.0, 4.0])
        assert spmv_1dvbr(np.zeros(4), B, x).tolist() == x.tolist()

    def test_example_row_sums(self, example_matrix):
        B = to_1dvbr(example_matrix, Partition([0, 1, 4, 6, 8]))
        got = spmv_1dvbr(np.zeros(8), B, np.ones(9))
        expect = spmv_csr(example_matrix, np.ones(9))
        assert np.allclose(got, expect, rtol=1e-12)

    def test_matches_csr_on_random(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            A = random_csr(int(rng.integers(1, 12)), int(rng.integers(1, 12)),
                           float(rng.uniform(0.05, 0.7)), rng)
            rows = random_partition(A.m, 4, rng)
            x = rng.standard_normal(A.n)
            expect = spmv_csr(A, x)
            got = spmv_1dvbr(np.zeros(A.m), to_1dvbr(A, rows), x)
            assert np.abs(got - expect).max(initial=0.0) <= mixed_tolerance(A, x)


class TestKernelProperties:
    def test_linearity(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            A = random_csr(8, 8, 0.4, rng)
            x = rng.standard_normal(8)
            z = rng.standard_normal(8)
            a, b = 0.7, -1.3
            lhs = spmv_csr(A, a * x + b * z)
            rhs = a * spmv_csr(A, x) + b * spmv_csr(A, z)
            scale = np.abs(lhs).max(initial=0.0) + 1.0
            assert np.abs(lhs - rhs).max(initial=0.0) <= 1e-12 * scale

    def test_explicit_zeros_change_nothing(self):
        # stored zeros widen the block pattern but the product still
        # matches CSR on the original entries
        rng = np.random.default_rng(3)
        for _ in range(20):
            A = random_csr(6, 6, 0.3, rng)
            padded = build_csr(6, 6, [
                (i, int(A.idx[q]), float(A.val[q]))
                for i in range(6) for q in range(A.pos[i], A.pos[i + 1])
            ] + [(i, i, 0.0) for i in range(6)])
            x = rng.standard_normal(6)
            assert np.array_equal(spmv_csr(A, x), spmv_csr(padded, x))
            expect = spmv_csr(A, x)
            tol = mixed_tolerance(A, x)
            rows = random_partition(6, 3, rng)
            for M in (A, padded):
                y1 = spmv_1dvbr(np.zeros(6), to_1dvbr(M, rows), x)
                y2 = spmv_vbr(np.zeros(6), to_vbr(M, rows, random_partition(6, 3, rng)), x)
                assert np.abs(y1 - expect).max(initial=0.0) <= tol
                assert np.abs(y2 - expect).max(initial=0.0) <= tol

    def test_flop_counter_equals_value_count(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            A = random_csr(9, 9, 0.4, rng)
            rows = random_partition(9, 3, rng)
            cols = random_partition(9, 3, rng)
            d = to_1dvbr(A, rows)
            counter = {}
            spmv_1dvbr(np.zeros(9), d, np.ones(9), counter=counter)
            assert counter["madds"] == len(d.val)
            v = to_vbr(A, rows, cols)
            counter = {}
            spmv_vbr(np.zeros(9), v, np.ones(9), counter=counter)
            assert counter["madds"] == len(v.val)
