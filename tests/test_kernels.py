import math

import numpy as np
import pytest

from blockpart import (
    CsrMatrix,
    Partition,
    build_csr,
    spmv_1dvbr,
    spmv_csr,
    spmv_vbr,
    to_1dvbr,
    to_vbr,
    trivial_partition,
)

from conftest import identity, random_csr, random_partition


def mixed_tolerance(A, x):
    return 1e-12 * np.abs(A.val).max(initial=0.0) * np.abs(x).max(initial=0.0)


def power_law_csr(rng, m=10_000):
    """An m x m matrix whose row lengths follow a Zipf law, each row's
    entries in its first columns."""
    lengths = np.minimum(rng.zipf(2.0, m), m)
    pos = np.concatenate([[0], np.cumsum(lengths)])
    idx = np.arange(pos[-1]) - np.repeat(pos[:-1], lengths)
    return CsrMatrix(m, m, pos, idx, rng.uniform(-1.0, 1.0, pos[-1]))


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

    def test_power_law_rows_pad_little(self):
        # 1x1 blocks of a power-law matrix: one height and over a hundred
        # distinct stored counts, from 1 to 10,000. The plan's class DP pads
        # them by under 1.15x; one group per height would pad them a
        # thousandfold, and no benchmark workload has such rows
        rng = np.random.default_rng(0)
        A = power_law_csr(rng)
        m, n = A.m, A.n
        B = to_1dvbr(A, trivial_partition(m))
        x = rng.standard_normal(n)
        y = spmv_1dvbr(np.zeros(m), B, x)
        assert np.abs(y - spmv_csr(A, x)).max() <= mixed_tolerance(A, x) * n
        assert sum(values.size for values, *_ in B._plan.groups) <= 1.5 * len(B.val)


def _square(rows):
    """Square matrix whose row i stores the columns ``rows[i]``, values distinct."""
    n = len(rows)
    return build_csr(n, n, [(i, j, float(n * i + j + 1) / n) for i, cols in enumerate(rows)
                            for j in cols])


def _in_place_error(A, B, x, y):
    """Largest error of ``spmv_vbr(y, B, x)``, where x and y share memory,
    against the old y plus ``spmv_csr`` of the old x, relative to
    1e-12 of each row's sum of |terms|."""
    x_old, y_old = x.copy(), y.copy()
    assert spmv_vbr(y, B, x) is y
    want = y_old + spmv_csr(A, x_old)
    bound = np.abs(y_old) + spmv_csr(CsrMatrix(A.m, A.n, A.pos, A.idx, np.abs(A.val)),
                                     np.abs(x_old))
    return float(np.max(np.abs(y - want) - 1e-12 * bound, initial=-np.inf))


def _padded(B):
    """Whether the plan of B reads the zero slot x[n] anywhere, which is
    when it flags a pad and multiplies from a copy of x."""
    padded = any(B.n in cols for _, cols, *_ in B._plan.groups)
    assert padded == B._plan.pad
    return padded


class TestInPlace:
    # spmv_vbr(v, B, v) adds A @ v into v from the old v, whether the plan
    # has pad slots or none and one group or several, and so does a y that
    # overlaps x without being it: x = buf[1:], y = buf[:-1]
    @pytest.mark.parametrize("rows, spl, pad, groups", [
        ([[0, 2], [1, 3], [2, 4], [0, 3], [1, 4]], None, False, 1),
        ([[0, 3], [0, 3], [0, 5], [0, 5], [1, 2, 5], [1, 2, 4]], [0, 2, 4, 5, 6], False, 2),
        ([[0, 2], [4], [1, 3], [0, 3], [2, 4]], None, True, 1),
        ([[0, 3], [0, 3], [0, 5], [5], [1, 2, 5], [2, 4]], [0, 2, 4, 5, 6], True, 2),
    ])
    def test_x_is_y(self, rows, spl, pad, groups):
        A = _square(rows)
        part = trivial_partition(A.m) if spl is None else Partition(spl)
        rng = np.random.default_rng(6)
        for B in (to_1dvbr(A, part), to_vbr(A, part, trivial_partition(A.n))):
            v = rng.standard_normal(A.m)
            assert _in_place_error(A, B, v, v) <= 0.0
            assert (_padded(B), len(B._plan.groups)) == (pad, groups)
            buf = rng.standard_normal(A.m + 1)
            assert _in_place_error(A, B, buf[1:], buf[:-1]) <= 0.0

    def test_random_square_matrices(self):
        rng = np.random.default_rng(8)
        kinds = set()
        for _ in range(200):
            n = int(rng.integers(1, 12))
            A = random_csr(n, n, float(rng.uniform(0.1, 0.7)), rng)
            rows = random_partition(n, 4, rng)
            for B in (to_1dvbr(A, rows), to_vbr(A, rows, random_partition(n, 3, rng))):
                v = rng.standard_normal(n)
                assert _in_place_error(A, B, v, v) <= 0.0
                buf = rng.standard_normal(n + 1)
                assert _in_place_error(A, B, buf[1:], buf[:-1]) <= 0.0
                kinds.add((_padded(B), min(len(B._plan.groups), 2)))
        assert kinds >= {(False, 1), (False, 2), (True, 1), (True, 2)}


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

    def test_planned_csr_matches_csr(self):
        # CSR is the 1D-VBR container with trivial rows, which shares its
        # arrays, so the planned kernel multiplies CSR: each y row equals
        # spmv_csr's within 1e-12 of its sum of |terms|
        rng = np.random.default_rng(4)
        matrices = [random_csr(int(rng.integers(0, 30)), int(rng.integers(1, 30)),
                               float(rng.uniform(0.0, 0.5)), rng) for _ in range(100)]
        for A in [*matrices, power_law_csr(rng)]:
            x = rng.standard_normal(A.n)
            y = spmv_1dvbr(np.zeros(A.m), to_1dvbr(A, trivial_partition(A.m)), x)
            terms = spmv_csr(CsrMatrix(A.m, A.n, A.pos, A.idx, np.abs(A.val)), np.abs(x))
            assert np.all(np.abs(y - spmv_csr(A, x)) <= 1e-12 * terms)


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
