import hashlib

import numpy as np
import pytest

from blockpart import (
    Partition,
    alternating_partition,
    block_count,
    build_csr,
    evaluate,
    model_block_count,
    model_memory_1dvbr,
    model_memory_vbr,
    onedvbr_get,
    optimal_partition,
    overlap_partition,
    serialize_1dvbr,
    stored_counts,
    strict_partition,
    to_1dvbr,
    to_vbr,
    transpose,
    trivial_partition,
    value_count,
    vbr_get,
)

from conftest import identity, mesh_csr, random_csr, random_partition


class TestToVbr:
    def test_single_block(self):
        A = build_csr(2, 2, [(0, 0, 1.0), (0, 1, 2.0), (1, 0, 3.0), (1, 1, 4.0)])
        one = Partition([0, 2])
        B = to_vbr(A, one, one)
        assert B.idx.tolist() == [0]
        assert B.val.tolist() == [1.0, 3.0, 2.0, 4.0]  # column-major

    def test_fill_in(self):
        A = build_csr(2, 2, [(0, 0, 5.0), (1, 1, 7.0)])
        B = to_vbr(A, Partition([0, 2]), trivial_partition(2))
        assert B.idx.tolist() == [0, 1]
        assert B.val.tolist() == [5.0, 0.0, 0.0, 7.0]

    def test_value_count_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            A = random_csr(int(rng.integers(1, 10)), int(rng.integers(1, 10)),
                           float(rng.uniform(0.05, 0.7)), rng)
            rows = random_partition(A.m, 4, rng)
            cols = random_partition(A.n, 4, rng)
            B = to_vbr(A, rows, cols)
            assert len(B.val) == value_count(A, rows, cols)
            assert len(B.idx) == block_count(A, rows, cols)

    def test_partition_mismatch(self):
        A = identity(3)
        with pytest.raises(ValueError):
            to_vbr(A, Partition([0, 2]), trivial_partition(3))


class TestTo1dVbr:
    def test_example_matrix_block_row(self, example_matrix):
        B = to_1dvbr(example_matrix, Partition([0, 1, 4, 6, 8]))
        q0, q1 = int(B.pos[1]), int(B.pos[2])
        assert B.idx[q0:q1].tolist() == [0, 1, 3, 4, 5, 7]
        assert int(B.spl_rows[2] - B.spl_rows[1]) == 3

    def test_identity_pairs(self):
        B = to_1dvbr(identity(4), Partition([0, 2, 4]))
        assert B.idx.tolist() == [0, 1, 2, 3]
        assert B.val.tolist() == [1.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 1.0]
        assert onedvbr_get(B, 2, 2) == 1.0

    def test_strict_fast_path_equals_general(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            # duplicate random rows so the strict partitioner finds groups
            m = int(rng.integers(1, 6))
            base = random_csr(m, 8, 0.5, rng)
            entries = []
            row = 0
            for i in range(m):
                copies = int(rng.integers(1, 4))
                for _ in range(copies):
                    for q in range(base.pos[i], base.pos[i + 1]):
                        entries.append((row, int(base.idx[q]), float(base.val[q])))
                    row += 1
            A = build_csr(row, 8, entries)
            rows = strict_partition(A)
            fast = to_1dvbr(A, rows)
            # to_vbr under the same row partition and trivial columns holds
            # the same blocks, so the two agree array for array
            general = to_vbr(A, rows, trivial_partition(8))
            assert fast.idx.tolist() == general.idx.tolist()
            assert fast.val.tolist() == general.val.tolist()
            assert fast.pos.tolist() == general.pos.tolist()
            assert fast.ofs.tolist() == general.ofs.tolist()


class TestSerialize1dVbr:
    def test_trivial_columns_through_to_vbr_give_the_1dvbr_bytes(self):
        A = random_csr(7, 6, 0.4, np.random.default_rng(3))
        rows = Partition([0, 3, 4, 7])
        assert serialize_1dvbr(to_vbr(A, rows, trivial_partition(6))) == serialize_1dvbr(
            to_1dvbr(A, rows))

    def test_refuses_grouped_columns(self):
        # idx would hold column-part indices that a reader takes as columns
        halves = Partition([0, 2, 4])
        B = to_vbr(identity(4), halves, halves)
        with pytest.raises(ValueError, match=r"2 column parts of this 4x4 matrix are not its 4"):
            serialize_1dvbr(B)


class TestGetters:
    def test_outside_any_block(self):
        A = build_csr(2, 2, [(0, 0, 1.0)])
        B = to_vbr(A, trivial_partition(2), trivial_partition(2))
        assert vbr_get(B, 1, 1) == 0.0

    def test_explicit_fill_zero(self):
        A = build_csr(2, 2, [(0, 0, 5.0), (1, 1, 7.0)])
        B = to_vbr(A, Partition([0, 2]), trivial_partition(2))
        assert vbr_get(B, 1, 0) == 0.0

    def test_round_trip(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            A = random_csr(int(rng.integers(1, 9)), int(rng.integers(1, 9)),
                           float(rng.uniform(0.1, 0.8)), rng)
            rows = random_partition(A.m, 3, rng)
            cols = random_partition(A.n, 3, rng)
            B = to_vbr(A, rows, cols)
            D = to_1dvbr(A, rows)
            dense = A.to_dense()
            for i in range(A.m):
                for j in range(A.n):
                    assert vbr_get(B, i, j) == dense[i, j]
                    assert onedvbr_get(D, i, j) == dense[i, j]

    def test_out_of_range(self):
        A = identity(2)
        B = to_vbr(A, trivial_partition(2), trivial_partition(2))
        with pytest.raises(IndexError):
            vbr_get(B, 2, 0)
        D = to_1dvbr(A, trivial_partition(2))
        with pytest.raises(IndexError):
            onedvbr_get(D, 0, -1)


class TestStoredCounts:
    def test_single(self):
        A = build_csr(1, 1, [(0, 0, 3.0)])
        one = Partition([0, 1])
        assert stored_counts(to_vbr(A, one, one)) == (1, 1)

    def test_empty(self):
        A = build_csr(2, 2, [])
        assert stored_counts(to_vbr(A, trivial_partition(2), trivial_partition(2))) == (0, 0)
        assert stored_counts(to_1dvbr(A, trivial_partition(2))) == (0, 0)

    def test_matches_counting(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            A = random_csr(7, 6, 0.4, rng)
            rows = random_partition(7, 3, rng)
            cols = random_partition(6, 3, rng)
            assert stored_counts(to_vbr(A, rows, cols)) == (
                block_count(A, rows, cols),
                value_count(A, rows, cols),
            )

    def test_ofs_has_final_entry(self):
        A = identity(4)
        B = to_vbr(A, Partition([0, 2, 4]), Partition([0, 2, 4]))
        assert len(B.ofs) == 3
        assert int(B.ofs[-1]) == len(B.val)


class TestSetUpPin:
    def test_every_set_up_output_is_pinned(self):
        # sha256 of what each partitioner and converter gives on a mesh, a
        # random matrix and rows in runs: partitions, DP minima, objective
        # traces, counts, each container's six arrays and every array of its
        # multiply plan. A refactor of the block pattern, the DP or the plan
        # must leave it unchanged byte for byte.
        digest = hashlib.sha256()

        def pin(*items):
            for a in items:
                if isinstance(a, np.ndarray):
                    digest.update(f"{a.dtype.str} {a.shape} {np.isfortran(a)}".encode())
                    digest.update(a.tobytes())
                else:
                    digest.update(repr(a).encode())

        def pin_container(B):
            pin(*(getattr(B, name) for name in ("spl_rows", "spl_cols", "pos", "idx", "ofs", "val")))
            plan = B._plan
            for values, cols, stretch in plan.groups:
                pin(values, cols, stretch)
            pin(plan.size, plan.where, plan.target, plan.pad)

        # runs of three rows sharing five columns give plan groups of
        # consecutive block rows three tall, which a plan copies as slices
        rng, entries = np.random.default_rng(23), []
        for r in range(12):
            cols = np.sort(rng.choice(40, 5, replace=False)).tolist()
            entries += [(i, j, float(rng.uniform(-1.0, 1.0)))
                        for i in range(3 * r, 3 * r + 3) for j in cols]
        runs = build_csr(36, 40, entries)
        for A in (mesh_csr(8, np.random.default_rng(7))[0],
                  random_csr(60, 50, 0.15, np.random.default_rng(19)), runs):
            trivial = trivial_partition(A.n)
            rows = optimal_partition(A, trivial, model_memory_1dvbr(64, 64, 8), 8)
            pin(rows.spl, rows.cost)
            pin_container(to_1dvbr(A, rows))
            for model in (model_memory_vbr(64, 64, 8, 8), model_block_count(8, 8)):
                trace = []
                rows, cols = alternating_partition(A, model, 8, 8, objective_trace=trace)
                pin(rows.spl, rows.cost, cols.spl, cols.cost, trace)
                pin(evaluate(model, A, rows, cols), block_count(A, rows, cols),
                    value_count(A, rows, cols))
                pin_container(to_vbr(A, rows, cols))
            rows, cols = strict_partition(A, 8), strict_partition(transpose(A), 8)
            pin(rows.spl, cols.spl, block_count(A, rows, cols), value_count(A, rows, cols))
            pin_container(to_vbr(A, rows, cols))
            pin_container(to_1dvbr(A, rows))
            rows = overlap_partition(A, 0.5, 8)
            pin(rows.spl, block_count(A, rows, trivial), value_count(A, rows, trivial))
            pin_container(to_1dvbr(A, rows))
        assert digest.hexdigest() == (
            "e5c12b5d0f197a642d1e23eee50cc0baa79c14a575c11f9ffaa24cf7305b5889")
