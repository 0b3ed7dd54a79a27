import hashlib
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blockpart import fit_cost_model, jacobi_svd, synth_block_matrix, time_min
from blockpart.calibrate import (
    TimingSample,
    VARIANTS,
    _grid_shape,
    _grid_vbr,
    _sample_design,
    _variant_shape,
    critical_point,
    run_calibration,
    samples_from_csv,
    samples_to_csv,
)
from blockpart.formats import stored_counts, to_vbr
from blockpart.kernels import spmv_vbr


def planted_tables(u_max, w_max, rank, rng):
    # non-decreasing along both axes so the monotonicity pass is a no-op
    a_r = np.sort(rng.uniform(1e-6, 1e-5, u_max))
    a_c = np.sort(rng.uniform(1e-6, 1e-5, w_max))
    rows = np.sort(rng.uniform(1e-7, 1e-6, (rank, u_max)), axis=1)
    cols = np.sort(rng.uniform(0.5, 2.0, (rank, w_max)), axis=1)
    return a_r, a_c, rows.T @ cols


def synth_samples(u_max, w_max, a_r, a_c, beta, bpr=4, min_bytes=64, scale=1.0):
    out = []
    for u in range(1, u_max + 1):
        for w in range(1, w_max + 1):
            for variant in VARIANTS:
                k, l, b = _variant_shape(u, w, bpr, min_bytes, variant)
                t = scale * (k * a_r[u - 1] + l * a_c[w - 1] + k * b * beta[u - 1, w - 1])
                out.append(TimingSample(u, w, k * u, b, float(t), variant))
    return out


def predict(model, sample):
    k, l, blocks = _sample_design(sample)
    beta = sum(model.beta_row[r][sample.u - 1] * model.beta_col[r][sample.w - 1]
               for r in range(model.rank))
    return (k * model.alpha_row[sample.u - 1]
            + l * model.alpha_col[sample.w - 1] + blocks * beta)


class TestSynthBlockMatrix:
    def test_tiny_single_entry_rows(self):
        A, rows, cols = synth_block_matrix(1, 1, blocks_per_row=1, min_bytes=8)
        assert rows.widths().tolist() == [1] * rows.num_parts
        assert all(A.pos[i + 1] - A.pos[i] == 1 for i in range(A.m))

    def test_counts_match_blocks_per_row(self):
        A, rows, cols = synth_block_matrix(3, 2, blocks_per_row=4, min_bytes=2048, seed=5)
        n_index, n_value = stored_counts(to_vbr(A, rows, cols))
        assert n_index == rows.num_parts * 4
        assert n_value == n_index * 3 * 2

    def test_min_bytes_met(self):
        for min_bytes in (8, 1024, 4096):
            A, rows, cols = synth_block_matrix(2, 2, blocks_per_row=2, min_bytes=min_bytes)
            _, n_value = stored_counts(to_vbr(A, rows, cols))
            assert n_value * 8 >= min_bytes

    def test_deterministic_under_seed(self):
        a = synth_block_matrix(2, 3, blocks_per_row=3, min_bytes=512, seed=9)[0]
        b = synth_block_matrix(2, 3, blocks_per_row=3, min_bytes=512, seed=9)[0]
        assert a == b

    def test_infeasible_rejected(self):
        with pytest.raises(ValueError):
            synth_block_matrix(0, 1)

    def test_draws_are_pinned(self):
        # sha256 of the CSR's pos, idx and val as drawn before calibration
        # built its grids directly in VBR form
        A, rows, cols = synth_block_matrix(2, 3, blocks_per_row=4, min_bytes=4096, seed=7)
        digest = hashlib.sha256()
        for arr, dtype in ((A.pos, "<i8"), (A.idx, "<i8"), (A.val, "<f8")):
            digest.update(arr.astype(dtype).tobytes())
        assert (A.m, A.n, A.nnz) == (44, 45, 528)
        assert digest.hexdigest() == (
            "068eb1180c2a2aa0b14152829bea69fcbf8e8ccde361f9372943c7b6e0e92f33")

    @pytest.mark.parametrize("u, w, n_block_rows, blocks_per_row", [
        (1, 1, 6, 4),
        (3, 2, 4, 7),      # u != w
        (4, 4, 1, 1),      # one block row
        (2, 3, 5, 3),      # w > u
    ])
    def test_direct_vbr_equals_converted_csr(self, u, w, n_block_rows, blocks_per_row):
        # min_bytes that gives exactly n_block_rows base block rows
        min_bytes = 8 * u * w * blocks_per_row * n_block_rows
        shape = _variant_shape(u, w, blocks_per_row, min_bytes, "base")
        assert shape[0] == n_block_rows
        want = _grid_vbr(u, w, *shape, np.random.default_rng(3))
        got = to_vbr(*synth_block_matrix(u, w, blocks_per_row, min_bytes, seed=3))
        for name in ("spl_rows", "spl_cols", "pos", "idx", "ofs", "val"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name

    def test_grid_vbr_can_take_every_block_column(self):
        # as many blocks as block columns: the draws take each column once
        B = _grid_vbr(3, 2, 4, 7, 7, np.random.default_rng(3))
        assert B.idx.reshape(4, 7).tolist() == [list(range(7))] * 4
        assert len(B.val) == 4 * 7 * 3 * 2


class TestFitCostModel:
    def test_planted_rank3_within_two_percent(self):
        rng = np.random.default_rng(0)
        a_r, a_c, beta = planted_tables(6, 6, 3, rng)
        samples = synth_samples(6, 6, a_r, a_c, beta)
        model = fit_cost_model(samples, rank=3)
        for s in samples:
            assert abs(predict(model, s) - s.seconds) / s.seconds <= 0.02

    def test_planted_rank1_exact(self):
        rng = np.random.default_rng(1)
        a_r, a_c, beta = planted_tables(5, 4, 1, rng)
        samples = synth_samples(5, 4, a_r, a_c, beta)
        model = fit_cost_model(samples, rank=1)
        for s in samples:
            assert abs(predict(model, s) - s.seconds) / s.seconds <= 1e-9

    def test_prefix_max_makes_beta_monotone(self):
        rng = np.random.default_rng(2)
        u_max = w_max = 4
        a_r = np.full(u_max, 1e-6)
        a_c = np.full(w_max, 1e-6)
        # strictly decreasing along u: the running maximum must flatten it
        beta = np.outer(np.linspace(2.0, 1.0, u_max), np.ones(w_max)) * 1e-6
        samples = synth_samples(u_max, w_max, a_r, a_c, beta)
        model = fit_cost_model(samples, rank=min(u_max, w_max))
        fitted = np.array([
            [sum(model.beta_row[r][u] * model.beta_col[r][w] for r in range(model.rank))
             for w in range(w_max)]
            for u in range(u_max)
        ])
        assert np.all(np.diff(fitted, axis=0) >= -1e-12)
        assert np.all(np.diff(fitted, axis=1) >= -1e-12)

    def test_scale_equivariance(self):
        rng = np.random.default_rng(3)
        a_r, a_c, beta = planted_tables(4, 4, 2, rng)
        base = synth_samples(4, 4, a_r, a_c, beta)
        scaled = synth_samples(4, 4, a_r, a_c, beta, scale=7.0)
        m1 = fit_cost_model(base, rank=2)
        m2 = fit_cost_model(scaled, rank=2)
        for s1, s2 in zip(base, scaled):
            assert predict(m2, s2) == pytest.approx(7.0 * predict(m1, s1), rel=1e-9)

    def test_full_rank_truncation_lossless(self):
        rng = np.random.default_rng(4)
        a_r, a_c, beta = planted_tables(4, 4, 4, rng)
        samples = synth_samples(4, 4, a_r, a_c, beta)
        model = fit_cost_model(samples, rank=4)
        for s in samples:
            assert predict(model, s) == pytest.approx(s.seconds, rel=1e-9)

    def test_fixed_call_cost_is_fitted_and_dropped(self):
        # every multiply pays the same fixed cost on top of the planted
        # tables; the fit must not spread it over the table entries
        rng = np.random.default_rng(8)
        a_r, a_c, beta = planted_tables(4, 4, 2, rng)
        samples = [
            TimingSample(s.u, s.w, s.m_rows, s.blocks_per_row, s.seconds + 2e-5, s.variant)
            for s in synth_samples(4, 4, a_r, a_c, beta)
        ]
        model = fit_cost_model(samples, rank=2)
        fitted = sum(np.outer(model.beta_row[r], model.beta_col[r]) for r in range(2))
        assert np.allclose(model.alpha_row, a_r, rtol=0.02, atol=0)
        assert np.allclose(model.alpha_col, a_c, rtol=0.02, atol=0)
        assert np.allclose(fitted, beta, rtol=0.02, atol=0)

    @pytest.mark.parametrize("rank, keep, message", [
        (1, 0, "no samples"),
        (3, None, "rank must be in 1..2, got 3"),
        (0, None, "rank must be in 1..2, got 0"),
    ], ids=["no-samples", "rank-above", "rank-zero"])
    def test_rejects_empty_design_and_bad_rank(self, rank, keep, message):
        a_r, a_c, beta = planted_tables(2, 2, 1, np.random.default_rng(5))
        samples = synth_samples(2, 2, a_r, a_c, beta)[:keep]
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            fit_cost_model(samples, rank=rank)

    def test_missing_cells_rejected(self):
        rng = np.random.default_rng(5)
        a_r, a_c, beta = planted_tables(2, 2, 1, rng)
        samples = synth_samples(2, 2, a_r, a_c, beta)
        dropped = [s for s in samples if not (s.u == 2 and s.w == 1 and s.variant == "double-rows")]
        with pytest.raises(ValueError, match=r"missing.*\(2, 1, 'double-rows'\)"):
            fit_cost_model(dropped, rank=1)


class TestJacobiSvd:
    def test_reconstructs(self):
        rng = np.random.default_rng(6)
        for shape in ((5, 5), (7, 3), (3, 7)):
            M = rng.uniform(-1, 1, shape)
            U, s, V = jacobi_svd(M)
            assert np.abs(U @ np.diag(s) @ V.T - M).max() <= 1e-10
            assert np.all(np.diff(s) <= 0)

    def test_matches_numpy_singular_values(self):
        rng = np.random.default_rng(7)
        M = rng.uniform(0, 1, (6, 4))
        _, s, _ = jacobi_svd(M)
        assert np.allclose(s, np.linalg.svd(M, compute_uv=False), rtol=1e-10)


class TestCriticalPoint:
    def test_direct(self):
        assert critical_point(10, 10, 1, 2) == 20

    def test_no_speedup_is_infinite(self):
        assert critical_point(5, 5, 2, 2) == math.inf
        assert critical_point(5, 5, 3, 2) == math.inf

    def test_zero_overhead(self):
        assert critical_point(0, 0, 1, 2) == 0

    def test_monotonicity(self):
        base = critical_point(1.0, 1.0, 1.0, 2.0)
        assert critical_point(2.0, 1.0, 1.0, 2.0) > base
        assert critical_point(1.0, 2.0, 1.0, 2.0) > base
        assert critical_point(1.0, 1.0, 1.5, 2.0) > base
        assert critical_point(1.0, 1.0, 1.0, 3.0) < base

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            critical_point(-1, 0, 1, 2)
        # NaN passed a t < 0 check and gave a NaN critical point
        for stage, name in enumerate(("partition", "convert", "blocked multiply",
                                      "csr multiply")):
            times = [1.0, 1.0, 1.0, 2.0]
            times[stage] = math.nan
            with pytest.raises(ValueError, match=f"^{name} time must be non-negative, got nan$"):
                critical_point(*times)


class TestMeasurement:
    def test_fake_clock_min_of_trials(self):
        # 1 ms per clock call: exactly trials calls of fn and two reads each
        ticks = iter(range(0, 10**12, 10**6))
        reads, calls = [], []

        def clock():
            reads.append(None)
            return next(ticks)

        best = time_min(lambda: calls.append(None), trials=5, clock=clock)
        assert best == pytest.approx(1e-3)
        assert (len(calls), len(reads)) == (5, 2 * 5)

    def test_time_min_needs_a_trial(self):
        with pytest.raises(ValueError, match="need at least one trial"):
            time_min(lambda: None, trials=0)

    def test_zero_blocks_per_row_rejected(self):
        with pytest.raises(ValueError, match="block shape parameters must be positive"):
            run_calibration(1, 1, blocks_per_row=0)

    @pytest.mark.parametrize("kwargs, message", [
        (dict(trials=0), "trials must be at least 1, got 0"),
        (dict(trials=2.5), "trials must be a whole number, got 2.5"),
        (dict(blocks_per_row=2.5), "blocks_per_row must be a whole number, got 2.5"),
        (dict(min_bytes=-1), "min_bytes must be at least 0, got -1"),
        (dict(min_bytes=0.5), "min_bytes must be a whole number, got 0.5"),
        (dict(time_min=2.5), "trials must be a whole number, got 2.5"),
        (dict(u_max=0), "u_max must be at least 1, got 0"),
        (dict(w_max=-1), "w_max must be at least 1, got -1"),
        (dict(u_max=1.5), "u_max must be a whole number, got 1.5"),
        (dict(synth=(2.5, 1)), "u must be a whole number, got 2.5"),
        (dict(synth=(1, 0)), "block shape parameters must be positive"),
    ], ids=["trials-zero", "trials-half", "blocks-half", "bytes-negative", "bytes-half",
            "time-min-half", "umax-zero", "wmax-negative", "umax-half", "synth-u-half",
            "synth-w-zero"])
    def test_sizes_refused_by_name_before_any_grid(self, monkeypatch, kwargs, message):
        import blockpart.calibrate as calibrate

        def refuse(*args):
            raise AssertionError("no grid may be drawn")

        monkeypatch.setattr(calibrate, "_grid_vbr", refuse)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            if "time_min" in kwargs:
                time_min(lambda: None, trials=kwargs["time_min"])
            elif "synth" in kwargs:
                synth_block_matrix(*kwargs["synth"])
            else:
                run_calibration(**{"u_max": 2, "w_max": 2, **kwargs})

    def test_run_calibration_produces_full_design(self):
        ticks = [0]

        def clock():
            ticks[0] += 10**6
            return ticks[0]

        samples = run_calibration(2, 2, blocks_per_row=2, min_bytes=8, trials=1, clock=clock)
        assert len(samples) == 2 * 2 * len(VARIANTS)
        have = {(s.u, s.w, s.variant) for s in samples}
        assert len(have) == len(samples)

    def test_calibration_builds_no_csr(self, monkeypatch):
        import blockpart.calibrate as calibrate

        def refuse(*args, **kwargs):
            raise AssertionError("calibration samples are built directly in VBR form")

        monkeypatch.setattr(calibrate, "to_vbr", refuse)
        monkeypatch.setattr(calibrate, "build_csr", refuse)
        samples = run_calibration(2, 2, blocks_per_row=2, min_bytes=8, trials=1,
                                  clock=iter(range(0, 10**12, 10**6)).__next__)
        assert {(s.u, s.w, s.variant) for s in samples} == {
            (u, w, v) for u in (1, 2) for w in (1, 2) for v in VARIANTS}

    def test_each_grid_is_multiplied_once_before_its_batch_is_timed(self, monkeypatch):
        # one warm-up multiply per grid while the batch is built, then
        # trials timed ones per grid in the same order
        import blockpart.calibrate as calibrate

        calls = []

        def kernel(y, B, x, counter=None):
            calls.append(id(B))
            return spmv_vbr(y, B, x, counter)

        monkeypatch.setattr(calibrate, "spmv_vbr", kernel)
        samples = run_calibration(2, 2, blocks_per_row=2, min_bytes=8, trials=3,
                                  clock=iter(range(0, 10**12, 10**6)).__next__)
        grids = calls[:len(samples)]
        assert len(set(grids)) == len(samples)
        assert calls[len(samples):] == [g for g in grids for _ in range(3)]

    def test_samples_time_warm_containers_back_to_back(self, monkeypatch):
        # every container is built with its plan and warmed up before any
        # sample is timed: every clock reading advances 1 ms and each plan
        # build 5 s more, and no sample shows a build
        import blockpart.calibrate as calibrate
        import blockpart.kernels as kernels

        events, now = [], [0]

        def clock():
            now[0] += 10**6
            return now[0]

        def build(B, build=kernels._build_plan):
            events.append("build")
            now[0] += 5 * 10**9
            return build(B)

        def kernel(y, B, x, counter=None):
            events.append("multiply")
            return spmv_vbr(y, B, x, counter)

        monkeypatch.setattr(kernels, "_build_plan", build)
        monkeypatch.setattr(calibrate, "spmv_vbr", kernel)
        samples = run_calibration(2, 2, blocks_per_row=2, min_bytes=8, trials=2, clock=clock)
        n = len(samples)
        assert events == ["build", "multiply"] * n + ["multiply"] * (2 * n)
        assert all(s.seconds == pytest.approx(1e-3) for s in samples)

    def test_timed_containers_multiply_without_pad(self, monkeypatch):
        # every block row of a grid stores the same columns, so each timed
        # plan is one group whose values are exactly the stored ones: the
        # samples time the values the model prices
        import blockpart.calibrate as calibrate

        timed = []

        def kernel(y, B, x, counter=None):
            timed.append(B)
            return spmv_vbr(y, B, x, counter)

        monkeypatch.setattr(calibrate, "spmv_vbr", kernel)
        samples = run_calibration(3, 3, blocks_per_row=3, min_bytes=2048, trials=1,
                                  clock=iter(range(0, 10**12, 10**6)).__next__)
        assert len({id(B) for B in timed}) == len(samples) == 36
        for B in timed:
            (values, *_), = B._plan.groups
            assert values.size == len(B.val)

    def test_every_timed_container_is_pinned(self, monkeypatch):
        # sha256 of the arrays of all 36 containers a calibration times, in
        # the order it builds them: four variants, two blocks-per-row values.
        # It was recorded with one draw call per Floyd column, so it also pins
        # that the broadcast draw gives the same stream.
        import blockpart.calibrate as calibrate

        timed = {}

        def kernel(y, B, x, counter=None):
            timed.setdefault(id(B), B)
            return spmv_vbr(y, B, x, counter)

        monkeypatch.setattr(calibrate, "spmv_vbr", kernel)
        run_calibration(3, 3, blocks_per_row=3, min_bytes=2048, trials=1, seed=11,
                        clock=iter(range(0, 10**12, 10**6)).__next__)
        digest = hashlib.sha256()
        for B in timed.values():
            for name in ("spl_rows", "spl_cols", "pos", "idx", "ofs", "val"):
                digest.update(getattr(B, name).astype("<i8" if name != "val" else "<f8").tobytes())
        assert (len(timed), sum(len(B.val) for B in timed.values())) == (36, 14220)
        assert digest.hexdigest() == (
            "66619ab63d4967c5a97e3197c7af2522d680421c4578d4f1c25540e8282a280b")

    def test_batch_is_timed_once_it_holds_the_byte_limit(self, monkeypatch):
        import blockpart.calibrate as calibrate

        # (first call on its container, stored value bytes) of every kernel
        # call; seen keeps each container alive, so no id is reused
        calls, seen = [], {}

        def kernel(y, B, x, counter=None):
            calls.append((id(B) not in seen, B.val.nbytes))
            seen[id(B)] = B
            return spmv_vbr(y, B, x, counter)

        def run():
            return run_calibration(2, 2, blocks_per_row=2, min_bytes=8, trials=1,
                                   clock=iter(range(0, 10**12, 10**6)).__next__)

        monkeypatch.setattr(calibrate, "spmv_vbr", kernel)
        one = run()
        n = len(one)
        assert [cold for cold, _ in calls] == [True] * n + [False] * n
        # a limit the first k containers reach and the rest do not exceed
        sizes = [nbytes for _, nbytes in calls[:n]]
        k = next(i for i in range(n) if 2 * sum(sizes[:i]) >= sum(sizes))
        assert 0 < k < n
        calls.clear()
        monkeypatch.setattr(calibrate, "_BATCH_BYTES", sum(sizes[:k]))
        two = run()
        cold = [True] * k + [False] * k + [True] * (n - k) + [False] * (n - k)
        assert [c for c, _ in calls] == cold
        assert two == one

    def test_samples_csv_round_trip(self):
        samples = [TimingSample(1, 2, 4, 2, 0.125, "base"),
                   TimingSample(2, 2, 8, 4, 3.5e-05, "double-blocks")]
        assert samples_from_csv(samples_to_csv(samples)) == samples

    def test_numpy_numbers_are_stored_as_python_ones(self):
        # the CSV then reads 2 and 3.5e-05, not 2.0 or np.float64(3.5e-05)
        sample = TimingSample(np.int64(2), np.int32(2), np.int64(8), np.uint8(4),
                              np.float64(3.5e-05), "double-blocks")
        assert sample == TimingSample(2, 2, 8, 4, 3.5e-05, "double-blocks")
        assert [type(v) for v in (sample.u, sample.w, sample.m_rows, sample.blocks_per_row,
                                  sample.seconds)] == [int] * 4 + [float]
        assert samples_from_csv(samples_to_csv([sample])) == [sample]

    @pytest.mark.parametrize("field, value, message", [
        ("m_rows", 4.0, "m_rows must be a whole number, got 4.0"),  # samples_from_csv refused 4.0
        ("u", True, "u must be a whole number, got True"),
        ("blocks_per_row", np.float64(8.0), "blocks_per_row must be a whole number, got "),
        ("w", np.bool_(True), "w must be a whole number, got "),
        ("m_rows", "4", "m_rows must be a whole number, got '4'"),
        ("variant", "wide", "unknown variant 'wide'"),
    ], ids=["float", "bool", "np-float", "np-bool", "str", "variant"])
    def test_fields_are_checked(self, field, value, message):
        fields = dict(u=2, w=1, m_rows=4, blocks_per_row=8, seconds=1e-5, variant="base")
        fields[field] = value
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            TimingSample(**fields)


class TestDesign:
    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(variant=st.sampled_from(VARIANTS), u=st.integers(1, 16), w=st.integers(1, 16),
           k0=st.integers(1, 10**5), b0=st.integers(1, 64))
    def test_sample_design_gives_the_grid_shape_back(self, variant, u, w, k0, b0):
        k, l, b = _grid_shape(u, w, k0, b0, variant)
        sample = TimingSample(u, w, k * u, b, 1e-5, variant)
        assert _sample_design(sample) == (k, l, k * b)
