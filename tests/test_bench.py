import contextlib
import csv
import io
import json
import math
import pathlib
import re
import shlex
import tempfile

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from blockpart import (build_csr, cost_model_from_csv, performance_profile, read_matrix_market,
                       run_sweep, spmv_csr, spmv_vbr, write_matrix_market)
from blockpart.bench import (BenchReport, _reject_constant, profile_to_csv, reports_from_jsonl,
                             reports_to_jsonl)
from blockpart.calibrate import samples_from_csv
from blockpart.cli import _summary_csv, main as cli_main

from conftest import random_csr


def fake_clock(step_ns=10**6):
    state = {"t": 0}

    def clock():
        state["t"] += step_ns
        return state["t"]

    return clock


def block_pair_matrix():
    entries = [(i, j, 1.0) for b in (0, 2) for i in (b, b + 1) for j in (b, b + 1)]
    return build_csr(4, 4, entries)


STANDARD_METHODS = [
    {"method": "strict"},
    {"method": "overlap", "rho": 0.9},
    {"method": "optimal", "model": "mem1d"},
]


def dict_profile(values, taus=None):
    """The per-cell profile the array version replaced, kept as an oracle."""
    methods = sorted(values)
    instances = sorted(values[methods[0]])
    ratios = {}
    for inst in instances:
        best = min(values[m][inst] for m in methods)
        for m in methods:
            v = values[m][inst]
            if v == best:
                ratios[(m, inst)] = 1.0
            elif math.isinf(v) or best == 0:
                ratios[(m, inst)] = math.inf
            else:
                ratios[(m, inst)] = v / best
    if taus is None:
        finite = sorted({r for r in ratios.values() if math.isfinite(r)})
        taus = finite or [1.0]
    fractions = {
        m: [sum(1 for i in instances if ratios[(m, i)] <= tau) / len(instances) for tau in taus]
        for m in methods
    }
    return list(taus), fractions


# a few repeated magnitudes, so ties with the best and between ratios occur
profile_values = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 2.0, 3.5, math.inf]),
                           st.floats(min_value=0.0, max_value=1e6))


@st.composite
def profile_tables(draw):
    methods = draw(st.integers(1, 4))
    instances = draw(st.integers(1, 6))
    return {f"m{a}": {f"i{b}": draw(profile_values) for b in range(instances)}
            for a in range(methods)}


class TestRunSweep:
    def test_row_cardinality(self):
        A = block_pair_matrix()
        reports = run_sweep(A, "pair", STANDARD_METHODS, formats=("1dvbr",),
                            u_max=4, w_max=4, trials=2, clock=fake_clock(), seed=1)
        assert len(reports) == 1 + 3
        assert reports[0].format == "csr"
        assert all(r.error is None for r in reports)

    def test_unknown_partitioner_raises_before_anything_is_timed(self):
        def refuse():
            raise AssertionError("nothing may be timed")

        with pytest.raises(ValueError, match=r"^unknown partitioner \{'method': 'fast'\}$"):
            run_sweep(block_pair_matrix(), "p", [{"method": "strict"}, {"method": "fast"}],
                      clock=refuse)

    def test_unknown_model_is_an_error_row(self):
        reports = run_sweep(block_pair_matrix(), "p", [{"method": "optimal", "model": "dense"}],
                            formats=("1dvbr",), trials=1, clock=fake_clock())
        assert [r.error for r in reports] == [None, "unknown cost model 'dense'"]

    def test_identity_strict_counts(self):
        A = build_csr(4, 4, [(i, i, 1.0) for i in range(4)])
        reports = run_sweep(A, "eye", [{"method": "strict"}], formats=("1dvbr",),
                            trials=2, clock=fake_clock(), seed=1)
        strict_row = reports[1]
        assert strict_row.K == 4
        assert strict_row.N_index == 4
        assert strict_row.critical_point > 0

    def test_counts_consistent_with_container(self):
        rng = np.random.default_rng(2)
        A = random_csr(10, 9, 0.3, rng)
        both_format_methods = [
            {"method": "strict"},
            {"method": "overlap", "rho": 0.9},
            {"method": "optimal"},  # memory model matching each format
        ]
        reports = run_sweep(A, "rand", both_format_methods, formats=("1dvbr", "vbr"),
                            u_max=4, w_max=4, trials=2, clock=fake_clock(), seed=3)
        from blockpart import csr_memory_bits

        assert reports[0].memory_bits == csr_memory_bits(A, 64, 64)
        for row in reports[1:]:
            assert row.error is None
            assert row.N_value >= row.N_index
            assert row.memory_bits % 64 == 0
            assert row.critical_point >= 0

    def test_optimal_memory_beats_strict_under_model(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            A = random_csr(8, 8, 0.4, rng)
            reports = run_sweep(A, "x", [{"method": "strict"},
                                         {"method": "optimal", "model": "mem1d"}],
                                formats=("1dvbr",), u_max=8, trials=1,
                                clock=fake_clock(), seed=0)
            strict_row = next(r for r in reports if r.partitioner == "strict")
            optimal_row = next(r for r in reports if r.partitioner.startswith("optimal"))
            assert optimal_row.model_objective <= strict_row.model_objective

    def test_error_rows_marked_and_sweep_continues(self):
        A = block_pair_matrix()
        bad = [{"method": "overlap", "rho": 5.0}, {"method": "strict"}]
        reports = run_sweep(A, "pair", bad, formats=("1dvbr",), trials=1,
                            clock=fake_clock(), seed=1)
        assert reports[1].error is not None
        assert reports[2].error is None

    @pytest.mark.parametrize("rho", [math.nan, math.inf, -math.inf])
    def test_non_finite_rho_error_rows_are_strict_json(self, rho):
        # a NaN kept in params made reports_to_jsonl raise, so no row was written
        A = build_csr(2, 2, [(0, 0, 1.0), (1, 1, 1.0)])
        reports = run_sweep(A, "eye", [{"method": "overlap", "rho": rho}], trials=1,
                            clock=fake_clock(), seed=1)
        back = reports_from_jsonl(reports_to_jsonl(reports))
        assert [r.error for r in back[1:]] == [f"rho must be in (0, 1], got {rho}"] * 2
        assert [r.params for r in back[1:]] == [{"rho": repr(rho)}] * 2

    def test_report_fields_recomputable(self):
        # memory bits must equal both the formula and the serialized byte
        # length, and the critical point must follow from the recorded times
        from blockpart import (
            onedvbr_memory_bits,
            serialize_1dvbr,
            strict_partition,
            to_1dvbr,
        )
        from blockpart.calibrate import critical_point

        rng = np.random.default_rng(8)
        A = random_csr(9, 9, 0.4, rng)
        reports = run_sweep(A, "m", [{"method": "strict"}], formats=("1dvbr",),
                            trials=2, clock=fake_clock(), seed=0)
        csr_row, row = reports
        rows = strict_partition(A)
        assert row.memory_bits == onedvbr_memory_bits(A, rows, 64, 64)
        assert row.memory_bits == 8 * len(serialize_1dvbr(to_1dvbr(A, rows)))
        assert row.critical_point == critical_point(
            row.partition_seconds, row.convert_seconds,
            row.multiply_seconds, csr_row.multiply_seconds)

    def test_plan_build_is_timed_as_conversion(self, monkeypatch):
        # every clock reading advances 1 ms, and the plan build stand-in adds
        # 5 s, as a slow build would; each multiply takes the 1 ms between
        # readings, so the build shows in convert_seconds only
        import blockpart.kernels as kernels
        from blockpart.calibrate import critical_point

        now = [0]

        def clock():
            now[0] += 10**6
            return now[0]

        def build(B, build=kernels._build_plan):
            now[0] += 5 * 10**9
            return build(B)

        monkeypatch.setattr(kernels, "_build_plan", build)
        csr_row, row = run_sweep(block_pair_matrix(), "pair", [{"method": "strict"}],
                                 formats=("vbr",), trials=3, clock=clock, seed=1)
        assert row.multiply_seconds == pytest.approx(1e-3)
        assert row.convert_seconds == pytest.approx(1e-3 + 5.0)
        assert row.critical_point == critical_point(
            row.partition_seconds, row.convert_seconds,
            row.multiply_seconds, csr_row.multiply_seconds)

    def test_every_multiply_gets_one_warm_up_call(self, monkeypatch):
        # CSR and each container: one warm-up call, then trials timed calls
        import blockpart.bench as bench

        csr_calls, vbr_calls, containers = [], {}, []

        def csr(A, x):
            csr_calls.append(A)
            return spmv_csr(A, x)

        def vbr(y, B, x, counter=None):
            containers.append(B)  # kept alive, so a freed container's id is not reused
            vbr_calls[id(B)] = vbr_calls.get(id(B), 0) + 1
            return spmv_vbr(y, B, x, counter)

        monkeypatch.setattr(bench, "spmv_csr", csr)
        monkeypatch.setattr(bench, "spmv_vbr", vbr)
        specs = [{"method": "strict"}, {"method": "optimal"}]
        reports = run_sweep(block_pair_matrix(), "pair", specs, formats=("1dvbr", "vbr"),
                            trials=3, clock=fake_clock(), seed=1)
        assert all(row.error is None for row in reports)
        assert len(csr_calls) == 1 + 3
        assert list(vbr_calls.values()) == [1 + 3] * (len(reports) - 1)

    def test_serializers_run_after_the_convert_clock(self, monkeypatch):
        # every clock reading advances 1 ms and each serialization 9 s
        import blockpart.bench as bench

        now = [0]

        def clock():
            now[0] += 10**6
            return now[0]

        def slow(serialize):
            def wrapped(B):
                now[0] += 9 * 10**9
                return serialize(B)
            return wrapped

        for fmt, (serialize, fixed_words) in list(bench._FORMATS.items()):
            monkeypatch.setitem(bench._FORMATS, fmt, (slow(serialize), fixed_words))
        for row in run_sweep(block_pair_matrix(), "pair", [{"method": "strict"}],
                             formats=("1dvbr", "vbr"), trials=1, clock=clock, seed=1)[1:]:
            assert row.error is None
            assert row.convert_seconds == pytest.approx(1e-3)

    def test_memory_bits_are_the_serialized_bytes(self):
        from blockpart import (
            onedvbr_memory_bits,
            serialize_1dvbr,
            serialize_vbr,
            to_1dvbr,
            to_vbr,
            vbr_memory_bits,
        )
        from blockpart.bench import _partition_for

        A = random_csr(10, 9, 0.3, np.random.default_rng(2))
        specs = [{"method": "strict"}, {"method": "overlap", "rho": 0.9}, {"method": "optimal"}]
        reports = run_sweep(A, "rand", specs, formats=("1dvbr", "vbr"), u_max=4, w_max=4,
                            trials=1, clock=fake_clock(), seed=3)
        for row, (spec, fmt) in zip(reports[1:], [(s, f) for s in specs for f in ("1dvbr", "vbr")]):
            rows, cols = _partition_for(spec, A, fmt, 4, 4)
            if fmt == "vbr":
                bits = vbr_memory_bits(A, rows, cols, 64, 64)
                assert bits == 8 * len(serialize_vbr(to_vbr(A, rows, cols)))
            else:
                bits = onedvbr_memory_bits(A, rows, 64, 64)
                assert bits == 8 * len(serialize_1dvbr(to_1dvbr(A, rows)))
            assert (row.format, row.memory_bits) == (fmt, bits)

    def test_unknown_format_raises_before_the_clock(self):
        def clock():
            raise AssertionError("nothing may be timed")

        with pytest.raises(ValueError, match="unknown format 'VBR'"):
            run_sweep(block_pair_matrix(), "pair", [{"method": "strict"}],
                      formats=("1dvbr", "VBR"), clock=clock)

    @pytest.mark.parametrize("fmt", ["1dvbr", "vbr"])
    def test_strict_rows_honour_the_height_bound(self, fmt):
        A = build_csr(6, 3, [(i, j, 1.0) for i in range(6) for j in range(3)])
        csr_row, row = run_sweep(A, "same", [{"method": "strict"}], formats=(fmt,),
                                 u_max=2, w_max=2, trials=1, clock=fake_clock(), seed=1)
        assert row.error is None
        assert (row.K, row.L) == (3, 2 if fmt == "vbr" else 3)

    @pytest.mark.parametrize("fmt, model", [("1dvbr", "mem1d"), ("1dvbr", "blocks"),
                                            ("vbr", "memvbr"), ("vbr", "blocks")])
    def test_built_in_models_are_sized_by_the_matrix(self, monkeypatch, fmt, model):
        # a bound of 10**9 would build 10**9-entry tables; the spy refuses
        # any table not sized by the matrix before the real builder runs
        import blockpart.bench as bench
        from blockpart.bench import _partition_for

        A = random_csr(10, 7, 0.3, np.random.default_rng(4))
        sizes = []

        def spy(builder, *sized):
            def build(*args):
                tables = [args[i] for i in sized]
                sizes.append(tables)
                assert tables == [A.m, A.n][:len(tables)], tables
                return builder(*args)
            return build

        monkeypatch.setattr(bench, "model_block_count", spy(bench.model_block_count, 0, 1))
        monkeypatch.setattr(bench, "model_memory_1dvbr", spy(bench.model_memory_1dvbr, 2))
        monkeypatch.setattr(bench, "model_memory_vbr", spy(bench.model_memory_vbr, 2, 3))
        spec = {"method": "optimal", "model": model}
        huge = _partition_for(spec, A, fmt, 10**9, 10**9)
        assert sizes
        exact = _partition_for(spec, A, fmt, A.m, A.n)
        assert [p.spl.tolist() for p in huge] == [p.spl.tolist() for p in exact]

    @pytest.mark.parametrize("method", ["strict", "overlap"])
    def test_heuristics_keep_their_partition_past_the_matrix(self, method):
        from blockpart.bench import _partition_for

        A = random_csr(10, 7, 0.3, np.random.default_rng(5))
        spec = {"method": method, "rho": 0.5}
        for fmt in ("1dvbr", "vbr"):
            huge = _partition_for(spec, A, fmt, 10**6, 10**6)
            exact = _partition_for(spec, A, fmt, A.m, A.n)
            assert [p.spl.tolist() for p in huge] == [p.spl.tolist() for p in exact]

    def test_file_model_covering_the_matrix_is_accepted(self):
        # a table range of m rows is enough for any partition of m rows
        from blockpart import model_memory_1dvbr
        from blockpart.bench import _partition_for

        A = random_csr(4, 6, 0.5, np.random.default_rng(6))
        spec = {"method": "optimal", "model": model_memory_1dvbr(64, 64, A.m)}
        rows, _ = _partition_for(spec, A, "1dvbr", 8, 8)
        assert rows.spl.tolist() == _partition_for(spec, A, "1dvbr", A.m, 8)[0].spl.tolist()
        short = {"method": "optimal", "model": model_memory_1dvbr(64, 64, A.m - 1)}
        with pytest.raises(ValueError, match=f"u_max {A.m} exceeds model table range {A.m - 1}"):
            _partition_for(short, A, "1dvbr", 8, 8)

    def test_partition_seconds_include_the_transpose(self, monkeypatch):
        # every clock reading advances 1 ms and the transpose stand-in 7 s,
        # so only a row whose timed call builds a transpose pays the 7 s
        import blockpart.bench as bench
        import blockpart.partition as partition

        now = [0]

        def clock():
            now[0] += 10**6
            return now[0]

        def slow(transpose):
            def wrapped(A):
                now[0] += 7 * 10**9
                return transpose(A)
            return wrapped

        monkeypatch.setattr(bench, "transpose", slow(bench.transpose))
        monkeypatch.setattr(partition, "transpose", slow(partition.transpose))
        specs = [{"method": "strict"}, {"method": "optimal"}]
        reports = run_sweep(block_pair_matrix(), "pair", specs, formats=("1dvbr", "vbr"),
                            u_max=4, w_max=4, trials=1, clock=clock, seed=1)
        seconds = {(r.partitioner, r.format): r.partition_seconds for r in reports[1:]}
        assert seconds[("strict", "1dvbr")] == pytest.approx(1e-3)
        assert seconds[("strict", "vbr")] == pytest.approx(1e-3 + 7.0)
        assert seconds[("optimal", "1dvbr")] == pytest.approx(1e-3)
        assert seconds[("optimal", "vbr")] == pytest.approx(1e-3 + 7.0)

    @pytest.mark.parametrize("shape", [(0, 5), (0, 0), (5, 0)])
    def test_empty_matrix_rows_have_no_errors(self, shape):
        A = build_csr(*shape, [])
        both_format_methods = STANDARD_METHODS[:2] + [{"method": "optimal"},
                                                      {"method": "optimal", "model": "blocks"}]
        reports = run_sweep(A, "empty", both_format_methods, formats=("1dvbr", "vbr"),
                            u_max=4, w_max=4, trials=1, clock=fake_clock(), seed=1)
        assert len(reports) == 1 + 4 * 2
        assert [r.error for r in reports] == [None] * len(reports)
        for r in reports[1:]:
            assert r.model_objective == r.memory_bits - (4 if r.format == "vbr" else 3) * 64

    def test_seed_env_override(self, monkeypatch):
        from blockpart.bench import resolve_seed

        monkeypatch.delenv("BLOCKPART_SEED", raising=False)
        assert resolve_seed() == 0
        monkeypatch.setenv("BLOCKPART_SEED", "41")
        assert resolve_seed() == 41
        assert resolve_seed(7) == 7

    def test_deterministic_json_under_fake_clock(self):
        A = block_pair_matrix()
        kwargs = dict(formats=("1dvbr", "vbr"), u_max=4, w_max=4, trials=2, seed=5)
        one = reports_to_jsonl(run_sweep(A, "p", STANDARD_METHODS, clock=fake_clock(), **kwargs))
        two = reports_to_jsonl(run_sweep(A, "p", STANDARD_METHODS, clock=fake_clock(), **kwargs))
        assert one == two
        again = reports_from_jsonl(one)
        assert reports_to_jsonl(again) == one

    def test_jsonl_is_strict_json(self):
        # the CSR row's critical point is infinite; strict parsers reject
        # the bare Infinity token, so it must travel as null plus a flag
        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        reports = run_sweep(block_pair_matrix(), "p", STANDARD_METHODS, formats=("1dvbr", "vbr"),
                            u_max=4, w_max=4, trials=2, clock=fake_clock(), seed=5)
        text = reports_to_jsonl(reports)
        rows = [json.loads(line, parse_constant=reject) for line in text.splitlines()]
        assert rows[0]["critical_point"] is None and rows[0]["critical_point_inf"] is True
        assert [r.critical_point for r in reports_from_jsonl(text)] == [
            r.critical_point for r in reports]

    def test_report_lines_parse_strictly(self):
        good = BenchReport("m", "csr", "none", {}, memory_bits=64).to_json()
        assert reports_from_jsonl(good + "\n\n" + good) == [reports_from_jsonl(good)[0]] * 2
        for bad, message in [
            (good.replace("64", "NaN"), "NaN is not strict JSON"),
            (good.replace("64", "-Infinity"), "-Infinity is not strict JSON"),
            ("[1, 2]", "must be a JSON object"),
            (good.replace('"K"', '"Kay"'), "unexpected keyword argument 'Kay'"),
        ]:
            with pytest.raises(ValueError, match=f"^report line 3: .*{message}"):
                reports_from_jsonl(good + "\n\n" + bad + "\n" + good)


class TestPerformanceProfile:
    def test_two_methods_one_instance(self):
        taus, fractions = performance_profile(
            {"a": {"i": 1.0}, "b": {"i": 2.0}}, taus=[1.0, 2.0])
        assert fractions["a"] == [1.0, 1.0]
        assert fractions["b"] == [0.0, 1.0]

    def test_all_equal(self):
        taus, fractions = performance_profile(
            {"a": {"i": 3.0, "j": 1.0}, "b": {"i": 3.0, "j": 1.0}}, taus=[1.0])
        assert fractions == {"a": [1.0], "b": [1.0]}

    def test_infinite_value_caps_fraction(self):
        taus, fractions = performance_profile(
            {"a": {"i": 1.0, "j": math.inf}, "b": {"i": 2.0, "j": 1.0}},
            taus=[1.0, 10.0, 1e9])
        assert fractions["a"][-1] == 0.5

    def test_fractions_non_decreasing(self):
        rng = np.random.default_rng(4)
        values = {
            m: {f"i{k}": float(rng.uniform(1, 100)) for k in range(12)}
            for m in ("a", "b", "c")
        }
        taus, fractions = performance_profile(values)
        for fracs in fractions.values():
            assert all(b >= a for a, b in zip(fracs, fracs[1:]))

    @pytest.mark.parametrize("values, message", [
        ({}, "no methods to profile"),
        ({"a": {}, "b": {}}, "no instances to profile"),
        ({"a": {"i": 1.0}, "b": {}}, "method 'b' does not cover the instance set"),
    ], ids=["no-methods", "no-instances", "method-short"])
    def test_rejects_incomplete_coverage(self, values, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            performance_profile(values)

    def test_csv_shape(self):
        taus, fractions = performance_profile(
            {"a": {"i": 1.0}, "b": {"i": 2.0}}, taus=[1.0, 2.0])
        text = profile_to_csv(taus, fractions)
        lines = text.strip().splitlines()
        assert lines[0] == "tau,method,fraction"
        assert len(lines) == 1 + 2 * 2

    @settings(max_examples=300, deadline=None)
    @given(profile_tables(), st.none() | st.lists(profile_values, max_size=5))
    def test_matches_the_per_cell_profile(self, values, taus):
        assert performance_profile(values, taus) == dict_profile(values, taus)

    @pytest.mark.parametrize("bad", [math.nan, -1.0])
    def test_rejects_nan_and_negative_values(self, bad):
        with pytest.raises(ValueError, match="non-negative"):
            performance_profile({"a": {"i": 1.0, "j": 2.0}, "b": {"i": bad, "j": 1.0}})
        with pytest.raises(ValueError, match="taus must not be NaN"):
            performance_profile({"a": {"i": 1.0}}, taus=[1.0, math.nan])


class TestCli:
    def _write_matrices(self, tmp_path, count=3):
        rng = np.random.default_rng(7)
        paths = []
        for t in range(count):
            A = random_csr(8 + t, 8, 0.35, rng)
            path = tmp_path / f"m{t}.mtx"
            write_matrix_market(path, A)
            paths.append(str(path))
        return paths

    def test_partition_command(self, tmp_path, capsys):
        (path,) = self._write_matrices(tmp_path, count=1)
        cli_main(["partition", "--matrix", path, "--method", "optimal:mem1d", "--umax", "4"])
        out = json.loads(capsys.readouterr().out)
        assert out["spl_rows"][0] == 0 and out["spl_rows"][-1] == 8

    def test_mem1d_needs_1d_format(self, tmp_path, capsys):
        (path,) = self._write_matrices(tmp_path, count=1)
        missing = str(tmp_path / "missing.mtx")
        prices = r"--method 'optimal:mem1d' prices rows only, but --format vbr also "
        for command in (["partition"], ["convert", "--out", str(tmp_path / "m.vbr")],
                        ["spmv-bench"]):
            with pytest.raises(SystemExit, match=rf"^blockpart {command[0]}: {prices}"
                                                 r"partitions columns: use optimal:memvbr, "
                                                 r"optimal:blocks or optimal:file:PATH$"):
                cli_main(command + ["--matrix", missing, "--format", "vbr",
                                    "--method", "optimal:mem1d"])
        cli_main(["partition", "--matrix", path, "--format", "vbr"])
        out = json.loads(capsys.readouterr().out)
        assert out["spl_rows"][-1] == 8 and out["spl_cols"][-1] == 8

    @pytest.mark.parametrize("argv, flag", [
        (["spmv-bench", "--format", "1dvbr", "--method", "overlap:0.5", "--wmax", "4"], "--wmax"),
        (["partition", "--method", "optimal:memvbr", "--wmax", "4"], "--wmax"),  # rows only
        (["spmv-bench", "--format", "csr", "--method", "optimal:file:missing.csv"], "--method"),
        (["partition", "--method", "overlap", "--wmax", "4"], "--wmax"),
        (["convert", "--format", "1dvbr", "--wmax", "8", "--out", "x"], "--wmax"),
        (["spmv-bench", "--format", "csr", "--wmax", "4"], "--wmax"),
        (["spmv-bench", "--format", "csr", "--method", "overlap"], "--method"),
        (["spmv-bench", "--format", "csr", "--method", "optimal"], "--method"),
        (["spmv-bench", "--format", "csr", "--method", "overlap:0.9"], "--method"),
        (["spmv-bench", "--format", "csr", "--method", "optimal:blocks"], "--method"),
        (["spmv-bench", "--format", "csr", "--umax", "8"], "--umax"),
    ])
    def test_ignored_flags_rejected_before_the_read(self, tmp_path, argv, flag):
        missing = str(tmp_path / "missing.mtx")
        with pytest.raises(SystemExit, match=rf"^blockpart {argv[0]}: {flag} .* needs"):
            cli_main(argv[:1] + ["--matrix", missing] + argv[1:])

    @pytest.mark.parametrize("argv", [
        ["partition", "--method", "overlap:0.5"],
        ["partition", "--format", "vbr", "--method", "strict", "--wmax", "4"],
        ["partition", "--format", "vbr", "--wmax", "4"],
    ])
    def test_applying_flags_reach_the_read(self, tmp_path, argv):
        # convert and spmv-bench take them in test_convert_bytes_match_spmv_bench_memory
        missing = str(tmp_path / "missing.mtx")
        with pytest.raises(SystemExit, match="No such file"):
            cli_main(argv[:1] + ["--matrix", missing] + argv[1:])

    @pytest.mark.parametrize("fmt", ["1dvbr", "vbr"])
    @pytest.mark.parametrize("method", ["strict", "overlap:0.9", "optimal"])
    def test_convert_bytes_match_spmv_bench_memory(self, tmp_path, capsys, method, fmt):
        # all three commands partition through the sweep's one policy; rows
        # and columns come in equal pairs, so the vbr heuristics group columns
        rng = np.random.default_rng(5)
        pattern = np.argwhere(rng.random((5, 4)) < 0.5)
        entries = [(2 * i + a, 2 * j + b, 1.0) for i, j in pattern for a in (0, 1) for b in (0, 1)]
        path = str(tmp_path / "pairs.mtx")
        write_matrix_market(path, build_csr(10, 8, entries))
        sizes = ["--umax", "4"] + (["--wmax", "4"] if fmt == "vbr" else [])
        out = tmp_path / "m.bin"
        cli_main(["convert", "--matrix", path, "--method", method, "--format", fmt, *sizes,
                  "--out", str(out)])
        capsys.readouterr()
        cli_main(["spmv-bench", "--matrix", path, "--method", method, "--format", fmt, *sizes,
                  "--trials", "1"])
        row = json.loads(capsys.readouterr().out.splitlines()[1])
        cli_main(["sweep", "--matrix", path, "--methods", method, "--formats", fmt, *sizes,
                  "--trials", "1"])
        swept = json.loads(capsys.readouterr().out.splitlines()[1])
        cli_main(["partition", "--matrix", path, "--method", method, "--format", fmt, *sizes])
        splits = json.loads(capsys.readouterr().out)
        assert row["error"] is None and swept["error"] is None
        assert row["memory_bits"] == swept["memory_bits"] == 8 * out.stat().st_size
        assert (row["partitioner"], row["K"], row["L"]) == (swept["partitioner"], swept["K"],
                                                            swept["L"])
        # 1dvbr's trivial column partition is not printed: one part per column
        cols = splits.get("spl_cols", range(9))
        assert (len(splits["spl_rows"]) - 1, len(cols) - 1) == (row["K"], row["L"])
        assert ("spl_cols" in splits) == (fmt == "vbr")

    @pytest.mark.parametrize("method", ["strict", "overlap", "optimal"])
    def test_partition_heights_bounded_for_every_method(self, tmp_path, capsys, method):
        path = str(tmp_path / "same.mtx")
        write_matrix_market(path, build_csr(6, 3, [(i, j, 1.0) for i in range(6) for j in range(3)]))
        cli_main(["partition", "--matrix", path, "--method", method, "--umax", "2"])
        assert json.loads(capsys.readouterr().out)["spl_rows"] == [0, 2, 4, 6]

    def test_sweep_wmax_needs_vbr_before_the_read(self, tmp_path):
        missing = str(tmp_path / "missing.mtx")
        with pytest.raises(SystemExit, match=r"^blockpart sweep: --wmax .* needs vbr in --formats"):
            cli_main(["sweep", "--matrix", missing, "--formats", "1dvbr", "--wmax", "4"])
        with pytest.raises(SystemExit, match="No such file"):
            cli_main(["sweep", "--matrix", missing, "--formats", "1dvbr,vbr", "--wmax", "4"])

    @pytest.mark.parametrize("item", ["overlap:nan", "overlap:inf", "overlap:-inf", "overlap:7"])
    def test_sweep_non_finite_rho_rejected_before_the_read(self, tmp_path, item):
        # a NaN or infinite threshold would reach the report and break its strict JSON,
        # and one outside (0, 1] would only fail once the matrix is read
        missing = str(tmp_path / "missing.mtx")
        with pytest.raises(SystemExit, match=rf"^blockpart sweep: --methods item '{item}': "
                                             r"RHO must be a number in \(0, 1\]$"):
            cli_main(["sweep", "--matrix", missing, "--methods", f"strict,{item}"])

    _RHO = "{label}: RHO must be a number in (0, 1]"
    _FORM = "{label} is not strict, overlap[:RHO] or optimal[:MODEL]"
    _MODEL_CSV = "alpha_row,1,2\nalpha_col,1,2\nbeta_row r=1,1,2\nbeta_col r=1,1,1\n"

    @pytest.mark.parametrize("flag", ["--method", "--methods item"])
    @pytest.mark.parametrize("text, expected", [
        ("strict", {"method": "strict"}),
        ("overlap", {"method": "overlap", "rho": 0.9}),
        ("overlap:0.5", {"method": "overlap", "rho": 0.5}),
        ("optimal", {"method": "optimal"}),
        ("optimal:blocks", {"method": "optimal", "model": "blocks"}),
        ("optimal:file:PATH", {"method": "optimal", "model": cost_model_from_csv(_MODEL_CSV)}),
        ("overlap:", _RHO),
        ("overlap:abc", _RHO),
        ("overlap:nan", _RHO),
        ("overlap:2", _RHO),
        ("strict:x", _FORM),
        ("", _FORM),
        ("optimal:", "{label}: MODEL '' is not blocks, mem1d, memvbr or file:PATH"),
        ("optimal:foo", "{label}: MODEL 'foo' is not blocks, mem1d, memvbr or file:PATH"),
        ("fast", _FORM),
    ])
    def test_partitioner_spec_grammar(self, tmp_path, flag, text, expected):
        from blockpart.cli import _parse_spec

        model = tmp_path / "model.csv"
        model.write_text(self._MODEL_CSV)
        text = text.replace("PATH", str(model))
        if isinstance(expected, dict):
            assert _parse_spec(text, flag) == expected
        else:
            with pytest.raises(ValueError) as info:
                _parse_spec(text, flag)
            assert str(info.value) == expected.format(label=f"{flag} {text!r}")

    @pytest.mark.parametrize("argv", [
        ["partition", "--method", "overlap:2"],
        ["partition", "--method", "overlap:0"],
        ["partition", "--method", "overlap:nan"],
        ["convert", "--format", "vbr", "--method", "overlap:-0.5", "--out", "x"],
        ["spmv-bench", "--method", "overlap:inf"],
    ])
    def test_rho_range_checked_before_the_read(self, tmp_path, argv):
        missing = str(tmp_path / "missing.mtx")
        text = re.escape(argv[argv.index("--method") + 1])
        with pytest.raises(SystemExit, match=rf"^blockpart {argv[0]}: --method '{text}': "
                                             r"RHO must be a number in \(0, 1\]$"):
            cli_main(argv[:1] + ["--matrix", missing] + argv[1:])

    @pytest.mark.parametrize("argv, message", [
        (["sweep", "--methods", "strict,overlap:abc"],
         r"--methods item 'overlap:abc': RHO must be a number in \(0, 1\]"),
        (["sweep", "--methods", "overlap:"],
         r"--methods item 'overlap:': RHO must be a number in \(0, 1\]"),
        (["sweep", "--methods", "strict:x"],
         r"--methods item 'strict:x' is not strict, overlap\[:RHO\] or optimal\[:MODEL\]"),
        (["sweep", "--methods", ",strict"],
         r"--methods item '' is not strict, overlap\[:RHO\] or optimal\[:MODEL\]"),
        (["sweep", "--methods", "optimal:"],
         r"--methods item 'optimal:': MODEL '' is not blocks, mem1d, memvbr or file:PATH"),
        (["sweep", "--methods", "optimal:foo"],
         r"--methods item 'optimal:foo': MODEL 'foo' is not blocks, mem1d, memvbr or file:PATH"),
        (["partition", "--method", "optimal:foo"],
         r"--method 'optimal:foo': MODEL 'foo' is not blocks, mem1d, memvbr or file:PATH"),
        (["convert", "--format", "vbr", "--method", "optimal:", "--out", "x"],
         r"--method 'optimal:': MODEL '' is not blocks, mem1d, memvbr or file:PATH"),
    ], ids=["overlap-abc", "overlap-empty", "strict-x", "empty-item", "optimal-empty",
            "optimal-foo", "partition-model", "convert-empty-model"])
    def test_bad_method_and_model_names_rejected_before_the_read(self, tmp_path, argv, message):
        missing = str(tmp_path / "missing.mtx")
        with pytest.raises(SystemExit, match=rf"^blockpart {argv[0]}: {message}$"):
            cli_main(argv[:1] + ["--matrix", missing] + argv[1:])

    @pytest.mark.parametrize("argv, flag", [
        (["partition", "--umax", "0"], "--umax"),
        (["partition", "--format", "vbr", "--wmax", "-1"], "--wmax"),
        (["convert", "--format", "vbr", "--wmax", "0", "--out", "x"], "--wmax"),
        (["convert", "--format", "1dvbr", "--umax", "0", "--out", "x"], "--umax"),
        (["spmv-bench", "--umax", "0"], "--umax"),
        (["spmv-bench", "--trials", "0"], "--trials"),
        (["sweep", "--umax", "0"], "--umax"),
        (["sweep", "--wmax", "0"], "--wmax"),
        (["sweep", "--trials", "-3"], "--trials"),
    ])
    def test_counts_below_one_rejected_before_the_read(self, tmp_path, argv, flag):
        missing = str(tmp_path / "missing.mtx")
        count = argv[argv.index(flag) + 1]
        with pytest.raises(SystemExit, match=rf"^blockpart {argv[0]}: {flag} must be at least 1, "
                                             rf"got {count}$"):
            cli_main(argv[:1] + ["--matrix", missing] + argv[1:])

    @pytest.mark.parametrize("argv", [
        ["spmv-bench", "--matrix", "m.mtx"],
        ["sweep", "--matrix", "m.mtx"],
        ["calibrate", "--out", "model.csv"],
    ], ids=lambda argv: argv[0])
    def test_time_budget_flag_is_gone(self, capsys, argv):
        # every timed multiply runs its full trials, so no command takes a budget
        with pytest.raises(SystemExit) as exc:
            cli_main(argv + ["--time-budget", "0.5"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --time-budget 0.5" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["partition", "--matrix", "m.mtx"],
        ["partition", "--matrix", "m.mtx", "--format", "vbr"],
        ["convert", "--matrix", "m.mtx", "--format", "vbr", "--out", "m.vbr"],
        ["spmv-bench", "--matrix", "m.mtx", "--format", "vbr"],
        ["sweep", "--matrix", "m.mtx"],
    ], ids=lambda argv: "-".join(argv[:1] + argv[4:5]))
    def test_alternate_flag_is_gone(self, capsys, argv):
        # --format vbr is the one 2-D switch, and optimal always alternates 3 half-steps
        with pytest.raises(SystemExit) as exc:
            cli_main(argv + ["--alternate", "3"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --alternate 3" in capsys.readouterr().err

    def test_readme_commands_parse(self, monkeypatch):
        # README's `blockpart ...` examples, continuations joined, go through the
        # real parser to their command; recorders stand in, so none runs
        import blockpart.cli as cli

        readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        text = "".join(re.findall(r"^```sh\n(.*?)^```", readme, re.S | re.M))
        commands = [shlex.split(line, comments=True)[1:]
                    for line in text.replace("\\\n", " ").splitlines()
                    if line.startswith("blockpart ")]
        reached = []
        for name in vars(cli):
            if name.startswith("_cmd_"):
                monkeypatch.setattr(cli, name, lambda args, name=name: reached.append(name))
        for argv in commands:
            try:
                cli.main(argv)
            except SystemExit as exc:  # argparse exits with 2 on a flag it does not take
                pytest.fail(f"blockpart {shlex.join(argv)} exited with {exc.code}")
        assert reached == ["_cmd_" + argv[0].replace("-", "_") for argv in commands]
        assert {argv[0] for argv in commands} == {"partition", "convert", "spmv-bench", "sweep",
                                                  "profile", "calibrate", "gadget"}

    def test_sweep_unknown_format_writes_no_report(self, tmp_path):
        (path,) = self._write_matrices(tmp_path, count=1)
        out = tmp_path / "r.jsonl"
        # the format is checked before the matrix is read, so a missing one shows no read error
        for matrix in (path, str(tmp_path / "missing.mtx")):
            with pytest.raises(SystemExit, match=r"^blockpart sweep: unknown format 'VBR'"):
                cli_main(["sweep", "--matrix", matrix, "--formats", "1dvbr,VBR", "--out", str(out)])
        assert not out.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--methods", "strict,strict"], r"--methods item 'strict' is given twice"),
        (["--methods", "overlap,strict,overlap:0.9"],
         r"--methods item 'overlap:0.9' shares the report label 'overlap\(0.9\)' with 'overlap'"),
        (["--methods", "optimal:file:A,optimal:file:B"],
         r"--methods item 'optimal:file:.*B' shares the report label 'optimal\(custom\)' "
         r"with 'optimal:file:.*A'"),
        (["--formats", "vbr,1dvbr,vbr"], r"--formats item 'vbr' is given twice"),
        (["--matrix", "MISSING"], r"--matrix '.*missing\.mtx' is given twice"),
        (["--matrix", "DIR/./missing.mtx"],
         r"--matrix '.*/\./missing\.mtx' shares the file '.*[^.]/missing\.mtx' with "
         r"'.*missing\.mtx'"),
    ], ids=["method", "method-label", "model-files", "format", "matrix", "matrix-spelling"])
    def test_sweep_refuses_a_report_profile_cannot_read(self, tmp_path, flags, message):
        # profile keeps one value per method and matrix, so two rows in one cell
        # would stop it; the matrix path does not exist, so the check runs first
        for name in "AB":
            (tmp_path / name).write_text(self._MODEL_CSV)
        missing, out = str(tmp_path / "missing.mtx"), tmp_path / "r.jsonl"
        flags = [f.replace("file:", f"file:{tmp_path}/").replace("MISSING", missing)
                 .replace("DIR", str(tmp_path)) for f in flags]
        with pytest.raises(SystemExit, match=rf"^blockpart sweep: {message}; a report has one "
                                             r"row per method, format and matrix$"):
            cli_main(["sweep", "--matrix", missing, *flags, "--out", str(out)])
        assert not out.exists()

    def test_summary_csv_rows_parse_to_the_header_width(self, tmp_path):
        # the matrix path holds a comma and is not ASCII; the error of an
        # out-of-range threshold, which only run_sweep itself still takes, holds a comma
        path = str(tmp_path / "m,\u00e9.mtx")
        write_matrix_market(path, block_pair_matrix())
        csv_path = tmp_path / "s.csv"
        cli_main(["sweep", "--matrix", path, "--methods", "optimal:mem1d,strict", "--formats",
                  "vbr", "--trials", "1", "--out", str(tmp_path / "r.jsonl"),
                  "--csv", str(csv_path)])
        with open(csv_path, encoding="utf-8", newline="") as fh:
            header, *rows = csv.reader(fh)
        assert len(rows) == 3
        assert all(len(row) == len(header) for row in rows)
        assert [row[header.index("matrix_id")] for row in rows] == [path] * 3
        assert rows[1][header.index("error")] == "model mem1d only applies to the 1dvbr format"
        reports = run_sweep(block_pair_matrix(), path, [{"method": "overlap", "rho": 7}],
                            formats=("1dvbr",), trials=1, clock=fake_clock())
        header, *rows = csv.reader(_summary_csv(reports).splitlines())
        assert [len(row) for row in rows] == [len(header)] * 2
        assert rows[1][header.index("matrix_id")] == path
        assert rows[1][header.index("error")] == "rho must be in (0, 1], got 7"

    def test_summary_csv_columns(self):
        from blockpart.cli import _summary_csv

        header = _summary_csv([]).strip()
        assert header == ("matrix_id,format,partitioner,K,L,N_index,N_value,memory_bits,"
                          "partition_seconds,convert_seconds,multiply_seconds,critical_point,"
                          "model_objective,error")

    def test_convert_writes_bytes(self, tmp_path, capsys):
        (path,) = self._write_matrices(tmp_path, count=1)
        out = tmp_path / "m.1dvbr"
        cli_main(["convert", "--matrix", path, "--format", "1dvbr",
                  "--method", "strict", "--out", str(out)])
        assert out.stat().st_size % 8 == 0
        assert out.stat().st_size > 0

    def test_sweep_and_profile_end_to_end(self, tmp_path):
        paths = self._write_matrices(tmp_path, count=3)
        report_path = tmp_path / "reports.jsonl"
        csv_path = tmp_path / "summary.csv"
        args = ["sweep"]
        for p in paths:
            args += ["--matrix", p]
        args += ["--methods", "strict,overlap:0.9,optimal:mem1d",
                 "--formats", "1dvbr", "--umax", "4", "--trials", "2",
                 "--out", str(report_path), "--csv", str(csv_path)]
        cli_main(args)
        rows = reports_from_jsonl(report_path.read_text())
        assert len(rows) == 3 * (1 + 3)
        assert all(r.error is None for r in rows)
        assert csv_path.read_text().startswith("matrix_id,")

        profile_path = tmp_path / "profile.csv"
        for metric in ("memory", "time", "critical"):
            cli_main(["profile", "--reports", str(report_path),
                      "--metric", metric, "--out", str(profile_path)])
            lines = profile_path.read_text().strip().splitlines()
            assert lines[0] == "tau,method,fraction"
            assert len(lines) > 1
            for line in lines[1:]:
                tau, method, fraction = line.split(",")
                assert 0.0 <= float(fraction) <= 1.0

    def _umax_reports(self, tmp_path, umax, name="r"):
        path = str(tmp_path / "dense.mtx")
        write_matrix_market(path, build_csr(4, 4, [(i, j, 1.0) for i in range(4) for j in range(4)]))
        out = tmp_path / f"{name}{umax}.jsonl"
        cli_main(["sweep", "--matrix", path, "--methods", "strict", "--formats", "1dvbr",
                  "--umax", str(umax), "--trials", "1", "--out", str(out)])
        return str(out)

    def test_profile_rejects_two_values_in_one_cell(self, tmp_path):
        u1, u4 = self._umax_reports(tmp_path, 1), self._umax_reports(tmp_path, 4)
        for first, second, values in [(u1, u4, "3008 and 1664"), (u4, u1, "1664 and 3008")]:
            with pytest.raises(SystemExit, match=rf"^blockpart profile: 'strict 1dvbr' on "
                                                 rf"'.*dense.mtx' has two memory values, {values}"):
                cli_main(["profile", "--reports", first, "--reports", second, "--metric", "memory"])

    def test_profile_accepts_identical_repeats(self, tmp_path, capsys):
        # two sweeps of one matrix repeat every memory_bits, the CSR baseline's too
        first, second = self._umax_reports(tmp_path, 4, "a"), self._umax_reports(tmp_path, 4, "b")
        cli_main(["profile", "--reports", first, "--reports", second, "--metric", "memory"])
        assert capsys.readouterr().out.splitlines()[1:] == [  # 2368 and 1664 bits
            "1.0,csr,0.0", "1.4230769230769231,csr,1.0",
            "1.0,strict 1dvbr,1.0", "1.4230769230769231,strict 1dvbr,1.0"]

    @pytest.mark.parametrize("line", ['{"memory_bits": NaN}', "[]", '{"speed": 1}'] + [
        '{"matrix_id": "m", "format": "csr", "partitioner": "none", "params": {}, ' + fields
        for fields in ['"critical_point": 12.0, "critical_point_inf": "no"}',
                       '"memory_bits": true}', '"memory_bits": "1e3"}']])
    def test_profile_rejects_bad_report_lines(self, tmp_path, line):
        path = tmp_path / "r.jsonl"
        path.write_text(line + "\n")
        with pytest.raises(SystemExit, match=r"^blockpart profile: report line 1: "):
            cli_main(["profile", "--reports", str(path), "--metric", "memory"])

    def test_bad_model_file_is_a_clean_exit(self, tmp_path):
        model = tmp_path / "model.csv"
        model.write_text("alpha_row,1\nalpha_col,1\nbeta_row r=1,1\n")
        with pytest.raises(SystemExit, match=r"^blockpart partition: --method 'optimal:file:.*': "
                                             r".*'beta_col r=1' is missing"):
            cli_main(["partition", "--matrix", str(tmp_path / "missing.mtx"),
                      "--method", f"optimal:file:{model}"])

    def test_spmv_bench_command(self, tmp_path, capsys):
        (path,) = self._write_matrices(tmp_path, count=1)
        cli_main(["spmv-bench", "--matrix", path, "--format", "1dvbr",
                  "--method", "optimal:mem1d", "--umax", "4",
                  "--trials", "2"])
        lines = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
        assert lines[0]["format"] == "csr"
        assert lines[1]["format"] == "1dvbr"
        assert lines[1]["error"] is None
        assert lines[1]["multiply_seconds"] > 0

    def test_spmv_bench_vbr_default_flags(self, tmp_path, capsys):
        # the default model is the storage model of the requested format
        (path,) = self._write_matrices(tmp_path, count=1)
        cli_main(["spmv-bench", "--matrix", path, "--format", "vbr", "--trials", "1"])
        lines = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
        assert [(r["format"], r["partitioner"], r["error"]) for r in lines] == [
            ("csr", "none", None), ("vbr", "optimal", None)]

    def test_gadget_command(self, tmp_path, capsys):
        out = tmp_path / "g.mtx"
        cli_main(["gadget", "--kind", "b1", "--s", "1", "--out", str(out)])
        from blockpart import read_matrix_market

        A = read_matrix_market(out)
        assert (A.m, A.n) == (209, 209)

    def test_gadget_reduction_reads_the_graph(self, tmp_path, capsys):
        from blockpart import read_matrix_market
        from blockpart.gadgets import GadgetParams

        out = tmp_path / "r.mtx"
        cli_main(["gadget", "--kind", "reduction", "--graph", "4;0-1,0-2,0-3,1-2",
                  "--out", str(out)])
        spaced = tmp_path / "spaced.mtx"
        cli_main(["gadget", "--kind", "reduction", "--graph", " 4 ; 0-1, 0 - 2,0-3 ,1-2",
                  "--out", str(spaced)])
        A = read_matrix_market(out)
        assert A == read_matrix_market(spaced)
        mu = GadgetParams(1.0).mu  # one gadget tile per (vertex, edge)
        assert (A.m, A.n) == (4 * mu, 4 * mu)

    @pytest.mark.parametrize("graph, message", [
        ("4", r"--graph '4' has no ';' after the vertex count"),
        ("x;0-1", r"--graph vertex count 'x' is not a whole number"),
        ("2;0-1,0-x", r"--graph edge '0-x' is not a-b"),
        ("3;0-1,", r"--graph edge '' is not a-b"),
        ("3;0-1-2", r"--graph edge '0-1-2' is not a-b"),
    ])
    def test_gadget_graph_errors_name_the_token(self, tmp_path, graph, message):
        out = tmp_path / "r.mtx"
        with pytest.raises(SystemExit, match=rf"^blockpart gadget: {message}; expected "
                                             r"N;a-b,c-d,\.\.\. "):
            cli_main(["gadget", "--kind", "reduction", "--graph", graph, "--out", str(out)])
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["b1", "reduction"])
    @pytest.mark.parametrize("s", ["inf", "nan"])
    def test_gadget_non_finite_weight_rejected(self, tmp_path, kind, s):
        out = tmp_path / "g.mtx"
        with pytest.raises(SystemExit, match=rf"^blockpart gadget: index weight must be finite, "
                                             rf"got {s}$"):
            cli_main(["gadget", "--kind", kind, "--s", s, "--out", str(out)])
        assert not out.exists()

    @pytest.mark.parametrize("kind, s", [("b1", "1e308"), ("reduction", "1e300")])
    def test_gadget_too_large_to_index_rejected(self, tmp_path, kind, s):
        # b1 ended in an OverflowError traceback and reduction never ended
        out = tmp_path / "g.mtx"
        weight = re.escape(str(float(s)))
        with pytest.raises(SystemExit, match=rf"^blockpart gadget: index weight {weight} makes "
                                             r"the gadget side mu larger than "):
            cli_main(["gadget", "--kind", kind, "--s", s, "--out", str(out)])
        assert not out.exists()

    def test_calibrate_command(self, tmp_path, capsys):
        model_path = tmp_path / "model.csv"
        samples_path = tmp_path / "samples.csv"
        cli_main(["calibrate", "--umax", "2", "--wmax", "2", "--rank", "1",
                  "--min-bytes", "64", "--blocks-per-row", "2", "--trials", "1",
                  "--out", str(model_path), "--samples-out", str(samples_path)])
        from blockpart import cost_model_from_csv

        model = cost_model_from_csv(model_path.read_text())
        assert model.rank == 1
        assert samples_path.read_text().startswith("u,w,m_rows")

    @pytest.mark.parametrize("flags, message", [
        (["--rank", "3"], r"--rank must be in 1\.\.2, got 3"),
        (["--rank", "0"], r"--rank must be in 1\.\.2, got 0"),
        (["--rank", "1", "--blocks-per-row", "0"], "block shape parameters must be positive"),
        (["--rank", "1", "--umax", "0"], "--umax must be at least 1, got 0"),
        (["--rank", "1", "--wmax", "0"], "--wmax must be at least 1, got 0"),
        (["--rank", "1", "--trials", "0"], "--trials must be at least 1, got 0"),
    ], ids=["rank-above", "rank-zero", "no-blocks", "umax-zero", "wmax-zero", "trials-zero"])
    def test_calibrate_flags_checked_before_the_run(self, tmp_path, monkeypatch, flags, message):
        import blockpart.calibrate as calibrate

        def refuse(*args, **kwargs):
            raise AssertionError("no sample may be timed")

        monkeypatch.setattr(calibrate, "time_min", refuse)
        out = tmp_path / "model.csv"
        with pytest.raises(SystemExit, match=rf"^blockpart calibrate: {message}"):
            cli_main(["calibrate", "--umax", "2", "--wmax", "3", *flags, "--out", str(out)])
        assert not out.exists()


def _strict_json(text):
    return json.loads(text, parse_constant=_reject_constant)


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    """The inputs the CLI fuzz draws: a 4x5 matrix, an empty one, partitioner
    specs, valid or not, two of them naming a cost model file, a sweep's
    reports and a file that is none of these."""
    root = tmp_path_factory.mktemp("fuzz")
    matrix, empty = str(root / "a.mtx"), str(root / "empty.mtx")
    write_matrix_market(matrix, random_csr(4, 5, 0.5, np.random.default_rng(18)))
    write_matrix_market(empty, build_csr(3, 4, []))
    model = root / "model.csv"
    model.write_text("alpha_row,1,2\nalpha_col,1,2\nbeta_row r=1,1,2\nbeta_col r=1,1,1\n")
    reports = str(root / "reports.jsonl")
    cli_main(["sweep", "--matrix", matrix, "--matrix", empty, "--methods", "strict,optimal",
              "--trials", "1", "--out", reports])
    junk = root / "junk.txt"
    junk.write_text("not, a {file\n")
    methods = ["strict", "overlap", "overlap:0.5", "overlap:1", "optimal", "optimal:blocks",
               "optimal:mem1d", "optimal:memvbr", f"optimal:file:{model}",
               "overlap:2", "overlap:nan", "overlap:", f"optimal:file:{junk}", "optimal:dense",
               "strict:x", "", "fast"]
    return {"matrix": [matrix, empty, str(junk), str(root / "missing.mtx")],
            "methods": methods, "reports": [reports, str(junk)]}


def _read_back(path):
    """Read a file the CLI wrote through the reader of its kind."""
    name = path.name
    if name == "blocked.bin":  # the blocked formats have no reader: whole 64-bit words
        assert path.stat().st_size % 8 == 0
        return
    text = path.read_bytes().decode("utf-8" if name == "summary.csv" else "ascii")
    if name == "partition.json":
        assert set(_strict_json(text)) <= {"spl_rows", "spl_cols"}
    elif name == "reports.jsonl":
        for line in text.splitlines():
            _strict_json(line)
        reports_from_jsonl(text)
    elif name == "summary.csv":
        header, *rows = csv.reader(text.splitlines())
        assert header == _summary_csv([]).strip().split(",")
        assert all(len(row) == len(header) for row in rows)
    elif name == "profile.csv":
        header, *rows = csv.reader(text.splitlines())
        assert header == ["tau", "method", "fraction"]
        assert all(len(row) == 3 and 0.0 <= float(row[2]) <= 1.0 for row in rows)
    elif name == "gadget.mtx":
        read_matrix_market(path)
    elif name == "model.csv":
        cost_model_from_csv(text)
    else:
        assert name == "samples.csv"
        samples_from_csv(text)


class TestCliFuzz:
    """Random flag combinations over every command: each ends in success
    or in one ``blockpart <command>:`` message, and every file or JSON
    line it writes reads back. Counts stay at 16 or below, and calibrate
    at u, w <= 2 and 4096 bytes, so no run is large."""

    @staticmethod
    def _argv(draw, command, inputs, out):
        def maybe(flag, strategy):  # the flag one time in four
            return [flag, str(draw(strategy))] if draw(st.integers(0, 3)) == 0 else []

        counts = st.integers(1, 16) | st.sampled_from([0, -1])
        # the two matrices more often than the junk file and the missing path
        matrix = st.sampled_from(inputs["matrix"][:2]) | st.sampled_from(inputs["matrix"])
        # the nine valid specs more often than the invalid ones
        method = st.sampled_from(inputs["methods"][:9]) | st.sampled_from(inputs["methods"])
        if command in ("partition", "convert", "spmv-bench"):
            argv = ["--matrix", draw(matrix)]
            argv += maybe("--method", method)
            argv += maybe("--umax", counts) + maybe("--wmax", counts)
            formats = st.sampled_from(["vbr", "1dvbr"] + ["csr"] * (command == "spmv-bench"))
            if command == "convert":
                argv += ["--format", draw(formats), "--out", str(out / "blocked.bin")]
            else:
                argv += maybe("--format", formats)
            if command == "spmv-bench":
                argv += maybe("--trials", counts)
            elif command == "partition":
                argv += maybe("--out", st.just(out / "partition.json"))
        elif command == "sweep":
            argv = [arg for path in draw(st.lists(matrix, min_size=1, max_size=2))
                    for arg in ("--matrix", path)]
            argv += maybe("--methods", st.lists(method, min_size=1, max_size=3).map(",".join))
            argv += maybe("--formats", st.lists(st.sampled_from(["1dvbr", "vbr", "1dvbr", "csr"]),
                                                min_size=1, max_size=2).map(",".join))
            argv += maybe("--umax", counts) + maybe("--wmax", counts)
            argv += ["--trials", str(draw(st.integers(1, 3) | st.just(0)))]
            argv += maybe("--out", st.just(out / "reports.jsonl"))
            argv += maybe("--csv", st.just(out / "summary.csv"))
        elif command == "profile":
            argv = [arg for path in draw(st.lists(st.sampled_from(inputs["reports"]),
                                                  min_size=1, max_size=2))
                    for arg in ("--reports", path)]
            argv += ["--metric", draw(st.sampled_from(["memory", "time", "critical"]))]
            argv += maybe("--out", st.just(out / "profile.csv"))
        elif command == "gadget":
            argv = ["--kind", draw(st.sampled_from(["b1", "b2", "mini", "count", "reduction"])),
                    "--out", str(out / "gadget.mtx")]
            argv += maybe("--s", st.sampled_from([1.0, 0.5, 0.0, -1.0, math.inf]))
            argv += maybe("--umax", counts) + maybe("--wmax", counts)
            argv += maybe("--graph", st.sampled_from(["2;0-1", "4;0-1,0-2,0-3,1-2", "3;0-3",
                                                      "3;", "x;0-1", "2;0-0"]))
        else:
            argv = ["--out", str(out / "model.csv")]
            small = st.sampled_from([1, 2, 1, 2, 0])
            argv += ["--umax", str(draw(small)), "--wmax", str(draw(small)),
                     "--rank", str(draw(small))]
            argv += ["--min-bytes", str(draw(st.sampled_from([-8, 0, 8, 512, 4096])))]
            argv += maybe("--blocks-per-row", st.integers(0, 4))
            argv += ["--trials", str(draw(small))]
            argv += maybe("--samples-out", st.just(out / "samples.csv"))
        return [command, *argv]

    @pytest.mark.parametrize("command", ["partition", "convert", "spmv-bench", "sweep",
                                         "profile", "gadget", "calibrate"])
    @settings(derandomize=True, deadline=None, max_examples=14)  # 98 runs in all
    @given(data=st.data())
    def test_every_outcome_is_success_or_a_named_error(self, fuzz_inputs, command, data):
        with tempfile.TemporaryDirectory() as tmp:
            out = pathlib.Path(tmp)
            argv = self._argv(data.draw, command, fuzz_inputs, out)
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                try:
                    assert cli_main(argv) == 0
                    event(f"{command}: success")
                except SystemExit as exc:
                    assert str(exc.code).startswith(f"blockpart {command}: "), exc.code
                    event(f"{command}: error")
            for line in stdout.getvalue().splitlines():
                if line.startswith(("{", "[")):
                    _strict_json(line)
            for path in out.iterdir():
                _read_back(path)
