import json
import math

import numpy as np
import pytest

from blockpart import build_csr, run_sweep, performance_profile, spmv_vbr, write_matrix_market
from blockpart.bench import profile_to_csv, reports_from_jsonl, reports_to_jsonl
from blockpart.cli import main as cli_main

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


class TestRunSweep:
    def test_row_cardinality(self):
        A = block_pair_matrix()
        reports = run_sweep(A, "pair", STANDARD_METHODS, formats=("1dvbr",),
                            u_max=4, w_max=4, trials=2, clock=fake_clock(), seed=1)
        assert len(reports) == 1 + 3
        assert reports[0].format == "csr"
        assert all(r.error is None for r in reports)

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

    def test_first_multiply_excess_charged_to_convert(self, monkeypatch):
        # every clock reading advances 1 ms, and the kernel stand-in adds 5 s
        # to the call that builds the container's plan, as a cold multiply
        # would; the cached calls take the 1 ms between readings
        import blockpart.bench as bench
        from blockpart.calibrate import critical_point

        now = [0]

        def clock():
            now[0] += 10**6
            return now[0]

        def kernel(y, B, x, counter=None):
            if B._plan is None:
                now[0] += 5 * 10**9
            return spmv_vbr(y, B, x, counter)

        monkeypatch.setattr(bench, "spmv_vbr", kernel)
        for warmup in (0, 1, 2):
            csr_row, row = run_sweep(block_pair_matrix(), "pair", [{"method": "strict"}],
                                     formats=("vbr",), trials=3, warmup=warmup, clock=clock,
                                     seed=1)
            assert row.multiply_seconds == pytest.approx(1e-3)
            assert row.convert_seconds == pytest.approx(1e-3 + 5.0)
            assert row.critical_point == critical_point(
                row.partition_seconds, row.convert_seconds,
                row.multiply_seconds, csr_row.multiply_seconds)

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

    def test_rejects_incomplete_coverage(self):
        with pytest.raises(ValueError):
            performance_profile({"a": {"i": 1.0}, "b": {}})

    def test_csv_shape(self):
        taus, fractions = performance_profile(
            {"a": {"i": 1.0}, "b": {"i": 2.0}}, taus=[1.0, 2.0])
        text = profile_to_csv(taus, fractions)
        lines = text.strip().splitlines()
        assert lines[0] == "tau,method,fraction"
        assert len(lines) == 1 + 2 * 2


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
        cli_main(["partition", "--matrix", path, "--method", "optimal",
                  "--model", "mem1d", "--umax", "4"])
        out = json.loads(capsys.readouterr().out)
        assert out["spl_rows"][0] == 0 and out["spl_rows"][-1] == 8

    def test_alternate_needs_2d_model(self, tmp_path, capsys):
        (path,) = self._write_matrices(tmp_path, count=1)
        with pytest.raises(SystemExit, match=r"blockpart partition: --alternate .*2-D cost model: "
                                             r"--model memvbr, blocks or file:PATH"):
            cli_main(["partition", "--matrix", path, "--alternate", "3", "--model", "mem1d"])
        with pytest.raises(SystemExit, match=r"blockpart convert: --format vbr .*2-D cost model"):
            cli_main(["convert", "--matrix", path, "--format", "vbr", "--model", "mem1d",
                      "--out", str(tmp_path / "m.vbr")])
        cli_main(["partition", "--matrix", path, "--alternate", "3"])
        out = json.loads(capsys.readouterr().out)
        assert out["spl_rows"][-1] == 8 and out["spl_cols"][-1] == 8

    @pytest.mark.parametrize("argv", [
        ["partition", "--method", "strict", "--alternate", "3"],
        ["partition", "--method", "overlap", "--alternate", "1"],
        ["convert", "--format", "1dvbr", "--alternate", "3", "--out", "x.1dvbr"],
        ["convert", "--format", "vbr", "--method", "strict", "--alternate", "3", "--out", "x.vbr"],
    ])
    def test_alternate_rejected_before_the_read(self, tmp_path, argv):
        # the matrix path does not exist: the flags must fail first
        missing = str(tmp_path / "missing.mtx")
        with pytest.raises(SystemExit, match=r"--alternate .* needs --method optimal"):
            cli_main(argv[:1] + ["--matrix", missing] + argv[1:])

    @pytest.mark.parametrize("count", ["0", "-2"])
    def test_alternate_count_checked_before_the_read(self, tmp_path, count):
        missing = str(tmp_path / "missing.mtx")
        with pytest.raises(SystemExit, match=rf"--alternate .* at least 1, got {count}"):
            cli_main(["partition", "--matrix", missing, "--alternate", count])

    @pytest.mark.parametrize("argv", [
        ["partition", "--method", "strict", "--model", "memvbr"],
        ["partition", "--method", "overlap", "--model", "blocks"],
        ["convert", "--format", "vbr", "--method", "strict", "--model", "memvbr", "--out", "x"],
        ["spmv-bench", "--method", "overlap", "--model", "mem1d"],
    ])
    def test_model_needs_optimal_before_the_read(self, tmp_path, argv):
        missing = str(tmp_path / "missing.mtx")
        with pytest.raises(SystemExit, match=r"--model .* needs --method optimal"):
            cli_main(argv[:1] + ["--matrix", missing] + argv[1:])

    @pytest.mark.parametrize("fmt", ["1dvbr", "vbr"])
    @pytest.mark.parametrize("method", ["strict", "overlap:0.9", "optimal"])
    def test_convert_bytes_match_spmv_bench_memory(self, tmp_path, capsys, method, fmt):
        # both commands partition through the sweep's one policy; rows and
        # columns come in equal pairs, so the vbr heuristics group columns
        rng = np.random.default_rng(5)
        pattern = np.argwhere(rng.random((5, 4)) < 0.5)
        entries = [(2 * i + a, 2 * j + b, 1.0) for i, j in pattern for a in (0, 1) for b in (0, 1)]
        path = str(tmp_path / "pairs.mtx")
        write_matrix_market(path, build_csr(10, 8, entries))
        method, _, rho = method.partition(":")
        flags = ["--matrix", path, "--method", method, "--format", fmt, "--umax", "4", "--wmax", "4"]
        flags += ["--rho", rho] if rho else []
        out = tmp_path / "m.bin"
        cli_main(["convert", *flags, "--out", str(out)])
        capsys.readouterr()
        cli_main(["spmv-bench", *flags, "--trials", "1"])
        row = json.loads(capsys.readouterr().out.splitlines()[1])
        assert row["error"] is None
        assert row["memory_bits"] == 8 * out.stat().st_size

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
        cli_main(["profile", "--reports", str(report_path),
                  "--metric", "memory", "--out", str(profile_path)])
        lines = profile_path.read_text().strip().splitlines()
        assert lines[0] == "tau,method,fraction"
        assert len(lines) > 1
        for line in lines[1:]:
            tau, method, fraction = line.split(",")
            assert 0.0 <= float(fraction) <= 1.0

    def test_spmv_bench_command(self, tmp_path, capsys):
        (path,) = self._write_matrices(tmp_path, count=1)
        cli_main(["spmv-bench", "--matrix", path, "--format", "1dvbr",
                  "--method", "optimal", "--model", "mem1d", "--umax", "4",
                  "--trials", "2", "--warmup", "1"])
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
