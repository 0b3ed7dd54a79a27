"""Tests of the benchmark's own code.

Run from the root of the checkout:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import corpus  # noqa: E402
import run as bench_run  # noqa: E402
import workloads  # noqa: E402
from spans import Span, SpanRecorder, self_times  # noqa: E402

GENERATORS = {
    "rowruns": lambda rng: corpus.rowruns(rng, 60, 50),
    "planted_blocks": lambda rng: corpus.planted_blocks(rng, 60, 50),
    "aligned_blocks": lambda rng: corpus.aligned_blocks(rng, 60, 48),
    "scatter": lambda rng: corpus.scatter(rng, 60, 50),
}


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_generators_deterministic_per_seed_and_differ_across_seeds(name, tmp_path):
    gen = GENERATORS[name]
    a = gen(np.random.default_rng(7))
    b = gen(np.random.default_rng(7))
    c = gen(np.random.default_rng(8))
    assert corpus.same_csr(a, b)
    assert not corpus.same_csr(a, c)
    assert corpus.write_mtx(tmp_path / "a.mtx", a) == corpus.write_mtx(tmp_path / "b.mtx", b)
    assert corpus.write_mtx(tmp_path / "c.mtx", c) != corpus.write_mtx(tmp_path / "a.mtx", a)


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_written_file_reads_back_exactly(name, tmp_path):
    from blockpart import read_matrix_market

    A = GENERATORS[name](np.random.default_rng(3))
    corpus.write_mtx(tmp_path / "a.mtx", A)
    assert corpus.same_csr(A, read_matrix_market(tmp_path / "a.mtx"))


def test_self_time_on_hand_built_tree():
    # root [0, 100) with children [10, 30) and [40, 90); the second child
    # has a grandchild [50, 60); a second root [100, 120) has no children
    spans = [
        Span("root", 0, 100, -1, 0),
        Span("a", 10, 30, 0, 0),
        Span("b", 40, 90, 0, 0),
        Span("c", 50, 60, 2, 0),
        Span("other", 100, 120, -1, 1),
    ]
    assert self_times(spans) == [100 - 20 - 50, 20, 50 - 10, 10, 20]


def test_self_time_counts_overlapping_children_once():
    spans = [Span("p", 0, 10, -1, 0), Span("x", 2, 6, 0, 0), Span("y", 4, 8, 0, 0)]
    assert self_times(spans)[0] == 10 - 6


def test_recorder_nests_restores_and_requires():
    import types

    mod = types.SimpleNamespace()
    mod.inner = lambda v: v + 1
    mod.outer = lambda v: mod.inner(v) * 2
    ticks = iter(range(100))
    rec = SpanRecorder(clock=lambda: next(ticks))
    original = mod.inner
    with rec.installed([(mod, "inner", "m.inner"), (mod, "outer", "m.outer")]):
        assert mod.outer(1) == 4
    assert mod.inner is original
    assert [(s.name, s.parent) for s in rec.spans] == [("m.outer", -1), ("m.inner", 0)]
    rec.require({"m.inner"})
    with pytest.raises(RuntimeError, match="never fired"):
        rec.require({"m.inner", "m.missing"})


def test_strict_json_round_trips_infinite_critical_point():
    text = bench_run.strict_json({"w": 1, **bench_run.encode_critical_point(math.inf)})
    obj = json.loads(text)
    assert obj["critical_point"] is None and obj["critical_point_inf"] is True
    assert bench_run.decode_critical_point(obj) == math.inf
    finite = json.loads(bench_run.strict_json(bench_run.encode_critical_point(12.5)))
    assert bench_run.decode_critical_point(finite) == 12.5
    with pytest.raises(ValueError):
        bench_run.strict_json({"x": math.inf})


with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def test_metric_names_and_units_match_the_spec():
    assert set(workloads.WORKLOADS) == {w["name"] for w in SPEC["workloads"]}
    assert set(bench_run.END_TO_END) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert bench_run.unit_of(m["name"]) == m["unit"], m


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_smoke_run_has_no_errors(name, trace, tmp_path):
    r = workloads.run(name, seed=5, seconds=0, trace=trace, workdir=str(tmp_path), scale=0.01)
    assert r.checks.attempted > 0
    assert r.checks.failures == []
    e2e = workloads.end_to_end(r)
    assert e2e["pipeline_s"] > e2e["setup_s"] > 0
    if trace:
        layer = workloads.per_layer(r)
        assert set(layer) == {m["name"] for m in SPEC["per_layer"]}
        assert all(math.isfinite(v) for v in layer.values())


def test_exits_nonzero_without_sources(tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "rowruns-1d",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
