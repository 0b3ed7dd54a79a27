"""The four benchmark workloads: corpus, pipeline, checks and metrics.

One pipeline iteration reads the generated Matrix Market file, partitions,
converts and then runs k blocked multiplies, each next to a ``spmv_csr``
reference multiply. Every stage and every multiply is timed the same way
(``speed.Timer``), and every figure is a median over iterations or calls.
Checks run outside the timed calls and feed ``attempted``/``failed``.
Functions are looked up on their modules at call time, so the traced
iterations see the wrappers ``SpanRecorder.installed`` puts in place.
"""

import math
import os
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

import blockpart.calibrate as calibrate
import blockpart.costs as costs
import blockpart.formats as formats
import blockpart.kernels as kernels
import blockpart.mmio as mmio
import blockpart.partition as partition
import blockpart.sparse as sparse

import corpus
from spans import SpanRecorder, self_times
from speed import Timer

BITS = 64  # index and value width of the storage formulas and serializers
U_MAX = W_MAX = 8
RHO = 0.9
CAL_MAX = 3  # calibrated u_max = w_max
CAL_RANK = 2
CAL_MIN_BYTES = 16 * 1024
RTOL = 1e-12  # the repository tests' SpMV tolerance (np.allclose default atol)

TRACE_TARGETS = [
    (mmio, "read_matrix_market", "mmio.read_matrix_market"),
    (mmio, "build_csr", "sparse.build_csr"),
    (calibrate, "build_csr", "sparse.build_csr"),
    (sparse, "transpose", "sparse.transpose"),
    (partition, "transpose", "sparse.transpose"),
    (costs, "evaluate", "costs.evaluate"),
    (partition, "evaluate", "costs.evaluate"),
    (costs, "vbr_memory_bits", "costs.memory_bits"),
    (costs, "onedvbr_memory_bits", "costs.memory_bits"),
    (partition, "optimal_partition", "partition.optimal_partition"),
    (partition, "alternating_partition", "partition.alternating_partition"),
    (partition, "strict_partition", "partition.strict_partition"),
    (partition, "overlap_partition", "partition.overlap_partition"),
    (formats, "to_vbr", "formats.to_vbr"),
    (calibrate, "to_vbr", "formats.to_vbr"),
    (formats, "to_1dvbr", "formats.to_1dvbr"),
    (kernels, "spmv_csr", "kernels.spmv_csr"),
    (kernels, "spmv_vbr", "kernels.spmv_vbr"),
    (calibrate, "spmv_vbr", "kernels.spmv_vbr"),
    (kernels, "spmv_1dvbr", "kernels.spmv_1dvbr"),
    (calibrate, "run_calibration", "calibrate.run_calibration"),
    (calibrate, "fit_cost_model", "calibrate.fit_cost_model"),
    (calibrate, "critical_point", "calibrate.critical_point"),
]
LAYERS = ("mmio", "sparse", "costs", "partition", "formats", "kernels", "calibrate")
# spans every workload fires: the read, the checks and the critical point
_COMMON = {"mmio.read_matrix_market", "sparse.build_csr", "costs.evaluate",
           "costs.memory_bits", "kernels.spmv_csr", "calibrate.critical_point"}


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failures = []

    def expect(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)


@dataclass
class Blocked:
    """One blocked matrix the pipeline multiplies with."""

    fmt: str  # "vbr" or "1dvbr"
    rows: object
    cols: object
    B: object
    model: object  # cost model its objective is evaluated under
    u_max: int
    w_max: int


@dataclass
class Setup:
    A: object
    blocked: list
    dp_candidates: int = 0
    objective_trace: list = None
    samples: list = None
    fitted: object = None


def dp_candidates(m, u_max):
    """Sum over rows i of min(u_max, m - i): the windows one DP pass prices."""
    u = min(u_max, m)
    return u * m - u * (u - 1) // 2


def _setup_rowruns_1d(path, timer, seed, scale):
    with timer.stage("read"):
        A = mmio.read_matrix_market(path)
    with timer.stage("partition"):
        model = costs.model_memory_1dvbr(BITS, BITS, U_MAX)
        cols = sparse.trivial_partition(A.n)
        rows = partition.optimal_partition(A, cols, model, U_MAX)
    with timer.stage("convert"):
        B = formats.to_1dvbr(A, rows)
    return Setup(A, [Blocked("1dvbr", rows, cols, B, model, U_MAX, 1)],
                 dp_candidates=dp_candidates(A.m, U_MAX))


def _setup_blocks_2d(path, timer, seed, scale):
    with timer.stage("read"):
        A = mmio.read_matrix_market(path)
    trace = []
    with timer.stage("partition"):
        model = costs.model_memory_vbr(BITS, BITS, U_MAX, W_MAX)
        rows, cols = partition.alternating_partition(A, model, U_MAX, W_MAX, rounds=3,
                                                     objective_trace=trace)
    with timer.stage("convert"):
        B = formats.to_vbr(A, rows, cols)
    return Setup(A, [Blocked("vbr", rows, cols, B, model, U_MAX, W_MAX)],
                 dp_candidates=2 * dp_candidates(A.m, U_MAX) + dp_candidates(A.n, W_MAX),
                 objective_trace=trace)


def _setup_scatter(path, timer, seed, scale):
    with timer.stage("read"):
        A = mmio.read_matrix_market(path)
    with timer.stage("partition"):
        rows = partition.strict_partition(A, U_MAX)
        cols = partition.strict_partition(sparse.transpose(A), W_MAX)
    with timer.stage("convert"):
        V = formats.to_vbr(A, rows, cols)
    with timer.stage("partition"):
        rows_1d = partition.overlap_partition(A, RHO, U_MAX)
    with timer.stage("convert"):
        B = formats.to_1dvbr(A, rows_1d)
    trivial = sparse.trivial_partition(A.n)
    return Setup(A, [
        Blocked("vbr", rows, cols, V, costs.model_memory_vbr(BITS, BITS, U_MAX, W_MAX),
                U_MAX, W_MAX),
        Blocked("1dvbr", rows_1d, trivial, B, costs.model_memory_1dvbr(BITS, BITS, U_MAX),
                U_MAX, 1),
    ])


def _cal_min_bytes(scale):
    return max(1024, int(CAL_MIN_BYTES * scale))


def _setup_calibrate_fit(path, timer, seed, scale):
    with timer.stage("calibrate"):
        samples = calibrate.run_calibration(CAL_MAX, CAL_MAX, trials=1, seed=seed,
                                            min_bytes=_cal_min_bytes(scale))
    with timer.stage("fit"):
        fitted = calibrate.fit_cost_model(samples, CAL_RANK)
    with timer.stage("read"):
        A = mmio.read_matrix_market(path)
    trace = []
    with timer.stage("partition"):
        rows, cols = partition.alternating_partition(A, fitted, CAL_MAX, CAL_MAX, rounds=3,
                                                     objective_trace=trace)
    with timer.stage("convert"):
        B = formats.to_vbr(A, rows, cols)
    return Setup(A, [Blocked("vbr", rows, cols, B, fitted, CAL_MAX, CAL_MAX)],
                 dp_candidates=2 * dp_candidates(A.m, CAL_MAX) + dp_candidates(A.n, CAL_MAX),
                 objective_trace=trace, samples=samples, fitted=fitted)


def _size(scale, full, multiple=1):
    return max(multiple * 4, int(round(full * scale / multiple)) * multiple)


@dataclass(frozen=True)
class Workload:
    name: str
    k: int
    corpus: object  # (rng, scale) -> Matrix
    setup: object  # (mtx path, timer, seed, scale) -> Setup
    spans: frozenset


# Why each workload exists is recorded in BENCHMARK.json. k is lowered from
# the paper's 100 so that one run fits several iterations: a median over
# iterations is what keeps set-up and pipeline figures steady.
WORKLOADS = {w.name: w for w in (
    Workload(
        "rowruns-1d",
        30,
        lambda rng, s: corpus.rowruns(rng, _size(s, 20000), _size(s, 20000)),
        _setup_rowruns_1d,
        frozenset(_COMMON | {"partition.optimal_partition", "formats.to_1dvbr",
                             "kernels.spmv_1dvbr"}),
    ),
    Workload(
        "blocks-2d",
        30,
        lambda rng, s: corpus.planted_blocks(rng, _size(s, 6000), _size(s, 6000)),
        _setup_blocks_2d,
        frozenset(_COMMON | {"sparse.transpose", "partition.alternating_partition",
                             "partition.optimal_partition", "formats.to_vbr",
                             "kernels.spmv_vbr"}),
    ),
    Workload(
        "scatter-heuristic",
        3,
        lambda rng, s: corpus.scatter(rng, _size(s, 10000), _size(s, 10000)),
        _setup_scatter,
        frozenset(_COMMON | {"sparse.transpose", "partition.strict_partition",
                             "partition.overlap_partition", "formats.to_vbr",
                             "formats.to_1dvbr", "kernels.spmv_vbr", "kernels.spmv_1dvbr"}),
    ),
    Workload(
        "calibrate-fit",
        20,
        lambda rng, s: corpus.aligned_blocks(rng, _size(s, 2400, 3), _size(s, 2400, 3)),
        _setup_calibrate_fit,
        frozenset(_COMMON | {"calibrate.run_calibration", "calibrate.fit_cost_model",
                             "sparse.transpose", "partition.alternating_partition",
                             "partition.optimal_partition", "formats.to_vbr",
                             "kernels.spmv_vbr"}),
    ),
)}


@dataclass
class Iteration:
    """One pipeline iteration; times are scaled seconds (see ``speed``)."""

    traced: bool
    stages: dict  # stage -> seconds
    blocked_s: list  # per blocked matrix, the k multiply times
    csr_s: list
    wall: dict  # unscaled setup_s, pipeline_s and spmv_s
    factor: float  # one scale for the whole iteration, applied to its spans
    counts: dict = field(default_factory=dict)
    critical_point: float = math.inf

    @property
    def setup_s(self):
        return sum(self.stages.values())

    @property
    def spmv_s(self):
        return sum(statistics.median(t) for t in self.blocked_s)

    @property
    def pipeline_s(self):
        return self.setup_s + sum(sum(t) for t in self.blocked_s)


def _sample_design(s, min_bytes):
    """(K, L, blocks) of one calibration sample under ``run_calibration``'s
    documented design: a base grid sized to ``min_bytes`` of values and
    variants doubling the blocks, the block rows or the block columns."""
    base_b = s.blocks_per_row // 2 if s.variant == "double-blocks" else s.blocks_per_row
    k0 = max(1, math.ceil(min_bytes / (8 * s.u * s.w * base_b)))
    l0 = max(math.ceil(k0 * s.u / s.w), 2 * base_b)
    k = s.m_rows // s.u
    l = 2 * l0 if s.variant == "double-cols" else l0
    return k, l, k * s.blocks_per_row


def _fit_stats(samples, model, min_bytes):
    """(max relative residual over samples, number of negative coefficients)."""
    beta = sum(np.outer(model.beta_row[r], model.beta_col[r]) for r in range(model.rank))
    worst = 0.0
    for s in samples:
        k, l, blocks = _sample_design(s, min_bytes)
        pred = (k * model.alpha_row[s.u - 1] + l * model.alpha_col[s.w - 1]
                + blocks * beta[s.u - 1, s.w - 1])
        worst = max(worst, abs(pred - s.seconds) / s.seconds)
    negative = (sum(v < 0 for v in model.alpha_row + model.alpha_col)
                + int((beta < 0).sum()))
    return worst, negative


def _check_blocked(checks, A, bl):
    """Structural checks of one blocked matrix; returns its counts."""
    rows, cols, B = bl.rows, bl.cols, bl.B
    checks.expect(rows.size == A.m and cols.size == A.n,
                  f"{bl.fmt}: partitions do not cover the matrix")
    checks.expect(int(rows.widths().max(initial=0)) <= bl.u_max
                  and int(cols.widths().max(initial=0)) <= bl.w_max,
                  f"{bl.fmt}: a part exceeds u_max={bl.u_max} or w_max={bl.w_max}")
    if bl.fmt == "vbr":
        bits = costs.vbr_memory_bits(A, rows, cols, BITS, BITS)
        raw = formats.serialize_vbr(B)
    else:
        bits = costs.onedvbr_memory_bits(A, rows, BITS, BITS)
        raw = formats.serialize_1dvbr(B)
    checks.expect(len(raw) * 8 == bits, f"{bl.fmt}: serialized bits != storage formula")
    blocks, values = formats.stored_counts(B)
    checks.expect((blocks, values) == (costs.block_count(A, rows, cols),
                                       costs.value_count(A, rows, cols)),
                  f"{bl.fmt}: stored_counts != block_count/value_count")
    x_loads = int((np.diff(B.ofs) // np.diff(B.spl_rows)).sum())
    return {
        "bits": bits,
        "blocks": blocks,
        "values": values,
        "objective": costs.evaluate(bl.model, A, rows, cols),
        "row_parts": rows.num_parts,
        "col_parts": cols.num_parts,
        # the container read once, one x load per block column, y read and written
        "bytes": len(raw) + 8 * x_loads + 16 * A.m,
    }


def run_iteration(wl, path, x, k, checks, seed, scale, file_bytes, traced=False):
    timer = Timer()
    st = wl.setup(path, timer, seed, scale)
    A = st.A
    counters = [{} for _ in st.blocked]
    for _ in range(k):
        y_ref = timer.call("csr", kernels.spmv_csr, A, x)
        for b, bl in enumerate(st.blocked):
            kernel = kernels.spmv_vbr if bl.fmt == "vbr" else kernels.spmv_1dvbr
            y = np.zeros(A.m)
            timer.call(b, kernel, y, bl.B, x, counters[b])
            checks.expect(np.allclose(y, y_ref, rtol=RTOL), f"{bl.fmt}: y differs from spmv_csr")
        timer.probe_if_due()
    timer.probe()

    stages, csr_s = {}, []
    blocked_s = [[] for _ in st.blocked]
    wall_blocked = [[] for _ in st.blocked]
    wall_setup = 0.0
    for key, wall, sec in timer.scaled():
        if key == "csr":
            csr_s.append(sec)
        elif isinstance(key, int):
            blocked_s[key].append(sec)
            wall_blocked[key].append(wall)
        else:
            stages[key] = stages.get(key, 0.0) + sec
            wall_setup += wall
    wall = {
        "setup_s": wall_setup,
        "pipeline_s": wall_setup + sum(sum(t) for t in wall_blocked),
        "spmv_s": sum(statistics.median(t) for t in wall_blocked),
    }
    it = Iteration(traced, stages, blocked_s, csr_s, wall, timer.factor())

    per = [_check_blocked(checks, A, bl) for bl in st.blocked]
    nb = len(st.blocked)
    c = {key: sum(p[key] for p in per) for key in per[0]}
    c["storage_ratio"] = c["bits"] / (nb * sparse.csr_memory_bits(A, BITS, BITS))
    c["fill_ratio"] = c["values"] / (nb * A.nnz) if A.nnz else 1.0
    c["explicit_zeros"] = c["values"] - nb * A.nnz
    c["madds"] = sum(cnt.get("madds", 0) for cnt in counters) // k
    c["dp_candidates"] = st.dp_candidates
    c["file_bytes"] = file_bytes
    if st.objective_trace is not None:
        tr = st.objective_trace
        checks.expect(all(b <= a + 1e-9 * abs(a) for a, b in zip(tr, tr[1:])),
                      f"alternating objective rose: {tr}")
    c["samples"] = 0
    c["fit_max_rel_residual"] = 0.0
    c["negative_coefficients"] = 0
    c["model_pred_ratio"] = 0.0
    if st.fitted is not None:
        m = st.fitted
        tables = m.alpha_row + m.alpha_col + sum(m.beta_row + m.beta_col, ())
        checks.expect(all(math.isfinite(v) for v in tables), "fitted model is not finite")
        c["samples"] = len(st.samples)
        c["fit_max_rel_residual"], c["negative_coefficients"] = _fit_stats(
            st.samples, m, _cal_min_bytes(scale))
        # the model predicts the wall time of one multiply on this machine
        c["model_pred_ratio"] = c["objective"] / it.wall["spmv_s"]
    it.counts = c
    it.critical_point = calibrate.critical_point(
        stages.get("partition", 0.0), stages.get("convert", 0.0),
        it.spmv_s, nb * statistics.median(csr_s))
    return it


def _scipy_reference(A, x, k, checks):
    """Median wall time of a scipy CSR multiply of the generated matrix ``A``,
    or None when scipy is missing."""
    try:
        import scipy.sparse
    except ImportError:
        return None
    S = scipy.sparse.csr_matrix((A.val, A.idx, A.pos), shape=(A.m, A.n))
    out = []
    for _ in range(k):
        t0 = time.perf_counter()
        y = S @ x
        out.append(time.perf_counter() - t0)
    checks.expect(np.allclose(y, kernels.spmv_csr(A, x), rtol=RTOL),
                  "scipy reference differs from spmv_csr")
    return statistics.median(out)


def quantiles(values):
    """(median, p90, n) of a list of samples."""
    values = sorted(values)
    p90 = values[min(len(values) - 1, int(math.ceil(0.9 * len(values))) - 1)]
    return statistics.median(values), p90, len(values)


@dataclass
class Run:
    workload: Workload
    corpus: dict
    iterations: list
    recorder: SpanRecorder
    checks: Checks
    scipy_spmv_s: float = None


def run(name, seed, seconds, trace, workdir, scale=1.0, deadline=None):
    """Generate the corpus, warm up, then iterate for ``seconds`` seconds.

    With ``trace`` set, every second iteration runs with the span wrappers
    installed, so traced and untraced iterations share the same conditions.
    ``deadline`` (a ``perf_counter`` value) stops new iterations from
    starting when the last one would overrun it.
    """
    wl = WORKLOADS[name]
    checks = Checks()
    rng = np.random.default_rng(seed)
    M = wl.corpus(rng, scale)
    path = os.path.join(workdir, "A.mtx")
    sha = corpus.write_mtx(path, M)
    file_bytes = os.path.getsize(path)
    info = {"A": {"m": M.m, "n": M.n, "nnz": M.nnz, "sha256": sha, "bytes": file_bytes}}
    checks.expect(corpus.same_csr(M, mmio.read_matrix_market(path)),
                  "A.mtx does not read back as the generated matrix")
    x = rng.standard_normal(M.n)

    def one(traced, k):
        return run_iteration(wl, path, x, k, checks, seed, scale, file_bytes, traced)

    one(False, 1)  # warm-up: caches, lazy imports, first-call costs
    recorder = SpanRecorder()
    iterations = []
    start = time.perf_counter()
    while True:
        traced = bool(trace) and len(iterations) % 2 == 1
        t0 = time.perf_counter()
        if traced:
            recorder.run = len(iterations)
            with recorder.installed(TRACE_TARGETS):
                iterations.append(one(True, wl.k))
        else:
            iterations.append(one(False, wl.k))
        now = time.perf_counter()
        enough = now - start >= seconds and (not trace or len(iterations) >= 2)
        if enough or (deadline is not None and now + (now - t0) > deadline):
            break
    if trace:
        recorder.require(wl.spans)
    return Run(wl, info, iterations, recorder, checks, _scipy_reference(M, x, wl.k, checks))


def end_to_end(r):
    """Medians over the untraced iterations."""
    its = [it for it in r.iterations if not it.traced]
    blocked = [sum((it.blocked_s[b] for it in its), []) for b in range(len(its[0].blocked_s))]
    spmv = [quantiles(t) for t in blocked]
    return {
        "pipeline_s": statistics.median(it.pipeline_s for it in its),
        "setup_s": statistics.median(it.setup_s for it in its),
        "spmv_s": sum(q[0] for q in spmv),
        "spmv_s.p90": sum(q[1] for q in spmv),
        "spmv_s.n": sum(q[2] for q in spmv),
        "wall": {key: statistics.median(it.wall[key] for it in its) for key in its[0].wall},
        "speed_factor": statistics.median(it.factor for it in its),
        "storage_ratio": statistics.median(it.counts["storage_ratio"] for it in its),
        "critical_point": statistics.median(it.critical_point for it in its),
        "csr_spmv_s": statistics.median(sum((it.csr_s for it in its), [])),
        "iterations": len(its),
    }


def _span_seconds(r):
    """(span, self seconds) pairs, scaled by the factor of each span's iteration."""
    spans = r.recorder.spans
    return [(s, r.iterations[s.run].factor * t / 1e9) for s, t in zip(spans, self_times(spans))]


def span_table(r):
    """Self time per span name, per call and per iteration total."""
    spans = r.recorder.spans
    calls, per_run = {}, {}
    for s, sec in _span_seconds(r):
        calls.setdefault(s.name, []).append(sec)
        per_run[(s.name, s.run)] = per_run.get((s.name, s.run), 0.0) + sec
    runs = sorted({s.run for s in spans})
    table = {}
    for name, ts in sorted(calls.items()):
        table[name] = {
            "per_call": quantiles(ts),
            "per_iteration": quantiles([per_run.get((name, run), 0.0) for run in runs]),
        }
    return table, runs


def per_layer(r):
    """Per-layer figures of the traced iterations."""
    table, runs = span_table(r)
    layer_total = {(layer, run): 0.0 for layer in LAYERS for run in runs}
    direct = {}  # kernel calls the pipeline makes itself, not calibration's
    for s, sec in _span_seconds(r):
        layer_total[(s.name.split(".")[0], s.run)] += sec
        if s.parent < 0 and s.name.startswith("kernels."):
            direct.setdefault(s.name, []).append(sec)

    def per_iter(name):
        return table[name]["per_iteration"][0]

    untraced = [it for it in r.iterations if not it.traced]
    traced = [it for it in r.iterations if it.traced]
    e2e = end_to_end(r)
    counts = {key: statistics.median(it.counts[key] for it in traced)
              for key in traced[0].counts}
    blocked_kernels = [n for n in direct if n != "kernels.spmv_csr"]
    out = {
        "mmio.read_matrix_market.self_s": per_iter("mmio.read_matrix_market"),
        "mmio.file_bytes": counts["file_bytes"],
        "sparse.build_csr.self_s": per_iter("sparse.build_csr"),
        "costs.evaluate.self_s": per_iter("costs.evaluate"),
        "costs.memory_bits.self_s": per_iter("costs.memory_bits"),
        "costs.blocks": counts["blocks"],
        "costs.values": counts["values"],
        "costs.fill_ratio": counts["fill_ratio"],
        "partition.dp_candidates": counts["dp_candidates"],
        "partition.row_parts": counts["row_parts"],
        "partition.col_parts": counts["col_parts"],
        "partition.objective": counts["objective"],
        "formats.explicit_zeros": counts["explicit_zeros"],
        "kernels.spmv_blocked.self_s": sum(statistics.median(direct[n]) for n in blocked_kernels),
        "kernels.spmv_csr.self_s": statistics.median(direct["kernels.spmv_csr"]),
        "kernels.madds": counts["madds"],
        "kernels.bytes_moved_computed": counts["bytes"],
        "kernels.gflops": 2 * counts["madds"] / e2e["spmv_s"] / 1e9,
        "kernels.speedup_vs_csr": len(blocked_kernels) * e2e["csr_spmv_s"] / e2e["spmv_s"],
        "calibrate.samples": counts["samples"],
        "calibrate.fit_max_rel_residual": counts["fit_max_rel_residual"],
        "calibrate.negative_coefficients": counts["negative_coefficients"],
        "calibrate.model_pred_ratio": counts["model_pred_ratio"],
        "trace.overhead_s": (statistics.median(it.pipeline_s for it in traced)
                             - statistics.median(it.pipeline_s for it in untraced)),
    }
    for layer in LAYERS[1:]:
        out[f"{layer}.self_s"] = statistics.median(layer_total[(layer, run)] for run in runs)
    return out
