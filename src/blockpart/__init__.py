"""Sparse matrix blocking toolkit.

Variable-block-row (VBR) and single-axis (1D-VBR) blocked sparse formats,
an optimal contiguous row partitioner under separable rank-R
cost models, the strict/overlap/alternating heuristics, blocked SpMV
kernels, empirical cost-model calibration, and executable fixtures for
the max-cut hardness gadgets.
"""

from .sparse import (
    CsrMatrix,
    Partition,
    build_csr,
    transpose,
    row_pattern,
    csr_memory_bits,
    trivial_partition,
)
from .costs import (
    CostModel,
    block_count,
    value_count,
    vbr_memory_bits,
    onedvbr_memory_bits,
    evaluate,
    model_block_count,
    model_memory_1dvbr,
    model_memory_vbr,
    cost_model_to_csv,
    cost_model_from_csv,
)
from .partition import (
    optimal_partition,
    brute_force_partition,
    strict_partition,
    overlap_partition,
    alternating_partition,
)
from .formats import (
    VbrMatrix,
    OneDVbrMatrix,
    to_vbr,
    to_1dvbr,
    vbr_get,
    onedvbr_get,
    stored_counts,
    serialize_vbr,
    serialize_1dvbr,
)
from .kernels import spmv_csr, spmv_vbr, spmv_1dvbr
from .calibrate import (
    TimingSample,
    synth_block_matrix,
    run_calibration,
    fit_cost_model,
    critical_point,
    jacobi_svd,
    time_min,
)
from .gadgets import (
    GadgetParams,
    build_gadget,
    gadget_case_cost,
    build_mini_pair,
    build_count_gadget,
    build_reduction_matrix,
    symmetric_embed,
)
from .mmio import read_matrix_market, write_matrix_market
from .bench import BenchReport, run_sweep, performance_profile

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
