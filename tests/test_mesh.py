"""Exact facts about blocking a mesh matrix with several unknowns per node
(``conftest.mesh_csr``), where every coupled pair of nodes is a dense
block, so the node partition is the natural blocking of both axes."""

import numpy as np
import pytest

from blockpart import (
    CsrMatrix,
    alternating_partition,
    block_count,
    evaluate,
    model_memory_1dvbr,
    model_memory_vbr,
    optimal_partition,
    spmv_csr,
    spmv_vbr,
    strict_partition,
    to_1dvbr,
    to_vbr,
    transpose,
    trivial_partition,
    value_count,
)

from conftest import mesh_csr

SIZES = pytest.mark.parametrize("g", [6, 8, 10])


def mesh(g):
    return mesh_csr(g, np.random.default_rng(g))


@SIZES
def test_strict_finds_the_nodes_on_both_axes(g):
    A, nodes = mesh(g)
    assert strict_partition(A, 8) == nodes
    assert strict_partition(transpose(A), 8) == nodes


@SIZES
def test_node_blocks_are_the_coupled_pairs(g):
    # 9-point coupling on a g x g mesh: each axis contributes 3g - 2
    # (node, neighbour) pairs, itself included
    A, nodes = mesh(g)
    assert block_count(A, nodes, nodes) == (3 * g - 2) ** 2
    assert value_count(A, nodes, nodes) == A.nnz


@SIZES
def test_1d_dp_stores_no_more_than_the_nodes(g):
    A, nodes = mesh(g)
    cols = trivial_partition(A.n)
    model = model_memory_1dvbr(64, 64, 8)
    rows = optimal_partition(A, cols, model, 8)
    assert evaluate(model, A, rows, cols) <= evaluate(model, A, nodes, cols)


@SIZES
def test_alternating_trace_never_rises(g):
    A, _ = mesh(g)
    trace = []
    alternating_partition(A, model_memory_vbr(64, 64, 8, 8), 8, 8, rounds=5,
                          objective_trace=trace)
    assert len(trace) == 5
    assert all(b <= a for a, b in zip(trace, trace[1:]))


@SIZES
def test_every_container_multiplies_as_csr(g):
    # each y row equals spmv_csr's within 1e-12 of its sum of |terms|
    A, nodes = mesh(g)
    rng = np.random.default_rng(0)
    cols = trivial_partition(A.n)
    rows_1d = optimal_partition(A, cols, model_memory_1dvbr(64, 64, 8), 8)
    rows_2d, cols_2d = alternating_partition(A, model_memory_vbr(64, 64, 8, 8), 8, 8)
    containers = [to_vbr(A, nodes, nodes), to_1dvbr(A, nodes), to_1dvbr(A, rows_1d),
                  to_vbr(A, rows_2d, cols_2d), to_1dvbr(A, trivial_partition(A.m))]
    x = rng.standard_normal(A.n)
    expect = spmv_csr(A, x)
    terms = spmv_csr(CsrMatrix(A.m, A.n, A.pos, A.idx, np.abs(A.val)), np.abs(x))
    for B in containers:
        assert np.all(np.abs(spmv_vbr(np.zeros(A.m), B, x) - expect) <= 1e-12 * terms)
