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


@pytest.fixture(scope="module", params=[6, 8, 10])
def mesh(request):
    """(g, matrix, node partition) of the g x g mesh, built once per size
    for every test in this file; the matrix and partition are immutable."""
    g = request.param
    return (g, *mesh_csr(g, np.random.default_rng(g)))


@pytest.fixture(scope="module")
def rows_1d(mesh):
    """The 1-D DP's row partition of the mesh under 1D-VBR's storage model."""
    _, A, _ = mesh
    return optimal_partition(A, trivial_partition(A.n), model_memory_1dvbr(64, 64, 8), 8)


def test_strict_finds_the_nodes_on_both_axes(mesh):
    _, A, nodes = mesh
    assert strict_partition(A, 8) == nodes
    assert strict_partition(transpose(A), 8) == nodes


def test_node_blocks_are_the_coupled_pairs(mesh):
    # 9-point coupling on a g x g mesh: each axis contributes 3g - 2
    # (node, neighbour) pairs, itself included
    g, A, nodes = mesh
    assert block_count(A, nodes, nodes) == (3 * g - 2) ** 2
    assert value_count(A, nodes, nodes) == A.nnz


def test_1d_dp_stores_no_more_than_the_nodes(mesh, rows_1d):
    _, A, nodes = mesh
    cols = trivial_partition(A.n)
    model = model_memory_1dvbr(64, 64, 8)
    assert evaluate(model, A, rows_1d, cols) <= evaluate(model, A, nodes, cols)


def test_alternating_trace_never_rises(mesh):
    _, A, _ = mesh
    trace = []
    alternating_partition(A, model_memory_vbr(64, 64, 8, 8), 8, 8, rounds=5,
                          objective_trace=trace)
    assert len(trace) == 5
    assert all(b <= a for a, b in zip(trace, trace[1:]))


def test_every_container_multiplies_as_csr(mesh, rows_1d):
    # each y row equals spmv_csr's within 1e-12 of its sum of |terms|
    _, A, nodes = mesh
    rng = np.random.default_rng(0)
    rows_2d, cols_2d = alternating_partition(A, model_memory_vbr(64, 64, 8, 8), 8, 8)
    containers = [to_vbr(A, nodes, nodes), to_1dvbr(A, nodes), to_1dvbr(A, rows_1d),
                  to_vbr(A, rows_2d, cols_2d), to_1dvbr(A, trivial_partition(A.m))]
    x = rng.standard_normal(A.n)
    expect = spmv_csr(A, x)
    terms = spmv_csr(CsrMatrix(A.m, A.n, A.pos, A.idx, np.abs(A.val)), np.abs(x))
    for B in containers:
        assert np.all(np.abs(spmv_vbr(np.zeros(A.m), B, x) - expect) <= 1e-12 * terms)
