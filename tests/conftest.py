import numpy as np
import pytest
from hypothesis import strategies as st

from blockpart import CostModel, Partition, build_csr

# The worked 8x9 example matrix: four distinct row-pattern clusters with
# two identical adjacent rows (4 and 5). 32 stored entries.
EXAMPLE_ROWS = [
    [2, 3, 4, 8],
    [0, 1, 3, 4, 5, 7],
    [0, 5],
    [0, 1, 3, 4, 5],
    [2, 7],
    [2, 7],
    [1, 4, 5, 6, 8],
    [0, 1, 4, 5, 6, 8],
]


@pytest.fixture
def example_matrix():
    entries = [(i, j, float(10 * i + j + 1)) for i, cols in enumerate(EXAMPLE_ROWS) for j in cols]
    return build_csr(8, 9, entries)


def random_csr(m, n, density, rng, value_range=(-1.0, 1.0)):
    entries = []
    for i in range(m):
        for j in range(n):
            if rng.random() < density:
                entries.append((i, j, float(rng.uniform(*value_range))))
    return build_csr(m, n, entries)


@st.composite
def patterned_csr(draw, max_rows=30, max_cols=10, m=None):
    """A CSR matrix of ``m`` rows, or up to ``max_rows``, whose rows are
    often empty or copies of the row above, so that runs of equal patterns
    form. Each stored value is distinct and nonzero."""
    if m is None:
        m = draw(st.integers(0, max_rows))
    n = draw(st.integers(1, max_cols))
    rows = []
    for _ in range(m):
        kind = draw(st.sampled_from(["copy", "empty", "fresh", "fresh"]))
        if kind == "copy" and rows:
            rows.append(rows[-1])
        elif kind == "empty":
            rows.append(set())
        else:
            rows.append(draw(st.sets(st.integers(0, n - 1), min_size=1)))
    return build_csr(m, n, [(i, j, float(i * n + j + 1))
                            for i, cols in enumerate(rows) for j in sorted(cols)])


def identity(n):
    """The n x n identity matrix."""
    return build_csr(n, n, [(i, i, 1.0) for i in range(n)])


def partitions_capped(r, cap):
    """Every partition of r rows into parts of at most ``cap`` rows."""
    def extend(splits):
        if splits[-1] == r:
            yield Partition(splits)
            return
        for u in range(1, min(cap, r - splits[-1]) + 1):
            yield from extend(splits + [splits[-1] + u])

    yield from extend([0])


def random_partition(r, max_width, rng):
    splits = [0]
    while splits[-1] < r:
        splits.append(min(r, splits[-1] + int(rng.integers(1, max_width + 1))))
    return Partition(splits)


def planted_model(u_max, w_max, rng, rank=3):
    return CostModel(
        alpha_row=tuple(float(rng.uniform(0.1, 1.0)) for _ in range(u_max)),
        alpha_col=tuple(float(rng.uniform(0.1, 1.0)) for _ in range(w_max)),
        beta_row=tuple(tuple(float(rng.uniform(0.1, 1.0)) for _ in range(u_max))
                       for _ in range(rank)),
        beta_col=tuple(tuple(float(rng.uniform(0.1, 1.0)) for _ in range(w_max))
                       for _ in range(rank)),
    )


def mesh_csr(g, rng):
    """A finite-element-like matrix on a g x g mesh with several unknowns
    per node, and the partition of its rows (and columns) by node.

    Nodes are numbered row by row, and each is coupled to the nodes of
    its 3 x 3 neighbourhood, itself included (9-point coupling). The
    nodes of the s-th of four vertical strips of mesh columns have
    (1, 2, 3, 6)[s] unknowns, numbered consecutively, and every coupled
    pair of nodes i, j gives a dense d_i x d_j block of values drawn from
    ``rng``. No two adjacent nodes share their neighbours once g >= 3.
    """
    dofs = np.tile([(1, 2, 3, 6)[4 * c // g] for c in range(g)], g)
    spl = np.concatenate(([0], np.cumsum(dofs)))
    cells = []
    for r in range(g):
        for c in range(g):
            i = r * g + c
            for j in [rr * g + cc for rr in range(max(r - 1, 0), min(r + 2, g))
                      for cc in range(max(c - 1, 0), min(c + 2, g))]:
                cells += [(a, b) for a in range(spl[i], spl[i + 1])
                          for b in range(spl[j], spl[j + 1])]
    m = int(spl[-1])
    vals = rng.uniform(-1.0, 1.0, size=len(cells))
    return build_csr(m, m, [(a, b, float(v)) for (a, b), v in zip(cells, vals)]), Partition(spl)
