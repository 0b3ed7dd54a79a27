"""Row partitioners: optimal dynamic programming, an exhaustive oracle,
and the strict / overlap / alternating heuristics.

All partitioners take a matrix in CSR form and return a contiguous
Partition of its rows. Column partitions are produced by running a row
partitioner on the transpose.
"""

import math

import numpy as np

from .costs import _alpha_sum, _check_sizes, evaluate, CostModel
from .sparse import (_INT64_MAX, _dimension, _offsets, _pair_keys, _row_pairs, _stable_order,
                     Partition, transpose, trivial_partition)

__all__ = [
    "optimal_partition",
    "brute_force_partition",
    "strict_partition",
    "overlap_partition",
    "alternating_partition",
]


class _Optimum(Partition):
    """A partition from ``optimal_partition`` with the DP's minimum as ``cost``.

    ``alternating_partition`` reads ``cost`` to report its objective
    without evaluating the pair again.
    """

    __slots__ = ("cost",)

    def __init__(self, spl, cost):
        super().__init__(spl)
        self.cost = cost


def optimal_partition(A, col_partition, model, u_max, *, _transposed=None):
    """Row partition minimizing ``model`` under a fixed column partition.

    A candidate part [s, s + u) pays the price of a u x w_l block once for
    every column part l it touches. Pair (t, l), whose previous row
    holding part l is ``prev``, is the first occurrence of l in the window
    [s, s + u) exactly when 0 <= t - s < min(u, t - prev). The P <= nnz
    distinct (row, column part) pairs come from ``sparse._row_pairs``,
    which reads them off CSR order with no sort, each row's as a slice.
    With U = min(u_max, m), one in-place sort of their distinct int64 keys
    l * B + t, B the least power of two at least m + U
    (``sparse._pair_keys`` checks that they fit), lists them by part, rows
    ascending within each, and the step between consecutive keys, clipped
    to U, is then g = min(t - prev, U); t, and l when there are several
    column widths, are read back from the sorted keys by a mask and a
    shift. One ``np.bincount`` of each pair's (g, t, width class) and a
    reverse cumulative sum over g give G[d, t], the pairs at row t that
    count in a window starting d rows up. The pairs of [s, s + u) are
    those of [s, s + u - 1) plus G[u - 1, s + u - 1], so a cumulative sum
    over d of the skewed view G[d, s + d] and one product with each
    height's class prices give every window cost in one (U, m) table:
    int64 or Python ints for an integer model, float64 otherwise.

    Under the trivial column partition the pairs are the stored entries
    and their sorted keys are the transpose's CSR order, l * B + t for
    row l of the transpose and its column t. ``alternating_partition``
    holds the transpose and passes it as the private ``_transposed`` to
    its first half-step, whose keys are then built from it, with no
    pattern and no sort: 0.30 against 1.61 ms on the blocks-2d benchmark
    matrix (114,082 entries; min of 7 x 20 calls, 2 vCPUs). ``_transposed``
    must be ``transpose(A)`` and ``col_partition`` trivial.

    The backward pass best[i] = min over u of cost(i, u) + best[i + u] is
    linear in the min-plus semiring, so it runs on chunks of L =
    max(ceil(sqrt(m)), U) rows joined by U x U min-plus products (Maleki,
    Musuvathi and Mytkowicz, "Parallelizing Dynamic Programming Through
    Rank Convergence", PPoPP 2014). (A) All chunks at once, in L steps:
    each chunk's map from the best of the U rows below it to the best of
    its first U rows. (B) The chunk edges from the bottom up, one product
    each. (C) All chunks at once, in L steps: each row's best and its first
    argmin, the shortest part among equals; the splits follow from row 0
    by pointer doubling (``_chain``). That is O(sqrt(m) + U + log m) numpy
    calls. Integer sums are exact: int64 is used only when every path sum,
    plus twice the "no part" sentinel, fits in it. With W <= w_max distinct
    column widths the bound is O(nnz + P log P + m * U * (U + W) + R * U *
    W + n) time and O(m * U * W + nnz + n) space. The m * U^2 min-plus
    terms are numpy's, where a scalar pass takes m * U Python steps, so
    past U of about 150 the scalar pass would be faster (on the 20000-row
    rowruns matrix, 4.2 against 1.5 s at u_max 256).

    The per-column-part alpha term is a constant under a fixed column
    partition, so it is ignored here; ``evaluate`` includes it. The
    returned partition carries the minimum found, without that term, as
    ``cost``, from which ``alternating_partition`` reports its objective.
    """
    u_max = _dimension(u_max, "u_max", 1)
    if u_max > model.u_max:
        raise ValueError(f"u_max {u_max} exceeds model table range {model.u_max}")
    _check_sizes(col_partition, model.w_max, "column", "width")

    m = A.m
    # the distinct (row t, column part l) pairs, listed by one sort of their
    # distinct keys l * B + t, B = 2**shift >= m + U: by part, rows
    # ascending within each. There the keys step by g = min(t - prev, U)
    # once clipped to U, prev being the previous row holding part l. At a
    # part's first row the step exceeds U, so g is U where prev = -1 would
    # give min(t + 1, U): the two differ only for windows that would start
    # above row 0.
    if _transposed is None:
        pos, l, _ = _row_pairs(A, col_partition)
        t = np.repeat(np.arange(m), np.diff(pos))
    else:  # trivial columns: the pairs are the entries, in key order in the transpose
        t, l = _transposed.idx, _transposed.entry_rows()
    if m == 0:
        return _Optimum([0], 0)
    U = min(u_max, m)
    span = m + U
    shift = (span - 1).bit_length()
    keys = _pair_keys(l, t, col_partition.num_parts, 1 << shift)
    if _transposed is None:
        keys.sort()
    g = np.full_like(keys, U)
    np.subtract(keys[1:], keys[:-1], out=g[1:])
    np.minimum(g, U, out=g)

    widths, width_class = np.unique(col_partition.widths(), return_inverse=True)
    nw = len(widths)
    alpha = model.alpha_row[:U]
    prices = [[model._price(u, w) for w in widths.tolist()] for u in range(1, U + 1)]
    if model.exact:
        # every price and every path sum lies in [-bound, bound]; a sum that
        # takes the sentinel ``none`` once or twice stays in (bound, 3 * none)
        bound = m * max(map(abs, alpha))
        bound += max(len(keys), 1) * max((abs(p) for row in prices for p in row), default=0)
        none, finite = 2 * bound + 1, bound + 1
        dtype = np.int64 if 3 * none <= _INT64_MAX else object
    else:
        none = finite = math.inf
        dtype = np.float64

    # G[d, t, c]: pairs at row t, width class c, whose part was last seen
    # more than d rows up, by a reverse cumulative sum over g of one
    # histogram; rows past m are empty, and U spare cells at the end let
    # the view whose row d starts d cells later read G[d, s + d]
    cell = (g - 1) * span + (keys & ((1 << shift) - 1))  # t: the key's low bits
    if nw > 1:
        cell = cell * nw + width_class[keys >> shift]
    G = np.bincount(cell, minlength=U * (span + 1) * nw)
    hist = G[:U * span * nw].reshape(U, span, nw)
    for d in range(U - 2, -1, -1):
        hist[d] += hist[d + 1]
    # counts[u - 1, s, c]: the pairs in class c of the window [s, s + u)
    counts = G.reshape(U, span + 1, nw)[:, :m].copy()
    for u in range(1, U):
        counts[u] += counts[u - 1]

    # chunks of L >= U rows keep the U x U maps of all chunks in O(m * U)
    L = max(math.isqrt(m - 1) + 1, U)
    C = -(-m // L)
    pad = C * L - m
    with np.errstate(over="ignore", invalid="ignore"):
        # cost[i, u - 1, c]: the window of height u from row i of chunk c;
        # the pad rows above row 0 that fill the top chunk cost nothing,
        # and nothing depends on them
        cost = np.zeros((U, C * L), dtype=dtype)
        window = cost[:, pad:]
        np.matmul(counts, np.array(prices, dtype=dtype)[:, :, None], out=window[:, :, None])
        window += np.array(alpha, dtype=dtype)[:, None]
        cost = np.ascontiguousarray(cost.reshape(U, C, L).transpose(2, 0, 1))

        # (A) far[i, c, j]: the cheapest path from row i of chunk c to row j
        # below its end; the U rows below are reached at no cost
        below = np.full((U, U), none, dtype=dtype)
        np.fill_diagonal(below, 0)
        far = np.empty((L + U, C, U), dtype=dtype)
        far[L:] = below[:, None]
        paths = np.empty((U, C, U), dtype=dtype)
        for i in range(L - 1, -1, -1):
            np.add(cost[i, :, :, None], far[i + 1:i + U + 1], out=paths)
            np.minimum.reduce(paths, axis=0, out=far[i])

        # (B) the best of the U rows below each chunk, from the bottom up,
        # starting from row m (cost 0) and the rows past it (none): a window
        # that runs past row m ends at one of those, so it is never taken
        best = np.empty((L + U, C), dtype=dtype)
        best[L:, C - 1] = below[0]
        for c in range(C - 1, 0, -1):
            np.minimum.reduce(far[:U, c] + best[L:, c], axis=1, out=best[L:, c - 1])

        # (C) each row's best and first argmin, all chunks at once
        step = np.empty((L, C), dtype=np.int64)
        total = np.empty((U, C), dtype=dtype)
        chunks = np.arange(C)
        for i in range(L - 1, -1, -1):
            np.add(cost[i], best[i + 1:i + U + 1], out=total)
            step[i] = k = total.argmin(axis=0)
            best[i] = total[k, chunks]

    best = best[:L].T.reshape(-1)[pad:]
    stuck = np.flatnonzero(~(best < finite))
    if len(stuck):
        raise ValueError(f"no part starting at row {stuck[-1]} has a finite cost")
    # row i's part ends at row i + step[i] + 1; the cost is a Python int or float
    step = step.T.reshape(-1)[pad:]
    return _Optimum(_chain(np.arange(1, m + 1) + step), best[:1].tolist()[0])


def brute_force_partition(A, col_partition, model, u_max):
    """Exhaustive minimizer over all contiguous row partitions.

    Test oracle only: enumeration is exponential, so matrices beyond 20
    rows are rejected. Ties go to the lexicographically smallest split
    sequence (candidates are generated in that order).
    """
    if A.m > 20:
        raise ValueError(f"brute force limited to 20 rows, got {A.m}")
    u_max = _dimension(u_max, "u_max", 1)

    m = A.m
    best_obj = None
    best_splits = None

    def extend(splits):
        nonlocal best_obj, best_splits
        i = splits[-1]
        if i == m:
            obj = evaluate(model, A, Partition(splits), col_partition)
            if best_obj is None or obj < best_obj:
                best_obj = obj
                best_splits = list(splits)
            return
        for u in range(1, min(u_max, m - i) + 1):
            splits.append(i + u)
            extend(splits)
            splits.pop()

    extend([0])
    return Partition(best_splits)


def strict_partition(A, u_max=None):
    """Group maximal runs of adjacent rows with identical column patterns.

    Row i repeats row i - 1 when both hold l entries and every stored
    index ``idx[p]`` of row i equals ``idx[p - l]``. One vectorized pass
    compares each entry with the entry its row's length before it, and a
    prefix count of the mismatches gives each row's verdict. The classic
    heuristic has no height cap; pass ``u_max`` to cut every run each
    ``u_max`` rows from its first row. O(nnz + m) time and space.
    """
    if u_max is not None:
        u_max = _dimension(u_max, "u_max", 1)
    m = A.m
    if m == 0:
        return Partition([0])
    pos = A.pos
    lens = np.diff(pos)
    # a row as long as the previous one reads back into it; any other row
    # reads elsewhere (negative indices wrap) and fails the length test
    mismatches = _offsets(A.idx != A.idx[np.arange(A.nnz) - np.repeat(lens, lens)])
    repeats = (lens[1:] == lens[:-1]) & (mismatches[pos[2:]] == mismatches[pos[1:-1]])
    starts = np.concatenate(([True], ~repeats))
    if u_max is not None:
        # cut each run every u_max rows, counted from the run's first row
        rows = np.arange(m)
        run_first = np.maximum.accumulate(np.where(starts, rows, 0))
        starts = (rows - run_first) % min(u_max, m) == 0
    return Partition(np.append(np.flatnonzero(starts), m))


def overlap_partition(A, rho, u_max):
    """Greedy top-to-bottom grouping of rows with overlapping patterns.

    Row i' joins the current group when the group is not full and v_i'
    is empty or ``|v_g & v_i'| >= max(rho * min(|v_g|, |v_i'|), 1)``, g
    being the group's first row. Only the lags d = i' - g < u_max matter,
    so every overlap |v_g & v_(g+d)| is counted up front: with the stored
    entries in column-major order, rows ascending within each column, from
    one stable radix sort by column (``sparse._stable_order``, D =
    ceil(log2(n) / 16) digits) of the CSR order, two entries j places apart
    in the same column with rows d < u_max apart add one to it, through
    one ``np.add.at`` per j. No such pair j places apart means none
    further apart, so the passes stop there, after J < u_max of them.
    The join test, evaluated in float64 for every (g, d), gives each
    possible leader its group's end, and the partition follows those ends
    from row 0 by pointer doubling (``_chain``). O(nnz * D + J * nnz +
    u_max * m + m log m) time and
    O(nnz + u_max * m) space; the overlap table takes the smallest
    unsigned type that holds the longest row's length, one byte per
    cell while no row holds more than 255 entries.
    """
    if not 0 < rho <= 1:
        raise ValueError(f"rho must be in (0, 1], got {rho}")
    u_max = _dimension(u_max, "u_max", 1)
    m = A.m
    if m == 0:
        return Partition([0])
    u = min(u_max, m)
    lens = np.diff(A.pos)
    order = _stable_order(A.idx, A.n)
    col, row = A.idx[order], A.entry_rows()[order]
    # shared[d * m + g] = |v_g & v_(g+d)|, never more than the longest row
    shared = np.zeros(u * m, dtype=np.min_scalar_type(int(lens.max())))
    one = shared.dtype.type(1)
    for j in range(1, u):
        lag = row[j:] - row[:-j]
        hit = np.flatnonzero((col[j:] == col[:-j]) & (lag < u))
        if not len(hit):
            break
        # a 1 of the table's own type keeps np.add.at on its fast path
        np.add.at(shared, lag[hit] * m + row[hit], one)
    shared = shared.reshape(u, m)

    # end[g]: the first row to fail leader g's test, else g + u_max;
    # larger lags go first so that the smallest failing lag is kept
    end = np.minimum(np.arange(m) + u, m)
    for d in range(u - 1, 0, -1):
        cur = lens[d:]
        need = np.maximum(rho * np.minimum(lens[:m - d], cur), 1)
        fails = (cur > 0) & (shared[d, :m - d] < need)
        end[:m - d][fails] = np.flatnonzero(fails) + d
    return Partition(_chain(end))


def _chain(nxt):
    """The split points 0, nxt[0], nxt[nxt[0]], ... up to m = len(nxt),
    where every nxt[i] lies in (i, m].

    Pointer doubling: after p passes ``points`` holds the chain's first
    2**p points and ``jump`` leads 2**p links on, so the next 2**p points
    are ``jump[points]``, in order and past the last one. About log2 of the
    chain's length O(m) passes replace a Python loop over its links.
    ``jump[m]`` is m, so the points past the chain's end repeat m and are
    cut off.
    """
    m = len(nxt)
    jump = np.append(nxt, m)
    points = np.zeros(1, dtype=np.int64)
    while points[-1] != m:
        points = np.concatenate((points, jump[points]))
        jump = jump[jump]
    return points[:np.searchsorted(points, m) + 1]


def _swap_axes(model):
    return CostModel(
        alpha_row=model.alpha_col,
        alpha_col=model.alpha_row,
        beta_row=model.beta_col,
        beta_col=model.beta_row,
    )


def alternating_partition(A, model, u_max, w_max, rounds=3, objective_trace=None):
    """Alternate optimal row and column partitioning for the 2D problem.

    Starts from the trivial column partition and runs ``rounds``
    half-steps, rows first (the default 3 gives rows, columns, rows).
    Each half-step is globally optimal with the other axis held fixed and
    the incumbent is always feasible, so the objective never increases.
    Pass a list as ``objective_trace`` to record it after each half-step:
    the DP's minimum plus the alpha sum of the axis held fixed, which is
    ``evaluate`` of the pair (exactly so for an integer model). The
    transpose is built only when a column half-step runs, and the first
    half-step, a row DP under the trivial column partition, then takes its
    sorted pairs from the transpose's CSR order (see ``optimal_partition``).
    """
    rounds = _dimension(rounds, "rounds", 1)
    u_max, w_max = _dimension(u_max, "u_max", 1), _dimension(w_max, "w_max", 1)
    if w_max > model.w_max or u_max > model.u_max:
        raise ValueError("u_max/w_max exceed the model's table ranges")
    At = transpose(A) if rounds > 1 else None
    swapped = _swap_axes(model)
    row_part = trivial_partition(A.m)
    col_part = trivial_partition(A.n)
    for step in range(rounds):
        if step % 2 == 0:
            row_part = optimal_partition(A, col_part, model, u_max,
                                         _transposed=At if step == 0 else None)
            found, alpha, fixed = row_part, model.alpha_col, col_part
        else:
            col_part = optimal_partition(At, row_part, swapped, w_max)
            found, alpha, fixed = col_part, model.alpha_row, row_part
        if objective_trace is not None:
            # the DP's minimum leaves out the alpha term of the axis held fixed
            objective_trace.append(found.cost + _alpha_sum(alpha, fixed))
    return row_part, col_part
