"""Row partitioners: optimal dynamic programming, an exhaustive oracle,
and the strict / overlap / alternating heuristics.

All partitioners take a matrix in CSR form and return a contiguous
Partition of its rows. Column partitions are produced by running a row
partitioner on the transpose.
"""

import math

import numpy as np

from .costs import _alpha_sum, _check_sizes, evaluate, CostModel
from .sparse import (
    _INT64_MAX, _block_pattern, _pair_keys, Partition, transpose, trivial_partition,
)

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


def optimal_partition(A, col_partition, model, u_max):
    """Row partition minimizing ``model`` under a fixed column partition.

    A candidate part [s, s + u) pays the price of a u x w_l block once for
    every column part l it touches. The P <= nnz distinct (row, column
    part) pairs come from the shared block pattern; pair (t, l), whose
    previous row holding part l is ``prev``, is the first occurrence of l
    in exactly the windows starting in (max(prev, t - u), t]. For each
    height u, ``np.bincount`` counts those bounds per row and width class
    (the end bound t + 1 is the same for every u, so it is counted once);
    the counts times each class's price and one prefix sum give every
    window cost of height u, in int64 or Python ints for an integer model
    and in float64 otherwise. A scalar backward pass then picks each
    row's best part, the shortest among equals. Finding the pairs sorts
    the stored entries and finding ``prev`` sorts the pairs, so with W <=
    w_max distinct column widths the bound is
    O(nnz log nnz + u_max * (m * W + P) + R * u_max * W + n) time and
    O(u_max * m + m * W + nnz + n) space.

    The per-column-part alpha term is a constant under a fixed column
    partition, so it is ignored here; ``evaluate`` includes it. The
    returned partition carries the minimum found, without that term, as
    ``cost``, from which ``alternating_partition`` reports its objective.
    """
    if u_max < 1:
        raise ValueError(f"u_max must be at least 1, got {u_max}")
    if u_max > model.u_max:
        raise ValueError(f"u_max {u_max} exceeds model table range {model.u_max}")
    _check_sizes(col_partition, model.w_max, "column", "width")

    m = A.m
    t, l, _ = _block_pattern(A, trivial_partition(m), col_partition)
    # reorder the pairs by column part, then row, so that each pair follows
    # the previous row holding its part; _block_pattern checked m * L fits
    key = np.sort(l * m + t)
    l, t = key // m, key % m
    prev = np.full(len(t), -1, dtype=np.int64)
    same = l[1:] == l[:-1]
    prev[1:][same] = t[:-1][same]

    widths, width_class = np.unique(col_partition.widths(), return_inverse=True)
    nw = len(widths)
    heights = range(1, min(u_max, m) + 1)
    prices = [[model._price(u, w) for w in widths.tolist()] for u in heights]
    dtype = np.float64
    if model.exact:
        bound = max(map(abs, model.alpha_row))
        bound += max(len(t), 1) * max((abs(p) for row in prices for p in row), default=0)
        dtype = np.int64 if bound <= _INT64_MAX else object
    # one bincount cell per (bound row, width class)
    end_key = (t + 1) * nw + width_class[l]
    ends = np.bincount(end_key, minlength=(m + 1) * nw).reshape(m + 1, nw)
    gap = (t - prev) * nw
    start_key = np.empty_like(end_key)
    window_cost = []
    for u in heights:
        np.subtract(end_key, np.minimum(gap, u * nw, out=start_key), out=start_key)
        starts = np.bincount(start_key, minlength=(m + 1) * nw).reshape(m + 1, nw)
        np.subtract(starts, ends, out=starts)
        diff = starts @ np.array(prices[u - 1], dtype=dtype)
        np.cumsum(diff, out=diff)
        diff += model.alpha_row[u - 1]
        window_cost.append(diff[:m - u + 1].tolist())

    best = [0] * (m + 1)
    next_split = [0] * (m + 1)
    for i in range(m - 1, -1, -1):
        best_i = math.inf
        end = i
        for cost in window_cost[:m - i]:
            end += 1
            total = cost[i] + best[end]
            if total < best_i:
                best_i = total
                next_split[i] = end
        if not next_split[i]:
            raise ValueError(f"no part starting at row {i} has a finite cost")
        best[i] = best_i
    splits = [0]
    while splits[-1] != m:
        splits.append(next_split[splits[-1]])
    return _Optimum(splits, best[0])


def brute_force_partition(A, col_partition, model, u_max):
    """Exhaustive minimizer over all contiguous row partitions.

    Test oracle only: enumeration is exponential, so matrices beyond 20
    rows are rejected. Ties go to the lexicographically smallest split
    sequence (candidates are generated in that order).
    """
    if A.m > 20:
        raise ValueError(f"brute force limited to 20 rows, got {A.m}")
    if u_max < 1:
        raise ValueError(f"u_max must be at least 1, got {u_max}")

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
    if u_max is not None and u_max < 1:
        raise ValueError(f"u_max must be at least 1, got {u_max}")
    m = A.m
    if m == 0:
        return Partition([0])
    pos = A.pos
    lens = np.diff(pos)
    # a row as long as the previous one reads back into it; any other row
    # reads elsewhere (negative indices wrap) and fails the length test
    mismatches = np.zeros(A.nnz + 1, dtype=np.int64)
    np.cumsum(A.idx != A.idx[np.arange(A.nnz) - np.repeat(lens, lens)], out=mismatches[1:])
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
    entries sorted by one (column, row) key, two entries j places apart
    in the same column with rows d < u_max apart add one to it, through
    one ``np.add.at`` per j. No such pair j places apart means none
    further apart, so the passes stop there, after J < u_max of them.
    The join test, evaluated in float64 for every (g, d), gives each
    possible leader its group's end, and the partition follows those ends
    from row 0. O(nnz log nnz + J * nnz + u_max * m) time and
    O(nnz + u_max * m) space; the overlap table takes the smallest
    unsigned type that holds the longest row's length, one byte per
    cell while no row holds more than 255 entries.
    """
    if not 0 < rho <= 1:
        raise ValueError(f"rho must be in (0, 1], got {rho}")
    if u_max < 1:
        raise ValueError(f"u_max must be at least 1, got {u_max}")
    m = A.m
    if m == 0:
        return Partition([0])
    u = min(u_max, m)
    lens = np.diff(A.pos)
    col, row = np.divmod(np.sort(_pair_keys(A.idx, A.entry_rows(), A.n, m)), m)
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
    end = end.tolist()
    splits = [0]
    while splits[-1] != m:
        splits.append(end[splits[-1]])
    return Partition(splits)


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
    transpose is built only when a column half-step runs.
    """
    if rounds < 1:
        raise ValueError(f"rounds must be at least 1, got {rounds}")
    if w_max > model.w_max or u_max > model.u_max:
        raise ValueError("u_max/w_max exceed the model's table ranges")
    At = transpose(A) if rounds > 1 else None
    swapped = _swap_axes(model)
    row_part = trivial_partition(A.m)
    col_part = trivial_partition(A.n)
    for step in range(rounds):
        if step % 2 == 0:
            row_part = optimal_partition(A, col_part, model, u_max)
            found, alpha, fixed = row_part, model.alpha_col, col_part
        else:
            col_part = optimal_partition(At, row_part, swapped, w_max)
            found, alpha, fixed = col_part, model.alpha_row, row_part
        if objective_trace is not None:
            # the DP's minimum leaves out the alpha term of the axis held fixed
            objective_trace.append(found.cost + _alpha_sum(alpha, fixed))
    return row_part, col_part
