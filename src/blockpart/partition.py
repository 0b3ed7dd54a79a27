"""Row partitioners: optimal dynamic programming, an exhaustive oracle,
and the strict / overlap / alternating heuristics.

All partitioners take a matrix in CSR form and return a contiguous
Partition of its rows. Column partitions are produced by running a row
partitioner on the transpose.
"""

import math

import numpy as np

from .costs import _check_sizes, evaluate, CostModel
from .sparse import _INT64_MAX, _block_pattern, Partition, transpose, trivial_partition

__all__ = [
    "optimal_partition",
    "brute_force_partition",
    "strict_partition",
    "overlap_partition",
    "alternating_partition",
]


def optimal_partition(A, col_partition, model, u_max):
    """Row partition minimizing ``model`` under a fixed column partition.

    A candidate part [s, s + u) pays the price of a u x w_l block once for
    every column part l it touches. The P <= nnz distinct (row, column
    part) pairs come from the shared block pattern; pair (t, l), whose
    previous row holding part l is ``prev``, is the first occurrence of l
    in exactly the windows starting in (max(prev, t - u), t], so one
    scatter-add of its price at those bounds and one prefix sum give every
    window cost of height u. A scalar backward pass then picks each row's
    best part, the shortest among equals. Finding the pairs sorts the
    stored entries and finding ``prev`` sorts the pairs, so the bound is
    O(nnz log nnz + u_max * (m + P) + R * u_max * w_max + n) time and
    O(u_max * m + nnz + n) space.

    The per-column-part alpha term is a constant under a fixed column
    partition, so it is ignored here; ``evaluate`` includes it.
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
    pair_class = width_class[l]
    heights = range(1, min(u_max, m) + 1)
    prices = [[model._price(u, w) for w in widths.tolist()] for u in heights]
    dtype = np.float64
    if model.exact:
        bound = max(map(abs, model.alpha_row))
        bound += max(len(t), 1) * max((abs(p) for row in prices for p in row), default=0)
        dtype = np.int64 if bound <= _INT64_MAX else object
    # the buffers are reused across heights: fresh arrays of this size
    # would cost a page fault per page on every height
    gap = t - prev
    after = t + 1
    start = np.empty_like(t)
    price = np.empty(len(t), dtype=dtype)
    diff = np.empty(m + 1, dtype=dtype)
    window_cost = []
    for u in heights:
        np.take(np.array(prices[u - 1], dtype=dtype), pair_class, out=price)
        np.subtract(after, np.minimum(gap, u, out=start), out=start)
        diff.fill(0)
        np.add.at(diff, start, price)
        np.subtract.at(diff, after, price)
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
    return Partition(splits)


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

    Patterns are compared by coiterating the rows' sorted index slices.
    The classic heuristic has no height cap; pass ``u_max`` to impose one.
    """
    splits = [0]
    if A.m == 0:
        return Partition(splits)
    run = 1
    for i in range(1, A.m):
        prev = A.row_cols(i - 1)
        cur = A.row_cols(i)
        same = len(prev) == len(cur) and bool((prev == cur).all())
        if same and (u_max is None or run < u_max):
            run += 1
        else:
            splits.append(i)
            run = 1
    splits.append(A.m)
    return Partition(splits)


def overlap_partition(A, rho, u_max):
    """Greedy top-to-bottom grouping of rows with overlapping patterns.

    Row i' joins the current group when the group is not full and
    ``|v_g & v_i'| >= rho * min(|v_g|, |v_i'|)``, where g is the group's
    first row. One length-n workspace stamps v_g with the leader's row
    number, so each stored index is read at most twice.
    """
    if not 0 < rho <= 1:
        raise ValueError(f"rho must be in (0, 1], got {rho}")
    if u_max < 1:
        raise ValueError(f"u_max must be at least 1, got {u_max}")
    if A.m == 0:
        return Partition([0])

    idx = A.idx.tolist()
    pos = A.pos.tolist()
    stamp = [-1] * A.n
    splits = [0]
    leader = 0
    for p in range(pos[0], pos[1]):
        stamp[idx[p]] = 0
    leader_len = pos[1] - pos[0]
    for i in range(1, A.m):
        lo, hi = pos[i], pos[i + 1]
        overlap = 0
        for p in range(lo, hi):
            if stamp[idx[p]] == leader:
                overlap += 1
        if i - leader == u_max or overlap < rho * min(leader_len, hi - lo):
            splits.append(i)
            leader = i
            leader_len = hi - lo
            for p in range(lo, hi):
                stamp[idx[p]] = i
    splits.append(A.m)
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
    Pass a list as ``objective_trace`` to record it after each half-step.
    """
    if rounds < 1:
        raise ValueError(f"rounds must be at least 1, got {rounds}")
    if w_max > model.w_max or u_max > model.u_max:
        raise ValueError("u_max/w_max exceed the model's table ranges")
    At = transpose(A)
    swapped = _swap_axes(model)
    row_part = trivial_partition(A.m)
    col_part = trivial_partition(A.n)
    for step in range(rounds):
        if step % 2 == 0:
            row_part = optimal_partition(A, col_part, model, u_max)
        else:
            col_part = optimal_partition(At, row_part, swapped, w_max)
        if objective_trace is not None:
            objective_trace.append(evaluate(model, A, row_part, col_part))
    return row_part, col_part
