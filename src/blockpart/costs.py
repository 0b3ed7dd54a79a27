"""Blocking cost models: block/entry counts, storage formulas, and the
generic separable partition cost.

A cost model scores a pair of contiguous partitions (rows, columns) as

    sum_k alpha_row[u_k] + sum_l alpha_col[w_l]
        + sum_k sum_{l in pattern(k)} sum_r beta_row[r][u_k] * beta_col[r][w_l]

where u_k and w_l are part heights/widths and pattern(k) is the set of
column parts holding a stored entry in row part k. The number of terms R
is the model's rank. Counting and storage costs are exact integers;
measured (fitted) costs are floats.
"""

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .sparse import _block_pattern, _check_widths, _dimension, trivial_partition

__all__ = [
    "CostModel",
    "block_count",
    "value_count",
    "vbr_memory_bits",
    "onedvbr_memory_bits",
    "evaluate",
    "model_block_count",
    "model_memory_1dvbr",
    "model_memory_vbr",
    "cost_model_to_csv",
    "cost_model_from_csv",
]


def _table(name, entries):
    """``entries`` with every integral one, numpy's included, as a Python
    int, so integer models stay exact, and every other as a finite float."""
    out = []
    for i, v in enumerate(entries):
        if isinstance(v, numbers.Integral):
            out.append(int(v))
        elif not isinstance(v, numbers.Real):
            raise ValueError(f"cost table entry {name}[{i}] = {v!r} is not a real number")
        elif not math.isfinite(v):
            raise ValueError(f"cost table entry {name}[{i}] = {v!r} is not finite")
        else:
            out.append(float(v))
    return tuple(out)


@dataclass(frozen=True)
class CostModel:
    """Rank-R separable partition cost.

    ``alpha_row[u - 1]`` is the per-part cost of a row part of height u,
    for u in 1..u_max; likewise ``alpha_col`` for column parts up to
    w_max. ``beta_row[r][u - 1]`` and ``beta_col[r][w - 1]`` are the
    factors whose products, summed over r, give the per-block cost.
    """

    alpha_row: tuple
    alpha_col: tuple
    beta_row: tuple
    beta_col: tuple

    def __post_init__(self):
        for name in ("alpha_row", "alpha_col"):
            object.__setattr__(self, name, _table(name, getattr(self, name)))
        for name in ("beta_row", "beta_col"):
            object.__setattr__(self, name, tuple(_table(f"{name}[{r}]", t)
                                                 for r, t in enumerate(getattr(self, name))))
        if not self.alpha_row or not self.alpha_col:
            raise ValueError("alpha tables must cover at least size 1")
        if len(self.beta_row) != len(self.beta_col) or not self.beta_row:
            raise ValueError("beta_row and beta_col must list the same rank >= 1")
        for t in self.beta_row:
            if len(t) != self.u_max:
                raise ValueError("beta_row tables must match alpha_row range")
        for t in self.beta_col:
            if len(t) != self.w_max:
                raise ValueError("beta_col tables must match alpha_col range")

    @property
    def rank(self):
        return len(self.beta_row)

    @property
    def u_max(self):
        return len(self.alpha_row)

    @property
    def w_max(self):
        return len(self.alpha_col)

    def _tables(self):
        return (self.alpha_row, self.alpha_col) + self.beta_row + self.beta_col

    @property
    def exact(self):
        """True when every table entry is an integer (exact argmin math)."""
        return all(isinstance(v, int) for t in self._tables() for v in t)

    def _price(self, u, w):
        """Cost of one nonzero u x w block."""
        return sum(br[u - 1] * bc[w - 1] for br, bc in zip(self.beta_row, self.beta_col))


def _check_sizes(part, limit, kind, dim):
    sizes = part.widths()
    over = np.nonzero(sizes > limit)[0]
    if len(over):
        k = int(over[0])
        raise ValueError(f"{kind} part {k} has {dim} {int(sizes[k])} > model range {limit}")


def _alpha_sum(alpha, part):
    """Sum of ``alpha[size - 1]`` over the parts of ``part``, by distinct size."""
    sizes, counts = np.unique(part.widths(), return_counts=True)
    return sum(alpha[s - 1] * c for s, c in zip(sizes.tolist(), counts.tolist()))


def _block_shapes(A, rows, cols):
    """(u, w, count) for each shape u x w among the nonzero blocks.

    Blocks are tallied in a table indexed by distinct part height and
    width, so only that table, never the block list, reaches Python.
    """
    k, l = _block_pattern(A, rows, cols)[:2]
    heights, height_class = np.unique(rows.widths(), return_inverse=True)
    widths, width_class = np.unique(cols.widths(), return_inverse=True)
    nw = len(widths)
    table = np.bincount(height_class[k] * nw + width_class[l], minlength=len(heights) * nw)
    cells = np.nonzero(table)[0]
    return zip(heights[cells // nw].tolist(), widths[cells % nw].tolist(), table[cells].tolist())


def _blocked_counts(A, rows, cols):
    """(number of nonzero blocks, number of stored block entries)."""
    n_index = n_value = 0
    for u, w, count in _block_shapes(A, rows, cols):
        n_index += count
        n_value += u * w * count
    return n_index, n_value


def block_count(A, rows, cols):
    """Number of nonzero blocks induced by the two partitions."""
    return _blocked_counts(A, rows, cols)[0]


def value_count(A, rows, cols):
    """Number of entries covered by all nonzero blocks (stored zeros included)."""
    return _blocked_counts(A, rows, cols)[1]


def vbr_memory_bits(A, rows, cols, s_index, s_value):
    """Bits used by the VBR representation of ``A`` under the partitions."""
    s_index, s_value = _check_widths(s_index, s_value)
    n_index, n_value = _blocked_counts(A, rows, cols)
    k = rows.num_parts
    l = cols.num_parts
    return (3 * (k + 1) + (l + 1) + n_index) * s_index + n_value * s_value


def onedvbr_memory_bits(A, rows, s_index, s_value):
    """Bits used by the 1D-VBR representation: VBR's on the trivial column
    partition, less the n + 1 column splits 1D-VBR does not store."""
    s_index, s_value = _check_widths(s_index, s_value)
    return vbr_memory_bits(A, rows, trivial_partition(A.n), s_index, s_value) - (A.n + 1) * s_index


def evaluate(model, A, rows, cols):
    """Exact cost of (rows, cols) under ``model``.

    Each block is priced by its shape, so the sum runs over the distinct
    part sizes and block shapes only. Integer tables produce an integer
    result; float tables a float. Part sizes beyond the model's table
    range are rejected.
    """
    _check_sizes(rows, model.u_max, "row", "height")
    _check_sizes(cols, model.w_max, "column", "width")
    total = _alpha_sum(model.alpha_row, rows) + _alpha_sum(model.alpha_col, cols)
    for u, w, count in _block_shapes(A, rows, cols):
        total += model._price(u, w) * count
    return total


def _table_sizes(u_max, w_max):
    """A model's table sizes as ints; each must be a positive whole number."""
    u_max, w_max = _dimension(u_max, "u_max"), _dimension(w_max, "w_max")
    if u_max < 1 or w_max < 1:
        raise ValueError("table sizes must be positive")
    return u_max, w_max


def model_block_count(u_max, w_max):
    """Rank-1 model whose value is exactly the nonzero block count."""
    u_max, w_max = _table_sizes(u_max, w_max)
    return CostModel(
        alpha_row=(0,) * u_max,
        alpha_col=(0,) * w_max,
        beta_row=((1,) * u_max,),
        beta_col=((1,) * w_max,),
    )


def model_memory_1dvbr(s_index, s_value, u_max):
    """Rank-2 model of 1D-VBR storage bits: the VBR model on width-1
    column parts, which 1D-VBR does not store, so they cost nothing.

    The value differs from the true bit count by the partition-independent
    constant 3*s_index, so minimizers coincide.
    """
    return replace(model_memory_vbr(s_index, s_value, u_max, 1), alpha_col=(0,))


def model_memory_vbr(s_index, s_value, u_max, w_max):
    """Rank-2 model of VBR storage bits (constant offset 4*s_index)."""
    u_max, w_max = _table_sizes(u_max, w_max)
    s_index, s_value = _check_widths(s_index, s_value)
    return CostModel(
        alpha_row=(3 * s_index,) * u_max,
        alpha_col=(s_index,) * w_max,
        beta_row=((1,) * u_max, tuple(u * s_value for u in range(1, u_max + 1))),
        beta_col=((s_index,) * w_max, tuple(range(1, w_max + 1))),
    )


def _render(v):
    # exact decimal text: ints stay ints, floats use shortest round-trip
    return repr(int(v)) if isinstance(v, int) else repr(float(v))


def _parse(tok):
    try:
        return int(tok)
    except ValueError:
        return float(tok)


def cost_model_to_csv(model):
    lines = [
        "alpha_row," + ",".join(_render(v) for v in model.alpha_row),
        "alpha_col," + ",".join(_render(v) for v in model.alpha_col),
    ]
    for r in range(model.rank):
        lines.append(f"beta_row r={r + 1}," + ",".join(_render(v) for v in model.beta_row[r]))
        lines.append(f"beta_col r={r + 1}," + ",".join(_render(v) for v in model.beta_col[r]))
    return "\n".join(lines) + "\n"


def cost_model_from_csv(text):
    """Parse ``cost_model_to_csv`` output: one ``alpha_row`` and one
    ``alpha_col`` line, and ``beta_row r=i`` and ``beta_col r=i`` lines for
    i = 1..R, each exactly once and in any order."""
    rows = {}
    for line in text.splitlines():
        if not line.strip():
            continue
        label, _, rest = line.partition(",")
        label = label.strip()
        if label in rows:
            raise ValueError(f"cost model CSV repeats {label!r}")
        rows[label] = tuple(_parse(t) for t in rest.split(","))
    rank = max(1, sum(label.startswith("beta_row") for label in rows))
    expected = ["alpha_row", "alpha_col"] + [
        f"beta_{side} r={r}" for r in range(1, rank + 1) for side in ("row", "col")]
    missing = [label for label in expected if label not in rows]
    unknown = sorted(rows.keys() - set(expected))
    if missing or unknown:
        raise ValueError("cost model CSV needs one alpha_row, alpha_col, beta_row r=i and "
                         "beta_col r=i line for i = 1..R: " + "; ".join(
                             [f"{label!r} is missing" for label in missing]
                             + [f"{label!r} is unknown" for label in unknown]))
    return CostModel(
        alpha_row=rows["alpha_row"],
        alpha_col=rows["alpha_col"],
        beta_row=tuple(rows[f"beta_row r={r}"] for r in range(1, rank + 1)),
        beta_col=tuple(rows[f"beta_col r={r}"] for r in range(1, rank + 1)),
    )
