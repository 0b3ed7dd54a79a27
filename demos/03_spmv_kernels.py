#!/usr/bin/env python3
"""Blocked sparse matrix-vector multiply.

Converts a random matrix to both blocked formats, multiplies each with
the blocked kernel (``spmv_1dvbr`` is ``spmv_vbr``: 1D-VBR is VBR with a
trivial column partition), and shows that the blocked results match CSR
while the instrumented multiply-add count equals the stored value count.
"""
import numpy as np

from blockpart import (
    build_csr,
    overlap_partition,
    spmv_1dvbr,
    spmv_csr,
    spmv_vbr,
    stored_counts,
    to_1dvbr,
    to_vbr,
)

rng = np.random.default_rng(1)
m = n = 12
entries = [(i, j, float(rng.uniform(-1, 1))) for i in range(m) for j in range(n)
           if rng.random() < 0.3]
A = build_csr(m, n, entries)
x = rng.standard_normal(n)

rows = overlap_partition(A, 0.4, 3)
cols = overlap_partition(A, 0.4, 3)  # symmetric pattern here, reuse for columns
B = to_vbr(A, rows, cols)
D = to_1dvbr(A, rows)

y_csr = spmv_csr(A, x)

counter = {}
y_vbr = spmv_vbr(np.zeros(m), B, x, counter=counter)
print("VBR:   ", len(B.idx), "blocks,", counter["madds"], "multiply-adds")

counter = {}
y_1d = spmv_1dvbr(np.zeros(m), D, x, counter=counter)
blocks, values = stored_counts(D)
print("1D-VBR:", blocks, "blocks,", counter["madds"], "multiply-adds",
      "(equals stored values:", counter["madds"] == values, ")")

print("max |vbr - csr|:   ", np.abs(y_vbr - y_csr).max())
print("max |1dvbr - csr|: ", np.abs(y_1d - y_csr).max())

# The kernels accumulate in place, so a second multiply doubles y. It
# reuses the multiply plan the first one built and cached on D.
spmv_1dvbr(y_1d, D, x)
print("in-place accumulate doubles y:", np.allclose(y_1d, 2 * y_csr))
