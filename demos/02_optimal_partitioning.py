#!/usr/bin/env python3
"""Optimal row partitioning under different cost models.

Runs the dynamic program against exhaustive search, then uses
the alternating scheme to block both axes of a matrix with two dense
blobs.
"""
import numpy as np

from blockpart import (
    alternating_partition,
    brute_force_partition,
    build_csr,
    evaluate,
    model_block_count,
    model_memory_1dvbr,
    model_memory_vbr,
    onedvbr_memory_bits,
    optimal_partition,
    overlap_partition,
    strict_partition,
    trivial_partition,
)

rng = np.random.default_rng(0)

# Identity: merging rows trades index savings against fill-in. At 1-bit
# indices and values, pairs win.
eye = build_csr(4, 4, [(i, i, 1.0) for i in range(4)])
model = model_memory_1dvbr(1, 1, 4)
best = optimal_partition(eye, trivial_partition(4), model, u_max=4)
print("identity 4x4, memory model: splits", best.spl.tolist(),
      "->", onedvbr_memory_bits(eye, best, 1, 1), "bits",
      "(trivial:", onedvbr_memory_bits(eye, trivial_partition(4), 1, 1), "bits)")

# The DP agrees with brute force on any model; try a noisy random matrix.
entries = [(i, j, 1.0) for i in range(8) for j in range(8) if rng.random() < 0.35]
A = build_csr(8, 8, entries)
cols = trivial_partition(8)
for name, m in [("block count", model_block_count(4, 1)),
                ("1D-VBR memory", model_memory_1dvbr(64, 64, 4))]:
    fast = optimal_partition(A, cols, m, 4)
    slow = brute_force_partition(A, cols, m, 4)
    print(f"{name}: DP objective {evaluate(m, A, fast, cols)}, "
          f"exhaustive {evaluate(m, A, slow, cols)}")

# Heuristics on the same matrix, for contrast.
print("strict:", strict_partition(A).spl.tolist())
print("overlap(0.5):", overlap_partition(A, 0.5, 4).spl.tolist())
print("optimal:", fast.spl.tolist())

# Two dense 2x2 blobs on the diagonal: alternating rows/cols/rows finds
# the natural 2x2 blocking of both axes.
blob = build_csr(4, 4, [(i, j, 1.0) for b in (0, 2) for i in (b, b + 1) for j in (b, b + 1)])
vbr_model = model_memory_vbr(64, 64, 2, 2)
trace = []
rows, cols = alternating_partition(blob, vbr_model, 2, 2, rounds=3, objective_trace=trace)
print("\nblock-diagonal blob: rows", rows.spl.tolist(), "cols", cols.spl.tolist())
print("objective per half-step (never increases):", trace)
