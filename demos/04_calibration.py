#!/usr/bin/env python3
"""Empirical cost model calibration.

Times synthetic block-grid matrices (here with real, if small, kernels),
fits the per-part and per-block coefficients, and reads off when a
partitioned multiply amortizes its setup cost.
"""
from statistics import median

from blockpart import critical_point, fit_cost_model, synth_block_matrix, cost_model_to_csv
from blockpart.calibrate import run_calibration, _sample_design

# A synthetic grid of 2x3 blocks for inspection.
A, rows, cols = synth_block_matrix(2, 3, blocks_per_row=4, min_bytes=4096, seed=7)
print("synthetic grid:", A, "| block rows:", rows.num_parts, "| block cols:", cols.num_parts)

# Measure a small design (u, w <= 3) with quick settings. These runs are
# far below cache size and only a few trials deep, so expect the fit to
# carry tens of percent of noise; production calibration sizes each
# problem past the L2 cache and takes the minimum of many trials.
samples = run_calibration(u_max=3, w_max=3, blocks_per_row=4, min_bytes=8192,
                          trials=5, seed=0)
print(f"collected {len(samples)} timing samples "
      f"({3 * 3} block sizes x 4 shape variants)")

model = fit_cost_model(samples, rank=3)
# The fit also prices a fixed cost per multiply call. The returned model
# leaves it out, as it is the same for every partition, so each sample's
# time minus the model's prediction estimates that constant.
gaps = []
for s in samples:
    k, l, blocks = _sample_design(s)
    pred = (k * model.alpha_row[s.u - 1] + l * model.alpha_col[s.w - 1]
            + blocks * sum(model.beta_row[r][s.u - 1] * model.beta_col[r][s.w - 1]
                           for r in range(model.rank)))
    gaps.append((s.seconds, s.seconds - pred))
call_cost = median(gap for _, gap in gaps)
worst = max(abs(gap - call_cost) / t for t, gap in gaps)
print(f"fixed cost per multiply call, left out of the model: {call_cost * 1e6:.0f} us")
print(f"rank-3 fit plus that cost, worst relative error at these quick settings: {worst:.0%}")
print("\nfitted model as CSV:")
print(cost_model_to_csv(model))

# Amortization: with 2 ms of setup and a 0.1 ms/multiply saving, the
# partitioned format pays off after 20 multiplies.
M = critical_point(t_partition=1.5e-3, t_convert=0.5e-3,
                   t_blocked_multiply=0.4e-3, t_csr_multiply=0.5e-3)
print(f"critical point example: {M:.0f} multiplies")
print("no speedup -> infinite:", critical_point(1e-3, 1e-3, 2e-3, 1e-3))
