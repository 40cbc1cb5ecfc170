#!/usr/bin/env python3
"""Trace one forward pass stage by stage, then verify the hand-derived
gradients against central finite differences.

The forward pipeline: optional relu pre-layer, K rounds of degree-normalized
message passing with skip connections, mean readout, softmax head. The
backward pass is written by hand, so the finite-difference check is the
ground truth for its correctness.
"""

import numpy as np

from cogcn import (ModelConfig, build_cosine_graph, forward_arrays, init_params,
                   norm_coefficients)
from cogcn.gradcheck import run_gradcheck

rng = np.random.default_rng(0)

config = ModelConfig(in_dim=6, hidden_dim=8, num_layers=2, num_classes=4,
                     dropout=0.1, dtype="float64")
params = init_params(config, seed=0)

x = rng.standard_normal((5, 6))
graph = build_cosine_graph(x, gamma=0.4)
print(f"graph: {graph.n_nodes} nodes, {len(graph.edges())} edges")

# one graph runs as a group of one: x[None] and coeffs[None], results at [0]
coeffs = norm_coefficients(graph, include_self=config.self_in_aggregation)
logits, probs, cache = forward_arrays(params, config, x[None], coeffs[None], mode="eval")
probs = probs[0]
print("\nstage shapes:")
print("  h0 (pre-layer)   ", cache.hs[0][0].shape)
for k in range(config.num_layers):
    print(f"  h{k + 1} (mp layer {k}, skip={cache.skips[k]})", cache.hs[k + 1][0].shape)
print("  readout          ", cache.h_dropped[0].shape)
print("  probs            ", np.round(probs, 4), "sum", probs.sum())

# Permutation invariance: shuffling node order leaves the prediction alone.
perm = rng.permutation(graph.n_nodes)
coeffs_perm = norm_coefficients(build_cosine_graph(x[perm], 0.4),
                                include_self=config.self_in_aggregation)
_, probs_perm, _ = forward_arrays(params, config, x[perm][None], coeffs_perm[None],
                                  mode="eval")
probs_perm = probs_perm[0]
print("\nmax prob change under node permutation:",
      f"{np.max(np.abs(probs - probs_perm)):.2e}")

# The finite-difference oracle perturbs every parameter entry and differences
# the loss; it never consults the analytic backward pass.
report = run_gradcheck(n_instances=20, seed=1)
print(f"\ngradcheck over {report.n_instances} random instances "
      f"(both graph kinds, skip/pre on and off):")
print(f"  max relative error {report.max_rel_error:.3e}  "
      f"(tolerance 1e-4) -> {'OK' if report.passed() else 'FAILED'}")
