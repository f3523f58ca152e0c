#!/usr/bin/env python3
# Shrink a 500-column Euclidean chain table with a Gaussian sketch, then
# re-norm it into p = 1 columns.  Distortion stays within the requested eps.

import numpy as np

from kmetrics import (
    ChainMatrix,
    NormSpec,
    embed_l2_to_lp,
    eval_coboundary_metric,
    jl_target_dim,
    l2_to_lp_dim,
    max_distortion,
    random_project,
)

rng = np.random.default_rng(7)
n, k, m = 12, 3, 500
F = ChainMatrix(n=n, k=k, data=rng.standard_normal((66, m)))
base = eval_coboundary_metric(F, NormSpec(2))
print(f"start: n={n}, k={k}, {m} columns, {len(base.values)} tuples")

eps = 0.5
target = jl_target_dim(n, k, eps)
print(f"eps={eps} asks for {target} columns")
for seed in (1, 2, 3):
    G = random_project(F, target, NormSpec(2), seed)
    dist = max_distortion(eval_coboundary_metric(G, NormSpec(2)), base)
    print(f"  seed {seed}: distortion {dist:.4f}")

# moving from the 2-norm to the 1-norm costs extra columns
for eps in (0.5, 0.3):
    cols = l2_to_lp_dim(m, 1, eps)
    H = embed_l2_to_lp(F, 1, eps, seed=4)
    d1 = eval_coboundary_metric(H, NormSpec(1))
    dist = max_distortion(d1, base)
    print(f"l2 -> l1 at eps={eps}: {cols} columns, distortion {dist:.4f}")
