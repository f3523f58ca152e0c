#!/usr/bin/env python3
"""Round-trip a strong table through max-norm chain columns.

Each column is the dual of one tuple's bounding-chain LP; evaluating the
stack at p = infinity gives the original distances back, and no single
column ever exceeds them.
"""

import math

import numpy as np

from kmetrics import NormSpec, eval_coboundary_metric, frechet_embed
from kmetrics.corpus import random_strong_metric
from kmetrics.simplicial import coboundary_operator

d = random_strong_metric(6, 3, seed=11).payload
print(f"random strong table: n={d.n}, k={d.k}, {len(d.values)} tuples")

F = frechet_embed(d)
print(f"embedding has {F.m} columns of {F.data.shape[0]} coefficients each")

back = eval_coboundary_metric(F, NormSpec(math.inf))
err = np.abs(back.values - d.values).max()
print(f"max-norm evaluation reproduces the table, max abs error {err:.2e}")

rows = coboundary_operator(d.n, d.k - 2).matrix @ F.data
slack = d.values[:, None] - np.abs(rows)
print(f"columns are non-expanding: min slack {slack.min():.2e}")

# every tuple has at least one column that is tight for it
tight = (np.abs(np.abs(rows) - d.values[:, None]) < 1e-9).any(axis=1)
print("each tuple attained by some column:", bool(tight.all()))

# column j is built for tuple j and meets its distance head-on
for j in range(3):
    print(f"column {j}: |value at its tuple| {abs(rows[j, j]):.4f}"
          f" vs target {d.values[j]:.4f}")
