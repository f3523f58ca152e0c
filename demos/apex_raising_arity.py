#!/usr/bin/env python3
"""Raise a table's arity by one through a fresh apex point.

Tuples that use the apex inherit the old distances, tuples that avoid it
get zero.  The construction preserves the strong inequality in both
directions, so it turns an arity-3 separation into an arity-4 one.  On
chain columns the same lift commutes with evaluation.
"""

import math

import numpy as np

from kmetrics import (
    NormSpec,
    apex_extend,
    apex_extend_chain_matrix,
    check_strong,
    eval_coboundary_metric,
    frechet_embed,
)
from kmetrics.corpus import random_strong_metric, subdivided_triangle

base = random_strong_metric(5, 3, seed=3).payload
up = apex_extend(base)
print(f"strong 3-table on 5 points -> 4-table on {up.n} points, apex {up.n - 1}")
print(f"d(0,1,2) = {base.value((0, 1, 2)):.4f}"
      f"  becomes d(0,1,2,{up.n - 1}) = {up.value((0, 1, 2, up.n - 1)):.4f}")
print(f"apex-free tuple d(0,1,2,3) = {up.value((0, 1, 2, 3))}")
print("extension still strong:", check_strong(up).is_strong)

bad = apex_extend(subdivided_triangle().payload)
report = check_strong(bad)
w = report.strong_witness
print(f"\nsubdivided triangle lifted: strong = {report.is_strong},"
      f" witness {w.simplex} at cost {w.cost:.1f} vs value {w.value:.1f}")

# lifting the max-norm columns of the base table through the apex, then
# evaluating, gives the extended table
F = frechet_embed(base)
lifted = eval_coboundary_metric(apex_extend_chain_matrix(F), NormSpec(math.inf))
via_table = apex_extend(eval_coboundary_metric(F, NormSpec(math.inf)))
print(f"\n{F.m} columns on {F.n} points lifted to {up.n} points:"
      " lift-then-evaluate equals evaluate-then-extend:",
      np.array_equal(lifted.values, via_table.values))
