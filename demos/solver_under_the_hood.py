#!/usr/bin/env python3
# The LP layer by itself: equality-form problems, duals, and an
# absolute-value objective priced on both sides of one column per variable.

import numpy as np

from kmetrics.lp import Simplex, StandardFormLP, solve

# min x + 2y  s.t.  x + y = 3, x - y = 1, x, y >= 0
lp = StandardFormLP(
    A=np.array([[1.0, 1.0], [1.0, -1.0]]),
    b=np.array([3.0, 1.0]),
    c=np.array([1.0, 2.0]),
)
res = solve(lp)
print("optimum:", res.objective, "at x =", res.x)
print("dual prices:", res.y)
print("strong duality gap:", abs(res.objective - res.y @ lp.b))

# |alpha| objectives: over x >= 0, write alpha = plus - minus with both
# halves priced; Simplex(A, c, c) prices one column on both sides of zero
target = np.array([1.0, -2.0, 1.0])
res2 = solve(StandardFormLP(
    A=np.hstack([np.eye(3), -np.eye(3)]),
    b=target,
    c=np.ones(6),
))
alpha = res2.x[:3] - res2.x[3:]
print("\nrecovered signed vector:", alpha)
print("1-norm cost:", res2.objective)
signed = Simplex(np.eye(3), np.ones(3), np.ones(3)).solve(target)
print("one column per entry:", signed.x, "cost", signed.objective)

# redundant rows are tolerated; their duals stay consistent
A3 = np.vstack([lp.A, lp.A.sum(axis=0)])
b3 = np.append(lp.b, lp.b.sum())
res3 = solve(StandardFormLP(A=A3, b=b3, c=lp.c))
print("\nwith a redundant row, optimum still", res3.objective)
print("certificate: duals reproduce the objective,",
      abs(res3.y @ b3 - res3.objective) < 1e-9)

# an infeasible right-hand side comes back as a status, not an exception
bad = solve(StandardFormLP(A=[[1.0, 1.0]], b=[-1.0], c=[1.0, 1.0]))
print("\nx + y = -1 with x, y >= 0:", bad.status)

# the dual simplex starts from y = 0, which needs c >= 0: a negative cost
# (here min -x on the ray x = y, which would be unbounded) is refused
try:
    solve(StandardFormLP(A=[[1.0, -1.0]], b=[0.0], c=[-1.0, 0.0]))
except ValueError as exc:
    print("min -x on the ray x = y:", exc)
