"""Reference implementations used to cross-check the library.

Most are written from scratch with different algorithms than the package
(heap Dijkstra instead of LP, vertex enumeration instead of simplex
pivoting, closure instead of verification) so that agreement is meaningful.
The per-tuple volume functions are not: they are the one-tuple-at-a-time
forms of the batched determinants in kmetrics.volume, which must match them
bit for bit, and the apex operators are the dense 0/1 matrices that
apex_extend_chain_matrix must agree with.
"""

from __future__ import annotations

import heapq
import json
from itertools import combinations
from math import comb, factorial

import numpy as np

import kmetrics.lp
from kmetrics import KMetric, enumerate_simplices, orientation_sign, simplex_index
from kmetrics.coboundary import ChainMatrix
from kmetrics.fileio import InputError
from kmetrics.metric import VALUE_TOL
from kmetrics.simplicial import Chain, WeightedComplex, validate_simplex
from kmetrics.volume import PointCloud


def dijkstra_all_pairs(n: int, edge_weights: dict) -> np.ndarray:
    """All-pairs shortest paths; edge_weights maps (u,v) with u<v to w > 0."""
    adj = {i: [] for i in range(n)}
    for (u, v), w in edge_weights.items():
        adj[u].append((v, w))
        adj[v].append((u, w))
    dist = np.full((n, n), np.inf)
    for s in range(n):
        dist[s, s] = 0.0
        pq = [(0.0, s)]
        done = set()
        while pq:
            du, u = heapq.heappop(pq)
            if u in done:
                continue
            done.add(u)
            for v, w in adj[u]:
                nd = du + w
                if nd < dist[s, v]:
                    dist[s, v] = nd
                    heapq.heappush(pq, (nd, v))
    return dist


def random_closure_2metric(n: int, rng) -> KMetric:
    """Random 2-metric satisfying the triangle inequality (path closure)."""
    raw = rng.uniform(0.2, 3.0, size=(n, n))
    dist = np.minimum(raw, raw.T)
    np.fill_diagonal(dist, 0.0)
    for m in range(n):  # Floyd-Warshall
        dist = np.minimum(dist, dist[:, m : m + 1] + dist[m : m + 1, :])
    values = np.array([dist[i, j] for i, j in combinations(range(n), 2)])
    return KMetric(n=n, k=2, values=values)


def lp_min_by_vertex_enumeration(A, b, c, tol=1e-9):
    """Brute-force LP minimum over basic feasible solutions.

    Only valid when the optimum is attained at a vertex (bounded objective,
    pointed feasible set, which x >= 0 guarantees).  Returns None when no
    basis is feasible.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    m, n = A.shape
    best = None
    for cols in combinations(range(n), m):
        B = A[:, cols]
        if abs(np.linalg.det(B)) < 1e-12:
            continue
        xb = np.linalg.solve(B, b)
        if (xb < -tol).any():
            continue
        val = float(c[list(cols)] @ xb)
        if best is None or val < best:
            best = val
    return best


def relabel_kmetric(d: KMetric, perm) -> KMetric:
    """Rename vertex i to perm[i]."""
    perm = list(perm)
    inv = [0] * d.n
    for i, p in enumerate(perm):
        inv[p] = i
    new_values = np.empty_like(d.values)
    for s in enumerate_simplices(d.n, d.k - 1):
        old = tuple(sorted(inv[v] for v in s))
        new_values[simplex_index(d.n, s)] = d.values[simplex_index(d.n, old)]
    return KMetric(n=d.n, k=d.k, values=new_values)


def relabel_chain_matrix(F: ChainMatrix, perm) -> ChainMatrix:
    """Rename vertices of every column chain, tracking orientation signs."""
    perm = list(perm)
    rows = F.data.shape[0]
    new_data = np.zeros_like(F.data)
    for s in enumerate_simplices(F.n, F.k - 2):
        image = tuple(perm[v] for v in s)
        sign = orientation_sign(image)
        new_data[simplex_index(F.n, tuple(sorted(image)))] = (
            sign * F.data[simplex_index(F.n, s)]
        )
    assert new_data.shape == (rows, F.m)
    return ChainMatrix(n=F.n, k=F.k, data=new_data)


def check_weak_loop(d: KMetric):
    """(violations, pseudo tuples) of the one-point replacement inequality.

    A dictionary from tuple to position and a loop over every (t, y, i):
    the sum over i of the value with t's i-th vertex swapped for y must not
    fall below value(t) (1 - VALUE_TOL).
    """
    simplices = enumerate_simplices(d.n, d.k - 1)
    index = {s: i for i, s in enumerate(simplices)}
    violations = []
    for t, value in zip(simplices, d.values):
        for y in range(d.n):
            if y in t:
                continue
            total = 0.0
            for i in range(d.k):
                total += d.values[index[tuple(sorted(t[:i] + t[i + 1 :] + (y,)))]]
            if total < value * (1.0 - VALUE_TOL):
                violations.append((t, y))
    pseudo = tuple(t for t, v in zip(simplices, d.values) if v == 0.0)
    return tuple(violations), pseudo


def boundary_matrix_reference(n: int, dim: int) -> np.ndarray:
    """Boundary of dim-chains with each face's row found by searching the face list."""
    faces = enumerate_simplices(n, dim - 1)
    simplices = enumerate_simplices(n, dim)
    mat = np.zeros((len(faces), len(simplices)), dtype=np.int64)
    for j, s in enumerate(simplices):
        for i in range(dim + 1):
            mat[faces.index(s[:i] + s[i + 1 :]), j] = (-1) ** i
    return mat


def cycle_space_dim_by_rank(n: int, dim: int) -> int:
    """Boundaryless dim-chains as the simplex count minus the SVD rank of the boundary."""
    if dim == 0:
        return n - 1
    rank = np.linalg.matrix_rank(boundary_matrix_reference(n, dim).astype(float), tol=1e-9)
    return comb(n, dim + 1) - int(rank)


def gram_volume_reference(points) -> float:
    """Volume via the QR factorization instead of the Gram determinant."""
    pts = np.asarray(points, dtype=float)
    k = pts.shape[0]
    diffs = (pts[1:] - pts[0]).T
    r = np.linalg.qr(diffs, mode="r")
    vol = abs(np.prod(np.diag(r)))
    for i in range(2, k):
        vol /= i
    return float(vol)


def signed_volume(points) -> float:
    """Oriented content of k points in dimension k-1: det of differences / (k-1)!."""
    arr = np.asarray(points, dtype=float)
    k = arr.shape[0]
    if arr.shape[1] != k - 1:
        raise ValueError(f"signed volume of {k} points needs ambient dimension {k - 1}")
    return float(np.linalg.det((arr[1:] - arr[0]).T) / factorial(k - 1))


def gram_volume(points) -> float:
    """Unsigned content of k points in any dimension: sqrt(det(A^T A)) / (k-1)!.

    A is the difference matrix; tiny negative determinants from round-off are clipped.
    """
    arr = np.asarray(points, dtype=float)
    A = (arr[1:] - arr[0]).T
    gram = float(np.linalg.det(A.T @ A))
    return float(np.sqrt(max(gram, 0.0)) / factorial(arr.shape[0] - 1))


def projected_volume_vector(points) -> np.ndarray:
    """Volumes of all axis-aligned projections to dimension k-1, in lex order.

    The Euclidean norm of this vector equals gram_volume(points) (Cauchy-Binet).
    """
    arr = np.asarray(points, dtype=float)
    k, m = arr.shape
    A = (arr[1:] - arr[0]).T
    out = np.empty(comb(m, k - 1))
    for j, axes in enumerate(combinations(range(m), k - 1)):
        out[j] = abs(np.linalg.det(A[list(axes), :])) / factorial(k - 1)
    return out


def min_max_side_bound_check(points):
    """(shortest side, 2 * area / longest side) of a triangle, with shortest >= bound checked.

    ArithmeticError is raised if the bound fails beyond round-off.
    """
    arr = np.asarray(points, dtype=float)
    sides = [float(np.linalg.norm(arr[a] - arr[b])) for a, b in ((0, 1), (0, 2), (1, 2))]
    shortest, longest = min(sides), max(sides)
    if longest == 0.0:
        return 0.0, 0.0
    bound = 2.0 * gram_volume(arr) / longest
    if shortest < bound - 1e-9:
        raise ArithmeticError(f"shortest side {shortest!r} is below the area bound {bound!r}")
    return shortest, bound


def project_operator(n: int, h: int) -> np.ndarray:
    """Drop the apex n: h-chains on n+1 vertices to (h-1)-chains on n, as an int64 matrix.

    An apex-carrying simplex maps to itself minus the apex with sign +1 (the
    apex is the largest vertex, so it sits last); apex-free simplices map to zero.
    """
    mat = np.zeros((comb(n, h), comb(n + 1, h + 1)), dtype=np.int64)
    for row, s in enumerate(enumerate_simplices(n, h - 1)):
        mat[row, simplex_index(n + 1, s + (n,))] = 1
    return mat


def lift_operator(n: int, h: int) -> np.ndarray:
    """Adjoint of project: (h-1)-chains on n vertices to h-chains on n+1, appending the apex."""
    return project_operator(n, h).T


def scaled_row_norms(rows: np.ndarray, p: float) -> np.ndarray:
    """p-norm of each row as max |x| * (sum (|x| / max)**p)**(1/p), finite for any finite p."""
    top = np.abs(rows).max(axis=1)
    return top * np.sum((np.abs(rows) / top[:, None]) ** p, axis=1) ** (1.0 / p)


def random_2hypertree_by_deletion(n: int, seed: int, weight_range: tuple = (0.5, 2.0)):
    """(facets, weights) of a random triangle hypertree by greedy deletion with SVD ranks.

    Triangles are visited in random order and removed whenever the remaining
    set still bounds every 1-cycle, with the SVD rank recomputed each time.
    """
    rng = np.random.default_rng(seed)
    full = boundary_matrix_reference(n, 2).astype(float)
    count = full.shape[1]
    cyc = comb(n - 1, 2)
    alive = np.ones(count, dtype=bool)
    for j in rng.permutation(count):
        if alive.sum() <= cyc:
            break
        alive[j] = False
        if np.linalg.matrix_rank(full[:, alive], tol=1e-9) < cyc:
            alive[j] = True  # deleting j breaks a cycle's filling
    simplices = enumerate_simplices(n, 2)
    facets = tuple(simplices[j] for j in np.nonzero(alive)[0])
    return facets, rng.uniform(*weight_range, size=len(facets))


def count_pivots(monkeypatch) -> list:
    """Count tableau pivots: the returned list gains one entry per pivot."""
    pivots = []
    pivot = kmetrics.lp._pivot
    monkeypatch.setattr(kmetrics.lp, "_pivot", lambda *a: pivots.append(1) or pivot(*a))
    return pivots


# --- whole-file reads -------------------------------------------------------


def json_load_read(path: str, kind: str):
    """Reference reader: json.load of the whole file, then every entry checked in turn.

    kind is kmetric, chain_matrix, complex, cloud, chain, or any (returns
    (kind, object) like fileio.read_any).  Errors are fileio's, in the same
    order: JSON, the object, its integers, the list, the first bad entry,
    then whole-list checks.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise InputError(path, f"cannot read file: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(path, f"not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(path, f"invalid JSON: {exc.msg}", line=exc.lineno) from exc
    if not isinstance(obj, dict):
        raise InputError(path, f"expected a JSON object, got {type(obj).__name__}")
    keys = {"values": "kmetric", "data": "chain_matrix", "facets": "complex", "points": "cloud"}
    if kind == "any":
        key = next((key for key in keys if key in obj), None)
        if key is None:
            raise InputError(path, "unrecognised payload: expected one of the fields "
                             + ", ".join(keys))
        return keys[key], json_load_read_object(obj, path, keys[key])
    return json_load_read_object(obj, path, kind)


def json_load_read_object(obj: dict, path: str, kind: str):
    def integer(key, minimum):
        if key not in obj:
            raise InputError(path, "missing required field", field=key)
        value = obj[key]
        if isinstance(value, bool) or not isinstance(value, int):
            raise InputError(path, f"expected an integer, got {value!r}", field=key)
        if value < minimum:
            raise InputError(path, f"must be at least {minimum}, got {value}", field=key)
        return value

    def items(key):
        if key not in obj:
            raise InputError(path, "missing required field", field=key)
        if not isinstance(obj[key], list):
            raise InputError(path, "expected a list", field=key)
        return obj[key]

    def number(value, field):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise InputError(path, f"expected a number, got {value!r}", field=field)
        try:
            return float(value)
        except OverflowError:
            raise InputError(path, "number too large for a float", field=field) from None

    def entries(name, key, n, k):
        simplices, numbers = [], []
        for pos, entry in enumerate(items(name)):
            field = f"{name}[{pos}]"
            if not isinstance(entry, dict) or "s" not in entry or key not in entry:
                raise InputError(path, f"expected an object with s and {key}", field=field)
            s = entry["s"]
            if not isinstance(s, list) or len(s) != k:
                raise InputError(path, f"expected a list of {k} vertices", field=field + ".s")
            try:
                simplices.append(validate_simplex(n, s))
            except ValueError as exc:
                raise InputError(path, str(exc), field=field + ".s") from None
            numbers.append(number(entry[key], f"{field}.{key}"))
        return simplices, np.array(numbers, dtype=float)

    def build(field, make):
        try:
            return make()
        except ValueError as exc:
            raise InputError(path, str(exc), field=field) from exc

    if kind == "kmetric":
        n, k = integer("n", 1), integer("k", 2)
        if n < k:
            raise InputError(path, f"need n >= k, got n={n}, k={k}", field="n")
        simplices, numbers = entries("values", "d", n, k)
        ranks = simplex_index(n, np.array(simplices, dtype=np.int64).reshape(-1, k))
        values = np.full(comb(n, k), np.nan)
        for pos, rank in enumerate(ranks.tolist()):
            if ranks[:pos].tolist().count(rank):
                raise InputError(path, f"duplicate entry for {simplices[pos]}",
                                 field=f"values[{pos}].s")
            values[rank] = numbers[pos]
        missing = np.flatnonzero(np.isnan(values))
        if missing.size:
            raise InputError(path, f"{missing.size} of {values.size} tuples missing, "
                             f"first {enumerate_simplices(n, k - 1)[missing[0]]}", field="values")
        return build("values", lambda: KMetric(n=n, k=k, values=values))
    if kind == "chain_matrix":
        n, k, m = integer("n", 1), integer("k", 2), integer("m", 1)
        data, rows = items("data"), comb(n, k - 1)
        if len(data) != rows * m:
            raise InputError(path, f"expected {rows} x {m} = {rows * m} numbers, got {len(data)}",
                             field="data")
        flat = np.array([number(v, f"data[{i}]") for i, v in enumerate(data)], dtype=float)
        return build("data", lambda: ChainMatrix(n=n, k=k, data=flat.reshape(rows, m)))
    if kind == "complex":
        n, k = integer("n", 1), integer("k", 2)
        facets, weights = entries("facets", "w", n, k)
        return build("facets", lambda: WeightedComplex(n=n, k=k, facets=tuple(facets),
                                                       weights=weights))
    if kind == "cloud":
        m = integer("m", 1)
        points = []
        for pos, row in enumerate(items("points")):
            if not isinstance(row, list) or len(row) != m:
                raise InputError(path, f"expected a list of {m} coordinates",
                                 field=f"points[{pos}]")
            points.extend(number(v, f"points[{pos}]") for v in row)
        count = len(points) // m
        return build("points", lambda: PointCloud(points=np.array(points).reshape(count, m)))
    n, dim = integer("n", 1), integer("dim", 0)
    coeffs = [number(v, f"coeffs[{i}]") for i, v in enumerate(items("coeffs"))]
    return build("coeffs", lambda: Chain(n=n, dim=dim, coeffs=np.array(coeffs, dtype=float)))
