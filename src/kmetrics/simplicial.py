"""Simplices of a complete complex, chains, and boundary/coboundary operators.

Vertices are integers 0..n-1.  A simplex of dimension d is stored canonically
as a strictly increasing tuple of d+1 vertices, and the simplices of one
dimension are ordered lexicographically, as simplex_rows lists them and
simplex_at picks one.  face_ranks states the incidence once, for given rows:
coboundary_rows gathers over it, boundary_rows scatters over it, and
boundary_block builds every dense boundary from it; its docstring shows why
the rows of the faces that miss vertex 0 decide every boundary.

simplex_index alone maps a canonical s_1 < ... < s_k to its position, the
combinadic rank C(n, k) - 1 - sum_{j=1..k} C(n - 1 - s_j, k + 1 - j): the
mirror v -> n - 1 - v turns lexicographic order into reversed colex order, in
which c_1 > ... > c_k has rank sum_j C(c_j, k + 1 - j) (Knuth, TAOCP 4A §7.2.1.3).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import Sequence

import numpy as np

# Hard cap on the number of simplices materialised per dimension; the dense
# matrices are quadratic in this count.
MAX_SIMPLICES = 2_000_000
# Bytes one dense build may peak at; _check_bytes alone reads it.
MAX_LP_BYTES = 1 << 30

SimplexKey = tuple  # strictly increasing tuple of vertex indices


def _check_bytes(what: str, needed: int) -> None:
    """Refuse, with ValueError, a dense build whose peak bytes exceed MAX_LP_BYTES.

    Each builder computes its own peak and calls this before it allocates.
    """
    if needed > MAX_LP_BYTES:
        raise ValueError(f"{what} needs {needed:.3g} bytes, budget {MAX_LP_BYTES}")


def _check_counts(n: int, dim: int) -> int:
    if n < 1:
        raise ValueError(f"need at least one vertex, got n={n}")
    if dim < 0 or dim >= n:
        raise ValueError(f"dimension {dim} out of range for n={n}")
    count = comb(n, dim + 1)
    if count > MAX_SIMPLICES:
        raise ValueError(
            f"refusing to enumerate {count} simplices (n={n}, dim={dim}); "
            f"limit is {MAX_SIMPLICES}"
        )
    return count


def simplex_rows(n: int, dim: int) -> np.ndarray:
    """All dim-simplices on n vertices as the rows of an int64 array, in canonical order."""
    count = _check_counts(n, dim)
    flat = itertools.chain.from_iterable(itertools.combinations(range(n), dim + 1))
    return np.fromiter(flat, np.int64, count * (dim + 1)).reshape(count, dim + 1)


def simplex_at(n: int, dim: int, rank: int) -> SimplexKey:
    """The dim-simplex at position rank in canonical order, without building the others."""
    if not 0 <= rank < _check_counts(n, dim):
        raise ValueError(f"position {rank} out of range for dim={dim}, n={n}")
    return next(itertools.islice(itertools.combinations(range(n), dim + 1), int(rank), None))


@lru_cache(maxsize=None)
def enumerate_simplices(n: int, dim: int) -> tuple:
    """The rows of simplex_rows as cached tuples: a public view the library does not use."""
    _check_counts(n, dim)
    return tuple(itertools.combinations(range(n), dim + 1))


def simplex_index(n: int, verts: Sequence[int] | np.ndarray) -> int | np.ndarray:
    """Position of a canonical simplex in the lexicographic order.

    verts is one tuple of k vertices, or an (m, k) integer array of rows, for
    which an array of m positions is returned.  Anything but a strictly
    increasing run of integer vertices in 0..n-1 raises ValueError.
    """
    if not (isinstance(verts, np.ndarray) and verts.ndim == 2):
        return int(simplex_index(n, np.array([validate_simplex(n, verts)]))[0])
    m, k = verts.shape
    if verts.dtype.kind not in "iu":
        raise ValueError(f"vertices must be integers, got an array of {verts.dtype}")
    count = _check_counts(n, k - 1)  # every binomial below is at most count
    bad = (verts[:, 1:] <= verts[:, :-1]).any(axis=1) | (verts[:, 0] < 0) | (verts[:, -1] >= n)
    if bad.any():
        raise ValueError(f"{tuple(verts[bad][0].tolist())} is not canonical on {n} vertices")
    rank = np.full(m, count - 1, dtype=np.int64)
    for j in range(k):
        # column j holds vertices >= j, so n - 1 - s_j < n - j
        binomials = np.array([comb(c, k - j) for c in range(n - j)], dtype=np.int64)
        rank -= binomials[n - 1 - verts[:, j]]
    return rank


def validate_simplex(n: int, verts: Sequence[int]) -> SimplexKey:
    """Check integer vertices, strict monotonicity and range; return the tuple."""
    key = tuple(verts)
    if not key:
        raise ValueError("empty simplex")
    for v in key:
        if type(v) is not int and not isinstance(v, np.integer):  # bool is refused too
            raise ValueError(f"vertices must be integers, got {key}")
    key = tuple(map(int, key))
    if key != tuple(sorted(set(key))):
        raise ValueError(f"vertices must be strictly increasing, got {key}")
    if key[0] < 0 or key[-1] >= n:
        raise ValueError(f"vertex out of range 0..{n - 1}: {key}")
    return key


def orientation_sign(sequence: Sequence[int]) -> int:
    """Sign of the permutation sorting the sequence; repeats are rejected.

    +1 when an even number of vertex pairs are out of order (inversions), -1 for odd.
    """
    seq = list(sequence)
    if len(set(seq)) != len(seq):
        raise ValueError(f"repeated vertex in {tuple(sequence)}")
    return -1 if sum(a > b for a, b in itertools.combinations(seq, 2)) % 2 else 1


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class Chain:
    """A formal linear combination of the dim-simplices on n vertices."""

    n: int
    dim: int
    coeffs: np.ndarray

    def __post_init__(self):
        count = _check_counts(self.n, self.dim)
        arr = np.array(self.coeffs, dtype=float).reshape(-1)
        if arr.shape != (count,):
            raise ValueError(
                f"expected {count} coefficients for dim={self.dim}, n={self.n}, "
                f"got {arr.shape}"
            )
        if not np.isfinite(arr).all():
            raise ValueError("chain coefficients must be finite")
        object.__setattr__(self, "coeffs", _freeze(arr))

    def support(self) -> list:
        return [tuple(s) for s in simplex_rows(self.n, self.dim)[self.coeffs != 0].tolist()]

    def norm1(self) -> float:
        return float(np.sum(np.abs(self.coeffs)))


def zero_chain(n: int, dim: int) -> Chain:
    return Chain(n=n, dim=dim, coeffs=np.zeros(comb(n, dim + 1)))


def indicator_chain(n: int, sequence: Sequence[int]) -> Chain:
    """Chain carrying 1 on the oriented simplex given by `sequence`.

    The sequence may be unsorted; its permutation parity becomes the sign of
    the coefficient on the canonical simplex.
    """
    return chain_from_dict(n, len(sequence) - 1, {tuple(sequence): 1.0})


def chain_from_dict(n: int, dim: int, entries: dict) -> Chain:
    """Chain from {ordered vertex tuple: coefficient}; orientations accumulate."""
    coeffs = np.zeros(comb(n, dim + 1))
    for sequence, value in entries.items():
        sign = orientation_sign(sequence)
        if len(sequence) != dim + 1:
            raise ValueError(f"{sequence} does not have dimension {dim}")
        key = validate_simplex(n, sorted(sequence))
        coeffs[simplex_index(n, key)] += sign * value
    return Chain(n=n, dim=dim, coeffs=coeffs)


@dataclass(frozen=True, eq=False)
class LinearChainOperator:
    """Dense linear map from src_dim-chains to dst_dim-chains, both on n vertices."""

    n: int
    src_dim: int
    dst_dim: int
    matrix: np.ndarray

    def __post_init__(self):
        rows = _check_counts(self.n, self.dst_dim)
        cols = _check_counts(self.n, self.src_dim)
        arr = np.asarray(self.matrix)
        if arr.shape != (rows, cols):
            raise ValueError(
                f"operator shape {arr.shape} does not match ({rows}, {cols})"
            )
        object.__setattr__(self, "matrix", _freeze(np.array(arr)))


def face_ranks(n: int, rows: np.ndarray) -> np.ndarray:
    """Face positions of each given canonical row (a column): row i drops vertex i, sign (-1)**i."""
    if rows.shape[1] < 2:
        raise ValueError(f"boundary is defined for dimension >= 1, got {rows.shape[1] - 1}")
    return np.stack([simplex_index(n, np.delete(rows, i, 1)) for i in range(rows.shape[1])])


def coboundary_rows(faces: np.ndarray, X: np.ndarray) -> np.ndarray:
    """sum_i (-1)**i X[faces[i]]: coboundary of X (a value or row per face) at each column."""
    out = X[faces[0]].astype(float, copy=False)
    for i, face in enumerate(faces[1:], 1):
        (np.subtract if i % 2 else np.add)(out, X[face], out=out)
    return out


def boundary_rows(faces: np.ndarray, x: np.ndarray, size: int) -> np.ndarray:
    """sum_i (-1)**i x scattered onto faces[i]: boundary of x (a value per column) on size faces."""
    out = np.zeros(size)
    for i, face in enumerate(faces):
        scattered = np.bincount(face, weights=x, minlength=size)
        (np.subtract if i % 2 else np.add)(out, scattered, out=out)
    return out


def boundary_block(faces: np.ndarray, size: int, first: int = 0, dtype=float) -> np.ndarray:
    """Dense boundary of the columns of faces, keeping the face rows first..size-1.

    faces is face_ranks of some dim-simplices on n vertices, size the count
    C(n, dim) of faces, and entry (f - first, j) is the sign (-1)**i of the
    face f = faces[i, j]; first=0 keeps every row.

    With first = C(n-1, dim-1), the faces that contain vertex 0, which come
    first in canonical order, are dropped, and the C(n-1, dim) kept rows
    decide every boundary.  The complete complex is a cone over vertex 0: a
    cycle z equals boundary(0*z) = sum of z(s) boundary(0*s) over the faces s
    that miss vertex 0, and each boundary(0*s) is nonzero at s alone among
    them.  So these cycles are a basis of the cycle space, a boundary is zero
    when it is zero on the kept rows, and the kept block has the rank of the
    full one on any columns.
    """
    block = np.zeros((size - first, faces.shape[1]), dtype=dtype)
    for i, face in enumerate(faces):
        cols = np.flatnonzero(face >= first)
        block[face[cols] - first, cols] = (-1) ** i
    return block


def boundary_operator(n: int, dim: int) -> LinearChainOperator:
    """Boundary of dim-chains: alternating sum of facets, leading face positive.

    The column of a simplex (x1, ..., x_{dim+1}) holds (-1)**(i+1) at the face
    that omits x_i (1-based i).  Entries are exact integers.  Its peak is two
    int64 matrices, as LinearChainOperator keeps its own copy; one over the
    byte budget is refused before any allocation (_check_bytes).
    """
    if dim >= 1:  # face_ranks refuses the rest
        _check_bytes("dense operator", 2 * 8 * comb(n, dim) * comb(n, dim + 1))
    mat = boundary_block(face_ranks(n, simplex_rows(n, dim)), comb(n, dim), dtype=np.int64)
    return LinearChainOperator(n=n, src_dim=dim, dst_dim=dim - 1, matrix=mat)


def coboundary_operator(n: int, dim: int) -> LinearChainOperator:
    """Adjoint of the boundary: maps dim-chains to (dim+1)-chains."""
    if dim < 0 or dim >= n - 1:
        raise ValueError(f"coboundary needs 0 <= dim < n-1, got dim={dim}, n={n}")
    mat = boundary_operator(n, dim + 1).matrix.T
    return LinearChainOperator(n=n, src_dim=dim, dst_dim=dim + 1, matrix=mat)


def apply_operator(op: LinearChainOperator, chain: Chain) -> Chain:
    """Matrix action of op on a chain; dimensions and vertex counts must match."""
    if chain.n != op.n or chain.dim != op.src_dim:
        raise ValueError(
            f"operator expects dim={op.src_dim} chains on {op.n} vertices, "
            f"got dim={chain.dim} on {chain.n}"
        )
    return Chain(n=op.n, dim=op.dst_dim, coeffs=op.matrix @ chain.coeffs)
