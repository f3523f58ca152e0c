"""JSON file formats for tables, chain collections, complexes, and clouds.

All files are UTF-8 JSON objects.  Floats are written with Python's shortest
round-trip representation, so write-read cycles are bit-exact.  Parse
problems raise InputError carrying the file, the offending field, and the
line number when the JSON itself is malformed.
"""

from __future__ import annotations

import json
from math import comb
from typing import Optional

import numpy as np

from .coboundary import ChainMatrix
from .hypertree import WeightedComplex
from .metric import KMetric
from .simplicial import Chain, enumerate_simplices, simplex_index, validate_simplex
from .volume import PointCloud


class InputError(Exception):
    """A file could not be parsed or validated."""

    def __init__(
        self,
        path: str,
        message: str,
        field: Optional[str] = None,
        line: Optional[int] = None,
    ):
        self.path = path
        self.field = field
        self.line = line
        self.message = message
        where = path
        if line is not None:
            where += f":{line}"
        if field is not None:
            where += f" (field {field})"
        super().__init__(f"{where}: {message}")


def _load_object(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise InputError(path, f"cannot read file: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(path, f"invalid JSON: {exc.msg}", line=exc.lineno) from exc
    if not isinstance(obj, dict):
        raise InputError(path, f"expected a JSON object, got {type(obj).__name__}")
    return obj


def _dump(obj: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1)
        fh.write("\n")


def _get_int(obj: dict, key: str, path: str, minimum: int = 0) -> int:
    if key not in obj:
        raise InputError(path, "missing required field", field=key)
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(path, f"expected an integer, got {value!r}", field=key)
    if value < minimum:
        raise InputError(path, f"must be at least {minimum}, got {value}", field=key)
    return value


def _get_list(obj: dict, key: str, path: str) -> list:
    if key not in obj:
        raise InputError(path, "missing required field", field=key)
    if not isinstance(obj[key], list):
        raise InputError(path, "expected a list", field=key)
    return obj[key]


def _as_number(value, path: str, field: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InputError(path, f"expected a number, got {value!r}", field=field)
    try:
        return float(value)
    except OverflowError:
        raise InputError(path, "number too large for a float", field=field) from None


def _read_simplex(entry, path: str, field: str, n: int, size: int) -> tuple:
    if not isinstance(entry, list) or len(entry) != size:
        raise InputError(path, f"expected a list of {size} vertices", field=field)
    try:
        return validate_simplex(n, entry)
    except ValueError as exc:
        raise InputError(path, str(exc), field=field) from None


# --- arity-k tables -------------------------------------------------------


def write_kmetric(d: KMetric, path: str) -> None:
    entries = [
        {"s": list(s), "d": float(v)} for s, v in zip(d.simplices(), d.values)
    ]
    _dump({"n": d.n, "k": d.k, "values": entries}, path)


def read_kmetric(path: str) -> KMetric:
    obj = _load_object(path)
    n = _get_int(obj, "n", path, minimum=1)
    k = _get_int(obj, "k", path, minimum=2)
    if n < k:
        raise InputError(path, f"need n >= k, got n={n}, k={k}", field="n")
    entries = _get_list(obj, "values", path)
    verts, numbers = [], []
    for pos, entry in enumerate(entries):
        field = f"values[{pos}]"
        if not isinstance(entry, dict) or "s" not in entry or "d" not in entry:
            raise InputError(path, "expected an object with s and d", field=field)
        verts.extend(_read_simplex(entry["s"], path, field + ".s", n, k))
        numbers.append(_as_number(entry["d"], path, field + ".d"))
    rows = np.array(verts, dtype=np.int64).reshape(-1, k)
    index = simplex_index(n, rows)
    first = np.unique(index, return_index=True)[1]
    if first.size < index.size:
        pos = int(np.setdiff1d(np.arange(index.size), first)[0])
        key = tuple(rows[pos].tolist())
        raise InputError(path, f"duplicate entry for {key}", field=f"values[{pos}].s")
    count = comb(n, k)
    values = np.full(count, np.nan)
    values[index] = numbers
    missing = np.isnan(values)
    if missing.any():
        first = enumerate_simplices(n, k - 1)[int(np.nonzero(missing)[0][0])]
        raise InputError(
            path,
            f"{int(missing.sum())} of {count} tuples missing, first {first}",
            field="values",
        )
    try:
        return KMetric(n=n, k=k, values=values)
    except ValueError as exc:
        raise InputError(path, str(exc), field="values") from exc


# --- chain collections ----------------------------------------------------


def write_chain_matrix(F: ChainMatrix, path: str) -> None:
    _dump(
        {
            "n": F.n,
            "k": F.k,
            "m": F.m,
            "data": [float(v) for v in F.data.reshape(-1)],
        },
        path,
    )


def read_chain_matrix(path: str) -> ChainMatrix:
    obj = _load_object(path)
    n = _get_int(obj, "n", path, minimum=1)
    k = _get_int(obj, "k", path, minimum=2)
    m = _get_int(obj, "m", path, minimum=1)
    data = _get_list(obj, "data", path)
    rows = comb(n, k - 1)
    if len(data) != rows * m:
        raise InputError(
            path,
            f"expected {rows} x {m} = {rows * m} numbers, got {len(data)}",
            field="data",
        )
    flat = np.array(
        [_as_number(v, path, f"data[{i}]") for i, v in enumerate(data)]
    )
    try:
        return ChainMatrix(n=n, k=k, data=flat.reshape(rows, m))
    except ValueError as exc:
        raise InputError(path, str(exc), field="data") from exc


# --- weighted complexes ---------------------------------------------------


def write_complex(K: WeightedComplex, path: str) -> None:
    facets = [
        {"s": list(f), "w": float(w)} for f, w in zip(K.facets, K.weights)
    ]
    _dump({"n": K.n, "k": K.k, "facets": facets}, path)


def read_complex(path: str) -> WeightedComplex:
    obj = _load_object(path)
    n = _get_int(obj, "n", path, minimum=1)
    k = _get_int(obj, "k", path, minimum=2)
    entries = _get_list(obj, "facets", path)
    facets, weights = [], []
    for pos, entry in enumerate(entries):
        field = f"facets[{pos}]"
        if not isinstance(entry, dict) or "s" not in entry or "w" not in entry:
            raise InputError(path, "expected an object with s and w", field=field)
        facets.append(_read_simplex(entry["s"], path, field + ".s", n, k))
        weights.append(_as_number(entry["w"], path, field + ".w"))
    try:
        return WeightedComplex(n=n, k=k, facets=tuple(facets), weights=np.array(weights))
    except ValueError as exc:
        raise InputError(path, str(exc), field="facets") from exc


# --- point clouds ---------------------------------------------------------


def write_cloud(cloud: PointCloud, path: str) -> None:
    _dump(
        {
            "m": cloud.m,
            "points": [[float(v) for v in row] for row in cloud.points],
        },
        path,
    )


def read_cloud(path: str) -> PointCloud:
    obj = _load_object(path)
    m = _get_int(obj, "m", path, minimum=1)
    rows = _get_list(obj, "points", path)
    points = []
    for pos, row in enumerate(rows):
        field = f"points[{pos}]"
        if not isinstance(row, list) or len(row) != m:
            raise InputError(path, f"expected a list of {m} coordinates", field=field)
        points.append([_as_number(v, path, field) for v in row])
    try:
        return PointCloud(points=np.array(points).reshape(len(points), m))
    except ValueError as exc:
        raise InputError(path, str(exc), field="points") from exc


# --- single chains (solver output) ----------------------------------------


def write_chain(chain: Chain, path: str) -> None:
    _dump(
        {
            "n": chain.n,
            "dim": chain.dim,
            "coeffs": [float(v) for v in chain.coeffs],
        },
        path,
    )


def read_chain(path: str) -> Chain:
    obj = _load_object(path)
    n = _get_int(obj, "n", path, minimum=1)
    dim = _get_int(obj, "dim", path, minimum=0)
    coeffs = _get_list(obj, "coeffs", path)
    values = [_as_number(v, path, f"coeffs[{i}]") for i, v in enumerate(coeffs)]
    try:
        return Chain(n=n, dim=dim, coeffs=np.array(values))
    except ValueError as exc:
        raise InputError(path, str(exc), field="coeffs") from exc


_READERS = {
    "values": ("kmetric", read_kmetric),
    "data": ("chain_matrix", read_chain_matrix),
    "facets": ("complex", read_complex),
    "points": ("cloud", read_cloud),
}


def read_any(path: str):
    """Detect the payload type from its distinguishing field.

    Returns (kind, object) with kind one of kmetric, chain_matrix, complex,
    cloud.
    """
    obj = _load_object(path)
    for key, (kind, reader) in _READERS.items():
        if key in obj:
            return kind, reader(path)
    raise InputError(
        path,
        "unrecognised payload: expected one of the fields "
        + ", ".join(_READERS),
    )
