"""JSON file formats for tables, chain collections, complexes, and clouds.

All files are UTF-8 JSON objects, written as compact single-line JSON; the
readers accept any layout.  Floats are written with Python's shortest
round-trip representation, so write-read cycles are bit-exact.  Each file has
one large list, written _WRITE_BLOCK items at a time, so a write holds one
block of Python objects and text instead of the whole file; the bytes are
those of json.dumps(obj, separators=(",", ":")) and a newline.  Every block
goes through one encode call, the only path on which CPython runs its C
encoder (json.dump and any indent fall back to the pure-Python one).  Reads
check each list as a whole and convert it in one numpy call; the per-entry
validators run only to name the first bad entry.  Parse problems raise
InputError carrying the file, the offending field, and the line number when
the JSON itself is malformed.
"""

from __future__ import annotations

import itertools
import json
from math import comb
from typing import Callable, Iterable, Iterator, Optional

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


# List items encoded per call of the C encoder.
_WRITE_BLOCK = 2**12

_encode = json.JSONEncoder(separators=(",", ":")).encode


def _dump(header: dict, key: str, blocks: Iterable[list], path: str) -> None:
    """Write {**header, key: the concatenated blocks} as one line of compact JSON."""
    head = _encode({**header, key: []})
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(head[:-2])  # everything up to and including the list's "["
        sep = ""
        for block in blocks:  # nonempty lists
            fh.write(sep + _encode(block)[1:-1])
            sep = ","
        fh.write("]}\n")


def _blocks(a: np.ndarray) -> Iterator[list]:
    """a.tolist(), cut into lists of _WRITE_BLOCK items along the first axis."""
    return (a[i : i + _WRITE_BLOCK].tolist() for i in range(0, len(a), _WRITE_BLOCK))


def _entries(simplices: Iterable, numbers: np.ndarray, key: str) -> Iterator[list]:
    """{"s": simplex, key: number} objects, _WRITE_BLOCK to a list."""
    simplices = iter(simplices)
    for block in _blocks(numbers):
        # numbers first: zip stops on them without drawing a simplex it would drop
        yield [{"s": s, key: v} for v, s in zip(block, simplices)]


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


def _as_numbers(values: list, path: str, field: Callable[[int], str]) -> np.ndarray:
    """values as a float array; field(i) names entry i if one is not a number."""
    if set(map(type, values)) <= {int, float}:
        try:
            return np.array(values, dtype=float)
        except OverflowError:
            pass
    return np.array([_as_number(v, path, field(i)) for i, v in enumerate(values)], dtype=float)


def _read_simplex(entry, path: str, field: str, n: int, size: int) -> tuple:
    if not isinstance(entry, list) or len(entry) != size:
        raise InputError(path, f"expected a list of {size} vertices", field=field)
    try:
        return validate_simplex(n, entry)
    except ValueError as exc:
        raise InputError(path, str(exc), field=field) from None


def _read_entries(obj: dict, path: str, name: str, key: str, n: int, k: int):
    """(vertex rows, numbers) of the {"s": simplex, key: number} list obj[name]."""
    entries = _get_list(obj, name, path)
    try:
        simplices = [entry["s"] for entry in entries]
        numbers = [entry[key] for entry in entries]
        if (
            set(map(type, simplices)) <= {list}
            and set(map(len, simplices)) <= {k}
            and set(map(type, itertools.chain.from_iterable(simplices))) <= {int}
        ):
            flat = itertools.chain.from_iterable(simplices)
            rows = np.fromiter(flat, np.int64, k * len(simplices)).reshape(-1, k)
            simplex_index(n, rows)  # refuses any row that is not canonical
            return rows, _as_numbers(numbers, path, lambda i: f"{name}[{i}].{key}")
    except (KeyError, TypeError, OverflowError, ValueError):
        pass
    # name the first bad entry, one entry at a time
    verts, numbers = [], []
    for pos, entry in enumerate(entries):
        field = f"{name}[{pos}]"
        if not isinstance(entry, dict) or "s" not in entry or key not in entry:
            raise InputError(path, f"expected an object with s and {key}", field=field)
        verts.extend(_read_simplex(entry["s"], path, field + ".s", n, k))
        numbers.append(_as_number(entry[key], path, f"{field}.{key}"))
    return np.array(verts, dtype=np.int64).reshape(-1, k), np.array(numbers, dtype=float)


# --- arity-k tables -------------------------------------------------------


def write_kmetric(d: KMetric, path: str) -> None:
    # the canonical order of d.simplices(), without building and caching that tuple
    tuples = itertools.combinations(range(d.n), d.k)
    _dump({"n": d.n, "k": d.k}, "values", _entries(tuples, d.values, "d"), path)


def read_kmetric(path: str) -> KMetric:
    return _kmetric_from(_load_object(path), path)


def _kmetric_from(obj: dict, path: str) -> KMetric:
    n = _get_int(obj, "n", path, minimum=1)
    k = _get_int(obj, "k", path, minimum=2)
    if n < k:
        raise InputError(path, f"need n >= k, got n={n}, k={k}", field="n")
    rows, numbers = _read_entries(obj, path, "values", "d", n, k)
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
    _dump({"n": F.n, "k": F.k, "m": F.m}, "data", _blocks(F.data.reshape(-1)), path)


def read_chain_matrix(path: str) -> ChainMatrix:
    return _chain_matrix_from(_load_object(path), path)


def _chain_matrix_from(obj: dict, path: str) -> ChainMatrix:
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
    flat = _as_numbers(data, path, lambda i: f"data[{i}]")
    try:
        return ChainMatrix(n=n, k=k, data=flat.reshape(rows, m))
    except ValueError as exc:
        raise InputError(path, str(exc), field="data") from exc


# --- weighted complexes ---------------------------------------------------


def write_complex(K: WeightedComplex, path: str) -> None:
    _dump({"n": K.n, "k": K.k}, "facets", _entries(K.facets, K.weights, "w"), path)


def read_complex(path: str) -> WeightedComplex:
    return _complex_from(_load_object(path), path)


def _complex_from(obj: dict, path: str) -> WeightedComplex:
    n = _get_int(obj, "n", path, minimum=1)
    k = _get_int(obj, "k", path, minimum=2)
    rows, weights = _read_entries(obj, path, "facets", "w", n, k)
    try:
        return WeightedComplex(n=n, k=k, facets=tuple(map(tuple, rows.tolist())), weights=weights)
    except ValueError as exc:
        raise InputError(path, str(exc), field="facets") from exc


# --- point clouds ---------------------------------------------------------


def write_cloud(cloud: PointCloud, path: str) -> None:
    _dump({"m": cloud.m}, "points", _blocks(cloud.points), path)


def read_cloud(path: str) -> PointCloud:
    return _cloud_from(_load_object(path), path)


def _cloud_from(obj: dict, path: str) -> PointCloud:
    m = _get_int(obj, "m", path, minimum=1)
    rows = _get_list(obj, "points", path)
    shaped = (isinstance(row, list) and len(row) == m for row in rows)
    bad = next((pos for pos, ok in enumerate(shaped) if not ok), len(rows))
    # a bad coordinate before the first bad row is the first error, as row by row
    flat = list(itertools.chain.from_iterable(rows[:bad]))
    points = _as_numbers(flat, path, lambda i: f"points[{i // m}]")
    if bad < len(rows):
        raise InputError(path, f"expected a list of {m} coordinates", field=f"points[{bad}]")
    try:
        return PointCloud(points=points.reshape(len(rows), m))
    except ValueError as exc:
        raise InputError(path, str(exc), field="points") from exc


# --- single chains (solver output) ----------------------------------------


def write_chain(chain: Chain, path: str) -> None:
    _dump({"n": chain.n, "dim": chain.dim}, "coeffs", _blocks(chain.coeffs), path)


def read_chain(path: str) -> Chain:
    obj = _load_object(path)
    n = _get_int(obj, "n", path, minimum=1)
    dim = _get_int(obj, "dim", path, minimum=0)
    coeffs = _get_list(obj, "coeffs", path)
    values = _as_numbers(coeffs, path, lambda i: f"coeffs[{i}]")
    try:
        return Chain(n=n, dim=dim, coeffs=values)
    except ValueError as exc:
        raise InputError(path, str(exc), field="coeffs") from exc


_BUILDERS = {
    "values": ("kmetric", _kmetric_from),
    "data": ("chain_matrix", _chain_matrix_from),
    "facets": ("complex", _complex_from),
    "points": ("cloud", _cloud_from),
}


def read_any(path: str):
    """Detect the payload type from its distinguishing field.

    Returns (kind, object) with kind one of kmetric, chain_matrix, complex,
    cloud.  The file is parsed once.
    """
    obj = _load_object(path)
    for key, (kind, build) in _BUILDERS.items():
        if key in obj:
            return kind, build(obj, path)
    raise InputError(
        path,
        "unrecognised payload: expected one of the fields "
        + ", ".join(_BUILDERS),
    )
