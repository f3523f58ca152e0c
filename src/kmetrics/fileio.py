"""JSON file formats for tables, chain collections, complexes, and clouds.

All files are UTF-8 JSON objects, written as compact single-line JSON; the
readers accept any layout.  Floats are written with Python's shortest
round-trip representation, so write-read cycles are bit-exact.  Each file has
one large list, written _WRITE_BLOCK items at a time, so a write holds one
block of Python objects and text instead of the whole file; the bytes are
those of json.dumps(obj, separators=(",", ":")) and a newline.  Every block
goes through one encode call, the only path on which CPython runs its C
encoder (json.dump and any indent fall back to the pure-Python one).

Reads mirror the writes: jsonblocks.read_object hands each reader's builder
its list a block of text at a time when the list comes last, as the writers
and json.dump put it, so a read holds one block of text and of Python objects
besides the arrays it fills.  Each block is checked as a whole and converted
in one numpy call; the per-entry validators run only to name the first bad
entry, by its position in the whole list.  Any other layout, and any refusal,
is read again by one whole-file json.load and built from one block, so values
and errors are those of json.load and a whole-list check.  Parse problems
raise InputError carrying the file, the offending field, and the line number
when the JSON itself is malformed.
"""

from __future__ import annotations

import itertools
import json
import os
from math import comb
from typing import Callable, Iterable, Iterator

import numpy as np

# payload records through the package's table: a read loads only its payload's module
import kmetrics as km

from .jsonblocks import InputError, get_blocks, read_object
from .simplicial import (
    MAX_SIMPLICES,
    Chain,
    _check_counts,
    simplex_at,
    simplex_index,
    validate_simplex,
)


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


def _read_entries(entries: list, first: int, path: str, name: str, key: str, n: int, k: int):
    """(ranks, numbers) of a block of {"s": simplex, key: number} entries of the list name.

    entries[0] is name[first].  ranks is None when the entries are valid but
    C(n, k) is over MAX_SIMPLICES, the one way a valid block fails the
    list-wide check: simplex_index refuses to rank it.
    """
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
            ranks = simplex_index(n, rows)  # refuses any row that is not canonical
            return ranks, _as_numbers(numbers, path, lambda i: f"{name}[{first + i}].{key}")
    except (KeyError, TypeError, OverflowError, ValueError):
        pass
    # name the first bad entry, one entry at a time
    numbers = []
    for pos, entry in enumerate(entries, first):
        field = f"{name}[{pos}]"
        if not isinstance(entry, dict) or "s" not in entry or key not in entry:
            raise InputError(path, f"expected an object with s and {key}", field=field)
        _read_simplex(entry["s"], path, field + ".s", n, k)
        numbers.append(_as_number(entry[key], path, f"{field}.{key}"))
    return None, np.array(numbers, dtype=float)


def _record(path: str, field: str, build: Callable):
    """The record build() returns, its ValueError refused as an InputError on the list field."""
    try:
        return build()
    except ValueError as exc:
        raise InputError(path, str(exc), field=field) from exc


# --- arity-k tables -------------------------------------------------------


def write_kmetric(d: km.KMetric, path: str) -> None:
    # the canonical order, streamed rather than simplex_rows, so a write holds one block
    tuples = itertools.combinations(range(d.n), d.k)
    _dump({"n": d.n, "k": d.k}, "values", _entries(tuples, d.values, "d"), path)


def read_kmetric(path: str) -> km.KMetric:
    return read_object(path, {"values": _kmetric_from})[1]


def _kmetric_from(obj: dict, path: str) -> km.KMetric:
    n = _get_int(obj, "n", path, minimum=1)
    k = _get_int(obj, "k", path, minimum=2)
    if n < k:
        raise InputError(path, f"need n >= k, got n={n}, k={k}", field="n")
    blocks = get_blocks(obj, "values", path)
    count = comb(n, k)
    # over MAX_SIMPLICES no tuple can be ranked, and the first block refuses
    values, total = np.full(count if count <= MAX_SIMPLICES else 0, np.nan), 0
    for offset, entries in blocks:
        ranks, numbers = _read_entries(entries, offset, path, "values", "d", n, k)
        if ranks is None:
            _check_counts(n, k - 1)  # raises
        order = np.argsort(ranks, kind="stable")
        again = np.zeros(len(ranks), dtype=bool)
        again[order[1:]] = ranks[order[1:]] == ranks[order[:-1]]
        if again.any():
            pos = int(np.argmax(again))
            raise InputError(
                path,
                f"duplicate entry for {tuple(entries[pos]['s'])}",
                field=f"values[{offset + pos}].s",
            )
        values[ranks] = numbers
        total += len(ranks)
    if total > count:  # a duplicate across blocks: the whole read, one block, names it
        raise InputError(path, f"{total} entries for {count} tuples", field="values")
    missing = np.flatnonzero(np.isnan(values))
    if missing.size:
        first = simplex_at(n, k - 1, int(missing[0]))
        raise InputError(
            path, f"{missing.size} of {count} tuples missing, first {first}", field="values"
        )
    return _record(path, "values", lambda: km.KMetric(n=n, k=k, values=values))


# --- chain collections ----------------------------------------------------


def write_chain_matrix(F: km.ChainMatrix, path: str) -> None:
    _dump({"n": F.n, "k": F.k, "m": F.m}, "data", _blocks(F.data.reshape(-1)), path)


def read_chain_matrix(path: str) -> km.ChainMatrix:
    return read_object(path, {"data": _chain_matrix_from})[1]


def _chain_matrix_from(obj: dict, path: str) -> km.ChainMatrix:
    n = _get_int(obj, "n", path, minimum=1)
    k = _get_int(obj, "k", path, minimum=2)
    m = _get_int(obj, "m", path, minimum=1)
    blocks = get_blocks(obj, "data", path)
    rows = comb(n, k - 1)
    size = rows * m
    # size numbers take 2 size - 1 characters; a header that claims more is
    # refused by the length check below, so nothing is allocated for it
    flat = np.empty(size) if 2 * size - 1 <= os.path.getsize(path) else None
    count, bad = 0, None  # the length is checked before the numbers
    for offset, items in blocks:
        count += len(items)
        if bad is None and flat is not None and count <= size:
            try:
                flat[offset:count] = _as_numbers(items, path, lambda i: f"data[{offset + i}]")
            except InputError as exc:
                bad = exc
    if count != size:
        raise InputError(
            path, f"expected {rows} x {m} = {size} numbers, got {count}", field="data"
        )
    if bad is not None:
        raise bad
    return _record(path, "data", lambda: km.ChainMatrix(n=n, k=k, data=flat.reshape(rows, m)))


# --- weighted complexes ---------------------------------------------------


def write_complex(K: km.WeightedComplex, path: str) -> None:
    _dump({"n": K.n, "k": K.k}, "facets", _entries(K.facets, K.weights, "w"), path)


def read_complex(path: str) -> km.WeightedComplex:
    return read_object(path, {"facets": _complex_from})[1]


def _complex_from(obj: dict, path: str) -> km.WeightedComplex:
    n = _get_int(obj, "n", path, minimum=1)
    k = _get_int(obj, "k", path, minimum=2)
    facets, weights = [], [np.empty(0)]
    for offset, entries in get_blocks(obj, "facets", path):
        weights.append(_read_entries(entries, offset, path, "facets", "w", n, k)[1])
        facets.extend(tuple(entry["s"]) for entry in entries)
    return _record(path, "facets", lambda: km.WeightedComplex(
        n=n, k=k, facets=tuple(facets), weights=np.concatenate(weights)))


# --- point clouds ---------------------------------------------------------


def write_cloud(cloud: km.PointCloud, path: str) -> None:
    _dump({"m": cloud.m}, "points", _blocks(cloud.points), path)


def read_cloud(path: str) -> km.PointCloud:
    return read_object(path, {"points": _cloud_from})[1]


def _cloud_from(obj: dict, path: str) -> km.PointCloud:
    m = _get_int(obj, "m", path, minimum=1)
    coords, count = [np.empty(0)], 0
    for offset, rows in get_blocks(obj, "points", path):
        shaped = (isinstance(row, list) and len(row) == m for row in rows)
        bad = next((pos for pos, ok in enumerate(shaped) if not ok), len(rows))
        # a bad coordinate before the first bad row is the first error, as row by row
        flat = list(itertools.chain.from_iterable(rows[:bad]))
        coords.append(_as_numbers(flat, path, lambda i: f"points[{offset + i // m}]"))
        if bad < len(rows):
            raise InputError(
                path, f"expected a list of {m} coordinates", field=f"points[{offset + bad}]"
            )
        count += len(rows)
    return _record(path, "points", lambda: km.PointCloud(
        points=np.concatenate(coords).reshape(count, m)))


# --- single chains (solver output) ----------------------------------------


def write_chain(chain: Chain, path: str) -> None:
    _dump({"n": chain.n, "dim": chain.dim}, "coeffs", _blocks(chain.coeffs), path)


def read_chain(path: str) -> Chain:
    return read_object(path, {"coeffs": _chain_from})[1]


def _chain_from(obj: dict, path: str) -> Chain:
    n = _get_int(obj, "n", path, minimum=1)
    dim = _get_int(obj, "dim", path, minimum=0)
    coeffs = [np.empty(0)]
    for offset, items in get_blocks(obj, "coeffs", path):
        coeffs.append(_as_numbers(items, path, lambda i: f"coeffs[{offset + i}]"))
    return _record(path, "coeffs", lambda: Chain(n=n, dim=dim, coeffs=np.concatenate(coeffs)))


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
    key, obj = read_object(path, {key: build for key, (_, build) in _BUILDERS.items()})
    return _BUILDERS[key][0], obj
