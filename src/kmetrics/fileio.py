"""JSON file formats for tables, chain collections, complexes, and clouds.

Every file is one layout: a UTF-8 JSON object of small header keys, then its
one large list, last, closed by "]}" and a newline.  _dump writes the list
_WRITE_BLOCK items at a time, each block through one call of the C encoder
(json.dump and any indent fall back to the pure-Python one), so a write holds
one block of Python objects and text, and the bytes are those of
json.dumps(obj, separators=(",", ":")) and a newline.  Floats keep Python's
shortest round-trip form, so write-read cycles are bit-exact.

_read_object reads that layout back, with any whitespace, as the writers and
json.dump put it: each reader's builder gets its list as (offset, items)
blocks, each one call of the C decoder on the text up to the last cut
between two items in view, so a read holds one block of text and of Python
objects besides the arrays it fills.  Each block is checked as a whole and
converted in one numpy call; the per-entry validators run only to name the
first bad entry, by its position in the whole list.  Any other layout, and
any refusal, is read again by one whole-file json.load and built from one
block, so values and errors are those of json.load and a whole-list check.
Parse problems raise InputError carrying the file, the offending field, and
the line number when the JSON itself is malformed.
"""

from __future__ import annotations

import itertools
import json
import os
import re
from math import comb
from typing import Callable, Iterable, Iterator, Optional

import numpy as np

import kmetrics as km

from .simplicial import (
    MAX_SIMPLICES, Chain, _check_arity, _check_counts, simplex_at, simplex_index,
    validate_simplex,
)


class InputError(Exception):
    """A file could not be parsed or validated: its path, and the field and line where known."""

    def __init__(self, path: str, message: str, field: Optional[str] = None,
                 line: Optional[int] = None):
        self.path, self.message, self.field, self.line = path, message, field, line
        where = path + ("" if line is None else f":{line}")
        where += "" if field is None else f" (field {field})"
        super().__init__(f"{where}: {message}")


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


# Characters of text read at a time: a file's one large list is decoded a block
# of this much text at a time.
_READ_BLOCK = 2**16

_decoder = json.JSONDecoder()
_CUTS = {"{": "},", "[": "],"}  # first character of an item -> text between two items
_OBJECT_END = re.compile(r"[ \t\n\r]*\}[ \t\n\r]*")  # JSON's whitespace, as json.load skips it


def _list_blocks(fh, text: str) -> Iterator[tuple[int, list]]:
    """(offset, items) blocks of the list whose text after its "[" starts with text.

    Each block is the items up to the last cut in view, in one decode call;
    a cut inside an item or a string leaves a bracket or a quote open, so the
    decode fails and more text is read.  At the end of the file the rest must
    be the last items, "]", "}" and whitespace.  Anything else raises
    ValueError.
    """
    offset = 0
    while chunk := fh.read(max(_READ_BLOCK, len(text))):  # doubles while no cut decodes
        text += chunk
        token = _CUTS.get(text.lstrip()[:1], ",")
        cut = text.rfind(token) + len(token) - 1
        try:
            items = _decoder.decode("[" + text[:cut] + "]") if cut > 0 else []
        except json.JSONDecodeError:
            continue
        if items:  # no items: no cut, or an empty one, as in "[1, ,2]"
            yield offset, items
            offset += len(items)
            text = text[cut + 1 :]
    items, end = _decoder.raw_decode("[" + text)
    if (offset and not items) or not _OBJECT_END.fullmatch(text, end - 1):
        raise ValueError("the list does not end the object")  # "[1,]", or keys after it
    yield offset, items


def _key(obj: dict, builders: dict, path: str) -> str:
    """The first key of builders in obj; with several builders, one must be there."""
    key = next((key for key in builders if key in obj), None)
    if key is None:
        if len(builders) > 1:
            raise InputError(
                path, "unrecognised payload: expected one of the fields " + ", ".join(builders)
            )
        key = next(iter(builders))
    return key


def _read_blocked(fh, builders: dict, path: str) -> tuple:
    """(key, result) of a file in the writers' layout; ValueError or InputError otherwise.

    The header is the text up to the first "<builder key>": [, closed by
    "]}"; a match inside a string or a nested value does not parse.
    """
    keys = "|".join(map(re.escape, builders))
    start = re.compile(f'"({keys})"[ \t\n\r]*:[ \t\n\r]*\\[')
    text = ""
    while not (match := start.search(text)):
        chunk = fh.read(max(_READ_BLOCK, len(text)))
        if not chunk:
            raise ValueError("no large list")
        text += chunk
    header = json.loads(text[: match.end()] + "]}")
    key = _key(header, builders, path)
    if match[1] != key:
        raise ValueError("a header key decides another builder")
    blocks = _list_blocks(fh, text[match.end() :])
    result = builders[key]({**header, key: blocks}, path)
    for _ in blocks:  # the rest of the text must still end the object
        pass
    return key, result


def _read_object(path: str, builders: dict) -> tuple:
    """(key, builders[key](obj, path)) for the JSON object obj in path.

    builders maps each key that may hold the file's large list to its
    builder, the first key present deciding; with several builders, a file
    with none of their keys is refused.  obj holds the other keys' values
    and, under the key, the list's blocks for _get_blocks.  A builder refuses
    with InputError or ValueError.  A file in the writers' layout is read a
    block at a time; any other file, and any refusal, is read again whole,
    so the result or error is json.load's and the builder's on one block.
    """
    try:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                return _read_blocked(fh, builders, path)
        except (InputError, ValueError):
            pass
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
    key = _key(obj, builders, path)
    if isinstance(obj.get(key), list):
        obj[key] = iter([(0, obj[key])])
    return key, builders[key](obj, path)


def _get_blocks(obj: dict, key: str, path: str) -> Iterator[tuple[int, list]]:
    """The (offset, items) blocks of the large list obj[key], for a builder."""
    if key not in obj:
        raise InputError(path, "missing required field", field=key)
    if not isinstance(obj[key], Iterator):
        raise InputError(path, "expected a list", field=key)
    return obj[key]


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
    return _read_object(path, {"values": _kmetric_from})[1]


def _kmetric_from(obj: dict, path: str) -> km.KMetric:
    n = _get_int(obj, "n", path, minimum=1)
    k = _get_int(obj, "k", path, minimum=2)
    _record(path, "n", lambda: _check_arity(n, k))
    blocks = _get_blocks(obj, "values", path)
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
    return _read_object(path, {"data": _chain_matrix_from})[1]


def _chain_matrix_from(obj: dict, path: str) -> km.ChainMatrix:
    n = _get_int(obj, "n", path, minimum=1)
    k = _get_int(obj, "k", path, minimum=2)
    m = _get_int(obj, "m", path, minimum=1)
    blocks = _get_blocks(obj, "data", path)
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
    return _read_object(path, {"facets": _complex_from})[1]


def _complex_from(obj: dict, path: str) -> km.WeightedComplex:
    n = _get_int(obj, "n", path, minimum=1)
    k = _get_int(obj, "k", path, minimum=2)
    facets, weights = [], [np.empty(0)]
    for offset, entries in _get_blocks(obj, "facets", path):
        weights.append(_read_entries(entries, offset, path, "facets", "w", n, k)[1])
        facets.extend(tuple(entry["s"]) for entry in entries)
    return _record(path, "facets", lambda: km.WeightedComplex(
        n=n, k=k, facets=tuple(facets), weights=np.concatenate(weights)))


# --- point clouds ---------------------------------------------------------


def write_cloud(cloud: km.PointCloud, path: str) -> None:
    _dump({"m": cloud.m}, "points", _blocks(cloud.points), path)


def read_cloud(path: str) -> km.PointCloud:
    return _read_object(path, {"points": _cloud_from})[1]


def _cloud_from(obj: dict, path: str) -> km.PointCloud:
    m = _get_int(obj, "m", path, minimum=1)
    coords, count = [np.empty(0)], 0
    for offset, rows in _get_blocks(obj, "points", path):
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
    return _read_object(path, {"coeffs": _chain_from})[1]


def _chain_from(obj: dict, path: str) -> Chain:
    n = _get_int(obj, "n", path, minimum=1)
    dim = _get_int(obj, "dim", path, minimum=0)
    coeffs = [np.empty(0)]
    for offset, items in _get_blocks(obj, "coeffs", path):
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
    key, obj = _read_object(path, {key: build for key, (_, build) in _BUILDERS.items()})
    return _BUILDERS[key][0], obj
