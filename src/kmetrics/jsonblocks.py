"""A JSON object read from a file with its one large list decoded a block at a time.

read_object reads blocked the one layout the writers write: an object whose
large list, under a builder's key, comes last, after every other key, with
any whitespace.  That list is handed to the builder as (offset, items)
blocks, each one call of the C decoder on the text up to the last cut
between two items in view, so a read holds one block of text and of Python
objects besides what the builder keeps.  Every other file, and every
refusal, is read again by one whole-file json.load and built from one block,
so values and errors are those of json.load and a whole-list build.
"""

from __future__ import annotations

import json
import re
from collections.abc import Iterator
from typing import Optional


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


def read_object(path: str, builders: dict) -> tuple:
    """(key, builders[key](obj, path)) for the JSON object obj in path.

    builders maps each key that may hold the file's large list to its
    builder, the first key present deciding; with several builders, a file
    with none of their keys is refused.  obj holds the other keys' values
    and, under the key, the list's blocks for get_blocks.  A builder refuses
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


def get_blocks(obj: dict, key: str, path: str) -> Iterator[tuple[int, list]]:
    """The (offset, items) blocks of the large list obj[key], for a builder."""
    if key not in obj:
        raise InputError(path, "missing required field", field=key)
    if not isinstance(obj[key], Iterator):
        raise InputError(path, "expected a list", field=key)
    return obj[key]
