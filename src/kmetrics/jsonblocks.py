"""A JSON object read from a file with its one large list decoded a block at a time.

read_object reads the text _READ_BLOCK characters at a time.  The large list
under a builder's key is handed to that builder as (offset, items) blocks,
each block one call of the C decoder on the text up to the last cut between
two items in view, so a read holds one block of text and of Python objects
besides what the builder keeps.  The values and errors are json.load's: any
layout, the last value of a repeated key, and malformed JSON anywhere as the
first error, reported by json itself with its line.
"""

from __future__ import annotations

import json
import re
from collections.abc import Iterator
from typing import Callable, Optional


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
_WHITESPACE = re.compile(r"[ \t\n\r]*")  # JSON's, as the decoder skips it
_ENDS_VALUE = frozenset(" \t\n\r,:]}")  # what may follow a value or a key
_CUTS = {"{": "},", "[": "],"}  # first character of an item -> text between two items
_LIST = object()  # a header's value for a key whose value was a large list


class _Malformed(Exception):
    """The text is not JSON: json.loads of the whole file names the fault."""


class _Text:
    """A file's text, read _READ_BLOCK characters at a time.

    buf[pos] is the next character; base counts the characters before buf.
    """

    def __init__(self, fh):
        self.fh, self.buf, self.pos, self.base = fh, "", 0, 0

    def more(self) -> bool:
        """Drop the text before pos and read on; False at the end of the file.

        A read is at least a block and at least the text still held, so a
        value longer than a block is read in doubling steps.
        """
        chunk = self.fh.read(max(_READ_BLOCK, len(self.buf) - self.pos))
        if not chunk:
            return False
        self.base += self.pos
        self.buf, self.pos = self.buf[self.pos :] + chunk, 0
        return True

    def peek(self) -> str:
        """Skip whitespace; the next character, or "" at the end of the file."""
        while True:
            self.pos = _WHITESPACE.match(self.buf, self.pos).end()
            if self.pos < len(self.buf):
                return self.buf[self.pos]
            if not self.more():
                return ""

    def take(self, chars: str) -> str:
        """Skip whitespace and take the next character, which must be one of chars."""
        char = self.peek()
        if not char or char not in chars:
            raise _Malformed
        self.pos += 1
        return char

    def value(self):
        """Decode the value after any whitespace whole, reading on until the text shows its end.

        A number cut by the end of the text still decodes ("1" of "1.5"), so
        a value counts only once a character that may follow it is in view.
        """
        if not self.peek():
            raise _Malformed
        while True:
            try:
                obj, end = _decoder.scan_once(self.buf, self.pos)
            except (StopIteration, json.JSONDecodeError):
                if self.more():
                    continue
                raise _Malformed from None
            if (end < len(self.buf) and self.buf[end] in _ENDS_VALUE) or not self.more():
                self.pos = end
                return obj

    def skip_to(self, start: int) -> None:
        """Drop the text before character start of the file."""
        while self.base + len(self.buf) <= start:
            self.pos = len(self.buf)
            if not self.more():
                raise _Malformed
        self.pos = start - self.base


def _cut(text: _Text) -> Optional[list]:
    """The items up to the last cut between two items in view, in one decode call.

    None when there is no cut or the decode fails.  A cut inside an item or
    a string leaves a bracket or a quote open, so a decode that succeeds cut
    between items and returned exactly theirs.
    """
    buf, pos = text.buf, text.pos
    token = _CUTS.get(buf[pos], ",")
    comma = buf.rfind(token, pos) + len(token) - 1
    if comma <= pos:
        return None
    try:
        items = _decoder.decode("[" + buf[pos:comma] + "]")
    except json.JSONDecodeError:
        return None
    text.pos = comma + 1
    return items


def _one_by_one(text: _Text) -> tuple[list, bool]:
    """The items in view decoded one at a time, and whether the list ended."""
    stop = text.base + len(text.buf)
    items = []
    while True:
        items.append(text.value())
        if text.take(",]") == "]":
            return items, True
        if text.base + text.pos >= stop:
            return items, False


def _list_blocks(text: _Text) -> Iterator[tuple[int, list]]:
    """(offset, items) blocks of the list whose "[" is at text.pos, about a block of text each.

    Most blocks are one _cut; _one_by_one takes the rest, such as the list's
    last items or an item longer than a block.  text.pos ends past the "]".
    """
    text.pos += 1
    if text.peek() == "]":
        text.pos += 1
        return
    offset, ended = 0, False
    while not ended:
        if len(text.buf) - text.pos < _READ_BLOCK:
            text.more()
        if not text.peek():
            raise _Malformed
        items = _cut(text)
        if items is None:
            items, ended = _one_by_one(text)
        yield offset, items
        offset += len(items)


def _build(build: Callable, obj: dict, path: str, blocks: Iterator) -> tuple:
    """(result, error) of build(obj, path); the rest of blocks is then read, as JSON must be."""
    try:
        result, error = build(obj, path), None
    except UnicodeDecodeError:  # the text's own fault, not the object's
        raise
    except (InputError, ValueError) as exc:
        result, error = None, exc
    for _ in blocks:
        pass
    return result, error


def _scan(text: _Text, builders: dict, path: str) -> tuple:
    """Parse the file's object, building each large list as it is read.

    Returns the header (each key's last value, _LIST for a large list), the
    start of each key's last large list, and the last build's header,
    result and error.  Every error waits for the end of the text, because
    malformed JSON anywhere is the first error, as in json.load.
    """
    if text.peek() != "{":
        obj = text.value()
        if text.peek():
            raise _Malformed
        raise InputError(path, f"expected a JSON object, got {type(obj).__name__}")
    text.pos += 1
    header, starts, built = {}, {}, None
    if text.peek() == "}":
        text.pos += 1
    else:
        while True:
            if text.peek() != '"':
                raise _Malformed
            key = text.value()
            text.take(":")
            if key in builders and text.peek() == "[":
                starts[key] = text.base + text.pos
                blocks = _list_blocks(text)
                built = None  # the last build's result goes before the next one starts
                seen = {**header, key: _LIST}
                built = (key, seen, *_build(builders[key], {**header, key: blocks}, path, blocks))
                header[key] = _LIST
            else:
                header[key] = text.value()
            if text.take(",}") == "}":
                break
    if text.peek():
        raise _Malformed
    return header, starts, built


def read_object(path: str, builders: dict) -> tuple:
    """(key, builders[key](obj, path)) for the JSON object obj in path.

    builders maps each key that may hold the file's large list to its
    builder, the first key present deciding; with several builders, a file
    with none of their keys is refused.  obj holds the other keys' values
    and, under the key, the list's blocks for get_blocks.  A builder refuses
    with InputError or ValueError, raised once the whole text has proved to
    be JSON.  A list followed by any key that changes the header is read a
    second time, from its last "[".  The error for text that is not JSON is
    json.loads's of the whole text, so its message and line are json.load's.
    """
    try:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                header, starts, built = _scan(_Text(fh), builders, path)
            key = next((key for key in builders if key in header), None)
            if key is None:
                if len(builders) > 1:
                    raise InputError(
                        path,
                        "unrecognised payload: expected one of the fields " + ", ".join(builders),
                    )
                key = next(iter(builders))
            if header.get(key) is not _LIST:
                return key, builders[key](header, path)  # missing or not a list
            if built is not None and built[:2] == (key, header):
                _, _, result, error = built
                if error is not None:
                    raise error
                return key, result
            built = None  # a build on a header that changed after its list
            with open(path, "r", encoding="utf-8") as fh:
                text = _Text(fh)
                text.skip_to(starts[key])
                return key, builders[key]({**header, key: _list_blocks(text)}, path)
        except (_Malformed, UnicodeDecodeError):
            with open(path, "r", encoding="utf-8") as fh:
                whole = fh.read()  # a decoding error is raised here, as in json.load
        json.loads(whole)
        raise RuntimeError(f"{path}: the blocked read refused text that json.loads accepts")
    except OSError as exc:
        raise InputError(path, f"cannot read file: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(path, f"invalid JSON: {exc.msg}", line=exc.lineno) from exc


def get_blocks(obj: dict, key: str, path: str) -> Iterator[tuple[int, list]]:
    """The (offset, items) blocks of the large list obj[key], for a builder."""
    if key not in obj:
        raise InputError(path, "missing required field", field=key)
    if not isinstance(obj[key], Iterator):
        raise InputError(path, "expected a list", field=key)
    return obj[key]
