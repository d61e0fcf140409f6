"""Stored codeword matrices and block lists, read from files in blocks.

``decode_file`` gives what ``json.loads`` gives for a stored book or
difference system, but with the codeword matrix or the block lists parsed
from the file straight into arrays, in memory of the arrays and one read
block.  Only ``check-bounds`` reads stored files, and it imports this
module when it runs, so no other command loads it.
"""

from __future__ import annotations

import io
import json

import numpy as np

# bytes of a file the reader holds at once; its parse temporaries take about
# thirteen bytes a byte, 0.9 MB, less than the recount of a square code holds
_READ_BLOCK = 1 << 16


# each byte's class: 0 a digit, 1 ",", 2 "[", 3 "]", 4 any other; and the class
# triples that canonical lists of lists hold (d a digit), as base-5 numbers
_CLASS = bytes(0 if 48 <= b < 58 else {44: 1, 91: 2, 93: 3}.get(b, 4) for b in range(256))
_TRIPLES = "ddd dd, dd] d,d d], ,dd ,d, ,d] ,[d ,[] [dd [d, [d] [], ],["
_TRIPLES = bytes(int(t.translate(str.maketrans("d,[]", "0123")), 5) for t in _TRIPLES.split())


def _parse_rows(raw: bytes) -> tuple[np.ndarray, np.ndarray] | None:
    """Symbols and cumulative row sizes of canonical rows "[d,...],...,[d,...]",
    or None.  A canonical row is empty or holds ASCII digit runs without
    leading zeros, at most nine digits each, so every symbol fits int32."""
    a = np.frombuffer(raw, dtype=np.uint8)
    if len(a) < 2 or a[0] != ord("[") or a[-1] != ord("]"):
        return None
    cls = np.frombuffer(raw.translate(_CLASS), dtype=np.uint8)
    if ((cls[:-2] * 5 + cls[1:-1]) * 5 + cls[2:]).tobytes().translate(None, _TRIPLES):
        return None
    edge = np.diff((cls == 0).view(np.int8))
    del cls
    start = np.flatnonzero(edge == 1) + 1
    length = np.flatnonzero(edge == -1) + 1 - start
    del edge
    longest = int(length.max()) if len(start) else 0
    if longest > 9 or (a[start[length > 1]] == ord("0")).any():
        return None
    length = length.astype(np.uint8)  # nine digits at most
    value = a[start].astype(np.int32) - ord("0")
    for k in range(1, longest):  # the k-th digit of each run that has one
        more = np.flatnonzero(length > k)
        at = start[more]
        at += k
        value[more] = value[more] * 10 + (a[at] - ord("0"))
    return value, np.searchsorted(start, np.flatnonzero(a == ord("]")))


def _blocks(fh, at: int):
    """The blocks of a file from byte at; none is kept once handed on."""
    fh.seek(at)
    return iter(lambda: fh.read(_READ_BLOCK), b"")


def _measure(fh, at: int) -> tuple[int, int, int, int] | None:
    """The length of the list of lists at byte at of a file, to its first
    "]]", and its commas, row breaks and empty rows, or None."""
    counts, offset, carry = [0, 0, 0], 0, b""  # offset: of the text in the payload
    for chunk in _blocks(fh, at):
        text = carry + chunk
        stop = text.find(b"]]") + 2
        text = text[:stop] if stop > 1 else text
        counts = [c + text.count(p) - carry.count(p) for c, p in zip(counts, (b",", b"],[", b"[]"))]
        if stop > 1:
            return offset + stop, *counts
        carry = text[-2:]
        offset += len(text) - len(carry)
    return None


def _parse_payload(fh, at: int, matrix: bool) -> tuple[object, int] | None:
    """The canonical list of lists at byte at of a file and its length, or
    None: a matrix, of equal nonempty rows, as an int16 array (int32 when a
    symbol needs it), other lists as the pair (values, ends): int32 values,
    which have nine digits at most, and ends int32 while there are fewer
    than 2**31 values.  A first pass finds the end, the first "]]", and sizes
    the arrays from the commas, row breaks and empty rows before it; a second
    fills them a block at a time."""
    from .rings import _position_dtype

    measured = _measure(fh, at)
    if measured is None:
        return None
    length, commas, breaks, empties = measured
    if commas + 1 < empties:
        return None
    values = np.empty(commas + 1 - empties, dtype=np.int16 if matrix else np.int32)
    ends = np.empty(breaks + 1, dtype=_position_dtype(len(values)))
    rows = filled = seen = 0
    pending, inside = bytearray(), False  # the text after the last cut; it starts inside a row
    for chunk in _blocks(fh, at):  # the rows are the bytes 1 .. length - 2
        old = len(pending)
        pending += memoryview(chunk)[max(0, 1 - seen) : length - 1 - seen]
        seen += len(chunk)
        del chunk
        cut = len(pending) if seen >= length - 1 else pending.rfind(b"],[", max(0, old - 2)) + 1
        split = not cut and len(pending) > _READ_BLOCK + 12
        if split:  # a row longer than a block is cut at a comma between two symbols
            cut = pending.rfind(b",", 0, len(pending) - 1)
            if cut < 1 or not pending[cut - 1 : cut + 2 : 2].isdigit():
                return None
        if cut:  # the rows before the cut leave the pending text before they are parsed
            rows_text, pending = pending[:cut], pending[cut + 1 :]
            if inside or split:
                rows_text = b"[" * inside + rows_text + b"]" * split
            parsed = _parse_rows(rows_text)
            del rows_text
            if parsed is None:
                return None
            block, block_ends = parsed  # canonical blocks hold what the first pass counted
            block_ends, inside = block_ends[: len(block_ends) - split], split
            if values.dtype == np.int16 and block.max(initial=0) >= 2**15:
                values = values.astype(np.int32)
            values[filled : filled + len(block)] = block
            ends[rows : rows + len(block_ends)] = block_ends + filled
            rows, filled = rows + len(block_ends), filled + len(block)
        if seen >= length - 1:
            break
    if (rows, filled) != (len(ends), len(values)) or matrix and not (
        ends[0] and np.array_equal(ends, np.arange(1, rows + 1) * ends[0])  # equal nonempty rows
    ):
        return None
    return (values.reshape(rows, -1) if matrix else (values, ends)), length


def _text(raw: bytes) -> str:
    """UTF-8 bytes as text with universal newlines."""
    text = raw.decode("utf-8")
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


# the payload keys of stored files, each true when its value is a matrix: a
# book's "codewords", and a difference system's "blocks" as (points, ends)
_PAYLOADS = {"codewords": True, "blocks": False}


def _last_payload_key(fh) -> tuple[int, str] | None:
    """Where the list of lists after the last '"<key>":[[' of a file, a key of
    _PAYLOADS escaped or not, starts, and the key, or None."""
    found, carry, offset = None, b"", 0  # offset: of carry in the file
    for chunk in _blocks(fh, 0):
        buf = carry + chunk
        p = max(0, len(carry) - 3)
        while p := buf.find(b'":[[', p) + 1:  # the ":" after a key
            try:  # the slice is empty when no quote comes before
                key = json.loads(_text(buf[buf.rfind(b'"', 0, p - 1) : p]))
            except ValueError:
                key = None
            if key in _PAYLOADS:
                found = offset + p + 1, key
        carry = buf[-64:]  # holds a payload key with every character escaped
        offset += len(buf) - len(carry)
    return found


def _stream(fh) -> dict | None:
    """The top-level object of a file whose last '"<key>":[[', a key of
    _PAYLOADS, starts a canonical payload, parsed in blocks, or None.  The
    text around it is decoded with a stand-in, NaN, that must be the only
    constant there and the key's top-level value."""
    found = _last_payload_key(fh)
    parsed = found and _parse_payload(fh, found[0], _PAYLOADS[found[1]])
    if not parsed:
        return None
    (at, key), (payload, length) = found, parsed
    fh.seek(0)
    head = fh.read(at)
    fh.seek(at + length)
    stand_in, constants = object(), []
    try:
        text = _text(head) + "NaN" + _text(fh.read())
        data = json.loads(text, parse_constant=lambda name: constants.append(name) or stand_in)
    except ValueError:  # undecodable text, or a JSON error
        return None
    if len(constants) != 1 or type(data) is not dict or data.get(key) is not stand_in:
        return None
    data[key] = payload
    return data


def decode_file(fh):
    """What ``json.loads`` gives for the UTF-8 text, with universal newlines,
    of an open binary file, but with a last canonical "codewords" matrix
    (ASCII digits without leading zeros, at most nine, no whitespace, equal
    nonempty rows) as an int16 array, int32 when a symbol needs it, and
    canonical "blocks" (empty rows allowed) as the int32 pair (points, ends),
    ends int64 from 2**31 points.  Any other file goes to ``json.loads``
    whole."""
    if not fh.seekable():  # a pipe is read whole, then parsed in blocks all the same
        fh = io.BytesIO(fh.read())
    data = _stream(fh)
    if data is None:
        fh.seek(0)
        data = json.loads(_text(fh.read()))
    return data
