"""The binary file frame shared by the panel cache and checkpoints.

A frame is one ``json.dumps(header, sort_keys=True)`` line whose ``format``
key names the file kind, then a little-endian payload of arrays back to back.
The header fixes the payload layout, so identical values give identical bytes.
"""

from __future__ import annotations

import json
import operator
from pathlib import Path

import numpy as np

from .errors import TradeLabError

__all__ = ["MalformedFile", "write_frame", "read_frame"]


class MalformedFile(TradeLabError):
    """A framed file is foreign, truncated, over-long, or has a bad header field."""


def write_frame(path, magic: str, header: dict, arrays) -> None:
    """Write ``header`` (plus ``format: magic``) and then each array, little-endian, in order."""
    with Path(path).open("wb") as handle:
        handle.write(json.dumps({"format": magic, **header}, sort_keys=True).encode() + b"\n")
        for arr in arrays:  # each array as it is, when it is already little-endian and in C order
            handle.write(np.ascontiguousarray(arr, dtype=arr.dtype.newbyteorder("<")))


def read_frame(path, magic: str, decode):
    """Return ``decode(header, take)`` for a file written by :func:`write_frame`.

    ``take(dtype, count)`` returns the next ``count`` payload values as a
    read-only view. The file is rejected unless its header is a ``magic``
    frame and ``decode`` consumes the payload exactly; a missing or
    malformed header field is reported with the file's path.
    """
    path = Path(path)
    raw = path.read_bytes()
    end = raw.find(b"\n")  # the header line, without binding a copy of the payload after it
    try:
        header = json.loads(raw[:end]) if end >= 0 else None
    except ValueError:
        header = None
    if not isinstance(header, dict) or header.get("format") != magic:
        raise MalformedFile(f"not a {magic} file", path)
    offset = end + 1

    def take(dtype, count):
        nonlocal offset
        count = operator.index(count)
        size = np.dtype(dtype).itemsize * count
        if count < 0 or offset + size > len(raw):
            raise MalformedFile(f"payload ends before the {count} values its header declares at byte {offset}", path)
        values = np.frombuffer(raw, dtype=dtype, count=count, offset=offset)
        offset += size
        return values

    try:
        result = decode(header, take)
    except MalformedFile:
        raise
    except KeyError as exc:
        raise MalformedFile(f"header lacks field {exc}", path) from None
    except (TypeError, ValueError) as exc:
        raise MalformedFile(f"bad header value: {exc}", path) from None
    except TradeLabError as exc:
        raise MalformedFile(str(exc), path) from None
    if offset != len(raw):
        raise MalformedFile(f"{len(raw) - offset} bytes past the payload its header declares", path)
    return result
