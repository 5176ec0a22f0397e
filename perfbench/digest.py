"""Exact digests of operation outputs.

An operation's output is what it returned plus the KPI snapshot its
``RunRecord`` carries.  Both are streamed into a SHA-256 in a tagged,
length-prefixed encoding: floats as ``float.hex`` so no digit is rounded
away, dataclasses field by field, dicts and sequences in their order,
sets sorted, arrays by dtype, shape and raw bytes.  Two outputs digest
alike only if they are equal value for value (and in the same order),
which is the byte-identical fixed point the reference holds.  Streaming
keeps the benchmark's own memory out of the pass's peak RSS.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
from collections.abc import Callable
from typing import Any

import numpy as np

__all__ = ["digest"]

#: Hex digits kept from the SHA-256; 80 bits is ample to tell outputs apart.
DIGEST_HEX_CHARS = 20


def _text(update: Callable[[bytes], None], tag: bytes, text: str) -> None:
    data = text.encode()
    update(b"%s%d:%s" % (tag, len(data), data))


def _feed(update: Callable[[bytes], None], value: Any) -> None:
    if value is None:
        update(b"N")
    elif isinstance(value, bool):
        update(b"T" if value else b"F")
    elif isinstance(value, int):
        update(b"i%d;" % value)
    elif isinstance(value, float):
        _text(update, b"f", value.hex())
    elif isinstance(value, str):
        _text(update, b"s", value)
    elif isinstance(value, np.ndarray):
        _text(update, b"a", f"{value.dtype}{value.shape}")
        update(hashlib.sha256(np.ascontiguousarray(value).tobytes()).digest())
    elif isinstance(value, np.generic):
        _feed(update, value.item())
    elif isinstance(value, enum.Enum):
        _text(update, b"e", f"{type(value).__name__}.{value.name}")
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        _text(update, b"D", type(value).__name__)
        for f in dataclasses.fields(value):
            _text(update, b"k", f.name)
            _feed(update, getattr(value, f.name))
        update(b"}")
    elif isinstance(value, dict):
        update(b"{%d:" % len(value))
        for key, item in value.items():
            _feed(update, key)
            _feed(update, item)
    elif isinstance(value, (list, tuple)):
        update(b"[%d:" % len(value))
        for item in value:
            _feed(update, item)
    elif isinstance(value, (set, frozenset)):
        # Set iteration order follows string hashing, which varies by process.
        update(b"<%d:" % len(value))
        for item_digest in sorted(digest(item) for item in value):
            update(item_digest.encode())
    else:
        raise TypeError(f"no digest encoding for {type(value).__name__}")


def digest(value: Any) -> str:
    """Truncated SHA-256 of ``value``'s tagged encoding."""
    hasher = hashlib.sha256()
    _feed(hasher.update, value)
    return hasher.hexdigest()[:DIGEST_HEX_CHARS]
