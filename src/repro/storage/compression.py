"""Column compression: stdlib :mod:`zlib` (DEFLATE) at one fixed level.

The paper's storage format LZ4-compresses the concatenated inserted text
(§3.8).  The v3 container compresses every column block independently with
zlib — what per-column formats usually do — and stores a block raw whenever
compression does not shrink it.  The level is fixed so encoding stays
deterministic (the golden corpus pins the bytes).
"""

from __future__ import annotations

import zlib

__all__ = ["compress", "decompress"]

_LEVEL = 9


def compress(data: bytes) -> bytes:
    """Compress ``data``; the result always round-trips through :func:`decompress`."""
    return zlib.compress(data, _LEVEL)


def decompress(data: bytes) -> bytes:
    """Inverse of :func:`compress`; raises :class:`ValueError` on a corrupt,
    truncated or over-long stream."""
    inflater = zlib.decompressobj()
    try:
        out = inflater.decompress(data)
    except zlib.error as exc:
        raise ValueError(f"corrupt compressed stream: {exc}") from exc
    if not inflater.eof or inflater.unused_data:
        raise ValueError("corrupt compressed stream: truncated or trailing bytes")
    return out
