"""Sharded, entropy-gated compression frames (payload format v2, ``RSF2``).

One frame transports an ordered list of byte *sections* (byte planes, code
planes, masks, headers — the producer fixes their meaning, exactly like the
v1 ``RBCF`` frame).  Each section is split into fixed :data:`SHARD_SIZE`
shards and every shard is stored under the cheapest of three methods:

* **zero** — the shard is all zero bytes; it costs 0 payload bytes,
* **raw** — the shard's histogram entropy meets
  :data:`~repro.compression.filters.ENTROPY_GATE_BITS` (or the codec failed
  to shrink it); stored verbatim,
* **deflate** / **lzma** — the shard compressed by the frame's codec.

Shards are compressed in order on the calling thread, and the framing is
*deterministic by construction*: method selection is a pure per-shard
function, shard payloads are concatenated in (section, shard index) order,
and the header is derived only from sizes.

Frame layout (all little-endian; normative spec in
``docs/payload-format.md``):

```
magic "RSF2" | u16 version=2 | u8 codec | u8 level | u32 shard_size | u32 n_sections
per section:  u64 orig_len | u32 n_shards
per shard:    u8 method | u32 stored_len        (sections in order)
shard payloads, concatenated in (section, shard) order
```
"""

from __future__ import annotations

import lzma
import struct
import zlib
from typing import List, Sequence

import numpy as np

from repro.compression.filters import ENTROPY_GATE_BITS, plane_entropy

__all__ = [
    "SHARDED_FORMAT_VERSION",
    "SHARD_SIZE",
    "ShardedFormatError",
    "compress_sections",
    "decompress_sections",
]

#: Stamped into ``CompressedBlob.meta["format_version"]`` by compressors
#: that write RSF2 frames; v1 (block codec) and v0 (legacy) blobs keep
#: decoding through the retained paths.
SHARDED_FORMAT_VERSION = 2

#: Fixed shard size.  Large enough that per-shard overhead (5 bytes + one
#: DEFLATE stream header) is noise, small enough that the entropy gate
#: decides per megabyte rather than per section.
SHARD_SIZE = 1 << 20

_MAGIC = b"RSF2"
_HEADER = struct.Struct("<4sHBBII")
_SECTION = struct.Struct("<QI")
_SHARD = struct.Struct("<BI")

_METHOD_ZERO = 0
_METHOD_RAW = 1
_METHOD_CODED = 2

#: Below this shard size the entropy estimate costs more than simply trying
#: the codec and falling back to raw when it fails to shrink the shard.
_ENTROPY_MIN_BYTES = 4096

_CODEC_DEFLATE = 2
_CODEC_LZMA = 3
_CODECS = {"deflate": _CODEC_DEFLATE, "lzma": _CODEC_LZMA}


class ShardedFormatError(ValueError):
    """A payload violates the RSF2 frame format."""


def _compress_shard(codec: int, level: int, data) -> bytes:
    if codec == _CODEC_DEFLATE:
        return zlib.compress(data, level)
    return lzma.compress(data, preset=level)


def _decompress_shard(codec: int, data) -> bytes:
    try:
        if codec == _CODEC_DEFLATE:
            return zlib.decompress(data)
        return lzma.decompress(data)
    except (zlib.error, lzma.LZMAError) as exc:
        raise ShardedFormatError(f"corrupt coded shard: {exc}") from exc


def compress_sections(
    sections: Sequence,
    *,
    codec: str = "deflate",
    level: int = 6,
    gate: bool = True,
) -> bytes:
    """Pack byte sections into one RSF2 frame.

    ``sections`` holds contiguous byte buffers (``bytes``, ``memoryview`` or
    uint8-viewable arrays).  With ``gate`` enabled, shards whose sampled
    entropy reaches the gate threshold skip the codec and ship raw.
    """
    try:
        codec_id = _CODECS[codec]
    except KeyError:
        raise ValueError(f"codec must be one of {sorted(_CODECS)}, got {codec!r}")
    views: List[np.ndarray] = [
        np.frombuffer(section, dtype=np.uint8) for section in sections
    ]
    shard_size = SHARD_SIZE

    # Deterministic per-shard method selection, coding each shard in
    # (section, shard) order as it is reached.
    methods: List[int] = []  # method per shard, (section, shard) order
    stored: List = []  # stored bytes per shard, same order
    section_shards: List[int] = []  # shard count per section
    body_size = 0
    for view in views:
        n_shards = max(1, -(-view.size // shard_size))
        section_shards.append(n_shards)
        shards = (
            [view]
            if n_shards == 1
            else [
                view[start:start + shard_size]
                for start in range(0, view.size, shard_size)
            ]
        )
        for shard in shards:
            if not shard.any():
                method, payload = _METHOD_ZERO, b""
            elif (
                gate
                and shard.size >= _ENTROPY_MIN_BYTES
                and plane_entropy(shard) >= ENTROPY_GATE_BITS
            ):
                method, payload = _METHOD_RAW, memoryview(shard)
            else:
                coded = _compress_shard(codec_id, level, shard)
                if len(coded) < shard.size:
                    method, payload = _METHOD_CODED, coded
                else:  # incompressible after all: ship raw
                    method, payload = _METHOD_RAW, memoryview(shard)
            methods.append(method)
            stored.append(payload)
            body_size += len(payload)

    # Assemble: header sizes are known up front, so the frame is built into
    # one preallocated buffer with a single pass and no intermediate joins.
    header_size = (
        _HEADER.size + _SECTION.size * len(views) + _SHARD.size * len(methods)
    )
    out = bytearray(header_size + body_size)
    _HEADER.pack_into(
        out, 0, _MAGIC, SHARDED_FORMAT_VERSION, codec_id, level,
        shard_size, len(views),
    )
    pos = _HEADER.size
    for view, n_shards in zip(views, section_shards):
        _SECTION.pack_into(out, pos, view.size, n_shards)
        pos += _SECTION.size
    body_pos = header_size
    for method, payload in zip(methods, stored):
        length = len(payload)
        _SHARD.pack_into(out, pos, method, length)
        pos += _SHARD.size
        if length:
            out[body_pos:body_pos + length] = payload
            body_pos += length
    return bytes(out)


def decompress_sections(payload) -> List[np.ndarray]:
    """Inverse of :func:`compress_sections`: writable uint8 section buffers."""
    payload = memoryview(payload)
    if len(payload) < _HEADER.size:
        raise ShardedFormatError("sharded frame shorter than its header")
    magic, version, codec_id, _level, shard_size, n_sections = _HEADER.unpack_from(
        payload, 0
    )
    if magic != _MAGIC:
        raise ShardedFormatError(f"bad sharded frame magic {magic!r}")
    if version != SHARDED_FORMAT_VERSION:
        raise ShardedFormatError(f"unsupported sharded frame version {version}")
    if codec_id not in (_CODEC_DEFLATE, _CODEC_LZMA):
        raise ShardedFormatError(f"unknown shard codec id {codec_id}")
    if shard_size <= 0:
        raise ShardedFormatError("sharded frame declares zero shard size")
    pos = _HEADER.size
    section_table = []
    for _ in range(n_sections):
        if pos + _SECTION.size > len(payload):
            raise ShardedFormatError("truncated sharded frame section table")
        orig_len, n_shards = _SECTION.unpack_from(payload, pos)
        pos += _SECTION.size
        # The encoder's shard count is a function of the length; checking it
        # here bounds every allocation below by shard-table entries that
        # physically exist in the payload.
        if n_shards != max(1, -(-orig_len // shard_size)):
            raise ShardedFormatError(
                f"section of {orig_len} bytes declares {n_shards} shards"
            )
        section_table.append((orig_len, n_shards))
    shard_table = []
    for orig_len, n_shards in section_table:
        shards = []
        for _ in range(n_shards):
            if pos + _SHARD.size > len(payload):
                raise ShardedFormatError("truncated sharded frame shard table")
            shards.append(_SHARD.unpack_from(payload, pos))
            pos += _SHARD.size
        shard_table.append(shards)

    sections: List[np.ndarray] = []
    for (orig_len, _n_shards), shards in zip(section_table, shard_table):
        out = np.empty(orig_len, dtype=np.uint8)
        write_pos = 0
        for method, stored_len in shards:
            shard_len = min(shard_size, orig_len - write_pos) if orig_len else 0
            if method == _METHOD_ZERO:
                if stored_len:
                    raise ShardedFormatError("zero shard declares stored bytes")
                out[write_pos:write_pos + shard_len] = 0
            elif method == _METHOD_RAW:
                if stored_len != shard_len or pos + stored_len > len(payload):
                    raise ShardedFormatError("corrupt raw shard length")
                out[write_pos:write_pos + shard_len] = np.frombuffer(
                    payload[pos:pos + stored_len], dtype=np.uint8
                )
                pos += stored_len
            elif method == _METHOD_CODED:
                if pos + stored_len > len(payload):
                    raise ShardedFormatError("truncated coded shard")
                inflated = _decompress_shard(codec_id, payload[pos:pos + stored_len])
                if len(inflated) != shard_len:
                    raise ShardedFormatError("coded shard inflates to wrong length")
                out[write_pos:write_pos + shard_len] = np.frombuffer(
                    inflated, dtype=np.uint8
                )
                pos += stored_len
            else:
                raise ShardedFormatError(f"unknown shard method {method}")
            write_pos += shard_len
        if write_pos != orig_len:
            raise ShardedFormatError("sharded section does not cover its length")
        sections.append(out)
    if pos != len(payload):
        raise ShardedFormatError("trailing bytes after the final shard")
    return sections
