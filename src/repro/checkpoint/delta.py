"""Bitwise delta encoding of checkpoint vectors (incremental payloads).

Successive iterates of a converging solver are *close*: most of the
mantissa bits of ``x_k`` agree with ``x_{k-1}``, and many elements do not
change at all between two checkpoints.  The incremental mode of
:class:`~repro.checkpoint.pipeline.CheckpointPipeline` exploits that by
shipping, instead of a full compressed vector, the **residual of the raw
IEEE-754 bit patterns** against the last committed payload:

* both arrays are viewed as little-endian ``uint64`` words and their
  wrapping word difference is taken,
* a bit mask records which elements changed at all, and only the nonzero
  residuals are zigzag-mapped (small signed residuals get small codes) and
  split into their live byte planes
  (:func:`~repro.compression.filters.code_planes`),
* mask and planes ship as one RSF2 frame
  (:mod:`repro.compression.sharded`) at DEFLATE level 2 — the entropy gate
  stores the noise-like low planes raw and DEFLATE only sees the upper
  planes and the mask, which collapse,
* decoding scatters the residual codes back onto the base words, so
  reconstruction is **bitwise exact given the same base**.

The delta blob records which checkpoint it is based on
(``meta["base_id"]``); chains are cut by periodic full *keyframes* so a
restore never has to walk unboundedly far back.  Because a delta reproduces
its input exactly, the error behaviour of the variable is whatever the
*input* already had: lossless inputs round-trip bitwise, and a lossy
variable is delta-encoded on its bound-respecting *reconstruction*, so the
restored value honours the same bound with zero accumulation across deltas.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.compression.base import CompressedBlob
from repro.compression.encoding import zigzag_decode, zigzag_encode
from repro.compression.filters import code_planes, codes_from_planes
from repro.compression.sharded import (
    SHARDED_FORMAT_VERSION,
    compress_sections,
    decompress_sections,
)

__all__ = ["DELTA_COMPRESSOR", "delta_encode", "delta_decode", "is_delta_blob"]

#: Compressor name stamped into delta blobs (they are decoded by
#: :func:`delta_decode` with an explicit base, never via ``make_compressor``).
DELTA_COMPRESSOR = "delta64"

#: DEFLATE level of the delta frame, the SZ and lossless default: the mask
#: and the upper code planes are long runs that level 2 already collapses.
_DEFLATE_LEVEL = 2


def _as_words(data: np.ndarray) -> np.ndarray:
    """View a float64/int64 array as its raw uint64 bit patterns."""
    arr = np.ascontiguousarray(data)
    if arr.dtype.itemsize != 8:
        raise ValueError(
            f"delta encoding needs 8-byte elements, got dtype {arr.dtype}"
        )
    return arr.reshape(-1).view(np.uint64)


def delta_encode(
    value: np.ndarray,
    base: np.ndarray,
    *,
    base_id: int,
    inner: Optional[str] = None,
    meta: Optional[dict] = None,
) -> CompressedBlob:
    """Encode ``value`` as a bitwise residual against ``base``.

    ``base`` must be the reconstruction a restorer will hold for checkpoint
    ``base_id`` (for exact variables the committed value itself; for lossy
    variables the committed payload's decompressed reconstruction).
    ``inner`` optionally names the compressor whose output the delta rides on
    (carried for reporting only).
    """
    value = np.ascontiguousarray(value, dtype=np.float64)
    base = np.ascontiguousarray(base, dtype=np.float64)
    if value.shape != base.shape:
        raise ValueError(
            f"delta base shape {base.shape} does not match value shape {value.shape}"
        )
    residual = (_as_words(value) - _as_words(base)).view(np.int64)
    changed = residual != 0
    payload = compress_sections(
        [np.packbits(changed), *code_planes(zigzag_encode(residual[changed]))],
        level=_DEFLATE_LEVEL,
    )
    blob_meta = {"base_id": int(base_id), "format_version": SHARDED_FORMAT_VERSION}
    if inner is not None:
        blob_meta["inner"] = str(inner)
    if meta:
        blob_meta.update(meta)
    return CompressedBlob(
        payload=payload,
        shape=tuple(value.shape),
        dtype=str(value.dtype),
        compressor=DELTA_COMPRESSOR,
        meta=blob_meta,
    )


def delta_decode(blob: CompressedBlob, base: np.ndarray) -> np.ndarray:
    """Reconstruct the array stored in a delta blob given its base.

    Every structural property of the frame (section count, mask length,
    plane lengths) is checked against the declared shape before the output
    is allocated; a malformed payload raises :class:`ValueError`.
    """
    if blob.compressor != DELTA_COMPRESSOR:
        raise ValueError(
            f"blob was produced by {blob.compressor!r}, not {DELTA_COMPRESSOR!r}"
        )
    if blob.format_version != SHARDED_FORMAT_VERSION:
        raise ValueError(
            f"unsupported delta format version {blob.format_version} "
            f"(this build reads version {SHARDED_FORMAT_VERSION})"
        )
    base = np.ascontiguousarray(base, dtype=np.float64)
    expected = 1
    for dim in blob.shape:
        expected *= int(dim)
    if base.size != expected:
        raise ValueError(
            f"delta base has {base.size} elements, blob stores {expected}"
        )
    sections = decompress_sections(blob.payload)
    if not 2 <= len(sections) <= 9:
        raise ValueError(
            f"delta frame holds {len(sections)} sections, expected a mask "
            "and 1-8 code planes"
        )
    mask, planes = sections[0], sections[1:]
    if mask.size != -(-expected // 8):
        raise ValueError(
            f"delta mask holds {mask.size} bytes, {expected} elements "
            f"need {-(-expected // 8)}"
        )
    changed = np.unpackbits(mask, count=expected).view(bool)
    count = int(np.count_nonzero(changed))
    for index, plane in enumerate(planes):
        if plane.size != count:
            raise ValueError(
                f"delta code plane {index} holds {plane.size} bytes, "
                f"the mask marks {count} changed elements"
            )
    residual = zigzag_decode(codes_from_planes(planes, count))
    words = _as_words(base).copy()
    words[changed] += residual.view(np.uint64)
    return words.view(np.float64).reshape(blob.shape)


def is_delta_blob(blob: CompressedBlob) -> bool:
    """Whether ``blob`` is an incremental (base-referencing) payload entry."""
    return blob.compressor == DELTA_COMPRESSOR
