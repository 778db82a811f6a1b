"""Tests for the RSF2 sharded, entropy-gated compression frame.

Frames must round-trip every section bit for bit and reject any malformed
payload with :class:`ShardedFormatError`; checkpoint payloads feed
content-addressed stores and byte-level golden tests.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import sharded
from repro.compression.sharded import (
    SHARD_SIZE,
    SHARDED_FORMAT_VERSION,
    ShardedFormatError,
    compress_sections,
    decompress_sections,
)


def _sections(seed, sizes):
    rng = np.random.default_rng(seed)
    out = []
    for kind, size in sizes:
        if kind == "zero":
            out.append(np.zeros(size, dtype=np.uint8))
        elif kind == "noise":
            out.append(rng.integers(0, 256, size).astype(np.uint8))
        elif kind == "runs":
            out.append(np.repeat(rng.integers(0, 4, max(1, size // 64)), 64)[:size].astype(np.uint8))
        else:
            raise AssertionError(kind)
    return out


_MIX = [("runs", 9000), ("noise", 8192), ("zero", 5000), ("runs", 100), ("noise", 10)]


class TestRoundTrip:
    @pytest.mark.parametrize("codec", ["deflate", "lzma"])
    def test_mixed_sections(self, codec):
        sections = _sections(1, _MIX)
        payload = compress_sections(sections, codec=codec)
        out = decompress_sections(payload)
        assert len(out) == len(sections)
        for got, want in zip(out, sections):
            assert np.array_equal(got, want)
            assert got.flags.writeable

    def test_empty_and_tiny_sections(self):
        sections = [np.zeros(0, dtype=np.uint8), np.frombuffer(b"\x07", dtype=np.uint8)]
        out = decompress_sections(compress_sections(sections))
        assert out[0].size == 0
        assert bytes(out[1]) == b"\x07"

    def test_accepts_bytes_and_memoryview_sections(self):
        payload = compress_sections([b"abc" * 100, memoryview(b"\x00" * 64)])
        out = decompress_sections(payload)
        assert bytes(out[0]) == b"abc" * 100
        assert bytes(out[1]) == b"\x00" * 64

    def test_multi_shard_sections(self, monkeypatch):
        # Shrink the shard size so one section spans many shards, including a
        # ragged tail and an interior all-zero shard.
        monkeypatch.setattr(sharded, "SHARD_SIZE", 1024)
        rng = np.random.default_rng(3)
        section = rng.integers(0, 256, 5000).astype(np.uint8)
        section[1024:2048] = 0  # exactly the second shard
        payload = compress_sections([section])
        out = decompress_sections(payload)
        assert np.array_equal(out[0], section)

    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_random_sections_roundtrip(self, seed):
        rng = np.random.default_rng(seed)
        sections = [
            rng.integers(0, int(rng.integers(1, 256)), int(rng.integers(0, 3000))).astype(np.uint8)
            for _ in range(int(rng.integers(1, 5)))
        ]
        out = decompress_sections(compress_sections(sections))
        for got, want in zip(out, sections):
            assert np.array_equal(got, want)


class TestPinnedFrames:
    """Frame bytes are a pure function of sections, codec and level; pin
    them for a mix spanning many shards of every method."""

    @pytest.mark.parametrize(
        "codec, seed, digest",
        [
            ("deflate", 11, "feb778fed8c2bc5b8a5ae1e2d4e8594b4bc8ac6efc897c12c6ffc4c583dee5d3"),
            ("lzma", 12, "b82bef9bd842e18462ad466a9d6b33d21f1c50c9b1a208932b689d436c90264e"),
        ],
        ids=["deflate", "lzma"],
    )
    def test_frame_bytes_pinned(self, monkeypatch, codec, seed, digest):
        monkeypatch.setattr(sharded, "SHARD_SIZE", 512)
        payload = compress_sections(_sections(seed, _MIX), codec=codec)
        assert hashlib.sha256(payload).hexdigest() == digest


class TestFormatErrors:
    def _frame(self):
        return bytearray(compress_sections(_sections(2, _MIX)))

    def test_unknown_codec_name_rejected(self):
        with pytest.raises(ValueError, match="codec"):
            compress_sections([b"x"], codec="zstd")

    def test_bad_magic(self):
        frame = self._frame()
        frame[:4] = b"JUNK"
        with pytest.raises(ShardedFormatError, match="magic"):
            decompress_sections(bytes(frame))

    def test_bad_version(self):
        frame = self._frame()
        frame[4] = SHARDED_FORMAT_VERSION + 1
        with pytest.raises(ShardedFormatError, match="version"):
            decompress_sections(bytes(frame))

    def test_short_header(self):
        with pytest.raises(ShardedFormatError, match="shorter than its header"):
            decompress_sections(b"RSF2")

    def test_truncated_tables_and_body(self):
        frame = bytes(self._frame())
        # Every prefix must fail loudly, never return wrong data.
        for cut in (17, 40, len(frame) - 7):
            with pytest.raises(ShardedFormatError):
                decompress_sections(frame[:cut])

    def test_trailing_bytes_rejected(self):
        frame = bytes(self._frame())
        with pytest.raises(ShardedFormatError, match="trailing"):
            decompress_sections(frame + b"\x00")

    def test_corrupt_coded_shard_rejected(self):
        sections = [np.repeat(np.arange(32, dtype=np.uint8), 200)]
        frame = bytearray(compress_sections(sections))
        frame[-1] ^= 0xFF
        with pytest.raises(ShardedFormatError, match="corrupt coded shard"):
            decompress_sections(bytes(frame))

    def test_shard_count_must_match_section_length(self):
        """A flipped length bit is caught before the section is allocated."""
        frame = self._frame()
        frame[16 + 5] ^= 0x80  # orig_len of section 0 grows by 2**47
        with pytest.raises(ShardedFormatError, match="declares"):
            decompress_sections(bytes(frame))

    def test_zero_shard_with_stored_bytes_rejected(self):
        frame = bytearray(compress_sections([b"\x00" * 64, b"\x07" * 8]))
        frame[16 + 2 * 12 + 1] = 8  # zero shard claims 8 stored bytes
        with pytest.raises(ShardedFormatError, match="zero shard"):
            decompress_sections(bytes(frame))


class TestDefaults:
    def test_format_constants(self):
        assert SHARDED_FORMAT_VERSION == 2
        assert SHARD_SIZE == 1 << 20

    def test_zero_section_costs_nothing_but_tables(self):
        quiet = compress_sections([np.zeros(1 << 16, dtype=np.uint8)])
        # header + one section entry + one shard entry, no body bytes
        assert len(quiet) == 16 + 12 + 5

    def test_incompressible_section_ships_raw(self):
        rng = np.random.default_rng(9)
        noise = rng.integers(0, 256, 1 << 14).astype(np.uint8)
        payload = compress_sections([noise])
        # Raw shard: frame overhead only, no DEFLATE expansion.
        assert len(payload) == 16 + 12 + 5 + noise.size
