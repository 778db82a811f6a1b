"""Delta codec + incremental pipeline: keyframes, chains, bound preservation."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.checkpoint import CheckpointPipeline, MemoryCheckpointStore
from repro.checkpoint.delta import (
    DELTA_COMPRESSOR,
    delta_decode,
    delta_encode,
    is_delta_blob,
)
from repro.compression.sharded import SHARDED_FORMAT_VERSION, decompress_sections
from repro.core.schemes import CheckpointingScheme
from repro.solvers import CGSolver, JacobiSolver

#: IEEE-754 bit patterns a float strategy rarely draws: quiet/signalling
#: NaNs with payloads, -0.0, the smallest and largest denormals, +-inf.
_SPECIAL_WORDS = [
    0x7FF8000000000000,
    0x7FF0000000000001,
    0xFFF8DEADBEEF0001,
    0x8000000000000000,
    0x0000000000000001,
    0x000FFFFFFFFFFFFF,
    0x7FF0000000000000,
    0xFFF0000000000000,
]

any_words = arrays(
    np.uint64,
    st.shared(st.integers(min_value=1, max_value=200), key="words"),
    elements=st.one_of(
        st.integers(min_value=0, max_value=2**64 - 1),
        st.sampled_from(_SPECIAL_WORDS),
    ),
)


@st.composite
def _value_and_base(draw):
    """A base of arbitrary bit patterns and a value whose words each either
    equal the base word, sit a small signed step away from it (narrow code
    planes) or are unrelated to it."""
    base = draw(any_words)
    fresh = draw(any_words)
    step = draw(arrays(np.int64, base.size, elements=st.integers(-(2**16), 2**16)))
    near = (base.view(np.int64) + step).view(np.uint64)
    choice = draw(arrays(np.int8, base.size, elements=st.integers(0, 2)))
    value = np.choose(choice, [base, near, fresh])
    return value.view(np.float64), base.view(np.float64)


def _sparse_change(seed, n=1024, share=0.1):
    rng = np.random.default_rng(seed)
    base = rng.standard_normal(n)
    value = base.copy()
    moved = rng.random(n) < share
    value[moved] *= 1.0 + 1e-9 * rng.standard_normal(int(moved.sum()))
    return value, base


class TestDeltaCodec:
    @settings(max_examples=80, deadline=None)
    @given(pair=_value_and_base())
    def test_round_trip_bitwise_any_base(self, pair):
        """Deltas reproduce the value bit-for-bit against any base, for any
        bit pattern (NaN payloads, -0.0, denormals, +-inf): the residual
        lives on raw uint64 words, never on float arithmetic."""
        value, base = pair
        blob = delta_encode(value, base, base_id=3)
        assert is_delta_blob(blob)
        assert blob.meta["base_id"] == 3
        assert blob.meta["format_version"] == SHARDED_FORMAT_VERSION
        restored = delta_decode(blob, base)
        assert restored.tobytes() == value.tobytes()

    def test_frame_is_mask_then_code_planes(self):
        value, base = _sparse_change(7, n=100)
        moved = int(np.count_nonzero(value != base))
        sections = decompress_sections(delta_encode(value, base, base_id=0).payload)
        assert sections[0].size == 13  # ceil(100 / 8) mask bytes
        assert 1 <= len(sections) - 1 <= 8
        assert all(plane.size == moved for plane in sections[1:])

    def test_near_base_deltas_are_small(self, rng):
        base = rng.standard_normal(4096)
        value = base * (1.0 + 1e-12 * rng.standard_normal(4096))
        blob = delta_encode(value, base, base_id=0)
        assert blob.nbytes < value.nbytes / 3
        assert delta_decode(blob, base).tobytes() == value.tobytes()

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            delta_encode(np.ones(4), np.ones(5), base_id=0)
        blob = delta_encode(np.ones(4), np.zeros(4), base_id=0)
        with pytest.raises(ValueError, match="elements"):
            delta_decode(blob, np.zeros(5))

    def test_wrong_compressor_rejected(self):
        blob = delta_encode(np.ones(4), np.zeros(4), base_id=0)
        blob.compressor = "zlib"
        with pytest.raises(ValueError, match="delta64"):
            delta_decode(blob, np.zeros(4))

    @pytest.mark.parametrize("version", [None, 0, 1, 3])
    def test_other_format_versions_rejected(self, version):
        """Only the RSF2 layout decodes; v1 block-codec deltas never outlive
        the pipeline that holds their base, so no reader is kept for them."""
        blob = delta_encode(np.ones(4), np.zeros(4), base_id=0)
        if version is None:
            del blob.meta["format_version"]
        else:
            blob.meta["format_version"] = version
        with pytest.raises(ValueError, match="format version"):
            delta_decode(blob, np.zeros(4))


class TestPinnedDeltaFrames:
    """Delta payload bytes are a pure function of value and base; pin them
    so an accidental layout or level change cannot pass unnoticed."""

    @pytest.mark.parametrize(
        "share, digest",
        [
            (1.0, "46e00fa8e5e4d5779f1f631db5d159f8117a9ece57e9f8e0f143eccb9877e77e"),
            (0.1, "dc97f5b9062ef57bc003d50d793d388c5096c0d31b35fbb68da37cec602b4400"),
            (0.0, "c6e243ad409b14bef6220547472aac2cd433da83a378f0cc362ad9805a2bd3ce"),
        ],
        ids=["dense", "sparse", "all-zero"],
    )
    def test_delta_bytes_pinned(self, share, digest):
        value, base = _sparse_change(29, share=share)
        payload = delta_encode(value, base, base_id=4).payload
        assert hashlib.sha256(payload).hexdigest() == digest


class TestCorruptDeltaPayloads:
    """Truncated or bit-flipped payloads fail with ``ValueError`` before any
    oversized allocation — never ``MemoryError`` or ``IndexError``."""

    @settings(max_examples=150, deadline=None)
    @given(
        pair=_value_and_base(),
        cut=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    )
    def test_truncation_raises_value_error(self, pair, cut):
        value, base = pair
        blob = delta_encode(value, base, base_id=0)
        blob.payload = blob.payload[: int(cut * len(blob.payload))]
        with pytest.raises(ValueError):
            delta_decode(blob, base)

    @settings(max_examples=300, deadline=None)
    @given(
        pair=_value_and_base(),
        where=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    )
    def test_bit_flip_raises_or_decodes_in_place(self, pair, where):
        """A flip is either rejected or confined to one element: header,
        tables, mask (popcount) and coded shards are all checked, and only
        raw-stored code-plane bytes carry no checksum in an RSF2 frame."""
        value, base = pair
        blob = delta_encode(value, base, base_id=0)
        payload = bytearray(blob.payload)
        bit = int(where * 8 * len(payload))
        payload[bit // 8] ^= 1 << (bit % 8)
        blob.payload = bytes(payload)
        try:
            restored = delta_decode(blob, base)
        except ValueError:
            return
        assert restored.shape == value.shape
        differs = restored.view(np.uint64) != value.view(np.uint64)
        assert np.count_nonzero(differs) <= 1


def _drifting_states(n=256, steps=12, seed=5):
    """A converging-iterate-like sequence: successive states stay close
    (relative drift small enough that bit residuals pack well)."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    states = [x.copy()]
    for step in range(1, steps):
        x = x + rng.standard_normal(n) * 10.0 ** (-6.0 - 0.4 * step)
        states.append(x.copy())
    return states


class TestIncrementalPipeline:
    def test_lossless_chain_restores_bitwise_after_n_deltas(self):
        """Every payload of a committed delta chain restores bit-for-bit."""
        pipeline = CheckpointPipeline(
            CheckpointingScheme.lossless(),
            spec=JacobiSolver.checkpoint_spec,
            incremental=True,
            keyframe_interval=4,
        )
        states = _drifting_states()
        snaps = []
        for i, x in enumerate(states):
            snap = pipeline.snapshot(x, iteration=i, checkpoint_id=i)
            pipeline.commit(snap)
            snaps.append(snap)
        shipped = [s.variables[-1].compressor for s in snaps]
        assert DELTA_COMPRESSOR in shipped  # deltas actually won somewhere
        for i, (x, snap) in enumerate(zip(states, snaps)):
            restored = pipeline.restore(payload=snap.payload)
            assert restored.x.tobytes() == x.tobytes(), f"checkpoint {i}"

    def test_keyframe_cadence(self):
        pipeline = CheckpointPipeline(
            CheckpointingScheme.lossless(),
            spec=JacobiSolver.checkpoint_spec,
            incremental=True,
            keyframe_interval=4,
        )
        states = _drifting_states(steps=9)
        for i, x in enumerate(states):
            snap = pipeline.snapshot(x, iteration=i, checkpoint_id=i)
            pipeline.commit(snap)
            if i % 4 == 0:
                # Keyframes never reference a base, whatever the history.
                assert snap.base_id is None
            elif i > 0:
                assert snap.base_id == i - 1

    def test_lossy_chain_respects_bound_after_n_deltas(self, poisson_small):
        """Restores along a lossy delta chain honour the pointwise bound with
        zero accumulation (deltas ride the bound-respecting reconstruction)."""
        eb = 1e-4
        solver = JacobiSolver(poisson_small.A, rtol=1e-4, max_iter=50000)
        pipeline = CheckpointPipeline(
            CheckpointingScheme.lossy(eb),
            solver=solver,
            incremental=True,
            keyframe_interval=4,
        )
        captured = []
        solver.solve(poisson_small.b, callback=lambda s: captured.append(s.x.copy()))
        states = captured[:: max(1, len(captured) // 10)][:10]
        for i, x in enumerate(states):
            snap = pipeline.snapshot(x, iteration=i, checkpoint_id=i)
            pipeline.commit(snap)
            restored = pipeline.restore(payload=snap.payload)
            assert np.all(
                np.abs(restored.x - x) <= eb * np.abs(x) + 1e-300
            ), f"bound violated at delta-chain position {i}"

    def test_exact_resume_vectors_survive_the_chain(self, poisson_small):
        solver = CGSolver(poisson_small.A, rtol=1e-7, max_iter=1000)
        states = []
        solver.solve(poisson_small.b, callback=lambda s: states.append(s))
        pipeline = CheckpointPipeline(
            CheckpointingScheme.lossless(),
            solver=solver,
            store=MemoryCheckpointStore(),
            incremental=True,
        )
        picks = states[2:8]
        for i, state in enumerate(picks):
            resume = solver.capture_resume_state(state)
            snap = pipeline.snapshot(
                state.x, iteration=state.iteration, resume_state=resume,
                checkpoint_id=i,
            )
            pipeline.commit(snap)
            restored = pipeline.restore(i)
            assert restored.x.tobytes() == state.x.tobytes()
            assert (
                restored.resume_state.vectors["p"].tobytes()
                == resume.vectors["p"].tobytes()
            )

    def test_restore_without_base_raises(self):
        pipeline = CheckpointPipeline(
            CheckpointingScheme.lossless(),
            spec=JacobiSolver.checkpoint_spec,
            incremental=True,
        )
        states = _drifting_states(steps=3)
        delta_snap = None
        for i, x in enumerate(states):
            snap = pipeline.snapshot(x, iteration=i, checkpoint_id=i)
            pipeline.commit(snap)
            if snap.base_id is not None:
                delta_snap = snap
        assert delta_snap is not None
        fresh = CheckpointPipeline(
            CheckpointingScheme.lossless(),
            spec=JacobiSolver.checkpoint_spec,
            incremental=True,
        )
        with pytest.raises(KeyError, match="base checkpoint"):
            fresh.restore(payload=delta_snap.payload)

    def test_uncommitted_snapshot_is_not_a_base(self):
        """Deltas reference the last *committed* payload, not the last taken."""
        pipeline = CheckpointPipeline(
            CheckpointingScheme.lossless(),
            spec=JacobiSolver.checkpoint_spec,
            incremental=True,
            keyframe_interval=100,
        )
        states = _drifting_states(steps=4)
        first = pipeline.snapshot(states[0], iteration=0, checkpoint_id=1)
        pipeline.commit(first)
        discarded = pipeline.snapshot(states[1], iteration=1, checkpoint_id=2)
        assert discarded.base_id == 1
        # The dirty write never commits; the next snapshot still bases on 1.
        third = pipeline.snapshot(states[2], iteration=2, checkpoint_id=3)
        assert third.base_id == 1
        pipeline.commit(third)
        restored = pipeline.restore(payload=third.payload)
        assert restored.x.tobytes() == states[2].tobytes()

    def test_delta_base_survives_in_place_mutation_of_source(self):
        """The committed base must be frozen even if the caller keeps
        mutating the snapshotted buffer (solvers update x in place)."""
        pipeline = CheckpointPipeline(
            CheckpointingScheme.traditional(),
            spec=JacobiSolver.checkpoint_spec,
            incremental=True,
            keyframe_interval=100,
        )
        live = np.linspace(1.0, 2.0, 256)
        pipeline.commit(pipeline.snapshot(live, iteration=0, checkpoint_id=1))
        second = live * (1.0 + 1e-12)
        snap = pipeline.snapshot(second, iteration=1, checkpoint_id=2)
        pipeline.commit(snap)
        live *= -3.0  # the solver moves on; the frozen base must not follow
        restored = pipeline.restore(payload=snap.payload)
        assert restored.x.tobytes() == second.tobytes()

    def test_non_incremental_payloads_carry_no_deltas(self):
        pipeline = CheckpointPipeline(
            CheckpointingScheme.lossless(), spec=JacobiSolver.checkpoint_spec
        )
        states = _drifting_states(steps=4)
        for i, x in enumerate(states):
            snap = pipeline.snapshot(x, iteration=i, checkpoint_id=i)
            pipeline.commit(snap)
            assert snap.base_id is None
            assert all(m.compressor != DELTA_COMPRESSOR for m in snap.variables)

    def test_delta_ships_only_when_smaller(self, rng):
        """Uncorrelated successive states fall back to the full payload."""
        pipeline = CheckpointPipeline(
            CheckpointingScheme.traditional(),
            spec=JacobiSolver.checkpoint_spec,
            incremental=True,
            keyframe_interval=100,
        )
        a = rng.standard_normal(256)
        b = rng.standard_normal(256) * 1e17  # nothing in common with a
        pipeline.commit(pipeline.snapshot(a, iteration=0, checkpoint_id=1))
        snap = pipeline.snapshot(b, iteration=1, checkpoint_id=2)
        (x_meas,) = [m for m in snap.variables if m.name == "x"]
        assert x_meas.compressor != DELTA_COMPRESSOR
        restored = pipeline.restore(payload=snap.payload)
        assert restored.x.tobytes() == b.tobytes()
