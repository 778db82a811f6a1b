"""Microbenchmark: checkpoint-pipeline snapshot/restore throughput.

Times :meth:`~repro.checkpoint.pipeline.CheckpointPipeline.snapshot` (the
full per-variable compress + serialize path) and
:meth:`~repro.checkpoint.pipeline.CheckpointPipeline.restore` on a mid-run
solver state for every scheme × solver combination, reporting **MB/s of
dynamic state pushed through the pipeline** and **checkpoints per second**.
This is the hot path of every engine run under measured costing, so its
throughput trajectory is worth tracking across PRs.

A second series, ``incremental``, drives an incremental pipeline (the mode
asynchronous engines use) through snapshot + commit over successive solver
states for Jacobi and CG under the traditional, lossless and lossy schemes.
Each row reports MB/s of dynamic state and the **shipped-delta share**: the
fraction of vector entries that could have shipped as a delta (a committed
base exists and the id is not a keyframe) and actually did.

Numbers go to ``BENCH_pipeline.json`` (override with the
``BENCH_PIPELINE_JSON`` environment variable); the nightly benchmarks
workflow uploads the file as an artifact.  The pipeline times itself
internally (perf_counter), so the file carries real rates even under
``--benchmark-disable``.
"""

import json
import os
import time

import numpy as np
from conftest import run_once

from repro.checkpoint import CheckpointPipeline
from repro.checkpoint.delta import DELTA_COMPRESSOR
from repro.checkpoint.serialization import deserialize_checkpoint
from repro.compression.base import CompressedBlob
from repro.core.schemes import CheckpointingScheme
from repro.solvers import BiCGStabSolver, CGSolver, GMRESSolver, JacobiSolver
from repro.sparse import poisson_system

_REPEATS = 5
_SNAPSHOTS_PER_REPEAT = 20

_SOLVERS = {
    "jacobi": lambda A: JacobiSolver(A, rtol=1e-4, max_iter=100000),
    "cg": lambda A: CGSolver(A, rtol=1e-7, max_iter=100000),
    "gmres": lambda A: GMRESSolver(A, rtol=7e-5, max_iter=100000),
    "bicgstab": lambda A: BiCGStabSolver(A, rtol=1e-7, max_iter=100000),
}

_SCHEMES = {
    "traditional": CheckpointingScheme.traditional,
    "lossless": CheckpointingScheme.lossless,
    "lossy": lambda: CheckpointingScheme.lossy(1e-4),
    "lossy-adaptive": lambda: CheckpointingScheme.lossy(1e-4, adaptive=True),
}

_INCREMENTAL_SOLVERS = ("jacobi", "cg")
_INCREMENTAL_SCHEMES = ("traditional", "lossless", "lossy")
#: Checkpoints per incremental run, spread evenly over the whole solve.
_INCREMENTAL_STATES = 24
_INCREMENTAL_REPEATS = 3


def _payload_format_version(payload: bytes) -> int:
    """Highest blob payload-format version carried by a serialized checkpoint."""
    entries = deserialize_checkpoint(payload).entries.values()
    versions = [e.format_version for e in entries if isinstance(e, CompressedBlob)]
    return max(versions, default=0)


def _mid_run_state(solver, b, iterations=25):
    states = []
    solver.solve(b, callback=lambda s: states.append(s), max_iter=iterations)
    for state in reversed(states):
        if solver.capture_resume_state(state) is not None:
            return state
    return states[-1]


def _measure():
    problem = poisson_system(20, seed=42)
    b_norm = float(np.linalg.norm(problem.b))
    report = {"n": int(problem.A.shape[0]), "combinations": {}}
    for method, solver_factory in _SOLVERS.items():
        solver = solver_factory(problem.A)
        state = _mid_run_state(solver, problem.b)
        resume = solver.capture_resume_state(state)
        for scheme_name, scheme_factory in _SCHEMES.items():
            scheme = scheme_factory()
            pipeline = CheckpointPipeline(scheme, solver=solver)
            kwargs = dict(
                iteration=state.iteration,
                resume_state=resume if scheme.checkpoint_krylov_state else None,
                residual_norm=state.residual_norm,
                b_norm=b_norm,
            )
            snap = pipeline.snapshot(state.x, **kwargs)
            dynamic_bytes = snap.uncompressed_bytes
            best_snap = best_restore = None
            for _ in range(_REPEATS):
                start = time.perf_counter()
                for _ in range(_SNAPSHOTS_PER_REPEAT):
                    snap = pipeline.snapshot(state.x, **kwargs)
                elapsed = (time.perf_counter() - start) / _SNAPSHOTS_PER_REPEAT
                best_snap = elapsed if best_snap is None else min(best_snap, elapsed)
                start = time.perf_counter()
                for _ in range(_SNAPSHOTS_PER_REPEAT):
                    restored = pipeline.restore(payload=snap.payload)
                elapsed = (time.perf_counter() - start) / _SNAPSHOTS_PER_REPEAT
                best_restore = (
                    elapsed if best_restore is None else min(best_restore, elapsed)
                )
            assert restored.x.shape == state.x.shape
            report["combinations"][f"{scheme_name}/{method}"] = {
                "scheme": scheme_name,
                "method": method,
                "dynamic_bytes": int(dynamic_bytes),
                "payload_bytes": int(snap.serialized_bytes),
                "compression_ratio": float(snap.compression_ratio),
                "vectors": len(snap.vector_measurements),
                "snapshot_seconds": best_snap,
                "restore_seconds": best_restore,
                "snapshot_mb_per_s": dynamic_bytes / best_snap / 1024**2,
                "restore_mb_per_s": dynamic_bytes / best_restore / 1024**2,
                "checkpoints_per_s": 1.0 / best_snap,
                "format_version": _payload_format_version(snap.payload),
            }
    report["incremental"] = _measure_incremental(problem, b_norm)
    return report


def _successive_states(solver, b):
    """``_INCREMENTAL_STATES`` iterates evenly spaced over a full solve
    (copied: iteration states are live views of solver buffers)."""
    stride = max(1, solver.solve(b).iterations // _INCREMENTAL_STATES)
    states = []

    def grab(state):
        if state.iteration % stride == 0:
            states.append(
                (
                    state.iteration,
                    state.x.copy(),
                    solver.capture_resume_state(state),
                    state.residual_norm,
                )
            )

    solver.solve(b, callback=grab)
    return states[:_INCREMENTAL_STATES]


def _measure_incremental(problem, b_norm):
    """Snapshot + commit throughput and shipped-delta share of incremental
    pipelines over successive solver states."""
    rows = {}
    for method in _INCREMENTAL_SOLVERS:
        solver = _SOLVERS[method](problem.A)
        states = _successive_states(solver, problem.b)
        for scheme_name in _INCREMENTAL_SCHEMES:
            scheme = _SCHEMES[scheme_name]()
            best = None
            for _ in range(_INCREMENTAL_REPEATS):
                pipeline = CheckpointPipeline(scheme, solver=solver, incremental=True)
                snaps = []
                start = time.perf_counter()
                for checkpoint_id, (iteration, x, resume, residual_norm) in enumerate(
                    states
                ):
                    snap = pipeline.snapshot(
                        x,
                        iteration=iteration,
                        resume_state=resume if scheme.checkpoint_krylov_state else None,
                        residual_norm=residual_norm,
                        b_norm=b_norm,
                        checkpoint_id=checkpoint_id,
                    )
                    pipeline.commit(snap)
                    snaps.append(snap)
                elapsed = time.perf_counter() - start
                best = elapsed if best is None else min(best, elapsed)
            # Restoring the newest payload walks its whole delta chain.
            restored = pipeline.restore(payload=snaps[-1].payload)
            if scheme.stores_exactly("x"):
                assert restored.x.tobytes() == states[-1][1].tobytes()
            candidates = sum(
                len(snap.vector_measurements)
                for checkpoint_id, snap in enumerate(snaps)
                if checkpoint_id % pipeline.keyframe_interval != 0
            )
            shipped = sum(
                measurement.compressor == DELTA_COMPRESSOR
                for snap in snaps
                for measurement in snap.vector_measurements
            )
            dynamic_bytes = sum(snap.uncompressed_bytes for snap in snaps)
            payload_bytes = sum(snap.serialized_bytes for snap in snaps)
            rows[f"{scheme_name}/{method}"] = {
                "scheme": scheme_name,
                "method": method,
                "snapshots": len(snaps),
                "dynamic_bytes": int(dynamic_bytes),
                "payload_bytes": int(payload_bytes),
                "compression_ratio": dynamic_bytes / payload_bytes,
                "seconds": best,
                "snapshot_mb_per_s": dynamic_bytes / best / 1024**2,
                "delta_candidates": int(candidates),
                "deltas_shipped": int(shipped),
                "delta_share": shipped / candidates if candidates else 0.0,
            }
    return rows


def test_bench_pipeline_throughput(benchmark):
    report = run_once(benchmark, _measure)

    out_path = os.environ.get("BENCH_PIPELINE_JSON", "BENCH_pipeline.json")
    with open(out_path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)

    rows = report["combinations"]
    assert len(rows) == len(_SOLVERS) * len(_SCHEMES)
    for name, row in rows.items():
        # Every combination must push state through at a usable rate and the
        # payload must actually carry the declared state.
        assert row["checkpoints_per_s"] > 5.0, name
        assert row["snapshot_mb_per_s"] > 1.0, name
        assert row["payload_bytes"] > 0, name
        # Compressing schemes write sharded v2 payloads; traditional stores raw.
        if row["scheme"] == "traditional":
            assert row["format_version"] < 2, name
        else:
            assert row["format_version"] == 2, name
    # The measured payload composition: BiCGSTAB-exact stores 5 vectors.
    assert rows["traditional/bicgstab"]["vectors"] == 5
    assert rows["lossy/bicgstab"]["vectors"] == 1
    # Lossy checkpoints are smaller than traditional ones on solver iterates.
    assert (
        rows["lossy/jacobi"]["payload_bytes"]
        < rows["traditional/jacobi"]["payload_bytes"]
    )

    incremental = report["incremental"]
    assert len(incremental) == len(_INCREMENTAL_SOLVERS) * len(_INCREMENTAL_SCHEMES)
    for name, row in incremental.items():
        assert row["snapshots"] == _INCREMENTAL_STATES, name
        assert row["snapshot_mb_per_s"] > 1.0, name
        assert 0.0 <= row["delta_share"] <= 1.0, name
    # Some delta must ship somewhere, or the series measures nothing.
    assert any(row["deltas_shipped"] > 0 for row in incremental.values())
