"""End-to-end campaign benchmark with per-layer attribution.

Run from the root of a checkout::

    python3 perfbench/run.py --workload lossy-blocking --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --describe        # workloads and every metric with its unit

Each run is one cold process.  It sets up the workload the way a campaign
user does (imports, problem assembly, failure-free baselines and one
``kind="characterize"`` campaign over every configuration), then a closed
loop with a single client sends failure-injected cells one at a time to
``repro.campaign.run_campaign(..., n_workers=1)`` without a result cache,
in whole rounds.  The number of rounds is a fixed function of ``--seconds``
(``workloads.rounds_for``), never of measured time, so every run with the
same arguments does the same work on any commit.  Every cell's output is
checked; the last line of standard output is one JSON object with the
metrics.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` runs an untraced pass over half the rounds, then the same
cells again in a fresh child process with wrappers around each layer
(``tracer.py``), checks that both passes produced identical reports, and
reports the per-layer metrics of ``BENCHMARK.json``.
"""

from __future__ import annotations

import time

_PROCESS_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import List, Optional  # noqa: E402

import workloads as wl  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Per-layer self times must add up to the traced wall time within this share.
SELF_TIME_TOLERANCE = 0.02
#: A run must end within this many seconds (the traced child included).
RUN_LIMIT_S = 170.0


class SetupError(RuntimeError):
    """The checkout does not hold the program the benchmark measures."""


def _benchmark_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise SetupError(f"{path.name} not found at the checkout root")
    return json.loads(path.read_text())


def _prepare_environment() -> Path:
    """Import ``repro`` from this checkout's ``src`` with no REPRO_* set.

    Temporary files (the disk store's payload directory) go to a directory
    inside the checkout, which the caller removes.
    """
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SetupError(f"no program sources at {src}/repro")
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        print(f"unsetting {name} for the benchmark", file=sys.stderr)
        del os.environ[name]
    scratch = ROOT / ".perfbench_tmp" / str(os.getpid())
    scratch.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(scratch)
    tempfile.tempdir = str(scratch)
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SetupError(f"imported repro from {repro.__file__}, not from {src}")
    return scratch


# -- the run -------------------------------------------------------------------


@dataclass
class CellRun:
    """One attempted cell: its spec, result (None if it raised), wall
    seconds and the output-check problems found."""

    spec: object
    result: Optional[dict]
    seconds: float
    problems: List[str]


def _setup(workload: str) -> None:
    """One characterize campaign over every configuration of the workload."""
    from repro.campaign import RunSpec, run_campaign

    cells = [
        RunSpec(**wl.spec_fields(cfg, "characterize"))
        for cfg in wl.WORKLOADS[workload]["configs"]
    ]
    run_campaign(cells, n_workers=1)


def _timed_phase(workload, seed, rounds, send):
    """Closed loop, one client: send each cell after the previous completed.

    Runs ``rounds`` whole rounds.  Returns (cells, wall seconds).
    """
    from repro.campaign import RunSpec

    configs = wl.WORKLOADS[workload]["configs"]
    runs = []
    start = time.perf_counter()
    for r in range(rounds):
        for position, cfg in enumerate(configs):
            spec = RunSpec(
                **wl.spec_fields(cfg, "ft", wl.cell_seed(workload, seed, r, position))
            )
            began = time.perf_counter()
            try:
                outcome = send([spec], n_workers=1).outcomes[0]
            except Exception:  # a raising cell is counted, not fatal
                traceback.print_exc()
                runs.append(
                    CellRun(spec, None, time.perf_counter() - began, ["raised"])
                )
                continue
            runs.append(CellRun(spec, outcome.result, outcome.seconds, []))
    wall = time.perf_counter() - start
    seeds = [c.spec.seed for c in runs]
    if len(set(seeds)) != len(seeds):
        raise RuntimeError("two cells of one run share a seed")
    return runs, wall


def _b_norms(runs) -> dict:
    """``||b||`` of every problem size in the run, from a fresh assembly."""
    import numpy as np
    from repro.sparse.poisson import poisson_system

    norms = {}
    for grid_n in sorted({c.spec.grid_n for c in runs}):
        problem = poisson_system(grid_n, seed=wl.PROBLEM_SEED)
        norms[grid_n] = float(np.linalg.norm(problem.b))
    return norms


def check_outputs(runs) -> int:
    """Check every cell's report; record problems on the cell; count failures."""
    norms = _b_norms(runs)
    for cell in runs:
        if cell.result is None:
            continue
        report = cell.result["report"]
        if not report["converged"]:
            cell.problems.append("did not converge")
        if report["info"].get("gave_up", False):
            cell.problems.append("gave up")
        trace = report["residual_trace"]
        final = trace[-1][1] if trace else math.inf
        limit = wl.RTOL[cell.spec.method] * norms[cell.spec.grid_n]
        if not final <= limit:
            cell.problems.append(f"final residual {final:.3e} > rtol*||b|| {limit:.3e}")
        if report["num_checkpoints"] <= 0:
            cell.problems.append("no checkpoint taken")
    failed = [c for c in runs if c.problems]
    for cell in failed:
        print(
            f"FAILED cell {cell.spec.method}/{cell.spec.scheme} seed {cell.spec.seed}: "
            + "; ".join(cell.problems),
            file=sys.stderr,
        )
    return len(failed)


def report_digest(runs) -> str:
    """SHA-256 over the cells' result JSON, keys sorted, in cell order."""
    payload = json.dumps(
        [c.result for c in runs], sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def tail_percentile(values):
    """Highest nearest-rank percentile with at least ten samples above it.

    Returns (percentile, value); (None, max) when there are ten or fewer.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return None, ordered[-1]
    rank = n - 10  # 1-based rank of the value with ten samples beyond it
    return 100.0 * rank / n, ordered[rank - 1]


def end_to_end(runs, setup_s) -> dict:
    """The gated end-to-end metrics of an untraced pass."""
    reports = [c.result["report"] for c in runs if c.result is not None]
    return {
        "iters_per_s": iteration_rate(runs),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        # Geometric mean: the ratios span 1 (traditional) to ~15 (SZ), and
        # one lossy configuration's seed-to-seed swing must not swamp the
        # others.
        "checkpoint_ratio": _geomean(r["mean_compression_ratio"] for r in reports),
        # The paper's (N + N') / N over all cells.
        "iters_vs_baseline": sum(r["total_iterations"] for r in reports)
        / max(1, sum(r["baseline_iterations"] for r in reports)),
    }


def iteration_rate(runs) -> float:
    """Modeled solver iterations advanced per wall second.

    Per configuration: iterations on the modeled timeline (every entry of
    each report's ``residual_trace``, re-executed ones included) over the
    wall seconds of the cells that saw at least one failure; the geometric
    mean over configurations, so a 262k-unknown CG iteration and a
    32k-unknown Jacobi iteration weigh alike.  A cell without a failure
    follows the failure-free trajectory, which the engine can serve from
    memory in a few milliseconds; how many such cells a seed draws would
    swing the rate by up to 2x, so they are left out of it (they still run
    and are checked, and ``campaign.cells_per_s`` includes them).
    """
    by_config = {}
    for cell in runs:
        if cell.result is not None:
            by_config.setdefault(_config_key(cell.spec), []).append(cell)
    rates = []
    for cells in by_config.values():
        failing = [c for c in cells if c.result["report"]["num_failures"] > 0] or cells
        iterations = sum(len(c.result["report"]["residual_trace"]) for c in failing)
        rates.append(iterations / sum(c.seconds for c in failing))
    return _geomean(rates)


def _config_key(spec):
    return (spec.method, spec.grid_n, spec.scheme, spec.write_mode, spec.store_backend)


def campaign_view(runs, wall) -> dict:
    """Campaign throughput, per-cell latency and modeled overhead, reported
    but not gated: at the 20-24 cells one run affords they vary too much
    from seed to seed (IQR / median over seeds: 0.16-0.23 for cells/s,
    0.15-0.8 for the others)."""
    reports = [c.result["report"] for c in runs if c.result is not None]
    seconds = [c.seconds for c in runs]
    overheads = [c.result["overhead_fraction"] for c in runs if c.result is not None]
    return {
        "campaign.cells_per_s": len(runs) / wall,
        "campaign.cell_p50_s": statistics.median(seconds),
        "campaign.cell_tail_s": tail_percentile(seconds)[1],
        "campaign.failed_cell_share": sum(1 for c in runs if c.problems) / len(runs),
        "engine.modeled_overhead_pct": 100.0 * statistics.fmean(overheads) if overheads else 0.0,
        "engine.extra_iters_per_cell": statistics.fmean(
            r["total_iterations"] - r["baseline_iterations"] for r in reports
        )
        if reports
        else 0.0,
    }


def _geomean(values) -> float:
    logs = [math.log(v) for v in values]
    return math.exp(statistics.fmean(logs)) if logs else 0.0


# -- traced child --------------------------------------------------------------


def _host_probes(workload: str) -> dict:
    """zlib and sparse-kernel rates on the workload's own largest problem."""
    import zlib

    import numpy as np
    from repro.sparse.poisson import poisson_system
    from scipy.sparse._sparsetools import csr_matvec

    grid_n = max(cfg["grid_n"] for cfg in wl.WORKLOADS[workload]["configs"])
    problem = poisson_system(grid_n, seed=wl.PROBLEM_SEED)
    # Checkpoint-shaped: full-length float64 vectors of the solved field.
    raw = [np.ascontiguousarray(v).tobytes() for v in (problem.x_true, problem.b)]
    done, start = 0, time.perf_counter()
    while time.perf_counter() - start < 0.4:
        for chunk in raw:
            zlib.compress(chunk, 2)
            done += len(chunk)
    zlib_mbps = done / 1e6 / (time.perf_counter() - start)

    A = problem.A
    n = A.shape[0]
    per_call = A.data.nbytes + A.indices.nbytes + A.indptr.nbytes + 16 * n
    x = np.ascontiguousarray(problem.x_true, dtype=np.float64).ravel()
    y = np.zeros(n)
    calls, start = 0, time.perf_counter()
    while time.perf_counter() - start < 0.4:
        y[:] = 0.0
        csr_matvec(n, n, A.indptr, A.indices, A.data, x, y)
        calls += 1
    matvec_gbps = calls * per_call / 1e9 / (time.perf_counter() - start)
    try:
        llc_size = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        llc_size = "unknown"
    print(
        f"host probe: n={n}, matvec arrays {per_call / 1e6:.1f} MB (computed), "
        f"LLC {llc_size}; zlib level 2 on {sum(map(len, raw)) / 1e6:.1f} MB of vectors",
        file=sys.stderr,
    )
    return {"host.zlib_mbps": zlib_mbps, "host.matvec_gbps": matvec_gbps}


def _rate(nbytes, seconds, unit=1e6) -> float:
    return nbytes / unit / seconds if seconds > 0 else 0.0


def per_layer(tracer, runs, setup_spans) -> dict:
    """Every per-layer metric of a traced pass."""
    s = tracer.stat
    reports = [c.result["report"] for c in runs if c.result is not None]
    modeled_iters = sum(r["total_iterations"] for r in reports)
    checkpoints = sum(r["num_checkpoints"] for r in reports)
    callbacks = s("engine.callback")
    return {
        "engine.run_s": s("engine.run").span_s,
        "engine.self_s": tracer.layer_self_s("engine"),
        "engine.callbacks": callbacks.calls,
        "engine.callback_us": 1e6 * callbacks.self_s / callbacks.calls
        if callbacks.calls
        else 0.0,
        "solvers.solve_calls": s("solvers.solve").calls,
        "solvers.iterations": tracer.executed_iterations,
        "solvers.self_s": tracer.layer_self_s("solvers"),
        "solvers.executed_per_modeled": tracer.executed_iterations / modeled_iters
        if modeled_iters
        else 0.0,
        "sparse.matvecs": s("sparse.matvec").calls,
        "sparse.matvec_s": s("sparse.matvec").span_s,
        "sparse.matvec_gbps": _rate(s("sparse.matvec").nbytes, s("sparse.matvec").span_s, 1e9),
        "pipeline.snapshots": s("pipeline.snapshot").calls,
        "pipeline.snapshot_s": s("pipeline.snapshot").span_s,
        "pipeline.snapshot_mbps": _rate(
            s("pipeline.snapshot").nbytes, s("pipeline.snapshot").span_s
        ),
        "pipeline.snapshots_per_checkpoint": s("pipeline.snapshot").calls / checkpoints
        if checkpoints
        else 0.0,
        "pipeline.commit_s": s("pipeline.commit").span_s,
        "pipeline.restores": s("pipeline.restore").calls,
        "pipeline.restore_s": s("pipeline.restore").span_s,
        "compression.compress_s": s("compression.compress").span_s,
        "compression.compress_mbps": _rate(
            s("compression.compress").nbytes, s("compression.compress").span_s
        ),
        "compression.decompress_s": s("compression.decompress").span_s,
        "compression.decompress_mbps": _rate(
            s("compression.decompress").nbytes, s("compression.decompress").span_s
        ),
        "store.writes": s("store.write").calls,
        "store.write_s": s("store.write").span_s,
        "store.write_mb": s("store.write").nbytes / 1e6,
        "store.reads": s("store.read").calls,
        "store.read_s": s("store.read").span_s,
        "store.read_mb": s("store.read").nbytes / 1e6,
        "campaign.cell_self_s": tracer.layer_self_s("campaign"),
        "setup.baseline_s": setup_spans["setup.baseline"],
        "setup.characterize_s": setup_spans["setup.characterize"],
    }


def traced_child(args) -> dict:
    """The traced pass: same cells as the parent's untraced pass."""
    from repro.campaign import run_campaign

    from tracer import LAYERS, Tracer

    tracer = Tracer()
    tracer.install()
    try:
        _setup(args.workload)
        setup_spans = {
            key: tracer.stat(key).span_s for key in ("setup.baseline", "setup.characterize")
        }
        tracer.reset()
        runs, wall = _timed_phase(
            args.workload,
            args.seed,
            _rounds(args),
            tracer.wrap("campaign.cell", run_campaign),
        )
    finally:
        tracer.uninstall()
    self_sum = sum(tracer.layer_self_s(layer) for layer in LAYERS)
    metrics = per_layer(tracer, runs, setup_spans)
    metrics.update(_host_probes(args.workload))
    return {
        "digest": report_digest(runs),
        "wall_s": wall,
        "self_sum_s": self_sum,
        "cells": len(runs),
        "metrics": metrics,
    }


def run_traced_child(args, deadline) -> dict:
    """Run the traced pass in a fresh process and return its result."""
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", "1",
        "--traced-child",
    ]
    timeout = max(1.0, deadline - time.perf_counter())
    done = subprocess.run(
        command, capture_output=True, text=True, timeout=timeout, cwd=str(ROOT)
    )
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        raise RuntimeError(f"traced child exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


# -- output --------------------------------------------------------------------


def _emit(spec_metrics, values) -> dict:
    out = {}
    for metric in spec_metrics:
        value = values[metric["name"]]
        out[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"  {metric['name']:<36} {value:>14.6g} {metric['unit']}")
    return out


def describe(spec) -> None:
    """Print the workloads, the layer map and every metric with its unit."""
    print(f"held-out seed for checking claims: {wl.HELD_OUT_SEED}")
    listed = {w["name"] for w in spec["workloads"]}
    for name, workload in wl.WORKLOADS.items():
        state = "" if name in listed else " [not in BENCHMARK.json, see workloads.py]"
        print(f"\nworkload {name}{state}: {workload['why']}")
        for cfg in workload["configs"]:
            print(
                f"  {cfg['method']:<8} n={cfg['grid_n'] ** 3:<7} {cfg['scheme']:<11} "
                f"{cfg['write_mode']:<8} store={cfg['store_backend']}"
            )
        print(f"  loads:    {', '.join(workload['loads'])}")
        if workload["light"]:
            print(f"  light:    {', '.join(workload['light'])}")
        if workload["bypasses"]:
            print(f"  bypasses: {', '.join(workload['bypasses'])}")
    print("\nlayer -> end-to-end metric it should move (most load / least load)")
    for layer, (moves, most, least) in wl.LAYER_MAP.items():
        print(f"  {layer:<20} {moves}  [{most} / {least}]")
    for group in ("end_to_end", "per_layer"):
        print(f"\n{group} metrics:")
        for metric in spec[group]:
            bound = f" bound {metric['bound']}" if "bound" in metric else ""
            print(f"  {metric['name']:<36} {metric['unit']:<10} {metric['better']}{bound}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--describe", action="store_true")
    parser.add_argument("--traced-child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.describe and args.workload is None:
        parser.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    deadline = _PROCESS_T0 + RUN_LIMIT_S
    try:
        spec = _benchmark_spec()
        if args.describe:
            describe(spec)
            return 0
        scratch = _prepare_environment()
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    try:
        if args.traced_child:
            print(json.dumps(traced_child(args)))
            return 0
        return _run(args, spec, deadline)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.parent.rmdir()


def _rounds(args) -> int:
    """Rounds per pass.  A traced run makes two passes (untraced, then
    traced), each over half the rounds, so it stays within the run limit."""
    seconds = args.seconds if args.trace == 0 else args.seconds / 2
    return wl.rounds_for(args.workload, seconds)


def _run(args, spec, deadline) -> int:
    from repro.campaign import run_campaign

    _setup(args.workload)
    setup_s = time.perf_counter() - _PROCESS_T0
    rounds = _rounds(args)
    runs, wall = _timed_phase(args.workload, args.seed, rounds, run_campaign)
    failed = check_outputs(runs)
    values = end_to_end(runs, setup_s)
    digest = report_digest(runs)
    correct = failed == 0

    campaign = campaign_view(runs, wall)
    print(
        f"workload {args.workload}, seed {args.seed}: {len(runs)} cells in {rounds} rounds, "
        f"{wall:.2f} s timed after {setup_s:.2f} s set-up"
    )
    print(f"report digest sha256 {digest}")
    pct = tail_percentile([c.seconds for c in runs])[0]
    print(
        f"cell_tail_s is the p{pct:.1f} of {len(runs)} cell times"
        if pct is not None
        else f"cell_tail_s is the maximum of {len(runs)} cell times"
    )
    print(f"failed cells {failed}/{len(runs)}")
    for name, value in campaign.items():
        print(f"  ({name} {value:.6g})")

    if args.trace == 0:
        metrics = _emit(spec["end_to_end"], values)
    else:
        child = run_traced_child(args, deadline)
        overhead = child["wall_s"] - wall
        print(
            f"tracing overhead: traced {child['wall_s']:.2f} s - untraced {wall:.2f} s "
            f"= {overhead:.2f} s ({100 * overhead / wall:.1f}%)"
        )
        coverage = child["self_sum_s"] / child["wall_s"]
        print(f"per-layer self times sum to {100 * coverage:.2f}% of the traced wall time")
        if child["digest"] != digest or child["cells"] != len(runs):
            print("traced reports differ from untraced reports", file=sys.stderr)
            correct = False
        if abs(coverage - 1.0) > SELF_TIME_TOLERANCE:
            print(
                f"self times miss the traced wall time by more than "
                f"{100 * SELF_TIME_TOLERANCE:.0f}%",
                file=sys.stderr,
            )
            correct = False
        metrics = _emit(spec["per_layer"], {**child["metrics"], **campaign})
    print(
        json.dumps(
            {"correct": correct, "attempted": len(runs), "failed": failed, "metrics": metrics}
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
