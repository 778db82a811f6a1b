"""Fast self-test of the benchmark harness on a tiny grid.

    python3 perfbench/selftest.py

Checks that every metric named in BENCHMARK.json is emitted with its unit,
that the tracer restores every callable it wrapped, that a deliberately
failing cell (one that raises, one that does not converge) is counted in
``failed_cell_share``, and that a traced pass reproduces the untraced
reports byte for byte.  Exits non-zero on the first failed check.
"""

from __future__ import annotations

import importlib
import shutil
import sys

import run
import workloads as wl

TINY = "tiny"


def check(condition, message) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")
    print(f"ok  {message}")


def _tiny_workload() -> None:
    wl.WORKLOADS[TINY] = {
        "why": "self-test",
        "configs": [
            wl._cfg("jacobi", 8, "traditional"),
            wl._cfg("cg", 8, "lossy", "async", "chunked"),
            wl._cfg("gmres", 8, "lossless", "async", "disk"),
        ],
        "loads": [],
        "light": [],
        "bypasses": [],
    }


def _originals(tracer_module):
    found = {}
    for module_name, class_name, attr, _ in tracer_module.ENTRY_POINTS:
        owner = importlib.import_module(module_name)
        if class_name is not None:
            owner = getattr(owner, class_name)
        found[(module_name, class_name, attr)] = (owner, getattr(owner, attr))
    return found


def _check_emitted(metrics, values, group) -> None:
    missing = [m["name"] for m in metrics if m["name"] not in values]
    check(not missing, f"every {group} metric is computed (missing: {missing})")
    emitted = run._emit(metrics, values)
    check(
        all(
            isinstance(emitted[m["name"]]["value"], (int, float))
            and emitted[m["name"]]["unit"] == m["unit"]
            for m in metrics
        ),
        f"every {group} metric is emitted as a number with its unit",
    )


def main() -> int:
    spec = run._benchmark_spec()
    scratch = run._prepare_environment()
    try:
        return _checks(spec)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _checks(spec) -> int:
    import tracer as tracer_module
    from repro.campaign import run_campaign
    from repro.solvers.base import IterativeSolver

    _tiny_workload()
    originals = _originals(tracer_module)
    bind = IterativeSolver.__dict__["_bind_matvec"]
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        check(
            all(getattr(owner, attr) is not fn for (_, _, attr), (owner, fn) in originals.items()),
            "tracer wraps every entry point",
        )
        run._setup(TINY)
        setup_spans = {k: tracer.stat(k).span_s for k in ("setup.baseline", "setup.characterize")}
        tracer.reset()
        traced, _ = run._timed_phase(TINY, 3, 1, tracer.wrap("campaign.cell", run_campaign))
    finally:
        tracer.uninstall()
    check(
        all(getattr(owner, attr) is fn for (_, _, attr), (owner, fn) in originals.items())
        and IterativeSolver.__dict__["_bind_matvec"] is bind,
        "uninstall restores every original callable",
    )
    # The untraced pass runs second: the traced one must be the cold process
    # state, so that every solver it builds carries the timed kernel.
    runs, wall = run._timed_phase(TINY, 3, 1, run_campaign)
    check(run.check_outputs(runs) == 0, "tiny cells pass the output check")
    check(run.report_digest(traced) == run.report_digest(runs), "traced reports match untraced")
    _check_emitted(spec["end_to_end"], run.end_to_end(runs, setup_s=1.0), "end-to-end")
    layer_values = run.per_layer(tracer, traced, setup_spans)
    layer_values.update(run._host_probes(TINY))
    layer_values.update(run.campaign_view(runs, wall))
    _check_emitted(spec["per_layer"], layer_values, "per-layer")
    check(layer_values["store.writes"] > 0, "async cells write to a physical store")
    check(layer_values["sparse.matvecs"] > 0, "matvecs are counted")

    def raising(cells, n_workers):
        raise RuntimeError("deliberate failure")

    def unconverged(cells, n_workers):
        return run_campaign([c.with_overrides(max_iter=2) for c in cells], n_workers=n_workers)

    for label, send in (("raising", raising), ("non-converging", unconverged)):
        bad, bad_wall = run._timed_phase(TINY, 5, 1, send)
        failed = run.check_outputs(bad)
        share = run.campaign_view(bad, bad_wall)["campaign.failed_cell_share"]
        check(failed == len(bad) and share == 1.0, f"{label} cells count in failed_cell_share")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
