"""Per-layer spans and counters for the traced benchmark run.

:class:`Tracer` wraps the public entry points of each layer of the program
with timing wrappers installed from outside (the program's sources are not
edited).  Every wrapper records one span: its duration is added to the
layer's ``span_s`` and to the parent span's child time, and the layer's
``self_s`` is the span minus its children, so the self times of all layers
add up to the duration of the root spans.  A call that re-enters the layer
it is already inside (``CGSolver.solve`` calling ``IterativeSolver.solve``,
a multilevel store writing to its backend, ``compress`` calling
``compress_with_record``) is passed through and counted once.

Wrappers exist only between :meth:`Tracer.install` and
:meth:`Tracer.uninstall`; the untraced run never imports this module.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Tuple

#: Each traced entry point: (module, class or None, attribute, layer key).
#: Compressor and store entries are also applied to every subclass that
#: overrides the attribute.
ENTRY_POINTS: Tuple[Tuple[str, Optional[str], str, str], ...] = (
    ("repro.engine.core", "FaultToleranceEngine", "run", "engine.run"),
    ("repro.engine.core", "FaultToleranceEngine", "_on_compute", "engine.callback"),
    ("repro.solvers.base", "IterativeSolver", "solve", "solvers.solve"),
    ("repro.checkpoint.pipeline", "CheckpointPipeline", "snapshot", "pipeline.snapshot"),
    ("repro.checkpoint.pipeline", "CheckpointPipeline", "commit", "pipeline.commit"),
    ("repro.checkpoint.pipeline", "CheckpointPipeline", "restore", "pipeline.restore"),
    ("repro.compression.base", "Compressor", "compress", "compression.compress"),
    ("repro.compression.base", "Compressor", "compress_with_record", "compression.compress"),
    (
        "repro.compression.base",
        "Compressor",
        "compress_with_reconstruction",
        "compression.compress",
    ),
    ("repro.compression.base", "Compressor", "decompress", "compression.decompress"),
    ("repro.checkpoint.store", "CheckpointStore", "write", "store.write"),
    ("repro.checkpoint.store", "CheckpointStore", "read", "store.read"),
    ("repro.engine", None, "run_failure_free", "setup.baseline"),
    ("repro.experiments.characterize", None, "measure_scheme_ratio", "setup.characterize"),
)

#: Layer keys that count toward each reported layer's self time.
LAYERS = {
    "campaign": ("campaign.cell",),
    "engine": ("engine.run", "engine.callback"),
    "solvers": ("solvers.solve",),
    "sparse": ("sparse.matvec",),
    "pipeline": ("pipeline.snapshot", "pipeline.commit", "pipeline.restore"),
    "compression": ("compression.compress", "compression.decompress"),
    "store": ("store.write", "store.read"),
}


class Stat:
    """Calls, inclusive seconds, self seconds and bytes of one layer key."""

    __slots__ = ("calls", "span_s", "self_s", "nbytes")

    def __init__(self) -> None:
        self.calls = 0
        self.span_s = 0.0
        self.self_s = 0.0
        self.nbytes = 0


def _array_nbytes(args, kwargs, result) -> int:
    data = args[1] if len(args) > 1 else kwargs.get("data")
    return int(getattr(data, "nbytes", 0))


def _result_nbytes(args, kwargs, result) -> int:
    return int(getattr(result, "nbytes", 0))


def _payload_len(args, kwargs, result) -> int:
    payload = args[2] if len(args) > 2 else kwargs.get("payload")
    return len(payload)


def _result_len(args, kwargs, result) -> int:
    return len(result)


def _snapshot_nbytes(args, kwargs, result) -> int:
    return int(result.uncompressed_bytes)


SIZES: Dict[str, Callable] = {
    "compression.compress": _array_nbytes,
    "compression.decompress": _result_nbytes,
    "store.write": _payload_len,
    "store.read": _result_len,
    "pipeline.snapshot": _snapshot_nbytes,
}


class Tracer:
    """Span stack, per-key statistics and the installed wrappers."""

    def __init__(self) -> None:
        self.stats: Dict[str, Stat] = {}
        #: Solver callbacks invoked from inside ``solve``: the iterations
        #: the solvers actually executed (replayed ones never pass here).
        self.executed_iterations = 0
        self._stack: List[list] = []
        self._patches: List[Tuple[object, str, object]] = []

    def stat(self, key: str) -> Stat:
        if key not in self.stats:
            self.stats[key] = Stat()
        return self.stats[key]

    def reset(self) -> None:
        """Zero every statistic (the wrappers stay installed)."""
        for stat in self.stats.values():
            stat.calls, stat.span_s, stat.self_s, stat.nbytes = 0, 0.0, 0.0, 0
        self.executed_iterations = 0

    def layer_self_s(self, layer: str) -> float:
        return sum(self.stat(key).self_s for key in LAYERS[layer])

    # -- wrappers ----------------------------------------------------------
    def wrap(self, key: str, fn: Callable, prepare: Optional[Callable] = None) -> Callable:
        """``fn`` timed as a span of ``key``; ``prepare(kwargs)`` runs first."""
        stat = self.stat(key)
        size = SIZES.get(key)
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if stack and stack[-1][0] == key:
                return fn(*args, **kwargs)
            if prepare is not None:
                prepare(kwargs)
            frame = [key, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stat.calls += 1
                stat.span_s += elapsed
                stat.self_s += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if size is not None:
                stat.nbytes += size(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", key)
        return traced

    def _count_callback(self, kwargs) -> None:
        callback = kwargs.get("callback")
        if callback is None:
            return

        def counted(state, _callback=callback):
            self.executed_iterations += 1
            return _callback(state)

        kwargs["callback"] = counted

    def _bind_matvec(self, original: Callable) -> Callable:
        """Wrap ``IterativeSolver._bind_matvec`` so every solver built while
        tracing gets a timed sparse kernel, with its computed bytes moved."""
        stat = self.stat("sparse.matvec")

        def bind(solver):
            matvec = original(solver)
            A = solver.A
            # CSR arrays read once plus x read and y written: computed from
            # the array sizes, so cache reuse is not seen.
            per_call = (
                A.data.nbytes + A.indices.nbytes + A.indptr.nbytes + 16 * A.shape[0]
            )
            timed = self.wrap("sparse.matvec", matvec)

            def counted(x):
                stat.nbytes += per_call
                return timed(x)

            return counted

        bind.__wrapped__ = original
        return bind

    def _patch(self, owner, name: str, replacement) -> None:
        """Set ``owner.name`` (a class or module attribute) to ``replacement``."""
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def install(self) -> None:
        """Install every wrapper; the program's modules are imported here."""
        import importlib

        import repro.compression  # noqa: F401  (registers every compressor)
        import repro.checkpoint  # noqa: F401  (imports every store backend)
        from repro.solvers.base import IterativeSolver

        if self._patches:
            raise RuntimeError("tracer already installed")
        for module_name, class_name, attr, key in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            if class_name is None:
                self._patch(module, attr, self.wrap(key, module.__dict__[attr]))
                continue
            base = getattr(module, class_name)
            for cls in dict.fromkeys([base, *_subclasses(base)]):
                if attr in cls.__dict__:
                    prepare = self._count_callback if key == "solvers.solve" else None
                    self._patch(cls, attr, self.wrap(key, cls.__dict__[attr], prepare))
        self._patch(
            IterativeSolver,
            "_bind_matvec",
            self._bind_matvec(IterativeSolver.__dict__["_bind_matvec"]),
        )

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first, and check it."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)
            if owner.__dict__[name] is not original:
                raise RuntimeError(f"could not restore {owner!r}.{name}")


def _subclasses(cls) -> list:
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found
