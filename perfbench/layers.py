"""Per-layer attribution by wrapping the program's public functions.

The benchmark never adds tracing inside ``src/``.  Instead a
:class:`LayerTrace` replaces module attributes and class methods with
timing wrappers for the length of a traced run, then puts the originals
back.  A function imported by name (``from repro.core.stats import
stats_vector``) lives on as an attribute of every importing module, so
:meth:`LayerTrace.wrap_function` patches *every* loaded module whose
attribute is the original object, not just the defining one.

Each wrapper adds the call's wall time and count under its layer name.
An optional per-name delay (``inject``) busy-waits inside the wrapper;
the sensitivity self-test uses it to slow one kernel by a known amount.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import sys
import threading
from time import perf_counter

#: Kernel-level functions timed as ``kernels.<name>``:
#: (layer name, defining module, attribute).
KERNEL_FUNCTIONS = (
    ("tcell_intents", "repro.core.kernels", "tcell_intents"),
    ("resolve_moves", "repro.core.kernels", "resolve_moves"),
    ("resolve_binds", "repro.core.kernels", "resolve_binds"),
    ("epithelial_update", "repro.core.kernels", "epithelial_update"),
    ("production_update", "repro.core.kernels", "production_update"),
    ("concentration_update", "repro.core.kernels", "concentration_update"),
    ("stats_vector", "repro.core.stats", "stats_vector"),
    ("stats_vectors", "repro.core.stats", "stats_vectors"),
    ("rng.counter_hash", "repro.rng.philox", "counter_hash"),
    ("rng.poisson", "repro.rng.distributions", "poisson"),
)

#: Engine phases reported as ``engine.<phase>.*`` (timed around
#: ``ExecutionBackend.execute``).
ENGINE_PHASES = (
    "age_extravasate", "intents", "resolve", "epithelial", "diffuse",
    "reduce", "tile_sweep",
)

#: Modules imported before wrapping, so every by-name import site exists
#: when the patch scan runs.
_PRELOAD = (
    "repro.core.kernels", "repro.core.stats", "repro.rng",
    "repro.rng.philox", "repro.rng.distributions", "repro.rng.streams",
    "repro.engine.engine", "repro.engine.sequential", "repro.engine.ensemble",
    "repro.engine.activity", "repro.dist.backend", "repro.dist.runtime",
    "repro.serve.server", "repro.serve.runner", "repro.serve.cache",
    "repro.serve.journal",
)


class LayerTrace:
    """Call counts and inclusive wall seconds per wrapped layer function.

    Use as a context manager; wrappers are installed on entry and removed
    on exit.  ``inject`` maps layer names (``"kernels.stats_vector"``) to
    seconds of busy-wait added to every call.  ``functions=False``
    installs only the wrappers that ``inject`` names, so an untraced run
    can carry the injected slowdown.
    """

    def __init__(self, inject: dict[str, float] | None = None,
                 functions: bool = True):
        self.inject = dict(inject or {})
        self.functions = functions
        self.calls: dict[str, int] = {}
        self.seconds: dict[str, float] = {}
        #: engine.<phase> executions that returned ``False`` (skipped).
        self.skips: dict[str, int] = {}
        #: kernels.stats_vector: interior voxels scanned.
        self.voxels_scanned = 0
        #: serve: per-job timestamps keyed by job id.
        self.job_times: dict[str, dict[str, float]] = {}
        #: Calls record only while set (the workload's timed window).
        self.recording = False
        self._lock = threading.Lock()
        self._pid = os.getpid()
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _add(self, name: str, seconds: float, skipped: bool = False) -> None:
        # Forked dist workers inherit the wrappers; only this process
        # reports, so their records are dropped here.
        if not self.recording or os.getpid() != self._pid:
            return
        with self._lock:
            self.calls[name] = self.calls.get(name, 0) + 1
            self.seconds[name] = self.seconds.get(name, 0.0) + seconds
            if skipped:
                self.skips[name] = self.skips.get(name, 0) + 1

    def _stamp(self, job_id: str, key: str, when: float) -> None:
        if not self.recording:
            return
        with self._lock:
            self.job_times.setdefault(job_id, {}).setdefault(key, when)

    def _delay(self, name: str) -> None:
        extra = self.inject.get(name)
        if extra:
            end = perf_counter() + extra
            while perf_counter() < end:
                pass

    # -- patching -----------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _timed(self, name: str, original, before=None, after=None):
        """``original`` wrapped to record its calls under ``name``."""

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            start = perf_counter()
            if before is not None:
                before(args, start)
            self._delay(name)
            result = original(*args, **kwargs)
            end = perf_counter()
            self._add(name, end - start)
            if after is not None:
                after(args, result, start, end)
            return result

        return wrapper

    def wrap_function(self, name: str, module: str, attr: str,
                      before=None, after=None) -> None:
        """Wrap ``module.attr`` at every loaded ``repro`` module that
        holds the same object under the same attribute name."""
        original = getattr(importlib.import_module(module), attr)
        wrapper = self._timed(name, original, before, after)
        for mod_name, mod in list(sys.modules.items()):
            if (mod_name == "repro" or mod_name.startswith("repro.")) and \
                    getattr(mod, attr, None) is original:
                self._set(mod, attr, wrapper)

    def wrap_method(self, name: str, cls, attr: str, after=None) -> None:
        self._set(cls, attr, self._timed(name, cls.__dict__[attr], after=after))

    def _wrap_execute(self) -> None:
        from repro.engine.backend import ExecutionBackend

        original = ExecutionBackend.execute

        @functools.wraps(original)
        def execute(backend, phase, ctx):
            start = perf_counter()
            ran = original(backend, phase, ctx)
            self._add(f"engine.{phase.name}", perf_counter() - start,
                      skipped=ran is False)
            return ran

        self._set(ExecutionBackend, "execute", execute)

    def install(self) -> None:
        for module in _PRELOAD:
            importlib.import_module(module)
        if not self.functions:
            for name, module, attr in KERNEL_FUNCTIONS:
                if f"kernels.{name}" in self.inject:
                    self.wrap_function(f"kernels.{name}", module, attr)
            return
        self._wrap_execute()

        def count_voxels(args, result, start, end):
            if self.recording:
                with self._lock:
                    self.voxels_scanned += math.prod(args[0].owned.shape)

        for name, module, attr in KERNEL_FUNCTIONS:
            self.wrap_function(
                f"kernels.{name}", module, attr,
                after=count_voxels if name == "stats_vector" else None,
            )

        from repro.dist.backend import DistBackend
        from repro.dist.runtime import DistRuntime
        from repro.engine.activity import ActivityGate
        from repro.serve.cache import ResultCache
        from repro.serve.journal import JobJournal
        from repro.serve.server import ServeApp

        self.wrap_method("activity.sweep", ActivityGate, "sweep")
        self.wrap_method("dist.phase_reduce", DistBackend, "phase_reduce")
        self.wrap_method("dist.finish_step", DistRuntime, "finish_step")

        def submitted(args, result, start, end):
            self._stamp(result[0].id, "submitted", end)

        def segment_in(args, start):
            self._stamp(args[0].id, "segment_in", start)

        def segment_out(args, result, start, end):
            self._stamp(args[0].id, "segment_out", end)

        self.wrap_method("serve.admit", ServeApp, "submit", after=submitted)
        self.wrap_function("serve.build_sim", "repro.serve.runner", "build_sim")
        self.wrap_function(
            "serve.segment", "repro.serve.runner", "run_segment",
            before=segment_in, after=segment_out,
        )
        self.wrap_method("serve.cache_put", ResultCache, "put")
        self.wrap_method("serve.journal_append", JobJournal, "append")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "LayerTrace":
        try:
            self.install()
        except BaseException:
            self.uninstall()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- reading ------------------------------------------------------------

    def total(self, name: str) -> float:
        return self.seconds.get(name, 0.0)

    def count(self, name: str) -> int:
        return self.calls.get(name, 0)
