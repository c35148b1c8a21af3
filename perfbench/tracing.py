"""Per-layer spans and counters for the traced benchmark run.

The library carries no instrumentation of its own, so this module wraps the
calls into each layer's public functions from the outside: solver entry
points (``core``), RecConcave (``quasiconcave``), the score profile and
query-plan entry points of every backend (``neighbors``), the dispatched
hot kernels (``kernels``), and the noise-drawing mechanisms
(``mechanisms``).  Wrappers are installed once per process and only record
in the process that installed them — forked pool workers inherit the
wrappers but pass straight through, so worker-side time shows up only as
the parent's plan waits and the workers' CPU.

A span's *self* time is its duration minus the time its child spans (on the
same thread) cover; RecConcave's self time is therefore RecConcave minus
the score profiles it asked the backend for.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import threading
import time
import weakref
from collections import defaultdict


class NullTracer:
    """The untraced run's tracer: every hook is a pass-through."""

    def span(self, name: str):
        return contextlib.nullcontext()

    def sample_aggregate(self):
        return contextlib.nullcontext()

    def wrap(self, name: str, function):
        return function


class Tracer:
    """Span durations, self times and counters, aggregated by name.

    ``seconds[name]`` and ``self_seconds[name]`` sum span durations,
    ``counts[name]`` counts spans and counter events.  :meth:`reset` starts
    a fresh measurement window; which backends already built their score
    statistic is remembered across windows, so a profile warmed during
    set-up never counts as a cold one later.
    """

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.enabled = True
        self._lock = threading.Lock()
        self._local = threading.local()
        self._profiled = weakref.WeakSet()
        self.reset()

    def reset(self) -> None:
        with self._lock:
            self.seconds = defaultdict(float)
            self.self_seconds = defaultdict(float)
            self.counts = defaultdict(float)

    # ------------------------------------------------------------------ #
    # Recording primitives
    # ------------------------------------------------------------------ #
    def recording(self) -> bool:
        return self.enabled and os.getpid() == self.pid

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def inside(self, name: str) -> bool:
        """Whether a span called ``name`` is open on this thread."""
        return any(frame[0] == name for frame in self._stack())

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.recording():
            yield
            return
        stack = self._stack()
        frame = [name, 0.0]  # name, time covered by child spans
        stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            stack.pop()
            if stack:
                stack[-1][1] += elapsed
            with self._lock:
                self.seconds[name] += elapsed
                self.self_seconds[name] += elapsed - frame[1]
                self.counts[name] += 1

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def add_seconds(self, name: str, seconds: float) -> None:
        with self._lock:
            self.seconds[name] += seconds

    def wrap(self, name: str, function):
        """``function`` with every call recorded as a span called ``name``."""
        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return function(*args, **kwargs)
        return wrapper

    def _counted(self, name: str, function):
        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            if self.recording():
                self.count(name)
            return function(*args, **kwargs)
        return wrapper

    def _kernel(self, family: str, function, computes_bytes: bool = False):
        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            if not self.recording():
                return function(*args, **kwargs)
            start = time.perf_counter()
            out = function(*args, **kwargs)
            elapsed = time.perf_counter() - start
            with self._lock:
                self.seconds[f"kernels.{family}"] += elapsed
                self.counts[f"kernels.{family}"] += 1
                if computes_bytes:
                    self.counts[f"kernels.{family}_bytes"] += out.nbytes
            return out
        return wrapper

    # ------------------------------------------------------------------ #
    # Sample-and-aggregate block window
    # ------------------------------------------------------------------ #
    @contextlib.contextmanager
    def sample_aggregate(self):
        """Around one sample-and-aggregate release: records the time from
        the first plan submitted to the last plan result collected."""
        self._local.sa_window = window = [None, None]
        try:
            yield
        finally:
            self._local.sa_window = None
            if window[0] is not None and self.recording():
                self.add_seconds("sample_aggregate.blocks",
                                 window[1] - window[0])

    def _sa_mark(self, start=None, end=None) -> None:
        window = getattr(self._local, "sa_window", None)
        if window is None:
            return
        if start is not None and window[0] is None:
            window[0] = start
        if end is not None:
            window[1] = end if window[1] is None else max(window[1], end)

    # ------------------------------------------------------------------ #
    # Plan entry points and futures
    # ------------------------------------------------------------------ #
    def _watch(self, future):
        """Time every blocking ``result()`` call on a submitted plan."""
        if future.done():
            return future
        result = future.result

        def timed_result():
            with self.span("neighbors.plan_wait"):
                out = result()
            self._sa_mark(end=time.perf_counter())
            return out

        future.result = timed_result
        return future

    def _plan_entry(self, function, submits: bool):
        """Count each outermost ``execute``/``submit`` as one plan (the
        in-process backends route submit through execute and the sharded
        one execute through submit)."""
        @functools.wraps(function)
        def wrapper(backend, plan):
            if not self.recording():
                return function(backend, plan)
            depth = getattr(self._local, "plan_depth", 0)
            if depth == 0:
                self.count("neighbors.plans")
            start = time.perf_counter()
            self._local.plan_depth = depth + 1
            try:
                out = function(backend, plan)
            finally:
                self._local.plan_depth = depth
            if submits:
                self._sa_mark(start=start, end=time.perf_counter())
                out = self._watch(out)
            return out
        return wrapper

    def _profile(self, function):
        """``capped_average_scores``: the first call on a backend builds its
        truncated statistic (cold); later calls walk it (warm)."""
        @functools.wraps(function)
        def wrapper(backend, *args, **kwargs):
            if not self.recording():
                return function(backend, *args, **kwargs)
            with self._lock:
                first = backend not in self._profiled
                if first:
                    self._profiled.add(backend)
            if self.inside("quasiconcave.rec_concave"):
                self.count("quasiconcave.quality_batches")
            name = ("neighbors.profile_first" if first
                    else "neighbors.profile_warm")
            with self.span(name):
                return function(backend, *args, **kwargs)
        return wrapper


def install(tracer: Tracer) -> None:
    """Wrap the calls into every traced layer (for the process lifetime)."""
    import repro.core as core
    import repro.kernels as kernels
    from repro.mechanisms.above_threshold import AboveThreshold
    from repro.neighbors import NeighborBackend, ShardedBackend

    one_cluster_mod = importlib.import_module("repro.core.one_cluster")
    good_radius_mod = importlib.import_module("repro.core.good_radius")
    good_center_mod = importlib.import_module("repro.core.good_center")
    rec_concave_mod = importlib.import_module("repro.quasiconcave.rec_concave")
    aggregators_mod = importlib.import_module(
        "repro.sample_aggregate.aggregators")
    service_mod = importlib.import_module("repro.service.service")

    # core: each solver binding its callers use.
    for name in ("good_radius", "good_center"):
        wrapped = tracer.wrap(f"core.{name}", getattr(core, name))
        setattr(core, name, wrapped)
        setattr(one_cluster_mod, name, wrapped)
        service_mod._SOLVERS[name] = wrapped

    # quasiconcave
    good_radius_mod.rec_concave = tracer.wrap(
        "quasiconcave.rec_concave", good_radius_mod.rec_concave)

    # neighbors
    NeighborBackend.capped_average_scores = tracer._profile(
        NeighborBackend.capped_average_scores)
    for cls in (NeighborBackend, ShardedBackend):
        cls.execute = tracer._plan_entry(vars(cls)["execute"], submits=False)
        cls.submit = tracer._plan_entry(vars(cls)["submit"], submits=True)

    # kernels (every call site looks them up on the module at call time)
    kernels.squared_distance_slab = tracer._kernel(
        "slab", kernels.squared_distance_slab, computes_bytes=True)
    kernels.squared_distance_gather = tracer._kernel(
        "slab", kernels.squared_distance_gather, computes_bytes=True)
    kernels.fused_box_labels = tracer._kernel(
        "box_label", kernels.fused_box_labels)
    kernels.fused_interval_labels = tracer._kernel(
        "box_label", kernels.fused_interval_labels)
    kernels.fixed_point_column_partials = tracer._kernel(
        "exact_sum", kernels.fixed_point_column_partials)

    # mechanisms: one count per noise-drawing invocation
    draws = "mechanisms.draws"
    for module, names in (
        (good_radius_mod, ("laplace_noise",)),
        (rec_concave_mod, ("report_noisy_max",)),
        (one_cluster_mod, ("stable_histogram_choice",)),
        (good_center_mod, ("stable_histogram_choice_from_counts",
                           "noisy_average", "noisy_average_from_stats")),
        (aggregators_mod, ("noisy_average",)),
    ):
        for name in names:
            setattr(module, name, tracer._counted(draws,
                                                  getattr(module, name)))
    AboveThreshold.__init__ = tracer._counted(draws, AboveThreshold.__init__)
    AboveThreshold.query = tracer._counted(draws, AboveThreshold.query)
