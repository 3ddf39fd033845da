"""Tracing and metrics primitives (stdlib only).

The observability layer has one hard constraint: when nothing is listening
it must cost *nothing measurable* on the hot path.  Every primitive
therefore bottoms out in the same guard — a truthiness check on the
module-level sink list plus an open-capture counter (the ContextVar that
scopes captures per context is only consulted when a capture exists):

* :func:`enabled` — ``True`` iff at least one sink is attached; hot call
  sites (the Dinic inner loop, the engine step) accumulate plain local
  integers and flush them behind one ``enabled()`` check,
* :func:`span` — hierarchical timing context manager.  Nesting is tracked
  through a :class:`contextvars.ContextVar`, so spans compose correctly
  across threads and async contexts; with no sink attached ``span()``
  returns a shared no-op singleton (no allocation, no clock read),
* :func:`incr` / :func:`gauge` / :func:`event` — monotonic counters,
  last-value gauges, and point events,
* :func:`observe` — one sample into a named streaming histogram (see
  :mod:`repro.obs.hist`); :func:`hist_snapshot` replays a whole merged
  histogram at once (how the runner forwards worker distributions).

Sinks receive the raw stream (see :mod:`repro.obs.sinks`): the in-memory
:class:`~repro.obs.sinks.Registry` aggregates for tests and one-shot
reports, :class:`~repro.obs.sinks.JsonlSink` streams events for offline
analysis, :class:`~repro.obs.sinks.StderrSummary` renders a table.

Attachment is explicit and scoped: ``with capture() as reg: …`` attaches a
fresh registry for the duration of a block, which is how the CLI, the
benchmark harness, and the test suite all consume the layer.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Dict, Iterator, List, Optional, Tuple

__all__ = [
    "attach",
    "capture",
    "detach",
    "enabled",
    "event",
    "gauge",
    "hist_snapshot",
    "incr",
    "observe",
    "span",
    "span_agg",
    "span_path",
]

#: Globally attached sinks.  Empty list == no ambient observability (the
#: default).  Global sinks see emissions from *every* thread — this is what
#: ``--trace`` and the serve daemon's service registry use.
_sinks: List[Any] = []

#: Context-local sinks (what :func:`capture` attaches).  A capture is only
#: visible to the context (thread / task) that opened it, so concurrent
#: captures — e.g. the serve daemon handling requests while a sweep runs in
#: its executor thread — cannot contaminate each other's registries.
_local_sinks: ContextVar[Tuple[Any, ...]] = ContextVar(
    "repro_obs_local_sinks", default=()
)

#: Count of open captures across all contexts.  The hot-path guard stays a
#: pair of plain truthiness checks (``_sinks or _n_local``) — the ContextVar
#: is only consulted when at least one capture exists somewhere, keeping the
#: nothing-attached cost unmeasurable (the <5% overhead gate in
#: ``benchmarks/bench_obs_overhead.py`` leans on this).
_n_local = 0
_local_lock = threading.Lock()

#: Current span path, e.g. ``("optimum.search", "optimum.probe")``.
_span_path: ContextVar[Tuple[str, ...]] = ContextVar(
    "repro_obs_span_path", default=()
)

_perf_ns = time.perf_counter_ns


def enabled() -> bool:
    """True iff the calling context has a sink listening (the hot-path guard)."""
    return bool(_sinks) or bool(_n_local and _local_sinks.get())


def _active_sinks() -> List[Any]:
    """The sinks visible to the calling context: global + its captures."""
    if _n_local:
        local = _local_sinks.get()
        if local:
            return [*_sinks, *local]
    return list(_sinks)


def attach(sink) -> Any:
    """Attach a sink to the global stream; returns it for chaining."""
    _sinks.append(sink)
    return sink


def detach(sink) -> None:
    """Detach a previously attached sink (closing it is the caller's job)."""
    _sinks.remove(sink)


def span_path() -> Tuple[str, ...]:
    """The stack of span names enclosing the caller (empty at top level)."""
    return _span_path.get()


class _NoopSpan:
    """Shared do-nothing span returned while no sink is attached."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, **attrs: Any) -> None:
        pass


_NOOP_SPAN = _NoopSpan()


class _Span:
    """A live timing span; records wall time and its position in the tree."""

    __slots__ = ("name", "attrs", "path", "_token", "_t0")

    def __init__(self, name: str, attrs: Dict[str, Any]) -> None:
        self.name = name
        self.attrs = attrs

    def __enter__(self) -> "_Span":
        self.path = _span_path.get() + (self.name,)
        self._token = _span_path.set(self.path)
        self._t0 = _perf_ns()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        duration_ns = _perf_ns() - self._t0
        _span_path.reset(self._token)
        error = exc_type.__name__ if exc_type is not None else None
        path = "/".join(self.path)
        for sink in _active_sinks():
            sink.on_span(path, duration_ns, self.attrs, error)
        return False  # exceptions always propagate

    def set(self, **attrs: Any) -> None:
        """Add attributes known only once the span's work is done."""
        self.attrs.update(attrs)


def span(name: str, **attrs: Any):
    """Timing context manager: ``with span("dinic.solve", m=m): …``.

    The span's full path is the ``/``-joined chain of enclosing span names,
    so nested calls show up as ``optimum.search/optimum.probe/dinic.solve``.
    Exceptions propagate; the span is still closed and reported with the
    exception's class name attached.  ``with span(...) as sp: sp.set(k=v)``
    adds attributes known only at the end (a no-op while no sink is
    attached).
    """
    if not (_sinks or _n_local):
        return _NOOP_SPAN
    return _Span(name, attrs)


def incr(name: str, value: int = 1, **attrs: Any) -> None:
    """Add ``value`` to the monotonic counter ``name``."""
    if not (_sinks or _n_local):
        return
    for sink in _active_sinks():
        sink.on_counter(name, value, attrs)


def gauge(name: str, value: Any, **attrs: Any) -> None:
    """Record the current value of ``name`` (last write wins)."""
    if not (_sinks or _n_local):
        return
    for sink in _active_sinks():
        sink.on_gauge(name, value, attrs)


def observe(name: str, value: Any, **attrs: Any) -> None:
    """Record one sample into the streaming histogram ``name``.

    Histograms whose names end in ``_ns`` hold nanosecond durations;
    everything else holds deterministic algorithmic values (see
    :mod:`repro.obs.hist` for the convention and its consequences).
    """
    if not (_sinks or _n_local):
        return
    for sink in _active_sinks():
        sink.on_observe(name, value, attrs)


def hist_snapshot(name: str, snapshot: Dict[str, Any]) -> None:
    """Replay a whole histogram snapshot into the attached sinks.

    Used by the runner's ambient replay: a merged worker distribution is
    forwarded in one call instead of one :func:`observe` per sample.
    """
    if not (_sinks or _n_local):
        return
    for sink in _active_sinks():
        sink.on_hist(name, snapshot)


def span_agg(path: str, stat: Dict[str, int]) -> None:
    """Replay an aggregated span statistic into the attached sinks.

    ``stat`` carries ``count``/``total_ns``/``max_ns``/``errors`` for one
    span path — the shape of a :class:`~repro.obs.sinks.Registry` snapshot
    entry.  Used by the runner's ambient replay so trace files and ambient
    registries see worker span totals even though the individual span
    records stayed worker-local.
    """
    if not (_sinks or _n_local):
        return
    for sink in _active_sinks():
        sink.on_span_agg(path, stat)


def event(name: str, **attrs: Any) -> None:
    """Record a point event (e.g. one sweep progress sample)."""
    if not (_sinks or _n_local):
        return
    path = "/".join(_span_path.get())
    for sink in _active_sinks():
        sink.on_event(name, attrs, path)


@contextmanager
def capture(*extra_sinks) -> Iterator[Any]:
    """Attach a fresh :class:`~repro.obs.sinks.Registry` for a block.

    Any ``extra_sinks`` (e.g. a :class:`~repro.obs.sinks.JsonlSink`) are
    attached alongside it and detached with it.  Yields the registry::

        with capture() as reg:
            migratory_optimum(instance)
        reg.counters["dinic.aug_paths"]

    The capture is **context-local**: only emissions from the context
    (thread / async task) that opened it land in the registry.  Globally
    attached sinks (:func:`attach`) keep seeing everything.  This is what
    lets the serve daemon run concurrent request captures and a sweep
    executor in one process without cross-contaminating their registries —
    a prerequisite for the byte-identical kill-resume conformance the
    chaos suite pins.
    """
    from .sinks import Registry

    global _n_local
    registry = Registry()
    token = _local_sinks.set(_local_sinks.get() + (registry, *extra_sinks))
    with _local_lock:
        _n_local += 1
    try:
        yield registry
    finally:
        with _local_lock:
            _n_local -= 1
        _local_sinks.reset(token)
