"""Unified tracing + metrics: the observability substrate of the compiler.

One process-local :class:`ObsSession` (a :class:`~repro.obs.tracer.Tracer`
plus a :class:`~repro.obs.metrics.MetricsRegistry`) receives everything the
instrumented flows report: hierarchical spans (``span("dse.batch", ...)``),
counters/gauges/histograms/series, and worker-side telemetry merged back by
the evaluation backends.  Exporters under :mod:`repro.obs.export` turn a
finished session into a Chrome trace (``--trace-out``) and a metrics JSON
document (``--metrics-out``); :mod:`repro.obs.report` renders the same data
as human-readable tables.

Design rules:

* **Null by default.**  With no session installed every hook is a handful
  of loads and a ``None`` check: ``span()`` returns one shared inert
  object, ``counter()``/``gauge()``/``series()`` return immediately.  Hot
  paths (the rewrite driver, pass execution) stay unmeasurably close to
  uninstrumented speed.
* **Observe, never steer.**  Instrumentation must not touch RNG streams,
  iteration order or any exported artifact — frontier JSON is byte-
  identical with tracing on or off, at any worker count.
* **Deterministic merge.**  Worker telemetry is captured locally
  (:func:`capture_task`), shipped back with each result, and absorbed in
  the coordinator's deterministic submission order; real wall-clock and pid
  ride along as span payload only.
"""

from __future__ import annotations

import contextlib
import dataclasses
import threading
import time
from typing import Callable, Optional, Union

from repro.obs.metrics import MetricsRegistry, pattern_counter_deltas
from repro.obs.tracer import (
    NULL_SPAN,
    Span,
    TaskTelemetry,
    Tracer,
    task_root_args,
)

__all__ = [
    "MetricsRegistry",
    "NULL_SPAN",
    "ObsSession",
    "Span",
    "TaskTelemetry",
    "Tracer",
    "absorb_task",
    "active",
    "add_pass_seconds",
    "add_pattern_stats",
    "capture_task",
    "counter",
    "gauge",
    "merge_counters",
    "observe",
    "series",
    "session",
    "span",
    "start",
    "stop",
    "suspended",
    "task_root_args",
    "track",
]


@dataclasses.dataclass
class ObsSession:
    """One observability scope: a tracer and a metrics registry."""

    tracer: Tracer
    metrics: MetricsRegistry

    def to_telemetry(self) -> TaskTelemetry:
        """Flatten a *local* (single-track) session for shipping to the
        coordinator; used by worker-side capture only."""
        spans = []
        for track_spans in self.tracer.tracks().values():
            spans.extend(span.to_tuple() for span in track_spans)
        return TaskTelemetry(
            spans=spans,
            counters=dict(self.metrics.counters),
            duration=time.perf_counter() - self.tracer.t0)


#: The installed process-local session (None = observability disabled).
_SESSION: Optional[ObsSession] = None


class _ThreadState(threading.local):
    #: Whether the calling thread is inside :func:`suspended`.
    suspended = False


_THREAD = _ThreadState()


def active() -> Optional[ObsSession]:
    """The session the calling thread reports into, or None when
    observability is off or the thread has suspended it."""
    current = _SESSION
    if current is not None and _THREAD.suspended:
        return None
    return current


def start() -> ObsSession:
    """Install a fresh process-local session (replacing any previous one)."""
    global _SESSION
    _SESSION = ObsSession(tracer=Tracer(), metrics=MetricsRegistry())
    return _SESSION


def stop() -> Optional[ObsSession]:
    """Uninstall and return the current session."""
    global _SESSION
    previous, _SESSION = _SESSION, None
    return previous


@contextlib.contextmanager
def session():
    """``with obs.session() as s:`` — scoped install/uninstall."""
    installed = start()
    try:
        yield installed
    finally:
        global _SESSION
        if _SESSION is installed:
            _SESSION = None


@contextlib.contextmanager
def suspended():
    """Hide the active session from the calling thread (restored on exit).

    For work whose *occurrence* is execution-detail rather than trajectory —
    e.g. a prefix-snapshot build that happens only on a cache miss.  Spans
    and counters emitted inside would make the trace skeleton depend on
    cache warmth and worker count; callers account for the suspended work
    explicitly afterwards (e.g. re-injecting measured pass seconds).  Per
    thread: coordinator threads sharing the session keep reporting while one
    of them builds.
    """
    previous, _THREAD.suspended = _THREAD.suspended, True
    try:
        yield
    finally:
        _THREAD.suspended = previous


# -- fast-path hooks ----------------------------------------------------------------------
#
# Every helper below is safe (and nearly free) to call with no session
# installed; instrumented code never needs its own enabled-check.


def span(name: str, **args):
    """Open a span on the active tracer (an inert no-op when disabled)."""
    current = active()
    if current is None:
        return NULL_SPAN
    return current.tracer.span(name, **args)


def track(name: str):
    """Route the calling thread's spans to logical track ``name``."""
    current = active()
    if current is None:
        return contextlib.nullcontext()
    return current.tracer.use_track(name)


def counter(name: str, value: Union[int, float] = 1) -> None:
    current = active()
    if current is not None:
        current.metrics.counter_add(name, value)


def gauge(name: str, value: Union[int, float]) -> None:
    current = active()
    if current is not None:
        current.metrics.gauge_set(name, value)


def observe(name: str, value: Union[int, float]) -> None:
    current = active()
    if current is not None:
        current.metrics.observe(name, value)


def series(name: str, step: Union[int, float],
           value: Union[int, float]) -> None:
    current = active()
    if current is not None:
        current.metrics.series_append(name, step, value)


def merge_counters(counters: dict) -> None:
    current = active()
    if current is not None:
        current.metrics.merge_counters(counters)


def add_pass_seconds(pass_key: str, seconds: float) -> None:
    """Pass-timing hook of :class:`~repro.ir.pass_manager.PassManager`.

    ``pass_key`` is the registered pass name — never the option string,
    which would mint one counter per design point — or
    ``prefix.<key>/<name>`` for the two runs of a prefix-snapshot build
    (:mod:`repro.dse.incremental`).
    """
    current = active()
    if current is not None:
        current.metrics.counter_add(f"pass.seconds.{pass_key}", seconds)


def add_pattern_stats(stats: dict, bucket_stats: dict) -> None:
    """Rewrite-driver hook: fold one ``rewrite()`` run's hit/miss deltas."""
    current = active()
    if current is not None:
        current.metrics.merge_counters(
            pattern_counter_deltas(stats, bucket_stats))


# -- worker-side capture ------------------------------------------------------------------


def capture_task(fn: Callable, *args, span_name: str = "dse.evaluate",
                 span_args: Optional[dict] = None):
    """Run ``fn(*args)`` under a throwaway local session; return telemetry.

    The worker side of the telemetry protocol: installs a fresh session (so
    every hook in the evaluation path records locally), wraps the call in a
    root span carrying :func:`task_root_args`, and restores whatever session
    was installed before — in a worker process that is None; in the serial
    (``--jobs 1``) backend it is the coordinator session, which makes the
    serial path produce byte-for-byte the same telemetry shape as a worker.

    Returns ``(result, TaskTelemetry)``.  When ``fn`` raises, the root span
    still closes (with the error recorded) and the previous session is
    restored before the exception propagates.
    """
    global _SESSION
    previous = _SESSION
    local = _SESSION = ObsSession(tracer=Tracer(), metrics=MetricsRegistry())
    try:
        with local.tracer.span(span_name,
                               **task_root_args(**(span_args or {}))):
            result = fn(*args)
    finally:
        _SESSION = previous
    return result, local.to_telemetry()


def absorb_task(track_name: str, telemetry: Optional[TaskTelemetry]) -> None:
    """Coordinator side: merge one captured task into the active session."""
    current = active()
    if current is None or telemetry is None:
        return
    current.tracer.absorb(track_name, telemetry)
    current.metrics.merge_counters(telemetry.counters)
    current.metrics.counter_add("dse.worker.busy_seconds", telemetry.duration)
