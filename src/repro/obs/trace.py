"""Request tracing: trace ids, phase spans, contextvar propagation.

One user-visible request — whether it enters through
:class:`~repro.server.client.HTTPFairnessClient`, the shard router, or a
direct :meth:`FairnessService.execute <repro.service.service.FairnessService.execute>`
call — carries one **trace id** end to end:

* generated at ingress (client or server) when no trace is active;
* propagated router → worker in the ``X-Fairank-Trace`` HTTP header; the
  router's ``/v2/batch`` fan-out is the one thread hop, and it runs each
  sub-batch under a :mod:`contextvars` copy of the caller's context (a
  worker's batch runs its slots in the request's own thread);
* echoed back in the response's ``X-Fairank-Trace`` header and inside the
  envelope's ``timings`` field, so a slow answer can be matched to the
  router's and the worker's structured log lines.

A :class:`Trace` also accumulates a per-request timing breakdown: named
phases (``key``, ``compute``, ``score``, ``queue``, ``route``) recorded via
:meth:`Trace.span` context managers, summed per phase in milliseconds.  The
module-level :func:`span` records into whatever trace is active and is a
no-op without one, so the score store can instrument itself without ever
importing the service layer.
"""

from __future__ import annotations

import re
import threading
import time
import uuid
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Dict, Iterator, Optional

__all__ = [
    "TRACE_HEADER",
    "Trace",
    "activate",
    "current_trace_id",
    "new_trace_id",
    "span",
]

#: The HTTP header a trace id travels in (request and response).
TRACE_HEADER = "X-Fairank-Trace"

#: Accepted inbound trace ids (anything else is ignored and replaced).
_TRACE_ID_PATTERN = re.compile(r"^[A-Za-z0-9._-]{1,64}$")


def new_trace_id() -> str:
    """A fresh 16-hex-char trace id."""
    return uuid.uuid4().hex[:16]


def valid_trace_id(value: object) -> Optional[str]:
    """``value`` as a trace id if it looks like one, else ``None``."""
    if isinstance(value, str) and _TRACE_ID_PATTERN.match(value):
        return value
    return None


class Trace:
    """One request's identity plus its accumulated phase timings (ms).

    A trace lives in one thread's context.  The only hop that carries it to
    other threads is the shard router's ``/v2/batch`` fan-out, which runs
    each sub-batch under a ``contextvars`` copy; the copies share this
    object, so ``add`` locks.
    """

    __slots__ = ("trace_id", "_timings", "_lock")

    def __init__(self, trace_id: Optional[str] = None) -> None:
        self.trace_id = trace_id or new_trace_id()
        self._timings: Dict[str, float] = {}
        self._lock = threading.Lock()

    def add(self, phase: str, seconds: float) -> None:
        """Accumulate ``seconds`` into the phase's total."""
        milliseconds = seconds * 1000.0
        with self._lock:
            self._timings[phase] = self._timings.get(phase, 0.0) + milliseconds

    @contextmanager
    def span(self, phase: str) -> Iterator[None]:
        """Time a block into ``phase`` (nested/repeated spans accumulate)."""
        started = time.perf_counter()
        try:
            yield
        finally:
            self.add(phase, time.perf_counter() - started)

    def timings(self) -> Dict[str, object]:
        """The wire form: trace id plus ``<phase>_ms`` totals (rounded)."""
        with self._lock:
            out: Dict[str, object] = {"trace_id": self.trace_id}
            for phase in sorted(self._timings):
                out[f"{phase}_ms"] = round(self._timings[phase], 3)
            return out


_CURRENT: "ContextVar[Optional[Trace]]" = ContextVar("fairank_trace", default=None)


def current_trace_id() -> Optional[str]:
    """The active trace's id, if any."""
    trace = _CURRENT.get()
    return None if trace is None else trace.trace_id


@contextmanager
def activate(trace: Trace) -> Iterator[Trace]:
    """Make ``trace`` the active trace for the duration of the block."""
    token = _CURRENT.set(trace)
    try:
        yield trace
    finally:
        _CURRENT.reset(token)


@contextmanager
def span(phase: str) -> Iterator[None]:
    """Record a span into the active trace; a silent no-op without one."""
    trace = _CURRENT.get()
    if trace is None:
        yield
        return
    with trace.span(phase):
        yield
