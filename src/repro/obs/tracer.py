"""Sim-time span/event tracer with Chrome-trace export.

Every unit of the modelled SoC can stamp *spans* (named intervals of
simulated time), *instants* (point events), *counter tracks* (sampled
values like queue occupancy or DDR backlog) and *flows* (arrows
linking a requester's span to work executed elsewhere, e.g. an ATE
RPC running on the callee's engine). Events land in a bounded ring
buffer and export as Chrome trace-event JSON that opens directly in
``chrome://tracing`` or `Perfetto <https://ui.perfetto.dev>`_:

* ``pid`` is the DPU (one process per chip in a cluster trace),
* ``tid`` is the hardware unit — ``core3``, ``dmad3``, ``dmac``,
  ``ate3``, ``ddr``, ``ib.tx[0]`` — named via metadata events,
* ``ts`` is simulated time in dpCore cycles (the exporter declares
  microseconds, so "1 us" on screen reads as one cycle).

Two span flavours map onto the trace-event ``ph`` phases:

* :meth:`Tracer.span` emits a *complete* (``X``) event on exit. Use
  it inside a single generator frame where strict nesting is
  structural (compute/wfe on one core, the ATE engine loop, a SQL
  operator driving the chip).
* :meth:`Tracer.async_span` emits ``b``/``e`` *async* events keyed by
  a fresh id. Use it for work that may overlap on one track (DMS
  descriptors in flight, admission-gated jobs, IB messages).

The module-level :data:`NULL_TRACER` is the disabled tracer: every
method is a no-op returning shared singletons, it never touches the
engine, never allocates, and never schedules events — simulations
with tracing off are bit-identical to a build with no tracer at all.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import io
import json
from collections import deque
from typing import Any, Callable, Dict, List, Optional

__all__ = [
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "TraceBuffer",
    "Tracer",
    "traced_op",
]


class Span:
    """An open interval of simulated time; context manager.

    ``end()`` (or leaving the ``with`` block) stamps the closing time
    and appends one complete (``X``) event. ``attrs`` become the
    event's ``args``; :meth:`set` adds more after opening. Ending a
    span twice is a no-op, so spans may be closed from callbacks.
    """

    __slots__ = ("tracer", "name", "unit", "begin", "attrs", "id", "_done")

    def __init__(self, tracer: "Tracer", name: str, unit: str,
                 attrs: Dict[str, Any]) -> None:
        self.tracer = tracer
        self.name = name
        self.unit = unit
        self.begin = tracer.now()
        self.attrs = attrs
        self.id = tracer.next_id()
        self._done = False

    def set(self, **attrs: Any) -> "Span":
        self.attrs.update(attrs)
        return self

    def end(self) -> None:
        if self._done:
            return
        self._done = True
        self.tracer.complete(
            self.name, self.unit, self.begin,
            self.tracer.now() - self.begin, span_id=self.id, **self.attrs
        )

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self.end()
        return False


class _AsyncSpan(Span):
    """A span emitted as ``b``/``e`` async events (overlap-safe)."""

    __slots__ = ()

    def __init__(self, tracer: "Tracer", name: str, unit: str,
                 attrs: Dict[str, Any]) -> None:
        super().__init__(tracer, name, unit, attrs)
        tracer.emit(
            name=name, ph="b", ts=self.begin, tid=unit,
            cat=attrs.pop("cat", "async"), id=self.id, args=dict(attrs)
        )
        self.attrs = attrs

    def end(self) -> None:
        if self._done:
            return
        self._done = True
        self.tracer.emit(
            name=self.name, ph="e", ts=self.tracer.now(), tid=self.unit,
            cat="async", id=self.id, args=dict(self.attrs)
        )


class _NullSpan:
    """Shared do-nothing span returned by the disabled tracer."""

    __slots__ = ()
    id = 0
    begin = 0.0

    def set(self, **attrs: Any) -> "_NullSpan":
        return self

    def end(self) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The disabled tracer: every operation is a cheap no-op.

    Guards the hot path — ``ctx.compute`` and descriptor dispatch call
    into whatever sits on ``unit.trace``, and with this object there
    the cost is one attribute load plus one call returning a shared
    singleton. Nothing is recorded, no sim events are created, and
    counters/stats are untouched, so disabled-tracing runs are
    bit-identical (the pinned cycle regressions assert this).
    """

    __slots__ = ()
    enabled = False
    events: tuple = ()

    def now(self) -> float:
        return 0.0

    def next_id(self) -> int:
        return 0

    def span(self, name: str, unit: str = "core", **attrs: Any) -> _NullSpan:
        return _NULL_SPAN

    def async_span(self, name: str, unit: str, **attrs: Any) -> _NullSpan:
        return _NULL_SPAN

    def complete(self, name: str, unit: str, begin: float, dur: float,
                 **attrs: Any) -> None:
        pass

    def complete_async(self, name: str, unit: str, begin: float,
                       **attrs: Any) -> None:
        pass

    def instant(self, name: str, unit: str = "core", **attrs: Any) -> None:
        pass

    def counter(self, name: str, unit: str = "counters",
                **values: float) -> None:
        pass

    def flow_start(self, flow_id: int, name: str, unit: str,
                   ts: Optional[float] = None) -> None:
        pass

    def flow_end(self, flow_id: int, name: str, unit: str,
                 ts: Optional[float] = None) -> None:
        pass

    def process_started(self, process: Any) -> None:
        pass

    def process_finished(self, process: Any) -> None:
        pass

    def emit(self, **event: Any) -> None:
        pass

    def view(self, pid: int, process_name: str) -> "NullTracer":
        return self


NULL_TRACER = NullTracer()


def traced_op(name: str, unit: str = "sql",
              result_attrs: Optional[Callable[[Any], Dict[str, Any]]] = None):
    """Decorator for host-side operators whose first argument is a DPU
    (or anything with a ``.trace``): wraps the call in a span on the
    given track, and feeds the op's simulated duration into the DPU's
    metrics hub latency digest (``<name>.cycles``) when one is
    attached. ``result_attrs(result)`` adds span args taken from the
    op's result. With tracing and metrics disabled the cost is a few
    attribute loads and truthiness tests.

    A generator function (an operator written as launch steps, see
    :func:`repro.core.dpu.launch_op`) gets the same span and digest
    around the whole generator, so the synchronous and process-driven
    forms of the operator record identical names."""

    def wrap(fn):
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def steps(dpu, *args: Any, **kwargs: Any):
                with _op_scope(dpu, name, unit, result_attrs) as record:
                    return record((yield from fn(dpu, *args, **kwargs)))

            return steps

        @functools.wraps(fn)
        def inner(dpu, *args: Any, **kwargs: Any):
            with _op_scope(dpu, name, unit, result_attrs) as record:
                return record(fn(dpu, *args, **kwargs))

        return inner

    return wrap


@contextlib.contextmanager
def _op_scope(dpu: Any, name: str, unit: str,
              result_attrs: Optional[Callable[[Any], Dict[str, Any]]]):
    """The span and digest of one :func:`traced_op` call. Yields
    ``record(result)``, which the wrapper calls on the op's result
    (returning it) before leaving the scope."""
    trace = getattr(dpu, "trace", NULL_TRACER)
    metrics = getattr(dpu, "metrics", None)
    engine = getattr(dpu, "engine", None)
    sampling = metrics is not None and metrics.enabled and engine is not None
    if not trace.enabled and not sampling:
        yield _identity
        return
    begin = engine.now if sampling else 0.0
    if trace.enabled:
        with trace.span(name, unit=unit) as span:

            def record(result):
                if result_attrs is not None:
                    span.set(**result_attrs(result))
                return result

            yield record
    else:
        yield _identity
    if sampling:
        metrics.observe(f"{name}.cycles", engine.now - begin)


def _identity(result: Any) -> Any:
    return result


class TraceBuffer:
    """Bounded event store shared by every tracer view of one run."""

    def __init__(self, capacity: int = 1 << 16) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1: {capacity}")
        self.capacity = capacity
        self.events: deque = deque(maxlen=capacity)
        self.dropped = 0
        self._next_id = 0

    def next_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def append(self, event: Dict[str, Any]) -> None:
        if len(self.events) == self.capacity:
            self.dropped += 1
        self.events.append(event)


class Tracer:
    """Records sim-time events for one ``pid`` into a shared buffer.

    A cluster shares one :class:`TraceBuffer` across DPUs: call
    :meth:`view` to get a tracer bound to another pid (another chip)
    writing into the same ring. Thread ids are interned per pid from
    unit names and announced with metadata events so Perfetto shows
    ``dmac``/``ate7``/``ib.tx[0]`` instead of numbers.
    """

    enabled = True

    def __init__(
        self,
        engine,
        pid: int = 0,
        process_name: str = "dpu0",
        buffer: Optional[TraceBuffer] = None,
        capacity: int = 1 << 16,
    ) -> None:
        self.engine = engine
        self.pid = pid
        self.process_name = process_name
        self.buffer = buffer if buffer is not None else TraceBuffer(capacity)
        views = getattr(self.buffer, "_views", None)
        if views is None:
            views = self.buffer._views = []
        views.append(self)
        self._tids: Dict[str, int] = {}
        self._proc_begin: Dict[int, tuple] = {}
        self._meta: List[Dict[str, Any]] = []
        self._meta.append({
            "name": "process_name", "ph": "M", "ts": 0, "pid": pid, "tid": 0,
            "args": {"name": process_name},
        })

    # -- plumbing ------------------------------------------------------

    def now(self) -> float:
        return self.engine.now

    def next_id(self) -> int:
        return self.buffer.next_id()

    @property
    def events(self):
        return self.buffer.events

    @property
    def dropped(self) -> int:
        return self.buffer.dropped

    def _tid(self, unit: str) -> int:
        tid = self._tids.get(unit)
        if tid is None:
            tid = len(self._tids) + 1
            self._tids[unit] = tid
            self._meta.append({
                "name": "thread_name", "ph": "M", "ts": 0, "pid": self.pid,
                "tid": tid, "args": {"name": unit},
            })
        return tid

    def emit(self, name: str, ph: str, ts: float, tid: str,
             args: Optional[Dict[str, Any]] = None, **extra: Any) -> None:
        event: Dict[str, Any] = {
            "name": name, "ph": ph, "ts": float(ts), "pid": self.pid,
            "tid": self._tid(tid),
        }
        if args:
            event["args"] = args
        event.update(extra)
        self.buffer.append(event)

    def view(self, pid: int, process_name: str) -> "Tracer":
        """A tracer for another chip sharing this buffer and id space."""
        return Tracer(self.engine, pid=pid, process_name=process_name,
                      buffer=self.buffer)

    # -- recording API -------------------------------------------------

    def span(self, name: str, unit: str = "core", **attrs: Any) -> Span:
        """Open a strictly-nested span (complete ``X`` event on exit)."""
        return Span(self, name, unit, attrs)

    def async_span(self, name: str, unit: str, **attrs: Any) -> _AsyncSpan:
        """Open an overlap-safe span (async ``b``/``e`` event pair)."""
        return _AsyncSpan(self, name, unit, attrs)

    def complete(self, name: str, unit: str, begin: float, dur: float,
                 **attrs: Any) -> None:
        """Emit a finished interval in one shot (``X`` event)."""
        self.emit(name=name, ph="X", ts=begin, tid=unit,
                  dur=float(max(dur, 0.0)), args=attrs or None)

    def complete_async(self, name: str, unit: str, begin: float,
                       **attrs: Any) -> None:
        """Emit a finished overlap-safe interval post-hoc: a ``b``/``e``
        pair stamped [begin, now). For intervals measured with a plain
        ``engine.now`` delta where overlap on the track is possible, so
        a complete (``X``) event would break strict nesting."""
        span_id = self.next_id()
        cat = attrs.pop("cat", "async")
        self.emit(name=name, ph="b", ts=begin, tid=unit, cat=cat,
                  id=span_id, args=attrs or None)
        self.emit(name=name, ph="e", ts=self.now(), tid=unit, cat=cat,
                  id=span_id)

    def instant(self, name: str, unit: str = "core", **attrs: Any) -> None:
        self.emit(name=name, ph="i", ts=self.now(), tid=unit, s="t",
                  args=attrs or None)

    def counter(self, name: str, unit: str = "counters",
                **values: float) -> None:
        """Sample a counter track (``C`` event; one series per key)."""
        self.emit(name=name, ph="C", ts=self.now(), tid=unit,
                  args={key: float(value) for key, value in values.items()})

    def flow_start(self, flow_id: int, name: str, unit: str,
                   ts: Optional[float] = None) -> None:
        """Arrow tail: binds to the enclosing slice at this timestamp."""
        self.emit(name=name, ph="s", ts=self.now() if ts is None else ts,
                  tid=unit, cat="flow", id=flow_id)

    def flow_end(self, flow_id: int, name: str, unit: str,
                 ts: Optional[float] = None) -> None:
        """Arrow head: same cat/name/id as the matching ``s`` event."""
        self.emit(name=name, ph="f", ts=self.now() if ts is None else ts,
                  tid=unit, cat="flow", id=flow_id, bp="e")

    # -- engine process hooks (see Engine.tracer) ----------------------

    def process_started(self, process: Any) -> None:
        self._proc_begin[id(process)] = (process.name, self.now())

    def process_finished(self, process: Any) -> None:
        begun = self._proc_begin.pop(id(process), None)
        if begun is None:
            return
        name, begin = begun
        span_id = self.next_id()
        args = None
        if process.exception is not None:
            args = {"error": type(process.exception).__name__}
        self.emit(name=f"proc.{name}", ph="b", ts=begin, tid="sched",
                  cat="async", id=span_id)
        self.emit(name=f"proc.{name}", ph="e", ts=self.now(), tid="sched",
                  cat="async", id=span_id, args=args)

    # -- export --------------------------------------------------------

    def to_chrome(self) -> Dict[str, Any]:
        """The full trace as a Chrome trace-event JSON object.

        Metadata from every view sharing the buffer is included, so
        exporting any one view exports the cluster.
        """
        meta: List[Dict[str, Any]] = []
        seen = set()
        for view in getattr(self.buffer, "_views", [self]):
            for event in view._meta:
                key = (event["pid"], event["tid"], event["name"])
                if key not in seen:
                    seen.add(key)
                    meta.append(event)
        return {
            "traceEvents": meta + list(self.buffer.events),
            "displayTimeUnit": "ms",
            "otherData": {
                "clock": "dpCore cycles (1 trace us = 1 cycle)",
                "dropped_events": self.buffer.dropped,
            },
        }

    def export(self, path: str) -> int:
        """Write Chrome-trace JSON to ``path``; returns event count."""
        payload = self.to_chrome()
        with io.open(path, "w", encoding="utf-8") as sink:
            json.dump(payload, sink)
        return len(payload["traceEvents"])
