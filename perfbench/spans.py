"""In-memory span recorder for the benchmark's traced run.

The recorder never edits the program: it replaces a name *where the
caller looks it up* (``repro.serve.frontend.cluster_compiled_query``,
``repro.cluster.scaleout.shuffle_exchange``, a method on its class)
with a wrapper that records one span per call and restores the
original afterwards. A name that a later refactor removes is reported
in ``missing`` and its metrics come out absent; nothing crashes.

A span holds name, start, end (host ``perf_counter`` seconds), parent
index, op id and a small ``data`` dict filled from the call's
arguments and result. Spans stay in a list until the run ends and are
then written out once.
Self time is a span's duration minus the part of it its child spans
cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import re
import time
from collections import Counter
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

__all__ = ["Recorder", "Span", "engine_events"]

_now = time.perf_counter


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "data")

    def __init__(self, name: str, start: float, parent: int,
                 op: Optional[str]) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.data: Dict[str, float] = {}

    @property
    def duration(self) -> float:
        return self.end - self.start


def _resolve(path: str) -> Tuple[Optional[object], str]:
    """``"pkg.mod:Class.attr"`` -> (owner object, attribute name), or
    (None, attr) when the module or any step of the path is gone."""
    module_name, _, attr_path = path.partition(":")
    try:
        owner: object = importlib.import_module(module_name)
    except ImportError:
        return None, attr_path
    *steps, attr = attr_path.split(".")
    for step in steps:
        owner = getattr(owner, step, None)
        if owner is None:
            return None, attr
    if not callable(getattr(owner, attr, None)):
        return None, attr
    return owner, attr


class Recorder:
    """Spans and call counts for one traced run.

    ``op`` is the id of the op the benchmark is executing; every span
    opened meanwhile carries it.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self.missing: set = set()  # paths that no longer exist
        self.installed: set = set()  # names with at least one wrapper
        self.engines: list = []
        self.op: Optional[str] = None
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []

    # -- installing wrappers --------------------------------------------
    def _patch(self, path: str, name: str, make: Callable) -> None:
        owner, attr = _resolve(path)
        if owner is None:
            self.missing.add(path)
            return
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(make(original)))
        self.installed.add(name)

    def span(self, path: str, name: str,
             note: Optional[Callable] = None) -> None:
        """Record a ``name`` span around every call of ``path``;
        ``note(args, result)`` returns extra numbers for ``data``."""
        spans, stack = self.spans, self._stack

        def make(original):
            def wrapper(*args, **kwargs):
                index = len(spans)
                span = Span(name, _now(), stack[-1] if stack else -1,
                            self.op)
                spans.append(span)
                stack.append(index)
                try:
                    result = original(*args, **kwargs)
                finally:
                    span.end = _now()
                    stack.pop()
                if note is not None:
                    span.data.update(note(args, result))
                return result
            return wrapper

        self._patch(path, name, make)

    def count(self, path: str, name: str) -> None:
        """Count calls of ``path`` under ``name``, without a span."""
        counts = self.counts

        def make(original):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)
            return wrapper

        self._patch(path, name, make)

    def track_engines(self, path: str) -> None:
        """Keep every engine whose ``__init__`` is ``path``, so its
        event count can be read once its op ends."""
        engines = self.engines

        def make(original):
            def wrapper(obj, *args, **kwargs):
                original(obj, *args, **kwargs)
                engines.append(obj)
            return wrapper

        self._patch(path, path, make)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading spans back ---------------------------------------------
    def named(self, name: str) -> List[Span]:
        return [span for span in self.spans if span.name == name]

    def _children(self) -> Dict[int, List[int]]:
        children: Dict[int, List[int]] = {}
        for index, span in enumerate(self.spans):
            children.setdefault(span.parent, []).append(index)
        return children

    def covered(self, index: int, children: Dict[int, List[int]],
                names: Optional[set] = None) -> float:
        """Host seconds of span ``index`` covered by its direct
        children (only those named in ``names`` when given)."""
        spans = self.spans
        intervals = sorted(
            (spans[child].start, spans[child].end)
            for child in children.get(index, ())
            if names is None or spans[child].name in names)
        total, reach = 0.0, float("-inf")
        for start, end in intervals:
            start = max(start, reach)
            if end > start:
                total += end - start
                reach = end
        return total

    def write(self, path: Path, **meta) -> None:
        """Write every span as [name, start, duration, parent, op]
        (microseconds from the first span's start) and each name's
        total self time in seconds as one JSON file."""
        children = self._children()
        own: Dict[str, float] = {}
        for index, span in enumerate(self.spans):
            own[span.name] = (own.get(span.name, 0.0) + span.duration
                              - self.covered(index, children))
        origin = self.spans[0].start if self.spans else 0.0
        payload = dict(meta, self_seconds=own, spans=[
            [span.name, round((span.start - origin) * 1e6, 1),
             round(span.duration * 1e6, 1), span.parent, span.op]
            for span in self.spans])
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload))

    def self_seconds(self, name: str,
                     exclude: Optional[set] = None) -> float:
        """Total duration of the ``name`` spans minus the part their
        children cover (only children named in ``exclude`` when
        given)."""
        children = self._children()
        return sum(
            span.duration - self.covered(index, children, exclude)
            for index, span in enumerate(self.spans) if span.name == name)


_COUNT = re.compile(r"count\((\d+)")


def engine_events(engine) -> Optional[int]:
    """Events an engine has scheduled so far.

    Read from the engine's heap tie-break sequence (one number per
    scheduled callback) without advancing it; None if the engine no
    longer keeps one.
    """
    sequence = getattr(getattr(engine, "_next_seq", None), "__self__", None)
    match = _COUNT.match(repr(sequence))
    return int(match.group(1)) if match else None
