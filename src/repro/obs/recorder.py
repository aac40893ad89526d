"""Span-based tracing and metric recording.

A :class:`Span` is one timed region; spans nest into a tree per
:class:`Recorder`.  The module-level :func:`span`/:func:`add`/
:func:`set_gauge` helpers talk to the recorder installed by :func:`use`
(a :class:`contextvars.ContextVar`, so worker threads and nested
analyses cannot corrupt each other's trees).  With no recorder
installed, :func:`span` yields ``None`` and times nothing, and counter
and gauge updates become no-ops: the recorder's span tree is the only
record of stage time.

Profiling: a recorder built with ``profile_stages={"pointsto", ...}``
attaches a cProfile capture to matching spans (outermost-wins, since
cProfile cannot nest) and stores the top functions in
``span.attrs["profile"]``.  Arbitrary ``on_span_end`` callbacks fire for
every closed span, which is the hook surface for custom sinks.
"""

from __future__ import annotations

import contextvars
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional

_SENTINEL = -1.0


class Span:
    """One timed region of the pipeline: a node in the trace tree."""

    __slots__ = ("name", "attrs", "children", "duration", "_t0")

    def __init__(self, name: str, attrs: Optional[Dict[str, Any]] = None):
        self.name = name
        self.attrs: Dict[str, Any] = dict(attrs or {})
        self.children: List[Span] = []
        #: monotonic duration in seconds (``time.perf_counter`` delta)
        self.duration = _SENTINEL
        self._t0 = 0.0

    def begin(self) -> None:
        self._t0 = time.perf_counter()

    def end(self) -> None:
        self.duration = time.perf_counter() - self._t0

    @property
    def closed(self) -> bool:
        return self.duration != _SENTINEL

    def walk(self) -> Iterator["Span"]:
        """Depth-first traversal of this span and its descendants."""
        yield self
        for child in self.children:
            yield from child.walk()

    def to_dict(self) -> Dict[str, Any]:
        """JSON view: name, monotonic duration, attrs, children.

        Absolute timestamps are deliberately omitted so two exports of
        the same analysis differ only in ``duration_s`` values.
        """
        out: Dict[str, Any] = {
            "name": self.name,
            "duration_s": self.duration if self.closed else None,
        }
        if self.attrs:
            out["attrs"] = dict(self.attrs)
        if self.children:
            out["children"] = [c.to_dict() for c in self.children]
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Span":
        span = cls(data["name"], data.get("attrs"))
        if data.get("duration_s") is not None:
            span.duration = data["duration_s"]
        span.children = [cls.from_dict(c) for c in data.get("children", ())]
        return span

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.name!r}, {self.duration:.6f}s, " \
               f"{len(self.children)} children)"


class Recorder:
    """Collects one analysis' spans, counters, and gauges."""

    def __init__(self, profile_stages: Iterable[str] = (),
                 profile_top: int = 15) -> None:
        self.roots: List[Span] = []
        self.counters: Dict[str, int] = {}
        self.gauges: Dict[str, float] = {}
        #: callbacks fired with each span right after it begins
        self.on_span_start: List[Callable[[Span], None]] = []
        #: callbacks fired with each span as it closes
        self.on_span_end: List[Callable[[Span], None]] = []
        self.profile_stages = frozenset(profile_stages)
        self.profile_top = profile_top
        self._stack: List[Span] = []
        self._profiling = False

    # -- spans ---------------------------------------------------------------

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        node = Span(name, attrs)
        parent = self._stack[-1] if self._stack else None
        (parent.children if parent is not None else self.roots).append(node)
        self._stack.append(node)
        profiler = None
        if name in self.profile_stages and not self._profiling:
            import cProfile

            profiler = cProfile.Profile()
            self._profiling = True
            profiler.enable()
        node.begin()
        for callback in self.on_span_start:
            callback(node)
        try:
            yield node
        finally:
            node.end()
            if profiler is not None:
                profiler.disable()
                self._profiling = False
                node.attrs["profile"] = _top_functions(
                    profiler, self.profile_top
                )
            self._stack.pop()
            for callback in self.on_span_end:
                callback(node)

    # -- metrics -------------------------------------------------------------

    def add(self, name: str, value: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def set_gauge(self, name: str, value: float) -> None:
        self.gauges[name] = value

    def max_gauge(self, name: str, value: float) -> None:
        """Set a gauge to the max of its current value and ``value`` --
        the right update for ``*.peak_*`` high-water-mark gauges."""
        current = self.gauges.get(name)
        if current is None or value > current:
            self.gauges[name] = value

    def add_gauge(self, name: str, delta: float) -> None:
        """Accumulate a float gauge -- the right update for cumulative
        measurements like per-pair processing seconds."""
        self.gauges[name] = self.gauges.get(name, 0.0) + delta

    def snapshot(self) -> "MetricsSnapshot":
        from .metrics import MetricsSnapshot

        return MetricsSnapshot(
            counters=dict(self.counters),
            gauges=dict(self.gauges),
            spans=[root.to_dict() for root in self.roots],
        )


def _top_functions(profiler, limit: int) -> str:
    import io
    import pstats

    buf = io.StringIO()
    stats = pstats.Stats(profiler, stream=buf)
    stats.sort_stats("cumulative").print_stats(limit)
    return buf.getvalue()


# -- module-level current-recorder API ---------------------------------------

_current: contextvars.ContextVar[Optional[Recorder]] = \
    contextvars.ContextVar("repro_obs_recorder", default=None)


def current() -> Optional[Recorder]:
    """The recorder installed by the innermost :func:`use`, if any."""
    return _current.get()


@contextmanager
def use(recorder: Recorder) -> Iterator[Recorder]:
    """Install ``recorder`` as the target of :func:`span`/:func:`add`."""
    token = _current.set(recorder)
    try:
        yield recorder
    finally:
        _current.reset(token)


@contextmanager
def span(name: str, **attrs: Any) -> Iterator[Optional[Span]]:
    """Time a region into the current recorder's trace tree.

    Without a recorder nothing is timed or built, and the block gets
    ``None``.
    """
    recorder = _current.get()
    if recorder is None:
        yield None
        return
    with recorder.span(name, **attrs) as node:
        yield node


def add(name: str, value: int = 1) -> None:
    """Increment a counter on the current recorder (no-op without one)."""
    recorder = _current.get()
    if recorder is not None:
        recorder.add(name, value)


def set_gauge(name: str, value: float) -> None:
    """Set a gauge on the current recorder (no-op without one)."""
    recorder = _current.get()
    if recorder is not None:
        recorder.set_gauge(name, value)


def add_gauge(name: str, delta: float) -> None:
    """Accumulate a float gauge on the current recorder (no-op without
    one).  Used for cumulative measurements such as hotspot seconds."""
    recorder = _current.get()
    if recorder is not None:
        recorder.add_gauge(name, delta)
