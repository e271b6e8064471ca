"""In-memory span recorder and import-site instrumentation.

A :class:`Span` is one timed call into a layer: name, start, end, the
span that was open on the same thread when it began (its parent), and
the request id it belongs to. Spans of one request share the
``request_id`` the client put on its ``QueryRequest``/``ReleaseRequest``;
the server thread picks that id up from the envelope, which links the
client's span to the server's.

:class:`Instrumentation` swaps a function or method for a wrapper that
records a span around each call, at the place callers look it up (a
module global such as ``repro.query.engine.rewrite``, or a class
attribute), and restores the original on :meth:`~Instrumentation.undo`.
Nothing in the program under test is edited.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence


@dataclass
class Span:
    """One recorded call. Times are ``time.perf_counter`` seconds."""

    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    request_id: str | None
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(intervals: Sequence[tuple[float, float]],
            start: float, end: float) -> float:
    """Length of ``[start, end]`` covered by the union of *intervals*
    (overlapping intervals count once, parts outside are clipped)."""
    clipped = sorted((max(s, start), min(e, end)) for s, e in intervals
                     if e > start and s < end)
    total = 0.0
    run_start, run_end = None, None
    for s, e in clipped:
        if run_end is None or s > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = s, e
        else:
            run_end = max(run_end, e)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_time(span: Span, children: Sequence[Span]) -> float:
    """The span's duration minus the part its children cover."""
    return span.duration - covered(
        [(c.start, c.end) for c in children], span.start, span.end)


class SpanRecorder:
    """Thread-safe collector of finished spans.

    Each thread keeps its own stack of open spans, so a span's parent is
    the innermost span open on the thread that started it.
    """

    def __init__(self) -> None:
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._spans: list[Span] = []
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, request_id: str | None = None
             ) -> Iterator[Span]:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if request_id is None and parent is not None:
            request_id = parent.request_id
        span = Span(next(self._ids), name, time.perf_counter(), 0.0,
                    parent.sid if parent is not None else None,
                    request_id)
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self._spans.append(span)

    def spans(self) -> list[Span]:
        with self._lock:
            return list(self._spans)

    def dump(self, path: Path) -> None:
        """Write every span as one JSON line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for span in self.spans():
                out.write(json.dumps(asdict(span), default=str) + "\n")


#: extracts a request id from a traced call's arguments
RequestIdOf = Callable[..., "str | None"]
#: records attributes of a finished call: (span, result, args)
Annotate = Callable[[Span, Any, tuple], None]


class Instrumentation:
    """Span-recording wrappers installed at import sites; undoable."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._originals: list[tuple[Any, str, Any]] = []

    def wrap(self, owner: Any, attr: str, name: str, *,
             request_id: RequestIdOf | None = None,
             annotate: Annotate | None = None) -> None:
        """Record a span named *name* around every call of
        ``owner.attr`` (a module function, method or classmethod)."""
        raw = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        if isinstance(raw, classmethod):
            replacement: Any = classmethod(
                self._traced(raw.__func__, name, request_id, annotate))
        else:
            replacement = self._traced(raw, name, request_id, annotate)
        self._originals.append((owner, attr, raw))
        setattr(owner, attr, replacement)

    def _traced(self, fn: Callable[..., Any], name: str,
                request_id: RequestIdOf | None,
                annotate: Annotate | None) -> Callable[..., Any]:
        recorder = self.recorder

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            rid = request_id(*args, **kwargs) if request_id else None
            with recorder.span(name, rid) as span:
                result = fn(*args, **kwargs)
                if annotate is not None:
                    annotate(span, result, args)
                return result

        return traced

    def undo(self) -> None:
        """Restore every wrapped attribute, last wrapped first."""
        while self._originals:
            owner, attr, raw = self._originals.pop()
            setattr(owner, attr, raw)
