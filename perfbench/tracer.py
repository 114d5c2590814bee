"""In-memory spans recorded around calls into the package.

The tracer replaces attributes of the package's modules and classes with
wrappers for the length of a traced replay, then puts the originals back.
Only attributes that another module calls are wrapped; a function that its
own module calls per sample would add its overhead to every sample.
"""

from __future__ import annotations

import functools
import inspect
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None        # index into Tracer.spans
    request: str = ""
    counts: dict = field(default_factory=dict)
    error: str | None = None         # exception class name, if the call raised

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._request = ""
        self._restore: list[tuple[object, str, object]] = []
        self.broken: set[str] = set()    # spans whose counts hook failed

    @contextmanager
    def span(self, name: str, request: str | None = None):
        if request is not None:
            self._request = request
        parent = self._stack[-1] if self._stack else None
        span = Span(name, 0.0, parent=parent, request=self._request)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        span.start = time.perf_counter()
        try:
            yield span
        except BaseException as exc:
            span.error = type(exc).__name__
            raise
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, owner, attr: str, name: str, counts=None, result=None) -> bool:
        """Trace calls through ``owner.attr`` as spans called ``name``.

        ``counts(arguments, value)`` returns counters to store on the span;
        ``result(value, arguments)`` may replace the returned value, which
        lets a factory hand back a traced closure. Returns False when the
        attribute does not exist, so a renamed function drops out of the
        trace instead of failing the run.
        """
        raw = vars(owner).get(attr)
        if raw is None:
            return False
        bound_kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        func = raw.__func__ if bound_kind else raw
        signature = inspect.signature(func) if (counts or result) else None
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            with tracer.span(name) as span:
                value = func(*args, **kwargs)
            if signature is None:
                return value
            try:
                arguments = signature.bind(*args, **kwargs).arguments
                if counts:
                    span.counts = counts(arguments, value)
                if result:
                    value = result(value, arguments)
            except Exception:  # a hook that no longer fits the package must not break it
                tracer.broken.add(name)
            return value

        setattr(owner, attr, bound_kind(traced) if bound_kind else traced)
        self._restore.append((owner, attr, raw))
        return True

    def traced_callable(self, fn, name: str, counts=None):
        """A traced stand-in for a closure the package handed out."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args):
            with tracer.span(name) as span:
                value = fn(*args)
            if counts:
                try:
                    span.counts = counts(args, value)
                except Exception:  # as in wrap()
                    tracer.broken.add(name)
            return value
        return traced

    def unwrap_all(self) -> None:
        while self._restore:
            owner, attr, raw = self._restore.pop()
            setattr(owner, attr, raw)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread, so children never overlap."""
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.duration
    return own
