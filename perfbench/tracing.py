"""In-memory spans around the engine's layer boundaries.

The traced run wraps the module-level functions and methods the engine
calls at each layer boundary (``install``), records one :class:`Span`
per call in memory, and restores the originals afterwards
(``uninstall``).  Nothing under ``src/`` is modified: the wrappers are
attribute swaps made from the benchmark's own process.

Spans nest per thread: a span's parent is the innermost span open on the
same thread when it started, and a span's *self time* is its duration
minus the durations of its children.  Coroutine spans (admission waits)
are recorded detached -- they neither have nor become parents, because
other coroutines run on the same thread while they wait.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
import types


class Span:
    __slots__ = ("name", "start", "end", "parent", "child_s", "attrs", "thread")

    def __init__(self, name: str, start: float, parent: "Span | None"):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.child_s = 0.0
        self.attrs: dict | None = None
        self.thread = threading.get_ident()

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.end - self.start - self.child_s

    def set(self, **attrs) -> None:
        if self.attrs is None:
            self.attrs = {}
        self.attrs.update(attrs)


class Recorder:
    """Collects spans from every thread of the process."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        self._restore: list = []

    # -- recording ---------------------------------------------------------
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, name: str) -> Span:
        stack = self._stack()
        span = Span(name, time.perf_counter(), stack[-1] if stack else None)
        stack.append(span)
        self.spans.append(span)
        return span

    def exit(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        if span.parent is not None:
            span.parent.child_s += span.duration

    def detached(self, name: str, start: float, end: float) -> Span:
        span = Span(name, start, None)
        span.end = end
        self.spans.append(span)
        return span

    # -- wrapping ----------------------------------------------------------
    def wrap(self, owner: object, attr: str, name: str, on_result=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper until
        :meth:`uninstall`.  *on_result(span, result)* may attach counts."""
        if isinstance(owner, type):
            original = owner.__dict__[attr]
        else:
            original = getattr(owner, attr)
        recorder = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = recorder.enter(name)
            try:
                result = original(*args, **kwargs)
            finally:
                recorder.exit(span)
            if on_result is not None:
                on_result(span, result)
            return result

        self._swap(owner, attr, wrapper)

    def wrap_async(self, owner: type, attr: str, name: str) -> None:
        original = owner.__dict__[attr]
        recorder = self

        @functools.wraps(original)
        async def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return await original(*args, **kwargs)
            finally:
                recorder.detached(name, start, time.perf_counter())

        self._swap(owner, attr, wrapper)

    def _swap(self, owner: object, attr: str, wrapper) -> None:
        if isinstance(owner, (type, types.ModuleType)):
            original = owner.__dict__[attr]
            self._restore.append(lambda: setattr(owner, attr, original))
        else:
            # A bound method shadowed on one instance: dropping the
            # shadow makes the class method visible again.
            self._restore.append(lambda: delattr(owner, attr))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap every layer boundary the engine and the server call."""
        cache = importlib.import_module("repro.engine.cache")
        executor = importlib.import_module("repro.engine.executor")
        plan = importlib.import_module("repro.engine.plan")
        server = importlib.import_module("repro.serve.server")
        admission = importlib.import_module("repro.serve.admission")
        live = importlib.import_module("repro.incremental.live")

        self.wrap(
            cache.PlanCache, "lookup", "cache.lookup",
            lambda span, hit: span.set(hit=hit is not None),
        )
        self.wrap(
            executor, "decompose", "decompose",
            lambda span, result: span.set(width=result.width),
        )
        self.wrap(executor, "compile_plan", "compile")
        # execute_plan's self time is bag materialisation: bind_atom and
        # the sweeps below it are spans of their own.
        self.wrap(executor, "execute_plan", "bag")
        self.wrap(
            plan, "bind_atom", "bind",
            lambda span, rel: span.set(rows=len(rel)),
        )
        for sweep in (
            "enumerate_answers", "boolean_eval",
            "parallel_enumerate_answers", "parallel_boolean_eval",
        ):
            self.wrap(plan, sweep, "sweep")
        self.wrap(server, "parse_query", "parse")
        self.wrap(server, "encode", "encode")
        self.wrap_async(admission.AdmissionController, "acquire", "admission_wait")
        self.wrap(
            live.LiveEngine, "apply", "live.apply",
            lambda span, changes: span.set(
                views_changed=sum(1 for d in changes.values() if d)
            ),
        )

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    # -- analysis ----------------------------------------------------------
    def totals(self, spans: list[Span] | None = None) -> dict[str, dict]:
        """Per span name: call count, total duration, total self time,
        and the sums of numeric attributes."""
        out: dict[str, dict] = {}
        for span in self.spans if spans is None else spans:
            entry = out.setdefault(
                span.name, {"count": 0, "total_s": 0.0, "self_s": 0.0}
            )
            entry["count"] += 1
            entry["total_s"] += span.duration
            entry["self_s"] += span.self_time
            for key, value in (span.attrs or {}).items():
                entry[key] = entry.get(key, 0) + value
        return out

    def export(self) -> list[dict]:
        """The spans as plain records (parent given by index)."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        return [
            {
                "name": span.name,
                "start": span.start,
                "end": span.end,
                "parent": index.get(id(span.parent)),
                "thread": span.thread,
                **(span.attrs or {}),
            }
            for span in self.spans
        ]
