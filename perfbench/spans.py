"""In-process span tracer that wraps a program's public callables.

A :class:`Tracer` replaces each named callable with a wrapper that records
one span per call: its inclusive time, and its self time (inclusive time
minus the time spent in wrapped callables it called).  Spans nest through a
stack, so a callable reached from another wrapped callable is charged to
its own name and subtracted from its caller's self time.  Calls made while
no other wrapped callable is running are *top-level*; their inclusive time
is what :meth:`Tracer.top_level_s` accumulates, and wall time not covered
by top-level spans is unattributed.

Wrappers are installed with :meth:`Tracer.patch_method` and
:meth:`Tracer.patch_function` and removed with :meth:`Tracer.restore`,
which puts back the exact objects that were replaced.  Statistics survive a
restore, so a run can alternate traced and untraced phases with one tracer.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable


@dataclass
class SpanStats:
    """Totals for one span name."""

    calls: int = 0
    s: float = 0.0
    self_s: float = 0.0


class _Frame:
    __slots__ = ("child_s",)

    def __init__(self) -> None:
        self.child_s = 0.0


class Tracer:
    """Collects span statistics and counts from wrapped callables."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: dict[str, SpanStats] = {}
        self.counts: dict[str, int] = {}
        self.top_level_s = 0.0
        self._stack: list[_Frame] = []
        self._patches: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #

    def count(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to the exact counter ``name``."""
        self.counts[name] = self.counts.get(name, 0) + int(amount)

    def wrap(
        self,
        function: Callable,
        name: str | Callable[..., str],
        on_result: Callable[..., None] | None = None,
    ) -> Callable:
        """Return ``function`` wrapped to record a span per call.

        ``name`` is the span name, or a callable receiving the call's
        positional and keyword arguments and returning it (used to split
        one callable's spans by an argument).  ``on_result(result, *args,
        **kwargs)`` runs after a successful call to update counts; its own
        time is charged to the enclosing span, not to this one.
        """
        tracer = self

        @functools.wraps(function)
        def traced(*args: Any, **kwargs: Any) -> Any:
            span = name(*args, **kwargs) if callable(name) else name
            frame = _Frame()
            stack = tracer._stack
            stack.append(frame)
            started = tracer.clock()
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = tracer.clock() - started
                stack.pop()
                stats = tracer.spans.get(span)
                if stats is None:
                    stats = tracer.spans[span] = SpanStats()
                stats.calls += 1
                stats.s += elapsed
                stats.self_s += elapsed - frame.child_s
                if stack:
                    stack[-1].child_s += elapsed
                else:
                    tracer.top_level_s += elapsed
            if on_result is not None:
                on_result(result, *args, **kwargs)
            return result

        return traced

    # ------------------------------------------------------------------ #
    # Installing and removing wrappers
    # ------------------------------------------------------------------ #

    def patch_method(
        self,
        owner: type,
        attribute: str,
        name: str | Callable[..., str],
        on_result: Callable[..., None] | None = None,
    ) -> None:
        """Wrap ``owner.attribute`` in place (a plain method or a classmethod)."""
        raw = owner.__dict__[attribute]
        if isinstance(raw, classmethod):
            replacement: Any = classmethod(self.wrap(raw.__func__, name, on_result))
        else:
            replacement = self.wrap(raw, name, on_result)
        self._patches.append((owner, attribute, raw))
        setattr(owner, attribute, replacement)

    def patch_function(
        self,
        function: Callable,
        name: str,
        on_result: Callable[..., None] | None = None,
        module_prefix: str = "repro",
    ) -> int:
        """Wrap a module-level function everywhere a caller looks it up.

        Every loaded module under ``module_prefix`` that binds ``function``
        (its defining module and each module that imported it by name) gets
        the same wrapper.  Returns how many bindings were replaced.
        """
        wrapper = self.wrap(function, name, on_result)
        replaced = 0
        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name == module_prefix or module_name.startswith(module_prefix + ".")
            ):
                continue
            for attribute, value in list(vars(module).items()):
                if value is function:
                    self._patches.append((module, attribute, value))
                    setattr(module, attribute, wrapper)
                    replaced += 1
        return replaced

    def restore(self) -> None:
        """Put back every replaced object, newest first (idempotent)."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)
