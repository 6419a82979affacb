"""Per-layer tracing of a library from outside it.

The tracer replaces library functions by timing wrappers.  Because a
module can bind a name with ``from .exactla import rref``, a wrapper is
rebound in every module that holds the original object, not only in the
module that defines it; ``unwrapped_aliases`` proves that none was missed.

Every wrapped call pushes a frame on one stack.  When it returns, its
duration is added to the frame below, so a call's self time is its
duration minus the time its wrapped children cover (the run has one
thread, so children never overlap).  Hot leaves (``COUNTER`` kind) only
update aggregated counters; layer entry points and operations (``SPAN``
kind) also keep a span record with its parent span and operation id.
"""

from __future__ import annotations

import functools
import time
from types import ModuleType
from typing import Callable, Iterable, Optional

COUNTER, SPAN = "counter", "span"


class Tracer:
    """Aggregated call statistics plus span records, held in memory."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.stats: dict[str, list] = {}   # name -> [calls, self_s, incl_s]
        self.extra: dict[str, dict] = {}   # name -> counters filled by a probe
        self.spans: list[tuple] = []       # (id, parent, op, name, start, end, self_s)
        self.op_id: Optional[int] = None
        self._stack: list[list] = []       # per active call: [child_s]
        self._span_stack: list[int] = []
        self._next_span = 0
        self._depth: dict[str, int] = {}
        self._bindings: list[tuple[object, str, object]] = []  # (owner, attr, original)
        self._originals: list[object] = []

    def wrap(self, name: str, fn: Callable, kind: str = COUNTER,
             probe: Optional[Callable] = None) -> Callable:
        """A wrapper around fn that records calls, self and inclusive time.

        ``probe(extra, args, result)`` may add counters after each call; its
        own time is kept out of the caller's self time.
        """
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        extra = self.extra.setdefault(name, {})
        stack, span_stack, depth, clock = self._stack, self._span_stack, self._depth, self.clock
        depth.setdefault(name, 0)

        def traced(*args, **kwargs):
            span_id = None
            if kind == SPAN:
                self._next_span += 1
                span_id = self._next_span
                span_stack.append(span_id)
            frame = [0.0]
            stack.append(frame)
            depth[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                depth[name] -= 1
                dur = end - start
                stats[0] += 1
                stats[1] += dur - frame[0]
                if depth[name] == 0:  # outermost activation only: recursion is not counted twice
                    stats[2] += dur
                if stack:
                    stack[-1][0] += dur
                if span_id is not None:
                    span_stack.pop()
                    parent = span_stack[-1] if span_stack else None
                    self.spans.append((span_id, parent, self.op_id, name, start, end,
                                       dur - frame[0]))
            if probe is not None:
                p0 = clock()
                probe(extra, args, result)
                if stack:
                    stack[-1][0] += clock() - p0
            return result

        return functools.update_wrapper(traced, fn)

    def install(self, layers: dict[str, ModuleType], scope: Iterable[ModuleType],
                targets: Iterable[tuple]) -> None:
        """Wrap each target and rebind it wherever ``scope`` holds it.

        A target is ``(name, kind, probe)`` with ``name`` either
        ``layer.function`` or ``layer.Class.method``.
        """
        scope = list(scope)
        for name, kind, probe in targets:
            layer, *path = name.split(".")
            owner = layers[layer]
            if len(path) == 2:
                cls = getattr(owner, path[0])
                raw = vars(cls)[path[1]]
                if isinstance(raw, classmethod):
                    new = classmethod(self.wrap(name, raw.__func__, kind, probe))
                else:
                    new = self.wrap(name, raw, kind, probe)
                self._bind(cls, path[1], raw, new)
            else:
                raw = getattr(owner, path[0])
                new = self.wrap(name, raw, kind, probe)
                for module in scope:
                    for attr, value in list(vars(module).items()):
                        if value is raw:
                            self._bind(module, attr, raw, new)
            self._originals.append(raw)

    def _bind(self, owner, attr: str, raw, new) -> None:
        setattr(owner, attr, new)
        self._bindings.append((owner, attr, raw))

    def unwrapped_aliases(self, scope: Iterable[ModuleType]) -> list[str]:
        """Names in ``scope`` (modules and their classes) still bound to an original."""
        originals = {id(o) for o in self._originals}
        found = []
        for module in scope:
            for attr, value in vars(module).items():
                if id(value) in originals:
                    found.append(f"{module.__name__}.{attr}")
                if isinstance(value, type):
                    found += [f"{module.__name__}.{attr}.{k}"
                              for k, v in vars(value).items() if id(v) in originals]
        return found

    def uninstall(self) -> None:
        """Put every original back."""
        for owner, attr, raw in reversed(self._bindings):
            setattr(owner, attr, raw)
        self._bindings.clear()
