"""Spans recorded from outside the program, by wrapping its functions.

A :class:`Tracer` replaces a function with a timing wrapper at every
place the function object is bound: its defining module, every other
loaded module that imported it with ``from .x import f``, and (for
methods) the class that defines it.  A target whose module is not
loaded yet is patched when the module is imported, right after its code
has run, so tracing imports nothing the program would not.  A layer may
have a *guard*: a call whose arguments the guard rejects runs
unrecorded.  :meth:`Tracer.restore` puts every original binding back,
including copies of a wrapper that modules imported while it was
installed.  Each call through a wrapper records one span
``(id, parent, layer, name, t0, t1, thread)`` in memory; the parent is
the innermost open span of the same thread.  References held elsewhere
(closures, default arguments, dict values) are not rewritten.

A span's *self time* is its length minus the part of its interval that
its child spans cover; :func:`self_times` computes it for a whole span
list, and :func:`layer_totals` sums it per layer.
"""

from __future__ import annotations

import functools
import gc
import itertools
import json
import sys
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

__all__ = [
    "Span",
    "Tracer",
    "entry_spans",
    "layer_totals",
    "load_jsonl",
    "self_times",
]

#: (id, parent id or None, layer, name, t0, t1, thread id)
Span = Tuple[int, Optional[int], str, str, float, float, int]

#: called after a wrapped call returns, with the tracer, whether the
#: span entered the layer from outside it, the call's arguments and its
#: result; it updates :attr:`Tracer.counters`
Hook = Callable[["Tracer", bool, tuple, dict, Any], None]

#: called with a wrapped call's positional arguments; False means the
#: call is not the layer's work and runs without a span
Guard = Callable[[tuple], bool]


class Tracer:
    """In-memory span recorder and function patcher."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = {}
        self.missing: List[str] = []
        #: scratch state of the hooks (cleared with the spans)
        self.memo: Dict[str, Any] = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[Tuple[Any, str, Any]] = []
        self._roots: set = set()
        self._on_import: Optional[_PatchOnImport] = None
        self._gc_start: Optional[float] = None

    def reset(self) -> None:
        """Forget recorded spans, counters and hook state; patches stay."""
        self.spans.clear()
        self.counters.clear()
        self.memo.clear()

    # -- counters ------------------------------------------------------------
    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    # -- spans ---------------------------------------------------------------
    def _stack(self) -> List[Tuple[int, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, layer: str, name: str, fn: Callable, args: tuple,
             kwargs: dict, hook: Optional[Hook] = None) -> Any:
        """Run ``fn(*args, **kwargs)`` inside a span of ``layer``."""
        stack = self._stack()
        parent, parent_layer = stack[-1] if stack else (None, None)
        span_id = next(self._ids)
        stack.append((span_id, layer))
        t0 = self.clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = self.clock()
            stack.pop()
            self.spans.append(
                (span_id, parent, layer, name, t0, t1, threading.get_ident())
            )
        if hook is not None:
            hook(self, parent_layer != layer, args, kwargs, result)
        return result

    def wrapper(self, layer: str, name: str, fn: Callable,
                hook: Optional[Hook] = None,
                guard: Optional[Guard] = None) -> Callable:
        call = self.call

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if guard is not None and not guard(args):
                return fn(*args, **kwargs)
            return call(layer, name, fn, args, kwargs, hook)

        traced.__perfbench_original__ = fn
        traced.__perfbench_tracer__ = self
        return traced

    # -- patching ------------------------------------------------------------
    def patch(self, module_name: str, qualname: str, layer: str,
              hook: Optional[Hook] = None,
              guard: Optional[Guard] = None) -> bool:
        """Wrap ``module_name.qualname`` wherever it is bound.

        ``qualname`` is ``"f"`` for a module function or ``"C.m"`` for a
        method.  Returns False (and notes the name in :attr:`missing`)
        when the module or attribute does not exist.
        """
        module = sys.modules.get(module_name)
        owner: Any = module
        parts = qualname.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part, None)
        attr = parts[-1]
        raw = None if owner is None else vars(owner).get(attr)
        fn = raw.__func__ if isinstance(raw, (staticmethod, classmethod)) \
            else raw
        if not callable(fn) or hasattr(fn, "__perfbench_original__"):
            if fn is None:
                self.missing.append(f"{module_name}.{qualname}")
            return fn is not None
        traced = self.wrapper(layer, qualname, fn, hook, guard)
        if isinstance(owner, type):
            rewrapped = type(raw)(traced) if raw is not fn else traced
            self._patches.append((owner, attr, raw))
            setattr(owner, attr, rewrapped)
            return True
        # a module function: rebind every attribute of the package's
        # loaded modules that holds the same object (``from .x import f``
        # copies included)
        root = module_name.split(".")[0]
        self._roots.add(root)
        for name, mod in list(sys.modules.items()):
            if name != root and not name.startswith(root + "."):
                continue
            namespace = getattr(mod, "__dict__", None)
            if not namespace:
                continue
            for key, value in list(namespace.items()):
                if value is fn:
                    self._patches.append((mod, key, fn))
                    setattr(mod, key, traced)
        return True

    def install(self, targets: Iterable[Tuple[str, str, str, Optional[Hook]]],
                guards: Optional[Dict[str, Guard]] = None) -> None:
        """Patch every ``(module, qualname, layer, hook)`` target, with
        ``guards[layer]`` as the guard of the layer's wrappers; a target
        whose module is not loaded yet is patched when the module is
        first imported."""
        guards = guards or {}
        pending: Dict[str, List[tuple]] = {}
        for module_name, qualname, layer, hook in targets:
            args = (qualname, layer, hook, guards.get(layer))
            if module_name not in sys.modules:
                pending.setdefault(module_name, []).append(args)
            else:
                self.patch(module_name, *args)
        if pending:
            self._on_import = _PatchOnImport(self, pending)
            sys.meta_path.insert(0, self._on_import)

    def restore(self) -> None:
        """Undo every patch, newest first, then rebind any copy of a
        wrapper that a module took while it was installed."""
        if self._on_import is not None:
            sys.meta_path.remove(self._on_import)
            self._on_import = None
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        for name, mod in list(sys.modules.items()):
            if name.split(".")[0] not in self._roots:
                continue
            namespace = getattr(mod, "__dict__", None) or {}
            for key, value in list(namespace.items()):
                if getattr(value, "__perfbench_tracer__", None) is self:
                    setattr(mod, key, value.__perfbench_original__)

    # -- garbage collector pauses ---------------------------------------------
    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = self.clock()
        elif self._gc_start is not None:
            self.count("gc.pause_s", self.clock() - self._gc_start)
            self.count("gc.collections")
            self._gc_start = None

    def watch_gc(self) -> None:
        gc.callbacks.append(self._on_gc)

    def unwatch_gc(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    # -- export --------------------------------------------------------------
    def write_jsonl(self, stream, extra: Optional[dict] = None) -> None:
        """One JSON object per span, then one ``{"counters": ...}`` line."""
        keys = ("id", "parent", "layer", "name", "t0", "t1", "thread")
        for span in self.spans:
            stream.write(json.dumps(dict(zip(keys, span))) + "\n")
        summary = {"counters": self.counters, "missing": self.missing}
        summary.update(extra or {})
        stream.write(json.dumps(summary) + "\n")


class _PatchOnImport:
    """Meta-path finder that patches a module's pending targets right
    after the module's code has run (before its importer binds names
    from it)."""

    def __init__(self, tracer: Tracer, pending: Dict[str, List[tuple]]):
        self.tracer = tracer
        self.pending = pending

    def find_spec(self, name, path, target=None):
        if name not in self.pending:
            return None
        for finder in sys.meta_path:
            if finder is self or not hasattr(finder, "find_spec"):
                continue
            spec = finder.find_spec(name, path, target)
            if spec is not None:
                break
        else:
            return None
        exec_module = spec.loader.exec_module

        def exec_and_patch(module) -> None:
            exec_module(module)
            for args in self.pending.pop(name, ()):
                self.tracer.patch(name, *args)

        spec.loader.exec_module = exec_and_patch
        return spec


def load_jsonl(lines: Iterable[str]) -> Tuple[List[Span], dict]:
    """Read back :meth:`Tracer.write_jsonl` output."""
    spans: List[Span] = []
    summary: dict = {}
    for line in lines:
        record = json.loads(line)
        if "counters" in record:
            summary = record
            continue
        spans.append((
            record["id"], record["parent"], record["layer"], record["name"],
            record["t0"], record["t1"], record["thread"],
        ))
    return spans, summary


def _covered(intervals: List[Tuple[float, float]], lo: float, hi: float
             ) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    end = lo
    for start, stop in sorted(intervals):
        start, stop = max(start, end), min(stop, hi)
        if stop > start:
            total += stop - start
            end = stop
    return total


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Span id -> its length minus the time its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for _, parent, _, _, t0, t1, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((t0, t1))
    return {
        span_id: (t1 - t0) - _covered(children.get(span_id, []), t0, t1)
        for span_id, _, _, _, t0, t1, _ in spans
    }


def layer_totals(spans: List[Span]) -> Dict[str, float]:
    """Layer -> summed self time of its spans."""
    own = self_times(spans)
    totals: Dict[str, float] = {}
    for span in spans:
        totals[span[2]] = totals.get(span[2], 0.0) + own[span[0]]
    return totals


def entry_spans(spans: List[Span]) -> List[Span]:
    """Spans that entered their layer from outside it (no parent, or a
    parent of another layer): one per call a client made into the layer."""
    layer_of = {span[0]: span[2] for span in spans}
    return [s for s in spans if s[1] is None or layer_of.get(s[1]) != s[2]]
