"""In-memory span recorder and the wrappers that feed it.

``install`` replaces functions with timing wrappers at every module or class
attribute that references them, so a call made through any binding (for
example ``picard_solve`` as seen from ``smap.solver``, ``smap.harness.runner``
and ``smap.harness.data``) opens a span. Nothing in the program changes; the
wrappers live here and ``Patch.restore`` puts the originals back.

A span records its name, start, end, thread id and parent. The parent is
the innermost open span on the same thread; a span opened on a thread with
no open span (a pool worker) takes the innermost open span of the thread
that created the recorder, which is the call that started the pool.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import threading
import time
from dataclasses import dataclass, field

PACKAGE = "smap"  # modules of this package get their references rebound


@dataclass
class Span:
    sid: int
    name: str
    start: float
    tid: int
    parent: int | None
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects finished spans; safe to use from several threads."""

    def __init__(self):
        self.spans = []
        self.main_tid = threading.get_ident()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_sid = 0
        self._main_stack = self._stack()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1].sid
        else:
            # Pool worker: the main thread is blocked inside the call that
            # submitted this work. Copy the list to read it consistently.
            main = list(self._main_stack)
            parent = main[-1].sid if main else None
        with self._lock:
            sid = self._next_sid
            self._next_sid += 1
        span = Span(sid, name, time.perf_counter(), threading.get_ident(), parent)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        with self._lock:
            self.spans.append(span)

    def dump(self, path) -> None:
        fields = ["sid", "name", "start", "end", "tid", "parent", "attrs"]
        rows = [[getattr(s, f) for f in fields] for s in sorted(self.spans, key=lambda s: s.sid)]
        with open(path, "w") as fh:
            json.dump({"fields": fields, "spans": rows}, fh)


def wrap(fn, name: str, recorder: Recorder, annotate=None):
    """Return a wrapper of ``fn`` that records one span per call.

    ``annotate(args, kwargs, result)`` may return a dict stored on the span;
    it runs inside the span, after ``fn`` returned.
    """

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = recorder.open(name)
        try:
            result = fn(*args, **kwargs)
            if annotate is not None:
                span.attrs.update(annotate(args, kwargs, result))
            return result
        finally:
            recorder.close(span)

    return traced


class Patch:
    """Attribute replacements made by ``install``; ``restore`` undoes them."""

    def __init__(self):
        self._saved = []

    def set(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


def public_functions(module):
    """Functions defined in ``module`` whose names do not start with '_'."""
    for attr, obj in vars(module).items():
        if attr.startswith("_") or not inspect.isfunction(obj):
            continue
        if obj.__module__ == module.__name__:
            yield attr, obj


def install(recorder: Recorder, modules, extra=(), annotate=None) -> Patch:
    """Wrap the public functions of ``modules`` plus the ``extra`` targets.

    ``extra`` holds ``(module_name, dotted_attr)`` pairs, e.g.
    ``("smap.report", "NormReport.write")`` or ``("scipy.fft", "fftn")``;
    a target missing from the module is skipped. Span names drop the leading
    ``smap.`` from the module name. Every attribute of a module of the
    package that references a wrapped function is rebound to its wrapper.
    """
    annotate = annotate or {}
    patch = Patch()
    wrappers = {}

    def label(module_name, attr):
        return f"{module_name.removeprefix(PACKAGE + '.')}.{attr}"

    for module_name in modules:
        module = importlib.import_module(module_name)
        for attr, fn in public_functions(module):
            name = label(module_name, attr)
            wrappers[fn] = wrap(fn, name, recorder, annotate.get(name))

    for module_name, dotted in extra:
        owner = importlib.import_module(module_name)
        *path, attr = dotted.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        fn = getattr(owner, attr, None) if owner is not None else None
        if fn is None:
            continue
        name = label(module_name, dotted)
        wrapper = wrappers.get(fn) or wrap(fn, name, recorder, annotate.get(name))
        wrappers[fn] = wrapper
        patch.set(owner, attr, wrapper)

    for module_name, module in list(sys.modules.items()):
        if module is None or module_name.split(".")[0] != PACKAGE:
            continue
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                patch.set(module, attr, wrappers[obj])
    return patch


def self_times(spans) -> dict:
    """Map span id -> duration minus the part of it that child spans cover.

    Children on other threads may overlap each other, so the covered part is
    the length of the union of the children's intervals.
    """
    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        lo = hi = None
        for a, b in sorted(children.get(s.sid, ())):
            a, b = max(a, s.start), min(b, s.end)
            if b <= a:
                continue
            if hi is None or a > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = a, b
            else:
                hi = max(hi, b)
        if hi is not None:
            covered += hi - lo
        out[s.sid] = s.duration - covered
    return out
