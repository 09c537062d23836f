"""Span recording around the public functions of the program under test.

The tracer wraps each public function once and installs the wrapper at
every module-level binding of it, so a call through `dicke2.cli.assess`
and one through `dicke2.phasescan.assess` are both recorded. Spans stay
in memory as flat int64 records and are analysed (or written out) after
the traced run ends; nothing here touches the program's source.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from array import array

import numpy as np

#: Columns of one span record.
FIELDS = ("sid", "name", "start_ns", "end_ns", "parent", "run")


class Tracer:
    """In-memory span store; one per traced run.

    `run` is the identifier of the request in flight: the driving loop sets
    it before each request, so every span of that request carries it.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._buf = array("q")
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._local.stack = self._main_stack
        self.run = 0

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn):
        nid = self.name_id(name)
        local, main_stack, buf, ids = self._local, self._main_stack, self._buf, self._ids
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            # A worker thread's outermost span belongs to whatever the main
            # thread is blocked in (the scan that fanned the work out).
            parent = stack[-1] if stack else (main_stack[-1] if main_stack else 0)
            sid = next(ids)
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                # One C-level extend: records from two threads never interleave.
                buf.extend((sid, nid, t0, t1, parent, self.run))

        return traced

    def mask(self, spans: np.ndarray, name: str) -> np.ndarray:
        """Rows of `spans` recorded under `name` (none if it never ran)."""
        nid = self._name_ids.get(name)
        if nid is None:
            return np.zeros(len(spans), dtype=bool)
        return spans[:, 1] == nid

    def spans(self) -> np.ndarray:
        """All closed spans, shape (n, 6), columns as in FIELDS."""
        return np.frombuffer(self._buf, dtype=np.int64).reshape(-1, len(FIELDS)).copy()

    def save(self, path) -> None:
        np.savez(path, spans=self.spans(), names=np.array(self.names))


class _ModuleProxy:
    """Stands in for a module binding, overriding some attributes."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, attr):
        return getattr(self._module, attr)


def install(tracer: Tracer, modules, functions, proxies=()):
    """Wrap `functions` at every binding in `modules`; return an undo callable.

    Each function's span name is `<defining module's last part>.<name>`.
    `proxies` holds (module, attr, {name: span_name}) triples: the module
    bound at `module.attr` is replaced by a proxy whose listed attributes
    are traced, so a third-party call is timed as that layer makes it.
    """
    wrapped = {}
    for fn in functions:
        span = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        wrapped[id(fn)] = tracer.wrap(span, fn)
    undo = []
    for mod in modules:
        for attr, val in list(vars(mod).items()):
            if id(val) in wrapped:
                undo.append((mod, attr, val))
                setattr(mod, attr, wrapped[id(val)])
    for mod, attr, overrides in proxies:
        real = getattr(mod, attr)
        traced = {k: tracer.wrap(span, getattr(real, k)) for k, span in overrides.items()}
        undo.append((mod, attr, real))
        setattr(mod, attr, _ModuleProxy(real, **traced))

    def restore() -> None:
        for mod, attr, val in reversed(undo):
            setattr(mod, attr, val)

    return restore


def self_times(spans: np.ndarray) -> np.ndarray:
    """Per span: its duration minus the part of it that child spans cover.

    Children of one parent may overlap when they ran on different threads;
    the covered part is the union of their intervals, not the sum.
    """
    n = len(spans)
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    sid, start, end, parent = spans[:, 0], spans[:, 2], spans[:, 3], spans[:, 4]
    base = start.min()
    s, e = start - base, end - base
    width = int(e.max()) + 1
    order = np.lexsort((s, parent))
    p_sorted, s_sorted, e_sorted = parent[order], s[order], e[order]
    group = np.unique(p_sorted, return_inverse=True)[1].reshape(-1)
    # Running maximum of child ends within each parent group: offsetting
    # each group by group*width keeps one group's maxima out of the next.
    keyed = group * width + e_sorted
    running = np.maximum.accumulate(keyed)
    prev_end = np.concatenate(([-1], running[:-1])) - group * width
    covered = np.clip(e_sorted - np.maximum(s_sorted, prev_end), 0, None)
    sid_order = np.argsort(sid)
    pos = np.searchsorted(sid[sid_order], p_sorted)
    pos = np.clip(pos, 0, n - 1)
    has_parent = sid[sid_order][pos] == p_sorted
    child_cover = np.zeros(n, dtype=np.int64)
    np.add.at(child_cover, sid_order[pos[has_parent]], covered[has_parent])
    return (end - start) - child_cover


def descendant_mask(spans: np.ndarray, root_mask: np.ndarray) -> np.ndarray:
    """Spans that have an ancestor among the spans selected by root_mask."""
    n = len(spans)
    inside = np.zeros(n, dtype=bool)
    if n == 0:
        return inside
    sid, parent = spans[:, 0], spans[:, 4]
    sid_order = np.argsort(sid)
    sorted_sid = sid[sid_order]
    pos = np.clip(np.searchsorted(sorted_sid, parent), 0, n - 1)
    parent_row = np.where(sorted_sid[pos] == parent, sid_order[pos], -1)
    frontier = root_mask.copy()
    # Walk down one generation per pass; call depth here is a handful.
    while frontier.any():
        child = (parent_row >= 0) & frontier[np.maximum(parent_row, 0)] & ~inside
        inside |= child
        frontier = child
    return inside
