"""Spans recorded around library functions, installed from outside the library.

A span is one call of a wrapped function: its name, start and end
(time.perf_counter seconds), the span that was open when it began (its
parent, -1 for none) and the id of the pass it belongs to.  Spans are kept
in flat arrays so that a pass with a million calls stays small in memory,
and are written out once, when the run ends.

The library is single-threaded and the wrapped functions do not call
themselves, so spans nest strictly: a span's self time is its duration
minus the durations of its direct children, and the self times of one pass
add up to the duration of its root span.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from array import array
from time import perf_counter

# Self times are differences of perf_counter readings; allow this much
# rounding below zero before calling a self time negative.
SELF_TIME_SLACK_S = 1e-9


class Tracer:
    """In-memory span recorder with a patcher for module and class attributes."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.run = array("l")
        self.run_id = 0
        self.counters = {}
        self.seen = {}
        self.missing = []
        self._stack = [-1]
        self._patches = []

    # -- spans -------------------------------------------------------------

    def open(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.run.append(self.run_id)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def close(self, i):
        self.end[i] = perf_counter()
        self._stack.pop()

    def count(self, key, amount=1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, name, fn, pre=None, post=None):
        """fn wrapped in a span; pre(tracer, args) and post(tracer, args, result)
        run outside it, so their cost lands in the caller's self time."""
        open_, close = self.open, self.close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if pre is not None:
                pre(self, args)
            i = open_(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(i)
            if post is not None:
                post(self, args, result)
            return result

        return traced

    # -- patching ----------------------------------------------------------

    def install(self, targets, package):
        """Wrap each target wherever the package binds it.

        targets: (span name, module, dotted attribute, pre, post).  A dotted
        attribute names a class method ("Class.method") or an attribute of a
        module object held by the module ("_impl.echelon").  A function is
        replaced in every module of the package that binds it, so calls made
        through `from .x import f` bindings are traced too.  Targets that no
        longer exist are listed in self.missing and read as zero.
        """
        for name, module, dotted, pre, post in targets:
            owner = importlib.import_module(module)
            *path, attr = dotted.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.missing.append(f"{module}.{dotted}")
                continue
            wrapper = self.wrap(name, original, pre, post)
            if isinstance(owner, type):
                self._patch(owner, attr, original, wrapper)
                continue
            for mod in list(sys.modules.values()):
                mname = getattr(mod, "__name__", "")
                if mname != package and not mname.startswith(package + "."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading -----------------------------------------------------------

    def spans(self):
        return Spans(self.names, self.name, self.start, self.end, self.parent, self.run)

    def write(self, path):
        """One JSON header line, then the five arrays as raw machine values."""
        cols = (self.name, self.start, self.end, self.parent, self.run)
        header = {
            "names": self.names,
            "count": len(self.name),
            "columns": ["name", "start", "end", "parent", "run"],
            "typecodes": [c.typecode for c in cols],
            "byteorder": sys.byteorder,
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for c in cols:
                c.tofile(fh)


def read_spans(path):
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        if header["byteorder"] != sys.byteorder:
            raise ValueError("span file written on a machine of another byte order")
        cols = []
        for code in header["typecodes"]:
            col = array(code)
            col.fromfile(fh, header["count"])
            cols.append(col)
    return Spans(header["names"], *cols)


class Spans:
    """Read-only view of recorded spans with derived durations and self times."""

    def __init__(self, names, name, start, end, parent, run):
        self.names = names
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.run = run
        self.duration = array("d", [e - s for s, e in zip(start, end)])
        child = array("d", [0.0]) * len(name)
        for i, p in enumerate(parent):
            if p >= 0:
                child[p] += self.duration[i]
        self.self_time = array("d", [d - c for d, c in zip(self.duration, child)])

    def __len__(self):
        return len(self.name)

    def by_name(self, run_id):
        """{span name: [calls, inclusive seconds, self seconds]} for one pass."""
        out = {}
        names = self.names
        for i, r in enumerate(self.run):
            if r != run_id:
                continue
            agg = out.get(names[self.name[i]])
            if agg is None:
                agg = out[names[self.name[i]]] = [0, 0.0, 0.0]
            agg[0] += 1
            agg[1] += self.duration[i]
            agg[2] += self.self_time[i]
        return out

    def problems(self):
        """Every way the spans fail to nest; empty when they are sound."""
        out = []
        n = len(self)
        for i in range(n):
            s, e, p = self.start[i], self.end[i], self.parent[i]
            if e < s:
                out.append(f"span {i} ends before it starts")
            if p >= 0:
                if p >= i:
                    out.append(f"span {i} has parent {p} that was not opened before it")
                    continue
                if not (self.start[p] <= s and e <= self.end[p]):
                    out.append(f"span {i} lies outside its parent {p}")
                if self.run[p] != self.run[i]:
                    out.append(f"span {i} and its parent {p} belong to different passes")
            elif p != -1:
                out.append(f"span {i} has nonexistent parent {p}")
            if self.self_time[i] < -SELF_TIME_SLACK_S:
                out.append(f"span {i} has negative self time {self.self_time[i]}")
            if len(out) > 20:
                break
        return out
