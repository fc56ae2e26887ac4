"""In-memory span recording around calls into openmult, timed from outside.

A span is (name, op id, span id, parent span id, start, end) in
`time.perf_counter` seconds.  Wrappers replace the module or class attribute
that the caller looks up, so no file under `src/` is touched.  A target that
does not exist (for example a helper removed by a later refactor) is listed
as absent instead of raising.

This module imports nothing heavy, so the CLI launcher can time
`import openmult.cli` after importing it.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict


class Recorder:
    """Collects spans and per-op counters in memory."""

    def __init__(self):
        self.spans = []          # (name, op, sid, parent, start, end)
        self.counts = defaultdict(float)   # (op, name) -> value
        self.absent = []
        self.op = None
        self._stack = []
        self._next = 0

    def begin_op(self, op):
        self.op = op
        self._stack.clear()

    def open(self):
        sid = self._next
        self._next += 1
        self._stack.append(sid)
        return sid

    def close(self, sid, name, start, end):
        self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        self.spans.append((name, self.op, sid, parent, start, end))

    def add_span(self, name, start, end):
        """Record a top-level span that was not produced by a wrapper."""
        self.spans.append((name, self.op, self._next, None, start, end))
        self._next += 1

    def count(self, name, value=1.0):
        self.counts[(self.op, name)] += value

    def merge(self, data):
        """Add another process's recording (cli_child.py output) to the current op."""
        offset = self._next
        for name, _op, sid, parent, start, end in data["spans"]:
            parent = None if parent is None else parent + offset
            self.spans.append((name, self.op, sid + offset, parent, start, end))
            self._next = max(self._next, sid + offset + 1)
        for name, value in data["counts"]:
            self.count(name, value)
        self.absent.extend(a for a in data["absent"] if a not in self.absent)


def _make_wrapper(rec, name, fn, counter):
    def wrapper(*args, **kwargs):
        sid = rec.open()
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(sid, name, start, time.perf_counter())
        if counter is not None:
            counter(rec, args, result)
        return result

    return wrapper


def _make_counter_only(rec, name, fn):
    def wrapper(*args, **kwargs):
        rec.count(name)
        return fn(*args, **kwargs)

    return wrapper


def _resolve(path):
    """Split 'pkg.mod.Attr.attr' into (owner object, attribute name)."""
    parts = path.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:-1]:
            owner = getattr(owner, attr)
        return owner, parts[-1]
    raise ImportError(path)


class Installation:
    """Wrappers installed for one Recorder; `remove()` restores the originals."""

    def __init__(self, rec, targets):
        self._restore = []
        for target in targets:
            try:
                self._install(rec, target)
            except (ImportError, AttributeError, KeyError, TypeError):
                rec.absent.append(target.path)

    def _install(self, rec, target):
        if target.path.endswith("[*]"):
            # every callable value of a dict, e.g. a command table
            owner, attr = _resolve(target.path[:-3])
            table = getattr(owner, attr)
            if not isinstance(table, dict) or not table:
                raise TypeError(target.path)
            for key, fn in list(table.items()):
                table[key] = _make_wrapper(rec, target.name, fn, target.counter)
                self._restore.append((table.__setitem__, key, fn))
            return
        owner, attr = _resolve(target.path)
        fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if not callable(fn):
            raise TypeError(target.path)
        if target.count_only:
            wrapped = _make_counter_only(rec, target.name, fn)
        else:
            wrapped = _make_wrapper(rec, target.name, fn, target.counter)
        setattr(owner, attr, wrapped)
        self._restore.append((lambda k, v, o=owner: setattr(o, k, v), attr, fn))

    def remove(self):
        for setter, key, fn in reversed(self._restore):
            setter(key, fn)
        self._restore.clear()


# ---------------------------------------------------------------------------
# Analysis


def _union_length(intervals):
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """{span id: duration minus the part of it covered by child spans}."""
    children = defaultdict(list)
    for _name, _op, _sid, parent, start, end in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = {}
    for _name, _op, sid, _parent, start, end in spans:
        clipped = [(max(lo, start), min(hi, end)) for lo, hi in children.get(sid, ())]
        covered = _union_length([(lo, hi) for lo, hi in clipped if hi > lo])
        out[sid] = (end - start) - covered
    return out


def coverage(spans, op_wall):
    """Fraction of op wall time under a top-level span.

    `op_wall` maps op id -> op wall seconds; spans of ops not in it are ignored.
    """
    tops = defaultdict(list)
    for _name, op, _sid, parent, start, end in spans:
        if parent is None and op in op_wall:
            tops[op].append((start, end))
    wall = sum(op_wall.values())
    if wall <= 0.0:
        return 0.0
    return sum(_union_length(iv) for iv in tops.values()) / wall


def per_op_totals(rec, ops):
    """Per-op averages over `ops` (a collection of op ids).

    Returns {span name: self ms per op}, {span name: calls per op} and
    {counter name: value per op}.
    """
    ops = set(ops)
    n = max(len(ops), 1)
    spans = [s for s in rec.spans if s[1] in ops]
    selfs = self_times(spans)
    self_ms = defaultdict(float)
    calls = defaultdict(float)
    for name, _op, sid, _parent, _start, _end in spans:
        self_ms[name] += selfs[sid] * 1e3 / n
        calls[name] += 1.0 / n
    counts = defaultdict(float)
    for (op, name), value in rec.counts.items():
        if op in ops:
            counts[name] += value / n
    return dict(self_ms), dict(calls), dict(counts)
