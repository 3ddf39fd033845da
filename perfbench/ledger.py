"""In-memory span ledger for the benchmark's traced runs.

Spans are opened around calls into the program's public functions from the
benchmark's own files: either directly around a call the workload makes, or
by :func:`Tracer.hook`, which swaps a module attribute, class method or
property for a timing wrapper for the duration of the traced phase.  The
program's source is never edited.

Every span carries the id of the op it belongs to, its own id and its
parent's id.  Records stay in memory and are written out once, by
:meth:`Tracer.dump`, after the run.

The span stack is process-wide, not per thread.  That is correct for the
benchmark's closed loops with one client: the serve workload's client thread
blocks on the compute thread while it runs, so only one thread executes
traced code at any moment, and the compute thread's spans nest under the
client's ``serve.handle`` span as they should.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import nullcontext
from typing import Any, Callable, Dict, List, Optional, Tuple

_now = time.perf_counter_ns

#: ``(op, span_id, parent_id, name, start_ns, end_ns, self_ns)``
Record = Tuple[Any, int, int, str, int, int, int]


_NOOP = nullcontext()


class _Span:
    __slots__ = ("tracer", "name", "frame")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> None:
        tracer = self.tracer
        span_id = tracer._next_id
        tracer._next_id += 1
        parent = tracer._stack[-1][0] if tracer._stack else 0
        self.frame = [span_id, parent, _now(), 0]  # id, parent, start, child ns
        tracer._stack.append(self.frame)

    def __exit__(self, *exc: Any) -> bool:
        end = _now()
        tracer = self.tracer
        span_id, parent, start, child_ns = tracer._stack.pop()
        duration = end - start
        if tracer._stack:
            tracer._stack[-1][3] += duration
        tracer.records.append(
            (tracer.op, span_id, parent, self.name, start, end, duration - child_ns))
        return False


class Tracer:
    """Collects span records; see the module docstring."""

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self.records: List[Record] = []
        self.op: Any = None
        self.missing: List[str] = []
        self._stack: List[List[Any]] = []
        self._next_id = 1
        self._undo: List[Callable[[], None]] = []
        os.register_at_fork(after_in_child=self._after_fork)

    def span(self, name: str):
        """Context manager timing one span (a shared no-op when disabled)."""
        return _Span(self, name) if self.enabled else _NOOP

    def _after_fork(self) -> None:
        """A forked worker keeps only its own records, in its own id range."""
        self._next_id = os.getpid() * 10**9
        self.records = []

    def wrap(self, fn: Callable, name: str) -> Callable:
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    def hook(self, owner: Any, attr: str, name: str) -> None:
        """Time every call of ``owner.attr`` as span ``name``.

        Works on module functions, class methods and properties.  A target
        that no longer exists is reported in :attr:`missing` instead of
        failing, so its time shows up as the caller's self time.
        """
        raw = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if raw is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        if isinstance(raw, property):
            new: Any = property(self.wrap(raw.fget, name), raw.fset, raw.fdel, raw.__doc__)
        else:
            new = self.wrap(raw, name)
        setattr(owner, attr, new)
        self._undo.append(lambda: setattr(owner, attr, raw))

    def hook_item(self, table: Dict[str, Any], key: str, name: str) -> None:
        """Time every call of the callable ``table[key]`` as span ``name``."""
        raw = table[key]
        table[key] = self.wrap(raw, name)
        self._undo.append(lambda: table.__setitem__(key, raw))

    def unhook(self) -> None:
        while self._undo:
            self._undo.pop()()

    def drain(self) -> List[Record]:
        records, self.records = self.records, []
        return records

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for op, sid, parent, name, t0, t1, self_ns in self.records:
                fh.write(json.dumps({
                    "op": op, "span": sid, "parent": parent, "name": name,
                    "start_ns": t0, "end_ns": t1, "self_ns": self_ns,
                }) + "\n")


def by_name(records: List[Record]) -> Dict[str, Dict[str, int]]:
    """``name → {"count", "total_ns", "self_ns"}`` over ``records``."""
    out: Dict[str, Dict[str, int]] = {}
    for _op, _sid, _parent, name, t0, t1, self_ns in records:
        agg = out.setdefault(name, {"count": 0, "total_ns": 0, "self_ns": 0})
        agg["count"] += 1
        agg["total_ns"] += t1 - t0
        agg["self_ns"] += self_ns
    return out


def layer_self_ns(
    records: List[Record], relabel: Optional[Callable[[str, str], str]] = None
) -> Dict[str, int]:
    """Self time per ledger name; ``relabel(name, parent_name)`` may rename."""
    names = {sid: name for _op, sid, _p, name, *_ in records}
    out: Dict[str, int] = {}
    for _op, _sid, parent, name, _t0, _t1, self_ns in records:
        if relabel is not None:
            name = relabel(name, names.get(parent, ""))
        out[name] = out.get(name, 0) + self_ns
    return out
