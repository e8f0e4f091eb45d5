"""In-memory span recorder that wraps lightwake's public functions from outside.

A wrapped call records one span: the id of its name, its start and end on
``time.perf_counter_ns`` and the index of the span that was open when it
began (-1 for a root span). Spans live in flat ``array`` columns, so a
million of them cost about 24 MB and no Python objects.

Nothing inside ``src/`` is touched. ``Tracer.wrap`` rebinds a module or class
attribute to a recording wrapper and ``Tracer.restore`` puts every original
back. Because modules import each other's names (``engine`` calls its own
``normalize`` binding, ``cli`` its own ``run_session``), each layer function
is wrapped at every binding its callers use.

The bookkeeping of a child span runs partly inside its parent's interval and
partly inside its own. ``calibrate`` measures both parts on a no-op, and
``summary`` subtracts them, so self times are not inflated by the tracer.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import defaultdict
from typing import Any, Callable

import numpy as np


class Tracer:
    """Span and counter store plus the attribute patches that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._patches: list[tuple[Any, str, Any, bool]] = []
        # Tracer cost per span: inside the span itself, and outside it but
        # inside the parent's interval. Set by calibrate().
        self.inner_ns = 0.0
        self.outer_ns = 0.0

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def recorder(self, name: str, fn: Callable,
                 on_result: Callable[[tuple, Any], None] | None = None,
                 on_error: Callable[[BaseException], None] | None = None) -> Callable:
        """Return fn wrapped so that each call records one span named name.

        on_result(args, result) runs after a normal return and on_error(exc)
        before an exception propagates; both run outside the span.
        """
        nid = self.name_id(name)
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end[idx] = clock()
                stack.pop()
                if on_error is not None:
                    on_error(exc)
                raise
            end[idx] = clock()
            stack.pop()
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def patch(self, owner: Any, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Rebind owner.attr to make(original); restore() undoes it."""
        had_own = attr in vars(owner)
        original = vars(owner)[attr] if had_own else getattr(owner, attr)
        setattr(owner, attr, make(original))
        self._patches.append((owner, attr, original, had_own))

    def wrap(self, owner: Any, attr: str, name: str, **hooks: Any) -> None:
        """Rebind owner.attr (a module function or a class method) to a recorder."""
        self.patch(owner, attr, lambda fn: self.recorder(name, fn, **hooks))

    def restore(self) -> None:
        """Undo every wrap, newest first."""
        while self._patches:
            owner, attr, original, had_own = self._patches.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] += amount

    def calibrate(self, calls: int = 100_000) -> None:
        """Measure the tracer's own cost per span on a wrapped no-op.

        Runs on a throwaway tracer so the spans it makes are not kept.
        """
        probe = Tracer()

        def noop() -> None:
            return None

        traced = probe.recorder("noop", noop)
        clock = time.perf_counter_ns
        best_plain = best_traced = None
        for _ in range(3):
            t0 = clock()
            for _ in range(calls):
                noop()
            plain = clock() - t0
            t0 = clock()
            for _ in range(calls):
                traced()
            wrapped = clock() - t0
            best_plain = plain if best_plain is None else min(best_plain, plain)
            best_traced = wrapped if best_traced is None else min(best_traced, wrapped)
        # The no-op's own body is negligible, so a span's whole duration is
        # tracer cost; what the wrapper adds beyond it lands in the parent.
        durations = np.frombuffer(probe.end, dtype=np.int64) - np.frombuffer(probe.start, dtype=np.int64)
        self.inner_ns = float(np.median(durations))
        self.outer_ns = max(0.0, (best_traced - best_plain) / calls - self.inner_ns)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total and self time in seconds.

        Each span's duration is reduced by the calibrated inner cost. A
        parent's self time excludes its children's raw intervals and the
        outer cost of each child, so the self times of all spans plus
        compensation_s() add up to the raw duration of the root spans.
        """
        n = len(self.start)
        result: dict[str, dict[str, float]] = {}
        if n == 0:
            return result
        names = np.frombuffer(self.name_of, dtype=np.int32)
        parents = np.frombuffer(self.parent, dtype=np.int64)
        raw = (np.frombuffer(self.end, dtype=np.int64)
               - np.frombuffer(self.start, dtype=np.int64)).astype(np.float64)
        dur = np.maximum(raw - self.inner_ns, 0.0)
        has_parent = parents >= 0
        child_time = np.bincount(parents[has_parent], weights=raw[has_parent], minlength=n)
        children = np.bincount(parents[has_parent], minlength=n)
        self_ns = np.maximum(dur - child_time - self.outer_ns * children, 0.0)
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        total = np.bincount(names, weights=dur, minlength=k)
        own = np.bincount(names, weights=self_ns, minlength=k)
        for i, name in enumerate(self.names):
            result[name] = {"calls": int(calls[i]), "total_s": total[i] / 1e9,
                            "self_s": own[i] / 1e9}
        return result

    def root_time_s(self) -> float:
        """Summed raw duration of the root spans."""
        if not len(self.start):
            return 0.0
        parents = np.frombuffer(self.parent, dtype=np.int64)
        dur = np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)
        return float(dur[parents < 0].sum()) / 1e9

    def compensation_s(self) -> float:
        """Tracer cost removed from the span times by summary()."""
        n = len(self.start)
        non_root = int((np.frombuffer(self.parent, dtype=np.int64) >= 0).sum()) if n else 0
        return (self.inner_ns * n + self.outer_ns * non_root) / 1e9

    def save(self, path) -> None:
        """Write every span to an .npz file: name, parent, start_ns, end_ns."""
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name_of=np.frombuffer(self.name_of, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
        )
