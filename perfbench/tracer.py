"""Spans around the program's public layer functions, installed from outside.

:class:`Tracer` replaces chosen module functions and class methods of
:mod:`repro` with wrappers that record a span per call (name, start, end,
parent span, seed or request key) and keep per-name call counts and self
time online.  Self time is a span's duration minus the part its child
spans cover.  :meth:`Tracer.install` and :meth:`Tracer.uninstall` swap
the wrappers in and out between timed units, so one run can alternate
traced and untraced units and report the tracing overhead.

Spans are kept in flat arrays (about 30 bytes each) and written out by
:meth:`Tracer.write`; past ``span_cap`` spans only the aggregates grow.
"""

from __future__ import annotations

import time
from array import array
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from timing import Clock

#: Hook run after a wrapped call returns: ``after(tracer, args, result)``.
After = Callable[["Tracer", tuple, object], None]
#: Extracts the request key a service span belongs to.
KeyOf = Callable[[tuple, object], Optional[str]]

_MISSING = object()


class Tracer:
    """Span recorder and layer aggregates (see module docstring)."""

    def __init__(self, clock: Clock, span_cap: int = 1_000_000) -> None:
        self.clock = clock
        self.span_cap = span_cap
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.calls: List[int] = []
        self.self_s: List[float] = []
        #: Free-form counters bumped by ``after`` hooks (records, draws...).
        self.counts: Dict[str, float] = {}
        #: Root-span time per request key (service workloads).
        self.request_time: Dict[str, float] = {}
        self.units: List[str] = []
        self._unit_ids: Dict[str, int] = {}
        self.unit = -1
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_unit = array("i")
        self.dropped = 0
        self._stack: List[List[float]] = []
        self._patches: List[Tuple[object, str, object]] = []
        self._installed = False

    # -- identifiers ---------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
        return nid

    def unit_id(self, key: str) -> int:
        uid = self._unit_ids.get(key)
        if uid is None:
            uid = self._unit_ids[key] = len(self.units)
            self.units.append(key)
        return uid

    def set_unit(self, key: str) -> None:
        """Tag later spans with ``key`` (a seed or window label)."""
        self.unit = self.unit_id(key)

    def bump(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    # -- wrappers ------------------------------------------------------

    def wrap(self, name: str, fn: Callable, after: Optional[After] = None,
             key: Optional[KeyOf] = None) -> Callable:
        """A timed, span-recording stand-in for ``fn``."""
        nid = self.name_id(name)
        tracer = self
        clock = self.clock
        stack = self._stack
        counter = time.perf_counter
        starts, ends = self.span_start, self.span_end
        names, parents, units = (self.span_name, self.span_parent,
                                 self.span_unit)

        def wrapper(*args, **kwargs):
            start = counter() - clock.paused
            index = len(starts)
            if index < tracer.span_cap:
                starts.append(start)
                ends.append(start)
                names.append(nid)
                parents.append(int(stack[-1][1]) if stack else -1)
                units.append(tracer.unit)
            else:
                index = -1
                tracer.dropped += 1
            frame = [0.0, index]
            stack.append(frame)
            result = _MISSING
            try:
                result = fn(*args, **kwargs)
            finally:
                end = counter() - clock.paused
                stack.pop()
                duration = end - start
                tracer.calls[nid] += 1
                tracer.self_s[nid] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                if index >= 0:
                    ends[index] = end
                if key is not None and result is not _MISSING:
                    request = key(args, result)
                    if request is not None:
                        if index >= 0:
                            units[index] = tracer.unit_id(request)
                        if not stack:
                            tracer.request_time[request] = (
                                tracer.request_time.get(request, 0.0)
                                + duration)
            if after is not None:
                after(tracer, args, result)
            return result

        return wrapper

    def counting(self, name: str, fn: Callable) -> Callable:
        """A call-counting (untimed, span-free) stand-in for ``fn``."""
        nid = self.name_id(name)
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[nid] += 1
            return fn(*args, **kwargs)

        return wrapper

    def patch(self, owner: object, attr: str, replacement: Callable) -> None:
        """Register ``owner.attr = replacement`` for :meth:`install`."""
        self._patches.append((owner, attr, replacement))

    def patch_wrapped(self, owner: object, attr: str, name: str,
                      after: Optional[After] = None,
                      key: Optional[KeyOf] = None) -> None:
        self.patch(owner, attr, self.wrap(name, getattr(owner, attr),
                                          after=after, key=key))

    def install(self) -> None:
        if self._installed:
            return
        originals = []
        for owner, attr, replacement in self._patches:
            own = (owner.__dict__.get(attr, _MISSING)
                   if isinstance(owner, type) else getattr(owner, attr))
            originals.append((owner, attr, own))
            setattr(owner, attr, replacement)
        self._originals = originals
        self._installed = True

    def uninstall(self) -> None:
        if not self._installed:
            return
        for owner, attr, own in reversed(self._originals):
            if own is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)
        self._installed = False

    # -- reading -------------------------------------------------------

    def totals(self, name: str) -> Tuple[int, float]:
        """(calls, self seconds) of ``name`` so far."""
        nid = self._name_ids.get(name)
        return (0, 0.0) if nid is None else (self.calls[nid], self.self_s[nid])

    def snapshot(self) -> Tuple[List[int], List[float], Dict[str, float]]:
        """Copies of (calls, self_s, counts) for later differencing."""
        return list(self.calls), list(self.self_s), dict(self.counts)

    def delta(self, before: Tuple[List[int], List[float], Dict[str, float]]
              ) -> Dict[str, Tuple[int, float]]:
        """Per-name (calls, self seconds) since ``before``."""
        calls, self_s, __ = before
        out = {}
        for nid, name in enumerate(self.names):
            old_calls = calls[nid] if nid < len(calls) else 0
            old_self = self_s[nid] if nid < len(self_s) else 0.0
            out[name] = (self.calls[nid] - old_calls,
                         self.self_s[nid] - old_self)
        return out

    def count_delta(self, before) -> Dict[str, float]:
        old = before[2]
        return {name: value - old.get(name, 0)
                for name, value in self.counts.items()}

    def write(self, path: str) -> int:
        """Write every kept span to ``path`` (NumPy ``.npz``)."""
        import numpy as np

        np.savez(
            path,
            name=np.frombuffer(self.span_name, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            unit=np.frombuffer(self.span_unit, dtype=np.int32),
            names=np.array(self.names, dtype=str),
            units=np.array(self.units or [""], dtype=str),
        )
        return len(self.span_start)


def self_time_from_spans(starts: Sequence[float], ends: Sequence[float],
                         parents: Sequence[int]) -> List[float]:
    """Self time of each span from the span table alone.

    The reference for the online arithmetic in :meth:`Tracer.wrap`:
    a span's duration minus the summed durations of its direct
    children (children of one parent never overlap in a single thread).
    """
    child = [0.0] * len(starts)
    for index, parent in enumerate(parents):
        if parent >= 0:
            child[parent] += ends[index] - starts[index]
    return [ends[i] - starts[i] - child[i] for i in range(len(starts))]
