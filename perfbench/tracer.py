"""In-memory span tracer that instruments the program from outside.

Spans are recorded around calls into each layer's public functions and
methods by patching them for the duration of a traced run; the program's
own code is not changed. A span has a name, start, end, parent and a
trace id (the request id for serving spans, -1 otherwise). Spans are held
in flat arrays and written out once, when the run ends.

Self time is a span's duration minus the time its direct children cover;
children never overlap because every span is opened and closed on the
calling thread's stack.
"""

from __future__ import annotations

import json
import threading
import time
from array import array
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional

import numpy as np

_clock = time.perf_counter


class Tracer:
    """Flat span store plus a per-thread stack of open spans."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_idx = array("i")
        self.parent = array("q")
        self.trace_id = array("q")
        self.start = array("d")
        self.end = array("d")
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[Callable[[], None]] = []

    # -- recording ------------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, trace_id: int = -1) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        stack = self._stack()
        with self._lock:
            index = len(self.start)
            self.name_idx.append(name_id)
            self.parent.append(stack[-1] if stack else -1)
            self.trace_id.append(trace_id)
            self.end.append(0.0)
            self.start.append(_clock())
        stack.append(index)
        return index

    def finish(self, index: int) -> None:
        self.end[index] = _clock()
        self._stack().pop()

    def record(self, name: str, start: float, end: float,
               trace_id: int = -1) -> None:
        """Add a finished span measured elsewhere (e.g. a request)."""
        index = self.begin(name, trace_id)
        self.start[index] = start
        self.finish(index)
        self.end[index] = end

    @contextmanager
    def span(self, name: str, trace_id: int = -1) -> Iterator[None]:
        index = self.begin(name, trace_id)
        try:
            yield
        finally:
            self.finish(index)

    # -- instrumentation ------------------------------------------------
    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        on_call: Optional[Callable[[tuple, Any], None]] = None,
    ) -> None:
        """Replace ``owner.attr`` by a spanning wrapper until :meth:`unpatch`.

        ``on_call(args, result)`` runs after each call, outside the span,
        to harvest counts from arguments and return values.
        """
        if isinstance(owner, type):
            # The class in the MRO that defines ``attr`` is the one to patch.
            owner = next(k for k in owner.__mro__ if attr in k.__dict__)
            raw = owner.__dict__[attr]
        else:
            raw = getattr(owner, attr)
        binder = type(raw) if isinstance(raw, (classmethod, staticmethod)) \
            else None
        func = raw.__func__ if binder else raw
        tracer = self

        def traced(*args, **kwargs):
            index = tracer.begin(name)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer.finish(index)
            if on_call is not None:
                on_call(args, result)
            return result

        traced.__wrapped__ = func
        self.patch(owner, attr, binder(traced) if binder else traced)

    def patch(self, owner: Any, attr: str, value: Any) -> None:
        """Set ``owner.attr`` to ``value`` until :meth:`unpatch`."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(
            owner, attr
        )
        setattr(owner, attr, value)
        self._patches.append(lambda: setattr(owner, attr, raw))

    def unpatch(self) -> None:
        while self._patches:
            self._patches.pop()()

    # -- analysis -------------------------------------------------------
    def arrays(self) -> Dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name_idx, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "trace_id": np.frombuffer(self.trace_id, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def layers(self) -> Dict[str, Dict[str, float]]:
        """``{name: {count, total_s, self_s}}`` over every recorded span."""
        spans = self.arrays()
        duration = spans["end"] - spans["start"]
        parent = spans["parent"]
        has_parent = parent >= 0
        child_time = np.bincount(
            parent[has_parent], weights=duration[has_parent],
            minlength=duration.size,
        )
        self_time = duration - child_time
        out: Dict[str, Dict[str, float]] = {}
        for name_id, name in enumerate(self.names):
            mask = spans["name"] == name_id
            out[name] = {
                "count": int(mask.sum()),
                "total_s": float(duration[mask].sum()),
                "self_s": float(self_time[mask].sum()),
            }
        return out

    def dump(self, prefix: str, metrics: Dict[str, Any]) -> None:
        """Write ``<prefix>.json`` (metrics, layer table, span names) and
        ``<prefix>.npz`` (every span, name ids indexing ``span_names``)."""
        np.savez(prefix + ".npz", **self.arrays())
        with open(prefix + ".json", "w") as out:
            json.dump(
                {
                    "metrics": metrics,
                    "layers": self.layers(),
                    "span_names": self.names,
                },
                out,
                indent=1,
                sort_keys=True,
            )
