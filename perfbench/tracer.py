"""In-memory span tracer that instruments the program from outside.

Spans are recorded only by wrapping public methods of the objects the
benchmark builds (per instance, never per class), and every wrapper is taken
out again after the traced round, so the program carries no tracing code and
an untraced round executes no wrapper at all.

Each span is ``[name, start, end, parent, session]``: ``parent`` is the index
of the enclosing span (-1 at the top) and ``session`` the ``(round, arena
session id)`` when the wrapped call names one, resolved to a request id when
the trace is written out.  Start and end are raw ``perf_counter`` readings;
durations are converted to reference time by the run's
:class:`probe.Timeline`.  A span's self time is its duration minus the time
its direct children cover; spans nest strictly because the engine runs on
one thread.
"""

from __future__ import annotations

import gzip
import json
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

import numpy as np

_NAME, _START, _END, _PARENT, _SESSION = range(5)


class Tracer:
    """Collects spans from the methods it wraps."""

    def __init__(self) -> None:
        #: tags session ids, which restart with every fresh arena
        self.round = 0
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._replaced: List[tuple] = []

    def wrap(self, fn: Callable, name: str, session_arg: bool = False) -> Callable:
        """A callable that runs ``fn`` inside a span named ``name``.

        With ``session_arg`` the call's first positional argument is an
        arena session id; it is stored on the span with the current round.
        """
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            session = (self.round, args[0]) if session_arg and args else None
            span = [name, clock(), 0.0, stack[-1] if stack else -1, session]
            spans.append(span)
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span[_END] = clock()

        return traced

    def replace(self, obj, attr: str, fn: Callable) -> None:
        """Set ``obj.attr`` on this instance until :meth:`restore`."""
        self._replaced.append((obj, attr, vars(obj).get(attr)))
        setattr(obj, attr, fn)

    def patch(self, obj, attr: str, name: str, session_arg: bool = False) -> None:
        """Replace ``obj.attr`` on this instance with its traced wrapper."""
        self.replace(obj, attr, self.wrap(getattr(obj, attr), name, session_arg))

    def restore(self) -> None:
        """Undo every :meth:`replace`, newest first."""
        while self._replaced:
            obj, attr, own = self._replaced.pop()
            if own is None:
                delattr(obj, attr)  # the class attribute shows through again
            else:
                setattr(obj, attr, own)

    # -- analysis ---------------------------------------------------------------

    def _durations(self, timeline) -> np.ndarray:
        if not self.spans:
            return np.zeros(0)
        starts = np.array([s[_START] for s in self.spans])
        ends = np.array([s[_END] for s in self.spans])
        return timeline.ref(ends) - timeline.ref(starts)

    def self_times(self, timeline) -> Dict[str, float]:
        """Reference seconds of self time per span name."""
        dur = self._durations(timeline)
        child = np.zeros(len(self.spans))
        parents = np.array([s[_PARENT] for s in self.spans], dtype=np.int64)
        nested = parents >= 0
        np.add.at(child, parents[nested], dur[nested])
        totals: Dict[str, float] = defaultdict(float)
        for span, d, c in zip(self.spans, dur, child):
            totals[span[_NAME]] += d - c
        return dict(totals)

    def durations(self, name: str, timeline) -> np.ndarray:
        """Reference durations in seconds of every span called ``name``."""
        dur = self._durations(timeline)
        return dur[[i for i, s in enumerate(self.spans) if s[_NAME] == name]]

    def write(self, path, request_of_session: Optional[Dict] = None) -> None:
        """Write the spans as gzipped Chrome trace-event JSON (opens in Perfetto).

        Times are raw wall microseconds from the first span.
        ``request_of_session`` maps ``(round, session id)`` to request ids.
        """
        request_of_session = request_of_session or {}
        origin = self.spans[0][_START] if self.spans else 0.0
        events = []
        for i, (name, start, end, parent, session) in enumerate(self.spans):
            args = {"id": i, "parent": parent}
            if session is not None:
                args["session"] = session[1]
                if session in request_of_session:
                    args["request"] = request_of_session[session]
            events.append(
                {
                    "name": name,
                    "ph": "X",
                    "ts": (start - origin) * 1e6,
                    "dur": (end - start) * 1e6,
                    "pid": 0,
                    "tid": 0,
                    "args": args,
                }
            )
        with gzip.open(path, "wt") as fh:
            json.dump({"traceEvents": events}, fh)
