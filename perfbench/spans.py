"""In-memory spans around calls into toepsharp's public functions.

``Tracer.installed`` replaces every public function of the listed
modules, wherever a toepsharp module (or the benchmark) holds a
reference to it, by a wrapper that records one span per call: name,
start, end, parent span and op id.  Nothing inside the library changes;
the originals are put back on exit.  Spans are kept in flat arrays and
written out once, at the end of a run.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
import time
from array import array


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")
        self.op_ids = array("q")
        self.op_id = -1
        self._stack = [-1]

    def begin(self, name: str) -> int:
        sid = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.op_ids.append(self.op_id)
        self.ends.append(0)
        self._stack.append(sid)
        self.starts.append(time.perf_counter_ns())
        return sid

    def end(self, sid: int) -> None:
        self.ends[sid] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, name: str, fn):
        begin, end = self.begin, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                end(sid)

        return traced

    @contextlib.contextmanager
    def installed(self, modules, extra=()):
        """Trace every public function defined in ``modules``.

        ``extra`` holds (module, attribute, span name) triples for
        functions outside the library, such as the benchmark's own
        process launcher.
        """
        targets = [(f"{m.__name__.rsplit('.', 1)[-1]}.{attr}", fn)
                   for m in modules for attr, fn in vars(m).items()
                   if not attr.startswith("_") and inspect.isfunction(fn)
                   and fn.__module__ == m.__name__]
        targets += [(name, getattr(m, attr)) for m, attr, name in extra]
        holders = [m for key, m in sys.modules.items()
                   if key == "toepsharp" or key.startswith("toepsharp.")]
        holders += [m for m, _, _ in extra]
        swapped = []
        for name, fn in targets:
            wrapper = self.wrap(name, fn)
            for holder in holders:
                for attr, value in list(vars(holder).items()):
                    if value is fn:
                        setattr(holder, attr, wrapper)
                        swapped.append((holder, attr, fn))
        try:
            yield
        finally:
            for holder, attr, fn in reversed(swapped):
                setattr(holder, attr, fn)

    def self_ns(self) -> array:
        """Each span's duration minus the time its child spans cover."""
        own = array("q", (e - s for s, e in zip(self.starts, self.ends)))
        for sid, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= self.ends[sid] - self.starts[sid]
        return own

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for sid, name in enumerate(self.names):
                fh.write(json.dumps([sid, name, self.starts[sid], self.ends[sid],
                                     self.parents[sid], self.op_ids[sid]]) + "\n")
