"""In-memory span tracing around the public functions of each duetsim layer.

The tracer patches a function at the place it is looked up: a name one
module imported from another is patched in the importing module, so each
call site can carry its own span name. ``uninstall`` restores every
original, which lets one process alternate traced and untraced batches.

A span is ``[name, start_ns, end_ns, parent, dialogue, value]``. ``parent``
indexes the enclosing span of the same thread (-1 at the top), ``dialogue``
is the seed of the dialogue being run or scored, and ``value`` holds a
per-call measure (prompt characters, verdict) or ``ERROR`` when the call
raised. Spans stay in per-thread lists until the run ends.
"""

from __future__ import annotations

import gzip
import json
import threading
import time
from collections import defaultdict

ERROR = "error"


class _ThreadBuffer:
    def __init__(self, thread_no: int):
        self.thread_no = thread_no
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.dialogue = None


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._buffers: list[_ThreadBuffer] = []
        self._patches: list[tuple[object, str, object]] = []

    def _buffer(self) -> _ThreadBuffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            with self._lock:
                buf = _ThreadBuffer(len(self._buffers))
                self._buffers.append(buf)
            self._local.buf = buf
        return buf

    def wrap(self, name, fn, value=None, dialogue=None):
        """Return ``fn`` recording one span per call.

        ``value(result)`` fills the span's value; ``dialogue(args, kwargs)``
        names the dialogue that the call and its children belong to.
        """
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            buf = self._buffer()
            outer_dialogue = buf.dialogue
            if dialogue is not None:
                buf.dialogue = dialogue(args, kwargs)
            span = [name, 0, 0, buf.stack[-1] if buf.stack else -1,
                    buf.dialogue, None]
            buf.stack.append(len(buf.spans))
            buf.spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[2] = clock()
                span[5] = ERROR
                raise
            finally:
                buf.stack.pop()
                buf.dialogue = outer_dialogue
            span[2] = clock()
            if value is not None:
                span[5] = value(result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, value=None, dialogue=None):
        """Replace ``owner.attr`` with a traced version until ``uninstall``."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(original, classmethod):
            replacement = classmethod(self.wrap(name, original.__func__, value, dialogue))
        else:
            replacement = self.wrap(name, original, value, dialogue)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def durations(self) -> dict[str, list[tuple[int, int, object, str | None]]]:
        """Span name -> [(duration_ns, self_ns, value, parent name)].

        Self time is the duration minus the time of the direct children;
        spans of one thread nest, so children never overlap.
        """
        out: dict[str, list] = defaultdict(list)
        for buf in self._buffers:
            child_ns = [0] * len(buf.spans)
            for name, start, end, parent, _, _ in buf.spans:
                if parent >= 0:
                    child_ns[parent] += end - start
            for i, (name, start, end, parent, _, value) in enumerate(buf.spans):
                parent_name = buf.spans[parent][0] if parent >= 0 else None
                out[name].append((end - start, end - start - child_ns[i], value,
                                  parent_name))
        return out

    def write(self, path) -> int:
        """Write every span as one JSON line (gzip); returns the span count."""
        count = 0
        with gzip.open(path, "wt", encoding="utf-8") as f:
            for buf in self._buffers:
                for i, (name, start, end, parent, dialogue, value) in enumerate(buf.spans):
                    f.write(json.dumps({
                        "thread": buf.thread_no, "id": i, "name": name,
                        "start_ns": start, "end_ns": end, "parent": parent,
                        "dialogue": dialogue, "value": value}) + "\n")
                    count += 1
        return count
