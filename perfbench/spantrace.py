"""Span tracing from outside the program, for the traced benchmark run.

The tracer patches public functions and methods of the runtime with
thin wrappers while it is installed and restores the originals when it
is removed.  The untraced run never imports this module, so it runs
the program exactly as shipped.

Each wrapped call records one span -- name, start, end, parent span and
the op id the benchmark loop set on the calling thread -- in per-thread
arrays, so rank threads never contend on the recorder.  A span's
*self time* is its duration minus the durations of its direct
children.  Count-only wrappers (for calls too small and frequent to
time without distorting them) record just how often they ran.
"""

from __future__ import annotations

import sys
import threading
from array import array
from time import perf_counter
from typing import Callable, Iterable

import numpy as np


class _ThreadBuffer:
    """The spans and counts one thread recorded."""

    def __init__(self, n_counted: int):
        self.names = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.ops = array("i")
        self.stack: list[int] = []
        self.counts = [0] * n_counted
        self.op = -1

    def open(self, nid: int) -> int:
        """Start a span named *nid*; returns its index."""
        idx = len(self.names)
        self.names.append(nid)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ops.append(self.op)
        self.ends.append(0.0)
        self.stack.append(idx)
        self.starts.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        """End span *idx*, the innermost open one."""
        self.ends[idx] = perf_counter()
        self.stack.pop()


class Spans:
    """All recorded spans merged into flat numpy arrays.

    ``parent`` indexes into the same arrays (-1 for a root span).
    """

    def __init__(self, names: list[str], buffers: list[_ThreadBuffer]):
        self.names = names
        parts = []
        offset = 0
        for tid, b in enumerate(buffers):
            n = len(b.names)
            if n == 0:
                continue
            parent = np.frombuffer(b.parents, dtype=np.int32).astype(np.int64)
            parent = np.where(parent >= 0, parent + offset, -1)
            parts.append((np.frombuffer(b.names, dtype=np.int32),
                          np.frombuffer(b.starts, dtype=np.float64),
                          np.frombuffer(b.ends, dtype=np.float64),
                          parent,
                          np.frombuffer(b.ops, dtype=np.int32),
                          np.full(n, tid, dtype=np.int32)))
            offset += n
        if not parts:
            parts.append((np.empty(0, np.int32), np.empty(0), np.empty(0),
                          np.empty(0, np.int64), np.empty(0, np.int32),
                          np.empty(0, np.int32)))
        (self.name, self.start, self.end, self.parent, self.op,
         self.thread) = (np.concatenate(c) for c in zip(*parts))
        self.name = self.name.astype(np.int64)
        # A span still open when tracing stopped has no end: drop its
        # time rather than count a negative duration.
        self.duration = np.where(self.end > 0.0, self.end - self.start, 0.0)
        child = self.parent >= 0
        child_time = np.bincount(self.parent[child],
                                 weights=self.duration[child],
                                 minlength=len(self.duration))
        self.self_time = self.duration - child_time

    def __len__(self) -> int:
        return len(self.duration)

    def mask(self, names: Iterable[str]) -> np.ndarray:
        """Boolean mask of the spans whose name is in *names*."""
        wanted = set(names)
        ids = [i for i, n in enumerate(self.names) if n in wanted]
        return np.isin(self.name, ids)

    def self_seconds(self, names: Iterable[str]) -> float:
        """Total self time of the spans named *names*."""
        return float(self.self_time[self.mask(names)].sum())

    def count(self, names: Iterable[str]) -> int:
        """How many spans are named *names*."""
        return int(self.mask(names).sum())

    def under(self, names: Iterable[str]) -> np.ndarray:
        """Mask of spans that have an ancestor named *names*.  Parents
        are recorded before their children, so one forward pass over
        each thread's spans suffices."""
        m = self.mask(names).tolist()
        out = [False] * len(m)
        for i, p in enumerate(self.parent.tolist()):
            if p >= 0 and (m[p] or out[p]):
                out[i] = True
        return np.array(out, dtype=bool)

    def outermost(self, names: Iterable[str]) -> int:
        """Spans named *names* with no ancestor so named -- the calls
        that entered the layer from outside it."""
        names = list(names)
        return int((self.mask(names) & ~self.under(names)).sum())

    def save(self, path) -> None:
        """Write every span to a compressed ``.npz`` file."""
        np.savez_compressed(
            path, names=np.array(self.names), name=self.name,
            start=self.start, end=self.end, parent=self.parent,
            op=self.op, thread=self.thread)


class _ContextSpan:
    """Context manager that records one span around another one."""

    __slots__ = ("_buffer", "_nid", "_inner", "_idx")

    def __init__(self, buffer, nid: int, inner):
        self._buffer = buffer
        self._nid = nid
        self._inner = inner

    def __enter__(self):
        self._idx = self._buffer.open(self._nid)
        try:
            return self._inner.__enter__()
        except BaseException:
            self._buffer.close(self._idx)
            raise

    def __exit__(self, *exc):
        try:
            return self._inner.__exit__(*exc)
        finally:
            self._buffer.close(self._idx)


class Tracer:
    """Installs span and count wrappers and collects what they record."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._buffers: list[_ThreadBuffer] = []
        self.span_names: list[str] = []
        self.count_names: list[str] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def _buffer(self) -> _ThreadBuffer:
        try:
            return self._local.buf
        except AttributeError:
            buf = _ThreadBuffer(len(self.count_names))
            with self._lock:
                self._buffers.append(buf)
            self._local.buf = buf
            return buf

    def set_op(self, op: int) -> None:
        """Tag the calling thread's next spans with op id *op*."""
        self._buffer().op = op

    def n_spans(self) -> int:
        """Spans recorded so far, over all threads."""
        return sum(len(b.names) for b in self._buffers)

    def counts(self) -> dict[str, int]:
        """Calls seen by each count-only wrapper, over all threads."""
        totals = dict.fromkeys(self.count_names, 0)
        for b in self._buffers:
            for name, n in zip(self.count_names, b.counts):
                totals[name] += n
        return totals

    def spans(self) -> Spans:
        """Every span recorded so far."""
        return Spans(self.span_names, list(self._buffers))

    def _span_id(self, name: str) -> int:
        self.span_names.append(name)
        return len(self.span_names) - 1

    def _span_wrapper(self, name: str, fn: Callable) -> Callable:
        nid = self._span_id(name)
        buffer = self._buffer

        def traced(*args, **kwargs):
            b = buffer()
            idx = b.open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                b.close(idx)

        traced.__wrapped__ = fn
        return traced

    def _context_wrapper(self, name: str, fn: Callable) -> Callable:
        """For a function returning a context manager: the span runs
        from ``__enter__`` to ``__exit__``, i.e. around the ``with``
        body, not around the call that builds the manager."""
        nid = self._span_id(name)
        buffer = self._buffer

        def traced(*args, **kwargs):
            return _ContextSpan(buffer(), nid, fn(*args, **kwargs))

        traced.__wrapped__ = fn
        return traced

    def _count_wrapper(self, name: str, fn: Callable) -> Callable:
        if self._buffers:
            raise RuntimeError("count wrappers must be made before "
                               "any thread records")
        cid = len(self.count_names)
        self.count_names.append(name)
        buffer = self._buffer

        def counted(*args, **kwargs):
            buffer().counts[cid] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _maker(self, kind: str) -> Callable:
        return {"span": self._span_wrapper, "count": self._count_wrapper,
                "context": self._context_wrapper}[kind]

    # -- patching ---------------------------------------------------------

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def wrap_function(self, module, attr: str, name: str,
                      kind: str = "span") -> None:
        """Wrap ``module.attr`` and every binding of the same function
        object in a loaded ``repro`` module: a caller that imported it
        by name looks it up in its own namespace."""
        original = getattr(module, attr)
        wrapper = self._maker(kind)(name, original)
        for mod in list(sys.modules.values()):
            modname = getattr(mod, "__name__", "")
            if mod is not module and not modname.startswith("repro"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapper)

    def wrap_method(self, cls: type, attr: str, name: str,
                    kind: str = "span") -> None:
        """Wrap method *attr* on *cls* and on every loaded subclass
        that overrides it."""
        make = self._maker(kind)
        seen = set()
        todo = [cls]
        while todo:
            klass = todo.pop()
            if klass in seen:
                continue
            seen.add(klass)
            todo.extend(klass.__subclasses__())
            raw = klass.__dict__.get(attr)
            if raw is None:
                continue
            if isinstance(raw, classmethod):
                self._set(klass, attr, classmethod(make(name, raw.__func__)))
            else:
                self._set(klass, attr, make(name, raw))

    def remove(self) -> None:
        """Restore every patched attribute."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
