"""The benchmark's own tracer: wrappers around each layer's public
functions, an in-memory span store, self-time analysis, and Chrome trace
export.

Nothing here edits the program.  :func:`install` replaces a layer's
public function with a timing wrapper in its defining module *and* in
every loaded ``repro`` module that imported its own reference with
``from ... import``; methods are replaced on their class.  A span records
its name, start, end, parent span and the request's ``trace_id``
(``repro.obs.tracer.current_trace_id()`` on broker worker threads, or the
``trace_id`` field of the request a router/broker entry point was handed).

Two wrapper kinds:

* synchronous spans cover one call;
* request spans (``Broker.submit``, ``Router.submit``) run from the call
  until the returned future resolves, so they cover queueing.  A span
  opened on a thread with no open span of its own takes the newest open
  request span of its ``trace_id`` as parent, which joins worker-thread
  spans to the request that caused them.

A span's self time is its duration minus the part of it that its child
spans cover (children may overlap, e.g. a hedged request, so the covered
part is the union of their intervals).
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
import time


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "trace_id", "tid", "attrs")

    def __init__(self, sid, name, start, parent, trace_id, tid):
        self.sid = sid
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.trace_id = trace_id
        self.tid = tid
        self.attrs: dict = {}

    def as_list(self) -> list:
        return [self.sid, self.name, self.start, self.end, self.parent,
                self.trace_id, self.tid, self.attrs]

    @classmethod
    def from_list(cls, row: list) -> "Span":
        sid, name, start, end, parent, trace_id, tid, attrs = row
        span = cls(sid, name, start, parent, trace_id, tid)
        span.end = end
        span.attrs = attrs
        return span


class SpanStore:
    """Spans of one process, kept in memory until :meth:`dump`."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        # Span ids stay unique when spans of several processes are merged.
        self._prefix = f"{os.getpid()}."
        self._next = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        #: trace_id -> open request spans, newest last.
        self._open_requests: dict[str, list[Span]] = {}
        self._current_trace_id = lambda: None

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _new(self, name: str, trace_id: str | None, parent: Span | None) -> Span:
        with self._lock:
            sid = f"{self._prefix}{self._next}"
            self._next += 1
        span = Span(
            sid, name, time.monotonic_ns(),
            parent.sid if parent is not None else None,
            trace_id, threading.get_ident(),
        )
        return span

    def _finish(self, span: Span) -> None:
        span.end = time.monotonic_ns()
        with self._lock:
            self.spans.append(span)

    def _context(self, args) -> tuple[str | None, Span | None]:
        stack = self._stack()
        parent = stack[-1] if stack else None
        trace_id = self._current_trace_id()
        if trace_id is None:
            trace_id = _request_trace_id(args)
        if trace_id is None and parent is not None:
            trace_id = parent.trace_id
        if parent is None and trace_id is not None:
            with self._lock:
                open_ = self._open_requests.get(trace_id)
                parent = open_[-1] if open_ else None
        return trace_id, parent

    def sync(self, fn, name: str, note=None):
        """Wrap ``fn`` in a span per call; ``note(span, result, args)``
        may add attributes from the call's result."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            trace_id, parent = self._context(args)
            span = self._new(name, trace_id, parent)
            stack = self._stack()
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                self._finish(span)
            if note is not None:
                note(span, result, args, kwargs)
            return result

        return wrapper

    def request(self, fn, name: str):
        """Wrap a ``submit``-style method in a span lasting until the
        future it returns resolves."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            trace_id = _request_trace_id(args)
            with self._lock:
                open_ = self._open_requests.get(trace_id) if trace_id else None
                parent = open_[-1] if open_ else None
            if parent is None:
                stack = self._stack()
                parent = stack[-1] if stack else None
            span = self._new(name, trace_id, parent)
            if trace_id is not None:
                with self._lock:
                    self._open_requests.setdefault(trace_id, []).append(span)
            future = fn(*args, **kwargs)

            def done(_future, span=span):
                self._finish(span)
                if trace_id is not None:
                    with self._lock:
                        open_ = self._open_requests.get(trace_id)
                        if open_ is not None and span in open_:
                            open_.remove(span)
                            if not open_:
                                del self._open_requests[trace_id]

            future.add_done_callback(done)
            return future

        return wrapper

    # -- persistence -------------------------------------------------------

    def dump(self, path: str) -> None:
        with self._lock:
            rows = [s.as_list() for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"pid": os.getpid(), "spans": rows}, fh)


def _request_trace_id(args) -> str | None:
    """The ``trace_id`` of the first request-dict argument, if any."""
    for arg in args[:3]:
        if isinstance(arg, dict):
            value = arg.get("trace_id")
            return value if isinstance(value, str) else None
    return None


def load_spans(path: str) -> tuple[int, list[Span]]:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    return doc["pid"], [Span.from_list(row) for row in doc["spans"]]


# -- what to wrap --------------------------------------------------------------

#: (module, function, span name) for module-level layer entry points.
FUNCTIONS = (
    ("repro.lang.lexer", "tokenize", "lang.tokenize"),
    ("repro.lang.parser", "parse_program", "lang.parse"),
    ("repro.ir.builder", "build_module", "ir.build"),
    ("repro.codegen.kernelgen", "generate_kernel", "codegen.vir"),
    ("repro.gpu.registers", "ptxas_info", "gpu.ptxas"),
    ("repro.esat.optimize", "saturate_region", "esat.saturate"),
    ("repro.codegen.vector_lower", "plan_kernel", "codegen.plan"),
    ("repro.codegen.numpy_source", "generate_source", "codegen.numpy"),
    ("repro.gpu.timing", "estimate_time", "gpu.timing"),
    ("repro.gpu.vector_exec", "execute_kernel", "gpu.exec"),
    ("repro.gpu.interpreter", "build_run_args", "gpu.run_args"),
    ("repro.serve.cluster", "routing_key", "cluster.key"),
    ("repro.serve.hashring", "rank", "cluster.rank"),
)

#: (module, class, method, span name) for layer entry points on classes.
METHODS = (
    ("repro.feedback.driver", "FeedbackCompiler", "__call__", "feedback.compile"),
    ("repro.pipeline.cache", "CompileCache", "get", "cache.mem.get"),
    ("repro.pipeline.diskcache", "DiskCache", "get_entry", "cache.disk.get"),
    ("repro.pipeline.diskcache", "DiskCache", "put", "cache.disk.put"),
    ("repro.codegen.numpy_source", "FunctionCache", "get", "codegen.fnobj"),
    ("repro.serve.cluster", "LocalShard", "try_submit", "cluster.shard_submit"),
)

#: Request-lifetime spans (call until the returned future resolves).
REQUEST_METHODS = (
    ("repro.serve.broker", "Broker", "submit", "serve.request"),
    ("repro.serve.cluster", "Router", "submit", "cluster.request"),
)


def _note_tokenize(span, result, args, kwargs):
    source = args[0] if args else kwargs.get("source", "")
    span.attrs["bytes"] = len(source.encode("utf-8"))


def _note_vir(span, result, args, kwargs):
    span.attrs["instrs"] = len(result.instrs)


def _note_hit(span, result, args, kwargs):
    span.attrs["hit"] = result is not None


def _note_disk_hit(span, result, args, kwargs):
    program, codegen = result
    span.attrs["hit"] = program is not None or codegen is not None


def _note_exec(span, result, args, kwargs):
    span.attrs["tier"] = result[2].used


NOTES = {
    "lang.tokenize": _note_tokenize,
    "codegen.vir": _note_vir,
    "cache.mem.get": _note_hit,
    "codegen.fnobj": _note_hit,
    "cache.disk.get": _note_disk_hit,
    "gpu.exec": _note_exec,
}


def _replace_everywhere(original, wrapper) -> None:
    """Point every loaded ``repro`` module's reference to ``original`` at
    ``wrapper`` (modules that did ``from m import f`` hold their own)."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def install(store: SpanStore) -> None:
    """Wrap every layer entry point listed above, plus each registered
    optimization pass's ``run`` as ``pipeline.pass.<key>``."""
    from repro.obs.tracer import current_trace_id

    store._current_trace_id = current_trace_id
    # Import every module holding a reference first, so none is missed.
    for module in ("repro.compiler.session", "repro.serve.broker",
                   "repro.serve.cluster", "repro.gpu.vector_exec",
                   "repro.codegen.numpy_source", "repro.gpu.device",
                   "repro.compiler.guards", "repro.obs.profiler",
                   "repro.lang.directives", "repro.bench.args"):
        importlib.import_module(module)
    for module_name, attr, name in FUNCTIONS:
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        _replace_everywhere(original, store.sync(original, name, NOTES.get(name)))
    for module_name, cls_name, attr, name in METHODS:
        cls = getattr(importlib.import_module(module_name), cls_name)
        setattr(cls, attr, store.sync(cls.__dict__[attr], name, NOTES.get(name)))
    for module_name, cls_name, attr, name in REQUEST_METHODS:
        cls = getattr(importlib.import_module(module_name), cls_name)
        setattr(cls, attr, store.request(cls.__dict__[attr], name))
    from repro.pipeline.registry import PASSES

    for key, pass_cls in PASSES.items():
        if "run" in pass_cls.__dict__:
            pass_cls.run = store.sync(pass_cls.__dict__["run"], f"pipeline.pass.{key}")


def per_span_cost_ns(samples: int = 20000) -> float:
    """Measured cost of one synchronous span around a no-op call."""
    store = SpanStore()

    def noop():
        return None

    wrapped = store.sync(noop, "calibrate")
    t0 = time.perf_counter_ns()
    for _ in range(samples):
        noop()
    bare = time.perf_counter_ns() - t0
    t0 = time.perf_counter_ns()
    for _ in range(samples):
        wrapped()
    traced = time.perf_counter_ns() - t0
    return max(0.0, (traced - bare) / samples)


# -- analysis --------------------------------------------------------------


def _union_ns(intervals: list[tuple[int, int]]) -> int:
    total = 0
    end = None
    for lo, hi in sorted(intervals):
        if end is None or lo > end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total


def self_times_ns(spans: list[Span]) -> dict[str, int]:
    """span id -> self time: duration minus the union of its children's
    intervals, clipped to the span."""
    children: dict[str, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = {}
    for span in spans:
        kids = children.get(span.sid, ())
        covered = _union_ns([
            (max(k.start, span.start), min(k.end, span.end))
            for k in kids if k.end > span.start and k.start < span.end
        ])
        out[span.sid] = max(0, span.end - span.start - covered)
    return out


def covered_ns(root: tuple[int, int], spans: list[Span]) -> int:
    """How much of the ``root`` interval the given spans cover."""
    lo, hi = root
    return _union_ns([
        (max(s.start, lo), min(s.end, hi)) for s in spans if s.end > lo and s.start < hi
    ])


def write_chrome(path: str, processes: dict[int, list[Span]]) -> None:
    """A Chrome ``traceEvents`` file (loads in Perfetto and
    chrome://tracing): one complete event per span."""
    events = []
    origin = min((s.start for spans in processes.values() for s in spans), default=0)
    for pid, spans in processes.items():
        for s in spans:
            args = {"trace_id": s.trace_id, "parent": s.parent, **s.attrs}
            events.append({
                "name": s.name, "cat": s.name.split(".")[0], "ph": "X",
                "ts": (s.start - origin) / 1000.0,
                "dur": (s.end - s.start) / 1000.0,
                "pid": pid, "tid": s.tid, "args": args,
            })
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
