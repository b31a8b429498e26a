"""The traced run: spans at each layer boundary, from outside the program.

:class:`Tracer` replaces a function at the name its caller resolves
(``repro.core.pipeline.schedule_comp``, ``CompiledComp.__call__``, ...)
with a wrapper that records a span: name, start, end, parent span and
op id.  Spans stay in memory until the run ends; :meth:`chrome_trace`
renders them as Chrome trace-event JSON and :meth:`layer_times` folds
them into per-layer self time (a span's duration minus the part its
child spans cover).  Nothing inside ``src/`` changes: the program's own
compile spans (``report.trace``) and ``REPRO_TRACE`` runtime counters
are only read.
"""

from __future__ import annotations

import functools
import importlib
import threading
from collections import defaultdict
from time import perf_counter

#: (owner, attribute, span name).  ``owner`` is a module path, or
#: ``module:Class`` for a method.  Several names may share one span
#: name; the per-layer metric sums them.
WRAPPED = [
    ("repro.core.pipeline", "parse_expr", "lang.parse"),
    ("repro.program.compile", "parse_expr", "lang.parse"),
    ("repro.program.compile", "parse_program", "lang.parse"),
    ("repro.core.pipeline", "build_array_comp", "comprehension.build"),
    ("repro.core.pipeline", "flow_edges", "core.dependence"),
    ("repro.core.pipeline", "anti_edges", "core.dependence"),
    ("repro.core.pipeline", "schedule_comp", "core.schedule"),
    ("repro.core.pipeline", "analyze_collisions", "core.collisions"),
    ("repro.core.pipeline", "analyze_empties", "core.collisions"),
    ("repro.core.pipeline", "plan_inplace", "core.plan"),
    ("repro.core.tiling", "plan_tiling", "core.plan"),
    ("repro.core.parallel", "plan_parallelism", "core.plan"),
    ("repro.program.compile", "dependence_graph", "core.plan"),
    ("repro.program.compile", "last_uses", "core.plan"),
    ("repro.program.compile", "topo_order", "core.plan"),
    ("repro.core.fusion", "plan_fusion", "core.plan"),
    ("repro.core.distplan", "plan_distribution", "core.plan"),
    ("repro.core.distplan", "plan_outofcore", "core.plan"),
    ("repro.core.pipeline", "lower", "backends.lower"),
    ("repro.codegen.compile", "compile_source", "codegen.exec"),
    ("repro.dist.run", "compile_source", "codegen.exec"),
    ("repro.program.outofcore", "compile_source", "codegen.exec"),
    ("repro.codegen.compile:CompiledComp", "__call__", "codegen.kernel"),
    ("repro.backends.native", "load_kernel", "backends.c.load"),
    ("repro.backends.native", "_compile_shared", "backends.c.cc"),
    ("repro.core.pipeline", "compile", "core.pipeline.compile"),
    ("repro.program.compile", "compile_program", "program.compile"),
    ("repro.program.run:CompiledProgram", "__call__", "program.run"),
    ("repro.program.run", "_run_iterate", "program.iterate"),
    ("repro.program.run", "max_abs_diff", "program.converge_check"),
    ("repro.dist.run", "run_dist_iterate", "dist.run"),
    ("repro.dist.pool:DistPool", "run", "dist.dispatch"),
    ("repro.program.outofcore", "run_ooc_iterate", "ooc.run"),
    ("repro.service.service:CompileService", "submit", "service.submit"),
    ("repro.service.service:CompileService", "fingerprint_request",
     "service.fingerprint"),
    ("repro.service.metrics:ServiceMetrics", "record_coalesced",
     "service.coalesced"),
]

#: Spans that execute one program binding.  A binding "runs native"
#: when the C wrapper's ``backend.c.kernel_calls`` counter rose inside
#: it; nested kernel calls (sweeps of an iterate binding) are not
#: bindings of their own.
_BINDING_SPANS = {"codegen.kernel", "program.iterate"}
_INSIDE_BINDING = {"codegen.kernel", "program.iterate", "dist.run",
                   "ooc.run"}
#: Spans whose results feed counts (see :meth:`Tracer._after`).
_INSPECTED = {"backends.lower", "service.submit", "ooc.run"}


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    target = importlib.import_module(module)
    return getattr(target, cls) if cls else target


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent, op, tid]
        self.counts = defaultdict(int)
        self._local = threading.local()
        self._patches = []
        self._lock = threading.Lock()

    # -- ops -----------------------------------------------------------

    def set_op(self, op_id, backend: str = "") -> None:
        """Tag the calling thread's next spans with ``op_id``."""
        self._local.op = op_id
        self._local.backend = backend

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- wrapping ------------------------------------------------------

    def install(self) -> None:
        from repro.obs.trace import runtime_counters

        for owner_path, attr, name in WRAPPED:
            owner = _resolve(owner_path)
            original = owner.__dict__[attr] if isinstance(owner, type) \
                else getattr(owner, attr)
            setattr(owner, attr, self._wrapper(original, name,
                                               runtime_counters))
            self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _wrapper(self, original, name, runtime_counters):
        tracer = self
        is_binding = name in _BINDING_SPANS
        inspected = name in _INSPECTED

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            record = [name, perf_counter(), None, parent,
                      getattr(tracer._local, "op", None),
                      threading.get_ident()]
            with tracer._lock:
                index = len(tracer.spans)
                tracer.spans.append(record)
            binding = is_binding and (
                parent is None
                or tracer.spans[parent][0] not in _INSIDE_BINDING)
            before = runtime_counters() if binding or inspected else None
            stack.append(index)
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                stack.pop()
                record[2] = perf_counter()
                if binding:
                    tracer._binding(before, runtime_counters())
                if inspected:
                    tracer._after(name, args, result, before,
                                  runtime_counters())

        return wrapper

    def _count(self, key: str, n: int = 1) -> None:
        with self._lock:
            self.counts[key] += n

    def _binding(self, before, after) -> None:
        """One program binding ran: did a C kernel run it?"""
        if getattr(self._local, "backend", "") != "c":
            return
        self._count("bindings.requested_native")
        key = "backend.c.kernel_calls"
        self._count("bindings.ran_native",
                    int(after.get(key, 0) > before.get(key, 0)))

    def _after(self, name, args, result, before, after) -> None:
        if result is None:
            return
        if name == "backends.lower":
            self._count("codegen.source_bytes", len(result))
        elif name == "service.submit":
            self._count(f"service.tier.{result.tier or 'none'}")
            report = getattr(result.compiled, "report", None)
            trace = getattr(report, "trace", None)
            if result.tier is None and trace is not None:
                for node in trace.walk():
                    for key in ("hit", "miss"):
                        self._count(f"dependence.memo.{key}",
                                    node.counters.get(
                                        f"dependence.memo.{key}", 0))
        elif name == "ooc.run":
            # Spill traffic, computed: the seed written once, then per
            # sweep every tile window read (rows plus halo) and every
            # tile written, and the result read back once.
            size = args[5].bounds.size()

            def delta(key):
                return after.get(key, 0) - before.get(key, 0)

            sweeps = delta("iterate.sweeps.double")
            cells = 2 * size + 2 * size * sweeps + delta("tile.halo.cells")
            self._count("ooc.spill_bytes", 8 * cells)

    # -- views ---------------------------------------------------------

    def layer_times(self, since: int = 0, until=None):
        """``{span name: [self s, inclusive s, calls]}`` over a slice.

        Inclusive time counts only the outermost span of each name, so
        a recursive call is not counted twice.
        """
        spans = self.spans
        until = len(spans) if until is None else until
        child_time = defaultdict(float)
        for name, start, end, parent, _op, _tid in spans[since:until]:
            if parent is not None and end is not None:
                child_time[parent] += end - start
        out = defaultdict(lambda: [0.0, 0.0, 0])
        for index in range(since, until):
            name, start, end, parent, _op, _tid = spans[index]
            if end is None:
                continue
            entry = out[name]
            entry[0] += (end - start) - child_time.get(index, 0.0)
            entry[2] += 1
            while parent is not None and spans[parent][0] != name:
                parent = spans[parent][3]
            if parent is None:
                entry[1] += end - start
        return dict(out)

    def chrome_trace(self, origin: float):
        """Chrome trace-event JSON (``chrome://tracing``, Perfetto)."""
        events = []
        for name, start, end, parent, op, tid in self.spans:
            if end is None:
                continue
            events.append({
                "name": name, "ph": "X", "pid": 1, "tid": tid,
                "ts": round((start - origin) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "args": {"op": op, "parent": (
                    self.spans[parent][0] if parent is not None else None)},
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}
