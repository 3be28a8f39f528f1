"""Span recording at layer boundaries, installed from outside ``src/``.

The traced run patches the public entry points of each layer of the
``repro`` package — class methods on their class, module-level functions
on every ``repro`` module that binds them — with wrappers that record a
span (name, start, end, parent span, thread) per call.  Spans stay in
memory; :func:`layer_metrics` turns them into the per-layer metrics after
the run, and :meth:`Recorder.uninstall` restores every patched name.

Nothing here is imported by the program: the untraced run never loads
the wrappers, so end-to-end figures carry no tracing cost.
"""

from __future__ import annotations

import os
import statistics
import sys
import threading
import time
from bisect import bisect_left
from collections import defaultdict

KINDS = ("marginalize", "extend", "multiply", "divide")


class Recorder:
    """In-memory span store plus the wrappers that feed it.

    A span is a list ``[name, start_ns, end_ns, parent, thread, info]``;
    ``parent`` is the enclosing span on the same thread (or None) and
    ``info`` a dict the exit hook may fill from the call's result.
    Appends rely on ``list.append`` being atomic under the interpreter
    lock, so recording takes no lock a forked worker could inherit held.
    """

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self._local = threading.local()
        self._patches = []

    # -------------------------------------------------------------- #
    # Recording
    # -------------------------------------------------------------- #

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs, on_exit=None):
        stack = self._stack()
        span = [name, 0, 0, stack[-1] if stack else None,
                threading.get_ident(), None]
        stack.append(span)
        span[1] = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter_ns()
            stack.pop()
            self.spans.append(span)
        if on_exit is not None:
            span[5] = on_exit(args, result)
        return result

    # -------------------------------------------------------------- #
    # Installing wrappers
    # -------------------------------------------------------------- #

    def patch(self, owner, attr, value):
        """Set ``owner.attr``; :meth:`uninstall` puts the original back."""
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def wrap_method(self, cls, attr, name, on_exit=None):
        original = cls.__dict__[attr]
        if isinstance(original, classmethod):
            fn = original.__func__

            def wrapper(klass, *args, **kwargs):
                return self.call(name, fn, (klass,) + args, kwargs, on_exit)

            self.patch(cls, attr, classmethod(wrapper))
            return

        def wrapper(*args, **kwargs):
            return self.call(name, original, args, kwargs, on_exit)

        wrapper.__name__ = original.__name__
        self.patch(cls, attr, wrapper)

    def wrap_function(self, module, attr, name, on_exit=None):
        """Wrap ``module.attr`` under every ``repro`` module binding it."""
        original = getattr(module, attr)

        def wrapper(*args, **kwargs):
            return self.call(name, original, args, kwargs, on_exit)

        for mod in list(sys.modules.values()):
            if (getattr(mod, "__name__", "") or "").startswith("repro") and \
                    mod.__dict__.get(attr) is original:
                self.patch(mod, attr, wrapper)

    def count_calls(self, cls, attr, key):
        original = cls.__dict__[attr]
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)

        self.patch(cls, attr, wrapper)

    def time_enter(self, cls, attr, name):
        """Wrap a context-manager factory; span only its ``__enter__``."""
        original = cls.__dict__[attr]
        recorder = self

        class _Timed:
            def __init__(self, cm):
                self.cm = cm

            def __enter__(self):
                return recorder.call(name, self.cm.__enter__, (), {})

            def __exit__(self, *exc):
                return self.cm.__exit__(*exc)

        def wrapper(*args, **kwargs):
            return _Timed(original(*args, **kwargs))

        self.patch(cls, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []


def segment_bytes(root):
    """Bytes of every journal segment file under ``root``."""
    from repro.durability.journal import SEGMENT_SUFFIX

    total = 0
    for folder, _dirs, files in os.walk(root):
        for name in files:
            if name.endswith(SEGMENT_SUFFIX):
                total += os.path.getsize(os.path.join(folder, name))
    return total


def install(recorder):
    """Wrap every layer boundary the per-layer metrics read."""
    import repro.inference.incremental as incremental
    import repro.jt.build as jt_build
    import repro.jt.rerooting as rerooting
    import repro.registry.compiler as compiler
    import repro.tasks.dag as dag
    from repro.durability.journal import TickJournal
    from repro.inference.cache import QueryCache
    from repro.inference.engine import InferenceEngine
    from repro.potential.table import PotentialTable
    from repro.registry.registry import ModelRegistry, RegistryService
    from repro.sched.collaborative import CollaborativeExecutor
    from repro.sched.process import ProcessSharedMemoryExecutor
    from repro.sched.serial import SerialExecutor
    from repro.serve.service import EngineSessionPool, InferenceService
    from repro.streaming.session import FilteringSession
    from repro.tasks.state import PropagationState

    r = recorder

    # serve
    r.wrap_method(InferenceService, "submit", "serve.submit")
    r.time_enter(EngineSessionPool, "session", "serve.checkout")
    r.wrap_method(RegistryService, "submit", "registry.submit")

    # inference
    def after_propagate(args, state):
        stats = args[0].last_stats
        return {
            "incremental": bool(getattr(stats, "incremental", False)),
            "executed": getattr(stats, "tasks_executed", 0),
            "skipped": getattr(stats, "tasks_skipped", 0),
        }

    r.wrap_method(InferenceEngine, "propagate", "inference.propagate",
                  after_propagate)
    r.wrap_method(InferenceEngine, "query", "inference.query")
    r.wrap_method(InferenceEngine, "marginal", "inference.query")
    r.wrap_function(incremental, "plan_incremental", "inference.plan")
    r.wrap_method(QueryCache, "get_marginal", "inference.cache",
                  lambda args, value: {"hit": value is not None})

    # tasks
    r.wrap_function(dag, "build_task_graph", "tasks.graph_build")
    r.wrap_method(PropagationState, "__init__", "tasks.state_build")
    r.wrap_method(PropagationState, "incremental", "tasks.state_build")
    r.wrap_method(PropagationState, "execute", "tasks.exec",
                  lambda args, _: {"kind": args[1].kind.value})

    # potential
    r.count_calls(PotentialTable, "__init__", "potential.tables_built")

    # sched
    def after_run(args, stats):
        executor = args[0]
        workers = getattr(executor, "num_workers", None) or getattr(
            executor, "num_threads", 1)
        return {
            "compute": sum(stats.compute_time),
            "wall": stats.wall_time,
            "workers": workers,
            "partitioned": stats.tasks_partitioned,
            "chunks": stats.chunks_executed,
            "shared_bytes": stats.shared_bytes,
        }

    for cls in (SerialExecutor, CollaborativeExecutor,
                ProcessSharedMemoryExecutor):
        r.wrap_method(cls, "run", "sched.run", after_run)

    # jt
    r.wrap_function(jt_build, "junction_tree_from_network", "jt.build")
    r.wrap_function(rerooting, "reroot_optimally", "jt.reroot")

    # streaming
    r.wrap_method(FilteringSession, "tick", "streaming.tick",
                  lambda args, res: {"rolled": res.rolled,
                                     "roll_s": res.roll_seconds})

    # durability
    r.wrap_method(TickJournal, "append_tick", "durability.append")
    r.wrap_method(TickJournal, "append_ack", "durability.ack")
    r.wrap_method(TickJournal, "rotate", "durability.rotate")
    timed_rotate = TickJournal.__dict__["rotate"]

    def rotate(self, *args, **kwargs):
        # Rotation deletes the segment it replaces: count its bytes first.
        r.counts["durability.rotated_bytes"] += segment_bytes(self.root)
        return timed_rotate(self, *args, **kwargs)

    r.patch(TickJournal, "rotate", rotate)

    # registry
    r.wrap_method(ModelRegistry, "acquire", "registry.acquire")
    r.wrap_function(compiler, "compile_model", "registry.compile")
    r.wrap_function(compiler, "rehydrate_model", "registry.rehydrate")

    # integrity
    r.wrap_method(InferenceEngine, "restore", "integrity.restore")


# ------------------------------------------------------------------ #
# Turning spans into metrics
# ------------------------------------------------------------------ #


def _mean(values):
    return sum(values) / len(values) if values else 0.0


def _self_intervals(spans):
    """Per thread, sorted ``(start, end, layer)`` intervals of self time.

    Each instant a thread spends inside some span is charged to the
    innermost open span's layer (the name's prefix before the first dot).
    """
    children = defaultdict(list)
    for span in spans:
        if span[3] is not None:
            children[id(span[3])].append(span)
    per_thread = defaultdict(list)
    for span in spans:
        layer = span[0].split(".", 1)[0]
        cursor = span[1]
        for child in sorted(children.get(id(span), ()), key=lambda s: s[1]):
            if child[1] > cursor:
                per_thread[span[4]].append((cursor, child[1], layer))
            cursor = max(cursor, child[2])
        if span[2] > cursor:
            per_thread[span[4]].append((cursor, span[2], layer))
    timelines = {}
    for thread, items in per_thread.items():
        items.sort()
        timelines[thread] = ([s for s, _, _ in items], items)
    return timelines


def _attribute(timelines, thread, lo, hi, into):
    """Add each layer's self time inside ``[lo, hi]`` on ``thread``.

    Returns the start of the first interval inside the window (or None).
    """
    if thread not in timelines or hi <= lo:
        return None
    starts, items = timelines[thread]
    first = None
    i = max(bisect_left(starts, lo) - 1, 0)
    while i < len(items) and items[i][0] < hi:
        start, end, layer = items[i]
        a, b = max(start, lo), min(end, hi)
        if b > a:
            into[layer] += b - a
            if first is None:
                first = a
        i += 1
    return first


def blocking_path(spans, ops):
    """Per-op breakdown of latency along the op's blocking path.

    An op is sent on the generator thread (``submit_start`` ..
    ``submit_end``) and answered on ``thread`` at ``resolved``.  Its
    blocking path is the generator's submit window plus the answering
    thread's window from ``max(submit_end, that thread's previous
    answer)`` to ``resolved``.  Time before the first span in that window
    is queue wait; the rest is charged to the innermost span's layer, and
    whatever no span covers is the unattributed residual.
    """
    timelines = _self_intervals(spans)
    answered = defaultdict(list)
    for op in ops:
        answered[op.thread].append(op.resolved)
    for times in answered.values():
        times.sort()
    self_ns = defaultdict(float)
    totals = defaultdict(float)
    for op in ops:
        layers = defaultdict(float)
        _attribute(timelines, op.gen_thread, op.submit_start, op.submit_end,
                   layers)
        submit_covered = sum(layers.values())
        queue = 0
        worker_covered = 0.0
        if op.resolved > op.submit_end:
            times = answered[op.thread]
            k = bisect_left(times, op.resolved)
            lo = max(op.submit_end, times[k - 1] if k > 0 else 0)
            worker = defaultdict(float)
            first = _attribute(timelines, op.thread, lo, op.resolved, worker)
            start = first if first is not None else op.resolved
            queue = start - op.submit_end
            worker_covered = sum(worker.values())
            for layer, ns in worker.items():
                layers[layer] += ns
            residual_worker = (op.resolved - start) - worker_covered
        else:
            residual_worker = 0
        residual = (op.submit_end - op.submit_start - submit_covered) + \
            residual_worker
        for layer, ns in layers.items():
            self_ns[layer] += ns
        totals["latency"] += op.resolved - op.due
        totals["lateness"] += op.submit_start - op.due
        totals["queue"] += queue
        totals["residual"] += residual
    return self_ns, totals


def _top(spans, name):
    """Spans named ``name`` not nested in another span of the same name."""
    out = []
    for span in spans:
        if span[0] != name:
            continue
        parent = span[3]
        while parent is not None and parent[0] != name:
            parent = parent[3]
        if parent is None:
            out.append(span)
    return out


def _ms(spans):
    return _mean([(s[2] - s[1]) * 1e-6 for s in spans])


def layer_metrics(recorder, ops, report, first_tier=None,
                  registry_stats=None, reference=None, journal_growth=0):
    """Every per-layer metric from one traced phase.

    ``report`` is the phase's ``ServiceReport`` (None for library-level
    runs); ``registry_stats`` the registry's counter deltas and budget;
    ``reference`` the spans of the in-process serial reference run, used
    for the task-execution figures when the process tier hides them;
    ``first_tier`` the executor the service tries first; and
    ``journal_growth`` how many bytes the journal segments grew by.
    """
    spans = recorder.spans
    ops = [op for op in ops if op.resolved is not None]
    n = max(len(ops), 1)
    by_name = defaultdict(list)
    for span in spans:
        by_name[span[0]].append(span)
    m = {}

    # serve
    submitted = max(getattr(report, "submitted", 0), 1)
    tiers = dict(getattr(report, "tier_counts", {}) or {})
    fallback = sum(count for tier, count in tiers.items()
                   if tier not in ("cache", "stale", first_tier))
    self_ns, totals = blocking_path(spans, ops)
    m["serve.submit_us"] = _ms(_top(spans, "serve.submit")) * 1e3
    m["serve.checkout_wait_ms"] = _ms(by_name["serve.checkout"])
    m["serve.queue_wait_ms"] = totals["queue"] * 1e-6 / n
    m["serve.coalesced_share"] = getattr(report, "coalesced", 0) / submitted
    m["serve.cache_share"] = tiers.get("cache", 0) / submitted
    m["serve.shed_share"] = getattr(report, "shed", 0) / submitted
    m["serve.fallback_share"] = fallback / submitted

    # inference
    props = _top(spans, "inference.propagate")
    infos = [s[5] for s in props if s[5]]
    executed = sum(i["executed"] for i in infos)
    skipped = sum(i["skipped"] for i in infos)
    lookups = [s[5]["hit"] for s in by_name["inference.cache"] if s[5]]
    m["inference.propagate_ms"] = _ms(props)
    m["inference.propagations_per_op"] = len(props) / n
    m["inference.plan_ms"] = _ms(by_name["inference.plan"])
    m["inference.incremental_share"] = _mean(
        [1.0 if i["incremental"] else 0.0 for i in infos])
    m["inference.tasks_skipped_share"] = (
        skipped / (executed + skipped) if executed + skipped else 0.0)
    m["inference.query_ms"] = _ms(_top(spans, "inference.query"))
    m["inference.cache_hit_rate"] = _mean(
        [1.0 if hit else 0.0 for hit in lookups])

    # tasks
    m["tasks.graph_build_ms"] = _ms(_top(spans, "tasks.graph_build"))
    m["tasks.state_build_ms"] = _ms(_top(spans, "tasks.state_build"))
    exec_spans = by_name["tasks.exec"]
    if reference is not None:
        exec_spans = [s for s in reference if s[0] == "tasks.exec"]
    per_kind = defaultdict(list)
    for span in exec_spans:
        per_kind[span[5]["kind"]].append((span[2] - span[1]) * 1e-6)
    exec_ops = n
    if reference is not None:
        exec_ops = max(sum(1 for s in reference if s[0] == "sched.run"), 1)
    for kind in KINDS:
        m[f"tasks.exec_ms.{kind}"] = sum(per_kind[kind]) / exec_ops
        m[f"tasks.exec_count.{kind}"] = len(per_kind[kind]) / exec_ops
    m["tasks.per_task_us"] = _mean(
        [(s[2] - s[1]) * 1e-3 for s in exec_spans])

    # potential
    m["potential.tables_built_per_op"] = \
        recorder.counts["potential.tables_built"] / n

    # sched
    runs = [s[5] for s in _top(spans, "sched.run") if s[5]]
    m["sched.run_ms"] = _ms(_top(spans, "sched.run"))
    m["sched.compute_share"] = _mean(
        [r["compute"] / (r["wall"] * r["workers"]) for r in runs
         if r["wall"] > 0])
    m["sched.tasks_partitioned"] = _mean([r["partitioned"] for r in runs])
    m["sched.chunks"] = _mean([r["chunks"] for r in runs])
    m["sched.shared_bytes"] = _mean([r["shared_bytes"] for r in runs])
    m["sched.parallel_speedup"] = 0.0
    if reference is not None:
        serial = [(s[2] - s[1]) for s in reference if s[0] == "sched.run"]
        tier = [(s[2] - s[1]) for s in _top(spans, "sched.run")]
        if serial and tier:
            m["sched.parallel_speedup"] = (
                statistics.median(serial) / statistics.median(tier))

    # jt
    builds, reroots = _top(spans, "jt.build"), _top(spans, "jt.reroot")
    m["jt.build_ms"] = _ms(builds)
    m["jt.builds_per_op"] = len(builds) / n
    m["jt.reroot_ms"] = _ms(reroots)
    m["jt.reroots_per_op"] = len(reroots) / n

    # streaming
    ticks = by_name["streaming.tick"]
    rolls = [s[5]["roll_s"] * 1e3 for s in ticks if s[5] and s[5]["rolled"]]
    m["streaming.tick_ms"] = _ms(ticks)
    m["streaming.roll_ms"] = _mean(rolls)
    m["streaming.roll_share"] = len(rolls) / len(ticks) if ticks else 0.0

    # durability
    appends = by_name["durability.append"]
    m["durability.append_ms"] = _ms(appends)
    m["durability.ack_ms"] = _ms(by_name["durability.ack"])
    m["durability.rotate_ms"] = _ms(by_name["durability.rotate"])
    written = journal_growth + recorder.counts["durability.rotated_bytes"]
    m["durability.bytes_per_tick"] = written / len(appends) if appends else 0.0

    # registry
    acquires = _top(spans, "registry.acquire")
    building = {id(s[3]) for s in spans
                if s[0] in ("registry.compile", "registry.rehydrate")}
    hits = [s for s in acquires if id(s) not in building]
    stats = registry_stats or {}
    lookups_r = stats.get("hits", 0) + stats.get("misses", 0)
    m["registry.hit_rate"] = stats.get("hits", 0) / lookups_r \
        if lookups_r else 0.0
    m["registry.acquire_hit_ms"] = _ms(hits)
    m["registry.compile_ms"] = _ms(by_name["registry.compile"])
    m["registry.rehydrate_ms"] = _ms(by_name["registry.rehydrate"])
    m["registry.evictions_per_op"] = stats.get("evictions", 0) / n
    m["registry.compiles_per_op"] = stats.get("compiles", 0) / n
    m["registry.peak_resident_share"] = stats.get("peak_share", 0.0)

    # integrity
    m["integrity.restore_ms"] = _ms(by_name["integrity.restore"])

    # blocking-path breakdown and the unattributed residual
    latency = totals["latency"]
    for layer in ("serve", "registry", "inference", "tasks", "sched", "jt",
                  "streaming", "durability", "integrity"):
        m[f"trace.self_ms.{layer}"] = self_ns.get(layer, 0.0) * 1e-6 / n
    m["trace.queue_ms"] = totals["queue"] * 1e-6 / n
    m["trace.lateness_ms"] = totals["lateness"] * 1e-6 / n
    m["trace.residual_ms"] = totals["residual"] * 1e-6 / n
    m["trace.residual_share"] = totals["residual"] / latency if latency else 0.0
    return m


def unit(name):
    """Unit of one per-layer metric, from the part after its layer."""
    metric = name.split(".")[1]
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith("_us"):
        return "us"
    if metric.endswith(("_share", "_rate")):
        return "share"
    if "bytes" in metric:
        return "bytes"
    if metric.endswith("speedup"):
        return "x"
    return "count"


# Per-layer counters that may support a count claim when they repeat
# exactly across two traced runs of one seed.
COUNTERS = (
    "inference.propagations_per_op",
    "inference.incremental_share",
    "inference.tasks_skipped_share",
    "inference.cache_hit_rate",
    "tasks.exec_count.marginalize",
    "tasks.exec_count.extend",
    "tasks.exec_count.multiply",
    "tasks.exec_count.divide",
    "potential.tables_built_per_op",
    "sched.tasks_partitioned",
    "sched.chunks",
    "sched.shared_bytes",
    "jt.builds_per_op",
    "jt.reroots_per_op",
    "streaming.roll_share",
    "durability.bytes_per_tick",
    "registry.hit_rate",
    "registry.evictions_per_op",
    "registry.compiles_per_op",
    "serve.coalesced_share",
    "serve.cache_share",
)
