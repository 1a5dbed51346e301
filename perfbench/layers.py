"""Per-layer tracing from outside the program, for ``--trace 1`` runs.

The program carries no tracing of its own here: :class:`Tracer` wraps
each layer's public functions where they are bound (module attributes
and class methods) and records one span per call, with its name,
start, end, parent span and thread. Spans stay in memory until the run
ends. A layer's self time is its spans' time minus the time their
child spans cover. Spans on worker threads (the fleet's shard
executors) count toward their layer like any other, but only spans on
the client thread account for the measured client wall time; what
they do not cover is reported as its own ``share.unattributed``
bucket.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

clock = time.perf_counter

#: Per-layer metrics, in the order they are printed: (name, unit).
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("kernel.search_ms", "ms"),
    ("kernel.expansions", "count"),
    ("kernel.csr_builds", "count"),
    ("kernel.csr_build_ms", "ms"),
    ("kernel.sssp_ms", "ms"),
    ("kernel.sssp_calls", "count"),
    ("accel.preprocess_s", "s"),
    ("accel.customize_ms", "ms"),
    ("accel.query_ms", "ms"),
    ("accel.clique_queries", "count"),
    ("service.hit_rate", "%"),
    ("service.plan_self_ms", "ms"),
    ("service.handle_epoch_ms", "ms"),
    ("service.evicted", "count"),
    ("service.retained", "count"),
    ("service.plan_retries", "count"),
    ("traffic.graph_update_ms", "ms"),
    ("traffic.fanout_ms", "ms"),
    ("fleet.boundary_ms", "ms"),
    ("fleet.queue_wait_ms", "ms"),
    ("fleet.clique_ms", "ms"),
    ("fleet.materialize_ms", "ms"),
    ("fleet.router_self_ms", "ms"),
    ("fleet.dispatch_wait_ms", "ms"),
    ("fleet.stitched", "%"),
    ("fleet.pruned", "%"),
    ("fleet.overlay_builds", "count"),
    ("fleet.plan_retries", "count"),
    ("fleet.hedges", "count"),
    ("demand.iterations", "count"),
    ("demand.assign_s", "s"),
    ("demand.skim_ms", "ms"),
    ("demand.reprice_ms", "ms"),
    ("demand.step_ms", "ms"),
    ("engine.iterations", "count"),
    ("engine.run_self_ms", "ms"),
    ("engine.sim_cost_units", "units"),
    ("engine.sync_ms", "ms"),
    ("engine.sync_cost", "units"),
    ("storage.block_reads", "count"),
    ("storage.block_writes", "count"),
    ("storage.tuple_updates", "count"),
    ("share.kernel", "%"),
    ("share.accel", "%"),
    ("share.service", "%"),
    ("share.traffic", "%"),
    ("share.fleet", "%"),
    ("share.demand", "%"),
    ("share.engine", "%"),
    ("share.bench", "%"),
    ("share.unattributed", "%"),
    ("host.ref_loop_ms", "ms"),
    ("trace.overhead_ms", "ms"),
)

LAYERS = ("kernel", "accel", "service", "traffic", "fleet", "demand", "engine", "bench")


class Span:
    __slots__ = ("name", "start", "end", "parent", "thread", "note")

    def __init__(self, name: str, start: float, parent: Optional["Span"], thread: int):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.thread = thread
        self.note = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans around wrapped calls while installed and active.

    Install before the workload is set up: traffic feeds keep the
    epoch handlers they were given at subscription, so only handlers
    wrapped by then are seen. While inactive, wrapped calls pass
    straight through.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.active = True
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, func: Callable, name: str, note: Optional[Callable] = None) -> Callable:
        """``func`` recording one span per call (``note(result)`` kept)."""
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if not tracer.active:
                return func(*args, **kwargs)
            stack = tracer._stack()
            span = Span(name, clock(), stack[-1] if stack else None, threading.get_ident())
            stack.append(span)
            try:
                result = func(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                tracer.spans.append(span)
            if note is not None:
                span.note = note(result)
            return result

        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around the benchmark's own code."""
        stack = self._stack()
        span = Span(name, clock(), stack[-1] if stack else None, threading.get_ident())
        stack.append(span)
        try:
            yield span
        finally:
            span.end = clock()
            stack.pop()
            self.spans.append(span)

    # ------------------------------------------------------------------
    # patching
    # ------------------------------------------------------------------
    def patch_function(self, module: str, attr: str, name: str, note=None) -> None:
        """Wrap a module-level function at every ``repro`` binding site."""
        original = getattr(importlib.import_module(module), attr)
        wrapped = self.wrap(original, name, note)
        for module_name, loaded in list(sys.modules.items()):
            if loaded is None or not module_name.startswith("repro"):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, key, wrapped)
                    self._patches.append((loaded, key, original))

    def patch_method(self, cls: type, attr: str, name: str, note=None) -> None:
        original = cls.__dict__[attr]
        setattr(cls, attr, self.wrap(original, name, note))
        self._patches.append((cls, attr, original))

    def patch_submit(self, cls: type) -> None:
        """Record the wait from ``submit`` to the task's start."""
        original = cls.__dict__["submit"]
        tracer = self

        def submit(worker, fn, *args):
            if not tracer.active:
                return original(worker, fn, *args)
            submitted = clock()

            @functools.wraps(fn)
            def task(*task_args):
                span = Span("fleet.queue_wait", submitted, None, threading.get_ident())
                span.end = clock()
                tracer.spans.append(span)
                return fn(*task_args)

            return original(worker, task, *args)

        setattr(cls, "submit", submit)
        self._patches.append((cls, "submit", original))

    def install(self) -> None:
        accel = importlib.import_module("repro.kernel.accel")
        cache = importlib.import_module("repro.service.cache")
        csr = importlib.import_module("repro.kernel.csr")
        feed = importlib.import_module("repro.traffic.feed")
        graph = importlib.import_module("repro.graphs.graph")
        relational_graph = importlib.import_module("repro.engine.relational_graph")
        replica = importlib.import_module("repro.fleet.replica")
        router = importlib.import_module("repro.fleet.router")
        service = importlib.import_module("repro.service.service")
        worker = importlib.import_module("repro.fleet.worker")

        def expansions(result):
            return result.stats.nodes_expanded

        for attr in ("uniform_cost", "best_first", "wave", "bidirectional"):
            self.patch_function("repro.kernel.csr", attr, "kernel.search", expansions)
        for attr in ("sssp", "sssp_tree"):
            self.patch_function("repro.kernel.csr", attr, "kernel.sssp")
        self.patch_method(csr.CSRGraph, "__init__", "kernel.csr_build")
        self.patch_method(accel.CCHAccelerator, "_preprocess", "accel.preprocess")
        self.patch_method(accel.Accelerator, "_customize_locked", "accel.customize")
        self.patch_method(accel.Accelerator, "query", "accel.query")
        self.patch_method(service.RouteService, "plan", "service.plan")
        self.patch_method(
            service.RouteService, "handle_epoch", "service.handle_epoch",
            lambda report: (report.evicted, report.rekeyed),
        )
        self.patch_method(
            cache.RouteCache, "get", "service.cache_get", lambda hit: hit is not None
        )
        self.patch_method(feed.TrafficFeed, "apply", "traffic.apply")
        self.patch_method(graph.Graph, "apply_cost_updates", "traffic.graph_update")
        self.patch_method(router.FleetRouter, "plan", "fleet.router")
        self.patch_method(router.FleetRouter, "handle_epoch", "fleet.handle_epoch")
        self.patch_method(replica.ReplicaSet, "call", "fleet.dispatch")
        self.patch_method(replica.ReplicaSet, "plan_direct", "fleet.materialize")
        for attr in ("distances_to_boundary", "distances_from_boundary",
                     "local_and_boundaries"):
            self.patch_method(worker.ShardWorker, attr, "fleet.boundary")
        self.patch_method(worker.ShardWorker, "boundary_clique", "fleet.clique")
        self.patch_submit(worker.ShardWorker)
        self.patch_function(
            "repro.demand.assignment", "assign", "demand.assign",
            lambda result: result.iteration_count,
        )
        self.patch_function("repro.demand.skim", "skim", "demand.skim")
        self.patch_function(
            "repro.engine", "run_relational", "engine.run",
            lambda run: (run.iterations, run.io.block_reads, run.io.block_writes,
                         run.io.tuple_updates, run.sync_cost, run.execution_cost),
        )
        self.patch_method(relational_graph.RelationalGraph, "sync", "engine.sync")

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()


# ----------------------------------------------------------------------
# turning spans into per-layer metrics
# ----------------------------------------------------------------------
def self_seconds(spans: Iterable[Span]) -> Dict[int, float]:
    """``id(span) -> span time minus the time its children cover``."""
    spans = list(spans)
    covered: Dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            covered[id(span.parent)] += span.seconds
    return {id(span): span.seconds - covered[id(span)] for span in spans}


def layer_metrics(
    spans: Sequence[Span],
    client_thread: int,
    client_seconds: float,
    ops: int,
    epochs: int,
    preprocess_spans: Sequence[Span],
    counters: Dict[str, float],
) -> Dict[str, float]:
    """Per-layer metrics of the traced rounds.

    ``client_seconds`` is the measured client wall time of those rounds,
    ``ops`` the operations they timed and ``epochs`` their traffic
    epochs. ``counters`` carries the program counters read at round
    boundaries (router and service totals) and the host and overhead
    figures.
    """
    own = self_seconds(spans)
    by_name: Dict[str, List[Span]] = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)

    def total_self(name: str) -> float:
        return sum(own[id(s)] for s in by_name[name])

    def total(name: str) -> float:
        return sum(s.seconds for s in by_name[name])

    def per(value: float, count: float) -> float:
        return value / count if count else 0.0

    def under(span: Span, name: str) -> bool:
        parent = span.parent
        while parent is not None:
            if parent.name == name:
                return True
            parent = parent.parent
        return False

    searches = by_name["kernel.search"]
    sssps = by_name["kernel.sssp"]
    lookups = by_name["service.cache_get"]
    handles = by_name["service.handle_epoch"]
    runs = by_name["engine.run"]
    assigns = by_name["demand.assign"]
    skims = by_name["demand.skim"]
    # Repricing inside an assignment is the feed's whole-graph apply.
    reprices = [s for s in by_name["traffic.apply"] if under(s, "demand.assign")]
    top_applies = [s for s in by_name["traffic.apply"] if not under(s, "traffic.apply")]
    engine_notes = [s.note for s in runs if s.note is not None]
    iterations = sum(s.note or 0 for s in assigns)
    fleet_queries = counters.get("fleet.queries", 0.0)
    metrics = {
        "kernel.search_ms": per(total_self("kernel.search"), len(searches)) * 1e3,
        "kernel.expansions": per(sum(s.note or 0 for s in searches), len(searches)),
        "kernel.csr_builds": per(len(by_name["kernel.csr_build"]), epochs),
        "kernel.csr_build_ms": per(total("kernel.csr_build"), len(by_name["kernel.csr_build"])) * 1e3,
        "kernel.sssp_ms": per(total_self("kernel.sssp"), len(sssps)) * 1e3,
        "kernel.sssp_calls": per(len(sssps), ops),
        "accel.preprocess_s": sum(s.seconds for s in preprocess_spans),
        "accel.customize_ms": per(total("accel.customize"), epochs) * 1e3,
        "accel.query_ms": per(total_self("accel.query"), len(by_name["accel.query"])) * 1e3,
        "accel.clique_queries": per(
            sum(1 for s in by_name["accel.query"] if under(s, "fleet.clique")), epochs
        ),
        "service.hit_rate": per(sum(1 for s in lookups if s.note), len(lookups)) * 100.0,
        "service.plan_self_ms": per(total_self("service.plan"), len(by_name["service.plan"])) * 1e3,
        "service.handle_epoch_ms": per(total("service.handle_epoch"), epochs) * 1e3,
        "service.evicted": per(sum(s.note[0] for s in handles if s.note), epochs),
        "service.retained": per(sum(s.note[1] for s in handles if s.note), epochs),
        "service.plan_retries": counters.get("service.plan_retries", 0.0),
        "traffic.graph_update_ms": per(total("traffic.graph_update"), epochs) * 1e3,
        "traffic.fanout_ms": per(
            sum(s.seconds for s in top_applies) - total("traffic.graph_update"), epochs
        ) * 1e3,
        "fleet.boundary_ms": per(total_self("fleet.boundary"), ops) * 1e3,
        "fleet.queue_wait_ms": per(total("fleet.queue_wait"), len(by_name["fleet.queue_wait"])) * 1e3,
        "fleet.clique_ms": per(total("fleet.clique"), epochs) * 1e3,
        "fleet.materialize_ms": per(total("fleet.materialize"), ops) * 1e3,
        "fleet.router_self_ms": per(total_self("fleet.router"), ops) * 1e3,
        "fleet.dispatch_wait_ms": per(total_self("fleet.dispatch"), ops) * 1e3,
        "fleet.stitched": per(counters.get("fleet.stitched", 0.0), fleet_queries) * 100.0,
        "fleet.pruned": per(counters.get("fleet.pruned", 0.0), fleet_queries) * 100.0,
        "fleet.overlay_builds": per(counters.get("fleet.overlay_builds", 0.0), epochs),
        "fleet.plan_retries": counters.get("fleet.plan_retries", 0.0),
        "fleet.hedges": counters.get("fleet.hedges", 0.0),
        "demand.iterations": per(iterations, len(assigns)),
        "demand.assign_s": per(total("demand.assign") - total("bench.audit"), len(assigns)),
        "demand.skim_ms": per(total("demand.skim"), iterations) * 1e3,
        "demand.reprice_ms": per(sum(s.seconds for s in reprices), iterations) * 1e3,
        "demand.step_ms": per(total_self("demand.assign"), iterations) * 1e3,
        "engine.iterations": per(sum(n[0] for n in engine_notes), len(runs)),
        "engine.run_self_ms": per(total_self("engine.run"), len(runs)) * 1e3,
        "engine.sim_cost_units": per(sum(n[5] for n in engine_notes), len(runs)),
        "engine.sync_ms": per(total("engine.sync"), epochs) * 1e3,
        "engine.sync_cost": per(sum(n[4] for n in engine_notes), epochs),
        "storage.block_reads": per(sum(n[1] for n in engine_notes), len(runs)),
        "storage.block_writes": per(sum(n[2] for n in engine_notes), len(runs)),
        "storage.tuple_updates": per(sum(n[3] for n in engine_notes), len(runs)),
        "host.ref_loop_ms": counters["host.ref_loop_ms"],
        "trace.overhead_ms": counters["trace.overhead_ms"],
    }

    attributed: Dict[str, float] = defaultdict(float)
    for span in spans:
        if span.thread == client_thread and span.name != "fleet.queue_wait":
            attributed[span.name.split(".")[0]] += own[id(span)]
    for layer in LAYERS:
        metrics[f"share.{layer}"] = per(attributed[layer], client_seconds) * 100.0
    metrics["share.unattributed"] = 100.0 - sum(metrics[f"share.{layer}"] for layer in LAYERS)
    return metrics
