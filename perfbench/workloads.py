"""The benchmark's four workloads on the synthetic Minneapolis map.

Each workload is one closed-loop client on the main thread. A run sets
the workload up, then attempts whole rounds until the run length is
spent; every round performs the same operations, so a fault that
fails on fixed inputs fails the same share of operations in every run.
After each round, outside the timing, its outputs are checked against
:mod:`oracle` and dropped, so memory reflects the program alone.

Seeds: ``--seed`` drives the query stream, the epoch edge samples and
multipliers, and the demand zones and volumes. The map itself is the
paper's fixed map (:data:`MAP_SEED`), and the commute fault probe uses
fixed inputs (:data:`PROBE_SEED`), so its failures do not depend on the
run's seed.
"""

from __future__ import annotations

import contextlib
import random
import threading
import time
from array import array
from typing import Dict, List, Optional, Sequence, Tuple

import oracle
import repro.demand
import repro.engine
from repro.fleet.loadgen import zipf_pairs
from repro.fleet.partition import partition_graph
from repro.fleet.router import FleetRouter
from repro.graphs.roadmap import make_minneapolis_map, road_queries
from repro.service.service import RouteService
from repro.traffic.feed import TrafficFeed

clock = time.perf_counter

#: The paper's map is one fixed road network; seeds vary the traffic.
MAP_SEED = 1993
#: Fixed inputs of the commute fault probe (independent of --seed).
PROBE_SEED = 1993
#: Zipf skew of the OD stream (the fleet load generator's default).
ZIPF_ALPHA = 1.1
#: Queries between two traffic epochs (commute, fleet-2x2).
QUERIES_PER_EPOCH = 300
#: Edges re-priced per epoch.
EPOCH_EDGES = 32
#: Epochs a Zipf popularity ranking lasts before the next one is drawn.
HOT_SET_EPOCHS = 1
#: Grid side of the corner blocks the first query after an epoch joins:
#: it runs from the low corner block to the high one, across the map
#: (and across every cut of the 2x2 partition).
LEAD_BLOCK = 12
#: Fault-probe queries per commute round.
PROBE_QUERIES = 64
#: Epochs applied to the probe map at set-up (loadgen model, 0.5-2x).
PROBE_EPOCHS = 8
#: Demand zones per side and the equilibrium tolerance.
ZONES = 12
GAP_TOLERANCE = 1e-4
MAX_ASSIGN_ITERATIONS = 1000
#: Complaints kept for the report.
KEPT_COMPLAINTS = 20


class TimedFeed(TrafficFeed):
    """A traffic feed that records the wall time of every ``apply``.

    ``apply`` includes the graph update and the fan-out to every
    subscriber, which is how long new traffic takes to be served.
    """

    def __init__(self, graph) -> None:
        super().__init__(graph)
        self.apply_seconds: List[float] = []
        self.last_applied_at = 0.0

    def apply(self, updates, minutes=None):
        started = clock()
        epoch = super().apply(updates, minutes)
        self.last_applied_at = clock()
        self.apply_seconds.append(self.last_applied_at - started)
        return epoch


def epoch_updates(
    edges: Sequence[Tuple], base: Dict[Tuple, float], rng: random.Random,
    low: float, high: float, count: int = EPOCH_EDGES,
) -> List[Tuple]:
    """One loadgen-model epoch: ``count`` edges at ``base * U(low, high)``."""
    return [
        (u, v, base[(u, v)] * rng.uniform(low, high))
        for u, v in rng.sample(edges, count)
    ]


def rows_of(results) -> List[Tuple]:
    return [(r.source, r.destination, r.found, r.cost, r.path) for r in results]


def attempt(call, *args, **kwargs):
    """``call(*args, **kwargs)``, or the exception it raised.

    An operation that raises is a failed operation: the run goes on and
    the check counts it, instead of the whole run ending without a result.
    """
    try:
        return call(*args, **kwargs)
    except Exception as error:  # noqa: BLE001 - reported as a failed operation
        return error


def raised(results) -> List[str]:
    return [f"raised {r!r}" for r in results if isinstance(r, Exception)]


class Workload:
    """Set-up, rounds and verification of one workload."""

    name = ""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.latencies: List[float] = []
        self.first_after_epoch: List[float] = []
        self.answered = 0  # operations counted in throughput
        self.busy_s = 0.0  # wall the throughput is taken over
        self.client_thread = threading.get_ident()
        #: The layer tracer while a traced round runs, else None.
        self.tracer = None
        self.attempted = 0
        self.failed = 0
        self.known = 0
        self.complaints: List[str] = []

    def setup(self) -> None:
        """Build the program state up to the first timed operation."""
        raise NotImplementedError

    def prepare(self) -> None:
        """Generate the seeded inputs (untimed; the program gets only these)."""
        self.table = oracle.CostTable.of_graph(self.graph)
        self.base = dict(self.table.cost)
        self.edges = sorted(self.base)
        self.epoch_rng = random.Random(self.seed + 1)

    def round(self) -> None:
        raise NotImplementedError

    def settle(self) -> None:
        """Check the last round's outputs (untimed)."""
        raise NotImplementedError

    def tally(self, complaints: Sequence[Optional[str]], known: bool = False) -> None:
        """Count checked operations; ``known`` marks the named fault's."""
        for complaint in complaints:
            self.attempted += 1
            if complaint is None:
                continue
            self.failed += 1
            if known:
                self.known += 1
            elif len(self.complaints) < KEPT_COMPLAINTS:
                self.complaints.append(complaint)

    def verify(self) -> Tuple[int, int, List[str]]:
        """``(attempted, failed, complaints)`` over every round run.

        The oracle's table followed every epoch; it must still hold
        exactly the graph's costs.
        """
        drift = self.table.matches(self.graph)
        if drift is not None:
            self.failed += 1
            self.complaints.append(f"oracle table diverged from the graph: {drift}")
        return self.attempted, self.failed, self.complaints

    def epoch_seconds(self) -> List[float]:
        return self.feed.apply_seconds

    def counters(self) -> Dict[str, float]:
        """Program counters read at round boundaries for the trace."""
        return {}

    def bench_span(self, name: str):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    def close(self) -> None:
        pass


class StreamWorkload(Workload):
    """One epoch, a lead query across the map, then a block of Zipf OD
    queries, per round."""

    def prepare(self) -> None:
        super().prepare()
        self.blocks = 0
        self.lead_rng = random.Random(self.seed + 2)
        nodes = sorted(self.graph.node_ids())
        side = max(x for x, _ in nodes)
        self.low_corner = [n for n in nodes if max(n) <= LEAD_BLOCK]
        self.high_corner = [n for n in nodes if min(n) >= side - LEAD_BLOCK]

    def next_block(self) -> List[Tuple]:
        """The next round's queries from the seeded Zipf stream.

        Popularity shifts every :data:`HOT_SET_EPOCHS` epochs (a fresh
        seeded ranking), so a run samples many hot sets and its figures
        do not hinge on where one seed's hottest nodes fall.
        """
        ranking, offset = divmod(self.blocks, HOT_SET_EPOCHS)
        if offset == 0:
            self.hot_pairs = zipf_pairs(
                self.graph, HOT_SET_EPOCHS * QUERIES_PER_EPOCH, ZIPF_ALPHA,
                self.seed * 1_000_003 + ranking,
            )
        self.blocks += 1
        return self.hot_pairs[offset * QUERIES_PER_EPOCH:(offset + 1) * QUERIES_PER_EPOCH]

    def ask(self, source, destination):
        raise NotImplementedError

    def round(self) -> None:
        # Epochs re-price to 1-2x free flow: costs never fall below the
        # straight-line length, so every seeded answer must be exact.
        updates = epoch_updates(self.edges, self.base, self.epoch_rng, 1.0, 2.0)
        block = self.next_block()
        # The first query after the epoch, sent alone: a seeded pair
        # across the map, so every epoch's first traveller pays the
        # same lazy rebuilds (a cache miss, the CSR build, the overlay).
        # The first query of the Zipf block would not: it is often a
        # cached route or, on the fleet, a local one that needs no
        # overlay, which made the median flip between 0 and 250 ms.
        lead = (
            self.lead_rng.choice(self.low_corner), self.lead_rng.choice(self.high_corner)
        )
        started = clock()
        self.feed.apply(updates)
        ask = self.ask
        begin = clock()
        results = [attempt(ask, *lead)]
        self.first_after_epoch.append(clock() - begin)
        for source, destination in block:
            begin = clock()
            results.append(attempt(ask, source, destination))
            self.latencies.append(clock() - begin)
        self.busy_s += clock() - started
        self.answered += len(results)
        self.pending = (updates, results)

    def settle(self) -> None:
        updates, results = self.pending
        self.pending = None
        self.table.apply(updates)
        self.tally(raised(results))
        results = [r for r in results if not isinstance(r, Exception)]
        shed = [r for r in results if getattr(r, "shed", False)]
        self.tally([f"{(r.source, r.destination)!r} shed: {r.shed_reason}" for r in shed])
        served = [r for r in results if not getattr(r, "shed", False)]
        self.tally(oracle.check_routes(self.table, rows_of(served)))


class Commute(StreamWorkload):
    """One RouteService with its defaults, on the whole map."""

    name = "commute"

    def setup(self) -> None:
        self.graph = make_minneapolis_map(MAP_SEED).graph
        self.service = RouteService()
        self.feed = TimedFeed(self.graph)
        self.feed.subscribe(self.service)
        # The probe: a second copy of the map whose costs fixed
        # loadgen-model epochs (0.5-2x free flow) pushed below the
        # straight-line length, served by its own default service.
        self.probe_graph = make_minneapolis_map(MAP_SEED).graph
        self.probe_service = RouteService()
        probe_feed = TrafficFeed(self.probe_graph)
        probe_feed.subscribe(self.probe_service)
        rng = random.Random(PROBE_SEED)
        probe_base = {(e.source, e.target): e.cost for e in self.probe_graph.edges()}
        probe_edges = sorted(probe_base)
        for _ in range(PROBE_EPOCHS):
            probe_feed.apply(epoch_updates(probe_edges, probe_base, rng, 0.5, 2.0))
        self.probe_pairs = zipf_pairs(
            self.probe_graph, PROBE_QUERIES, ZIPF_ALPHA, PROBE_SEED
        )
        corner = ((0, 0), (32, 32))
        self.service.plan(self.graph, *corner)
        self.probe_service.plan(self.probe_graph, *corner)

    def prepare(self) -> None:
        super().prepare()
        self.probe_table = oracle.CostTable.of_graph(self.probe_graph)
        # The probe map takes no epochs after set-up: its optimal costs
        # are searched once.
        self.probe_optimal = oracle.optimal_costs(self.probe_table, self.probe_pairs)

    def ask(self, source, destination):
        return self.service.plan(self.graph, source, destination)

    def settle(self) -> None:
        super().settle()
        # The known fault, once per round on inputs that do not depend
        # on the seed (untimed, untraced): A* with the euclidean
        # estimator is inadmissible once costs fall below the
        # straight-line length.
        results = [
            self.probe_service.plan(self.probe_graph, s, d) for s, d in self.probe_pairs
        ]
        self.tally(
            oracle.check_routes(self.probe_table, rows_of(results), optimal=self.probe_optimal),
            known=True,
        )

    def counters(self) -> Dict[str, float]:
        return {
            "service.plan_retries": float(
                self.service.plan_retries + self.probe_service.plan_retries
            )
        }


class Fleet(StreamWorkload):
    """A FleetRouter over a 2x2 partition with the CCH accelerator."""

    name = "fleet-2x2"

    def setup(self) -> None:
        self.graph = make_minneapolis_map(MAP_SEED).graph
        self.router = FleetRouter(partition_graph(self.graph, 2, 2), accelerator="cch")
        self.feed = TimedFeed(self.graph)
        self.feed.subscribe(self.router)
        # A corner-to-corner query crosses shards: it preprocesses every
        # shard's CCH and builds the first boundary overlay.
        self.router.plan((0, 0), (32, 32))

    def ask(self, source, destination):
        return self.router.plan(source, destination)

    def counters(self) -> Dict[str, float]:
        router = self.router
        return {
            "fleet.queries": float(router.queries),
            "fleet.stitched": float(router.stitched_answers),
            "fleet.pruned": float(router.local_pruned),
            "fleet.overlay_builds": float(router.overlay_builds),
            "fleet.plan_retries": float(router.plan_retries),
            "fleet.hedges": float(router.hedged_queries),
            "service.plan_retries": float(sum(
                worker.service.plan_retries
                for replica_set in router.workers.values()
                for worker in replica_set.workers
            )),
        }

    def close(self) -> None:
        self.router.shutdown()


class Equilibrium(Workload):
    """Frank-Wolfe assignments of seeded 12x12 zone demands, one per round."""

    name = "equilibrium"

    def setup(self) -> None:
        self.graph = make_minneapolis_map(MAP_SEED).graph
        self.feed = TimedFeed(self.graph)

    def prepare(self) -> None:
        super().prepare()
        self.nodes = sorted(self.graph.node_ids())
        self.edge_keys = [(e.source, e.target) for e in self.graph.edges()]
        self.assignments = 0

    def demand(self, index: int) -> Dict[Tuple, float]:
        rng = random.Random(self.seed * 1_000_003 + index)
        origins = rng.sample(self.nodes, ZONES)
        destinations = rng.sample(self.nodes, ZONES)
        return {
            (o, d): rng.uniform(20.0, 80.0)
            for o in origins for d in destinations if o != d
        }

    def round(self) -> None:
        demand = self.demand(self.assignments)
        snapshots: List[Tuple[array, Tuple, Tuple, List[float]]] = []

        def auditor(iteration, graph, matrix, aon_volumes) -> None:
            # Every skim is the first batch query after a reprice epoch;
            # its latency runs from that epoch to the loaded volumes.
            skim_s = clock() - self.feed.last_applied_at
            self.latencies.append(skim_s)
            self.first_after_epoch.append(skim_s)
            self.busy_s += skim_s
            self.answered += len(matrix.origins) * len(matrix.destinations)
            with self.bench_span("bench.audit"):
                snapshots.append((
                    array("d", (e.cost for e in graph.edges())),
                    matrix.origins,
                    matrix.destinations,
                    [cell for row in matrix.costs for cell in row],
                ))

        result = attempt(
            repro.demand.assign, self.graph, demand, feed=self.feed, tolerance=GAP_TOLERANCE,
            max_iterations=MAX_ASSIGN_ITERATIONS, auditor=auditor,
        )
        self.assignments += 1
        final = array("d", (e.cost for e in self.graph.edges()))
        self.pending = (demand, result, snapshots, final)

    def table_of(self, costs: array) -> oracle.CostTable:
        return oracle.CostTable((u, v, c) for (u, v), c in zip(self.edge_keys, costs))

    def settle(self) -> None:
        demand, result, snapshots, final = self.pending
        self.pending = None
        for costs, origins, destinations, cells in snapshots:
            bad = oracle.check_skim(self.table_of(costs), origins, destinations, cells)
            self.tally([f"iteration skim: {bad[0]}" if bad else None])
        # The equilibrium itself: the gap recomputed from the final link
        # volumes and the oracle's shortest paths, and flow conservation.
        self.table = self.table_of(final)
        if isinstance(result, Exception):
            self.tally(raised([result]))
            return
        gap = oracle.relative_gap(self.table, result.volumes, demand)
        residual = oracle.conservation_residual(result.volumes, demand)
        complaint = None
        if not result.converged or gap > GAP_TOLERANCE * (1 + 1e-6):
            complaint = f"assignment gap {gap!r} (converged={result.converged})"
        elif residual > 1e-9 * sum(demand.values()):
            complaint = f"assignment flow imbalance {residual!r}"
        self.tally([complaint])


class PaperMap(Workload):
    """The paper's four road queries through the relational engine."""

    name = "paper-map"

    ALGORITHMS = ("iterative", "dijkstra", "astar-v3")

    def setup(self) -> None:
        road_map = make_minneapolis_map(MAP_SEED)
        self.graph = road_map.graph
        self.queries = list(road_queries(road_map).values())
        self.rgraph = repro.engine.RelationalGraph(self.graph)
        self.feed = TimedFeed(self.graph)
        self.feed.subscribe(self.rgraph)

    def prepare(self) -> None:
        super().prepare()
        self.cleared: List[Tuple] = []

    def round(self) -> None:
        # One epoch before each OD pair, in the loadgen model (0.5-2x):
        # iterative and Dijkstra are exact under any positive costs, and
        # A*-v3 is checked only for what its inadmissible estimator keeps.
        # Each epoch also returns the previous one's edges to free flow,
        # so the paper's queries do the same work all run long.
        self.pending = []
        for source, destination in self.queries:
            fresh = epoch_updates(self.edges, self.base, self.epoch_rng, 0.5, 2.0)
            updates = self.cleared + fresh
            self.cleared = [(u, v, self.base[(u, v)]) for u, v, _ in fresh]
            started = clock()
            self.feed.apply(updates)
            runs = []
            for algorithm in self.ALGORITHMS:
                begin = clock()
                runs.append(attempt(
                    repro.engine.run_relational,
                    self.graph, source, destination, algorithm, rgraph=self.rgraph,
                ))
                self.latencies.append(clock() - begin)
            self.busy_s += clock() - started
            self.answered += len(runs)
            self.first_after_epoch.append(self.latencies[-len(runs)])
            self.pending.append((updates, runs))

    def settle(self) -> None:
        for updates, runs in self.pending:
            self.table.apply(updates)
            self.tally(raised(runs))
            runs = [run for run in runs if not isinstance(run, Exception)]
            exact = [run for run in runs if run.algorithm != "astar"]
            self.tally(oracle.check_routes(self.table, rows_of(exact)))
            heuristic = [run for run in runs if run.algorithm == "astar"]
            self.tally(oracle.check_routes(self.table, rows_of(heuristic), exact=False))
        self.pending = None


WORKLOADS = {cls.name: cls for cls in (Commute, Fleet, Equilibrium, PaperMap)}
