#!/usr/bin/env python3
"""Reproduce the two known faults the benchmark names.

Run from the root of a checkout::

    python3 perfbench/faults.py astar        # A* + euclidean after discount epochs
    python3 perfbench/faults.py route-cache  # shard caches' euclidean decrease bound

Each prints, per configuration, how many answers an independent check
rejected. See ``perfbench/README.md`` for what the numbers mean.
"""

from __future__ import annotations

import random
import sys

from run import load_program

QUERIES = 3000


def astar_fault(seed: int = 1993) -> None:
    """Wrong answers of a RouteService under loadgen-model epochs."""
    import oracle
    from repro.fleet.loadgen import zipf_pairs
    from repro.graphs.roadmap import make_minneapolis_map
    from repro.service.service import RouteService
    from repro.traffic.feed import TrafficFeed
    from workloads import MAP_SEED, QUERIES_PER_EPOCH, ZIPF_ALPHA, epoch_updates

    configurations = (
        ("defaults (astar, euclidean, cache on), epochs 0.5-2x", {}, 0.5),
        ("cache off, epochs 0.5-2x", {"cache_capacity": 0}, 0.5),
        ("dijkstra, epochs 0.5-2x", {"default_algorithm": "dijkstra"}, 0.5),
        ("defaults, epochs 1-2x", {}, 1.0),
    )
    for label, options, low in configurations:
        graph = make_minneapolis_map(MAP_SEED).graph
        service = RouteService(**options)
        feed = TrafficFeed(graph)
        feed.subscribe(service)
        table = oracle.CostTable.of_graph(graph)
        base = dict(table.cost)
        edges = sorted(base)
        rng = random.Random(seed + 1)
        pairs = zipf_pairs(graph, QUERIES, ZIPF_ALPHA, seed)
        wrong = 0
        for start in range(0, QUERIES, QUERIES_PER_EPOCH):
            if start:
                updates = epoch_updates(edges, base, rng, low, 2.0)
                feed.apply(updates)
                table.apply(updates)
            rows = []
            for source, destination in pairs[start:start + QUERIES_PER_EPOCH]:
                result = service.plan(graph, source, destination)
                rows.append((source, destination, result.found, result.cost, result.path))
            wrong += sum(c is not None for c in oracle.check_routes(table, rows))
        print(f"{label}: {wrong} of {QUERIES} answers wrong")


def route_cache_fault() -> None:
    """Two loadgen runs in a row on one 2x2 router, cache on and off."""
    from repro.fleet.loadgen import FleetLoadConfig, run_fleet_load
    from repro.fleet.partition import partition_graph
    from repro.fleet.router import FleetRouter
    from repro.graphs.roadmap import make_minneapolis_map
    from repro.traffic.feed import TrafficFeed
    from workloads import MAP_SEED

    for capacity in (2048, 0):
        graph = make_minneapolis_map(MAP_SEED).graph
        router = FleetRouter(partition_graph(graph, 2, 2), cache_capacity=capacity)
        feed = TrafficFeed(graph)
        feed.subscribe(router)
        try:
            reports = [run_fleet_load(graph, router, feed, FleetLoadConfig()) for _ in range(2)]
        finally:
            router.shutdown()
        print(
            f"cache_capacity={capacity}: inexact answers per run "
            f"{[report.inexact for report in reports]}"
        )
        for sample in reports[-1].inexact_samples[:3]:
            print(f"  {sample}")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    faults = {"astar": astar_fault, "route-cache": route_cache_fault}
    if len(argv) != 1 or argv[0] not in faults:
        print(f"usage: faults.py {{{'|'.join(faults)}}}", file=sys.stderr)
        return 2
    load_program()
    faults[argv[0]]()
    return 0


if __name__ == "__main__":
    sys.exit(main())
