"""Independent exactness oracle for the benchmark.

Nothing here imports ``repro.kernel`` or ``repro.core``: the oracle is
a plain ``heapq`` Dijkstra over its own copy of the edge costs, so a
fault in the program's search tiers, caches or stitching cannot also
hide in the reference. The cost table starts from a snapshot of
``graph.edges()`` and follows the benchmark's own epoch batches; after
a run, :meth:`CostTable.matches` compares it once more against the
graph, so an epoch the program applied differently is caught too.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, Hashable, Iterable, List, Mapping, Optional, Sequence, Tuple

Node = Hashable
EdgeKey = Tuple[Node, Node]

#: Cost equality tolerance. The program and the oracle add the same
#: edge costs in different orders, so only float associativity noise is
#: allowed, never a model difference.
REL_TOL = 1e-9
ABS_TOL = 1e-9


def same_cost(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


class CostTable:
    """The oracle's own directed edge-cost table."""

    def __init__(self, edges: Iterable[Tuple[Node, Node, float]]) -> None:
        self.cost: Dict[EdgeKey, float] = {}
        self._index: Dict[Node, int] = {}
        self._nodes: List[Node] = []
        #: node index -> [target index, cost] cells, updated in place.
        self._out: List[List[List]] = []
        self._cell: Dict[EdgeKey, List] = {}
        for source, target, cost in edges:
            cell = [self._intern(target), cost]
            self._out[self._intern(source)].append(cell)
            self._cell[(source, target)] = cell
            self.cost[(source, target)] = cost

    def _intern(self, node: Node) -> int:
        index = self._index.get(node)
        if index is None:
            index = self._index[node] = len(self._nodes)
            self._nodes.append(node)
            self._out.append([])
        return index

    @classmethod
    def of_graph(cls, graph) -> "CostTable":
        """Snapshot ``graph.edges()`` as it stands now."""
        return cls((e.source, e.target, e.cost) for e in graph.edges())

    def apply(self, updates: Iterable[Tuple[Node, Node, float]]) -> None:
        """Follow one epoch batch of absolute costs."""
        for source, target, cost in updates:
            cell = self._cell.get((source, target))
            if cell is None:
                raise KeyError(f"epoch updates unknown edge {(source, target)!r}")
            cell[1] = cost
            self.cost[(source, target)] = cost

    def matches(self, graph) -> Optional[str]:
        """None when ``graph`` holds exactly this table's costs."""
        seen = 0
        for edge in graph.edges():
            seen += 1
            mine = self.cost.get((edge.source, edge.target))
            if mine is None or mine != edge.cost:
                return (
                    f"graph edge {(edge.source, edge.target)!r} costs "
                    f"{edge.cost!r}, oracle table says {mine!r}"
                )
        if seen != len(self.cost):
            return f"graph has {seen} edges, oracle table {len(self.cost)}"
        return None

    def distances(
        self, source: Node, targets: Optional[Iterable[Node]] = None
    ) -> Dict[Node, float]:
        """Shortest costs from ``source``; stops once ``targets`` settle."""
        start = self._index.get(source)
        if start is None:
            return {source: 0.0}
        remaining = None
        if targets is not None:
            remaining = {self._index[t] for t in targets if t in self._index}
        count = len(self._nodes)
        dist = [math.inf] * count
        settled = bytearray(count)
        dist[start] = 0.0
        heap: List[Tuple[float, int]] = [(0.0, start)]
        out = self._out
        while heap:
            d, node = heapq.heappop(heap)
            if settled[node]:
                continue
            settled[node] = 1
            if remaining is not None:
                remaining.discard(node)
                if not remaining:
                    break
            for neighbor, weight in out[node]:
                candidate = d + weight
                if candidate < dist[neighbor]:
                    dist[neighbor] = candidate
                    heapq.heappush(heap, (candidate, neighbor))
        nodes = self._nodes
        return {nodes[i]: dist[i] for i in range(count) if settled[i]}


def check_route(
    table: CostTable,
    optimal: Mapping[Node, float],
    source: Node,
    destination: Node,
    found: bool,
    cost: float,
    path: Sequence[Node],
    exact: bool = True,
) -> Optional[str]:
    """None when one answer is a real, correctly priced route.

    ``optimal`` holds the oracle's costs from ``source``. With
    ``exact`` the answer must be optimal; without it (a method that
    does not promise optimality) it must still be a real walk priced at
    its reported cost and never cheaper than the optimum.
    """
    key = (source, destination)
    best = optimal.get(destination, math.inf)
    if found != (best != math.inf):
        return f"{key}: found={found} but the oracle says reachable={best != math.inf}"
    if not found:
        return None
    if exact and not same_cost(cost, best):
        return f"{key}: cost {cost!r} != optimal {best!r}"
    if not exact and cost < best and not same_cost(cost, best):
        return f"{key}: cost {cost!r} below the optimum {best!r}"
    if not path or path[0] != source or path[-1] != destination:
        return f"{key}: path endpoints wrong"
    walked = 0.0
    for here, there in zip(path, path[1:]):
        step = table.cost.get((here, there))
        if step is None:
            return f"{key}: path uses missing edge {(here, there)!r}"
        walked += step
    if not same_cost(walked, cost):
        return f"{key}: path walks {walked!r} but cost says {cost!r}"
    return None


def optimal_costs(
    table: CostTable, pairs: Iterable[Tuple[Node, Node]]
) -> Dict[Node, Dict[Node, float]]:
    """The oracle's costs from each source of ``pairs``.

    One oracle search per distinct source, stopping once that source's
    destinations have settled.
    """
    wanted: Dict[Node, set] = {}
    for source, destination in pairs:
        wanted.setdefault(source, set()).add(destination)
    return {
        source: table.distances(source, targets)
        for source, targets in wanted.items()
    }


def check_routes(
    table: CostTable,
    answers: Sequence[Tuple[Node, Node, bool, float, Sequence[Node]]],
    exact: bool = True,
    optimal: Optional[Mapping[Node, Mapping[Node, float]]] = None,
) -> List[Optional[str]]:
    """:func:`check_route` for a batch priced at one cost state.

    ``optimal`` is :func:`optimal_costs` of the batch at that state,
    computed here when not given.
    """
    if optimal is None:
        optimal = optimal_costs(table, [(a[0], a[1]) for a in answers])
    return [
        check_route(table, optimal[source], source, destination, found, cost, path, exact)
        for source, destination, found, cost, path in answers
    ]


def check_skim(
    table: CostTable,
    origins: Sequence[Node],
    destinations: Sequence[Node],
    cells: Sequence[float],
) -> List[str]:
    """Every skim cell (row-major) must equal the oracle's cost."""
    complaints: List[str] = []
    index = 0
    for origin in origins:
        optimal = table.distances(origin, destinations)
        for destination in destinations:
            cell = cells[index]
            index += 1
            best = optimal.get(destination, math.inf)
            if best == math.inf or cell == math.inf:
                if best != cell:
                    complaints.append(f"skim {(origin, destination)!r}: {cell!r} != {best!r}")
            elif not same_cost(cell, best):
                complaints.append(f"skim {(origin, destination)!r}: {cell!r} != {best!r}")
    return complaints


def relative_gap(
    table: CostTable,
    volumes: Mapping[EdgeKey, float],
    demand: Mapping[Tuple[Node, Node], float],
) -> float:
    """``(sum v*t - sum q*mu) / sum q*mu`` at the table's costs."""
    current = sum(volume * table.cost[edge] for edge, volume in volumes.items())
    by_origin: Dict[Node, List[Tuple[Node, float]]] = {}
    for (origin, destination), q in demand.items():
        if origin != destination and q > 0:
            by_origin.setdefault(origin, []).append((destination, q))
    bound = 0.0
    for origin, wants in by_origin.items():
        optimal = table.distances(origin, [d for d, _ in wants])
        bound += sum(q * optimal.get(d, math.inf) for d, q in wants)
    return (current - bound) / bound if bound > 0 else 0.0


def conservation_residual(
    volumes: Mapping[EdgeKey, float],
    demand: Mapping[Tuple[Node, Node], float],
) -> float:
    """Largest node imbalance between link flows and the demand."""
    net: Dict[Node, float] = {}
    for (u, v), volume in volumes.items():
        net[u] = net.get(u, 0.0) + volume
        net[v] = net.get(v, 0.0) - volume
    for (origin, destination), q in demand.items():
        if origin == destination:
            continue
        net[origin] = net.get(origin, 0.0) - q
        net[destination] = net.get(destination, 0.0) + q
    return max((abs(x) for x in net.values()), default=0.0)
