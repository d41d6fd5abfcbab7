"""Bounding the tau concordance invariant by interval propagation.

Changing a negative crossing of A into a positive one produces B with
tau(A) <= tau(B) <= tau(A) + 1.  A constraint graph records knots as named
nodes (some with exact tau, e.g. torus knot leaves) and crossing changes
as directed edges A -> B.  Each edge is two difference constraints, so the
tightest intervals are shortest-path distances from the known nodes
(Cormen et al., *Introduction to Algorithms*, 3rd ed., section 24.4).

Nodes are symbolic names, not diagrams: the claim that an edge really is a
single crossing change is supplied as data, the arithmetic consequences
are what this module computes.  :class:`Interval` endpoints are plain
integers with None as an explicit infinity; there is no floating point.
Reports use the same type for the four-ball genus bounds.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass


class PropagationContradiction(ValueError):
    """An interval became empty during propagation."""


@dataclass(frozen=True)
class Interval:
    """Integer interval; None endpoints mean unbounded."""

    lower: int | None
    upper: int | None

    def __post_init__(self) -> None:
        if self.lower is not None and self.upper is not None:
            if self.lower > self.upper:
                raise ValueError("empty interval")

    @property
    def exact(self) -> bool:
        return self.lower is not None and self.lower == self.upper


@dataclass(frozen=True)
class TauNode:
    name: str
    tau: int | None = None


@dataclass(frozen=True)
class TauConstraintGraph:
    """Named knots with optional exact tau and crossing-change edges.

    An edge (a, b) means b is obtained from a by changing one negative
    crossing of a to positive.
    """

    nodes: tuple[TauNode, ...]
    edges: tuple[tuple[str, str], ...]

    def __post_init__(self) -> None:
        names = [node.name for node in self.nodes]
        if len(set(names)) != len(names):
            raise ValueError("node names must be unique")
        known = set(names)
        for a, b in self.edges:
            if a not in known or b not in known:
                raise ValueError(f"edge ({a}, {b}) has an unknown endpoint")


def _shortest(graph: TauConstraintGraph, start: dict, forward: int, back: int) -> dict:
    """Least start[u] + path cost from any u in ``start`` to each node it
    reaches (Dijkstra); an edge a -> b costs ``forward`` from a to b and
    ``back`` from b to a."""
    steps: dict[str, list] = {node.name: [] for node in graph.nodes}
    for a, b in graph.edges:
        steps[a].append((forward, b))
        steps[b].append((back, a))
    heap = [(d, name) for name, d in start.items()]
    heapq.heapify(heap)
    dist: dict[str, int] = {}
    while heap:
        d, name = heapq.heappop(heap)
        if name not in dist:
            dist[name] = d
            for cost, other in steps[name]:
                if other not in dist:
                    heapq.heappush(heap, (d + cost, other))
    return dist


def propagate(graph: TauConstraintGraph) -> dict[str, Interval]:
    """The tightest intervals the edges allow.

    Each edge a -> b yields tau(b) in [lower(a), upper(a) + 1] and
    tau(a) in [lower(b) - 1, upper(b)].  So the upper end of a node is the
    least tau(u) + path cost over known nodes u, where an edge a -> b costs
    1 from a to b and 0 from b to a; the lower end is minus the same search
    run on -tau with the two costs swapped.  An end no known node reaches
    stays None.  Relaxing the edges to a fixed point gives exactly these
    ends, since each relaxation is one step of such a path and ends only
    tighten; so it empties an interval exactly when they do.  Raises
    :class:`PropagationContradiction` naming the first node, in the graph's
    order, whose interval is empty, and its incident edges.
    """
    known = {node.name: node.tau for node in graph.nodes if node.tau is not None}
    upper = _shortest(graph, known, 1, 0)
    negated = _shortest(graph, {name: -tau for name, tau in known.items()}, 0, 1)
    intervals = {}
    for node in graph.nodes:
        name = node.name
        lo, hi = (-negated[name], upper[name]) if name in upper else (None, None)
        if lo is not None and lo > hi:
            incident = [e for e in graph.edges if name in e]
            raise PropagationContradiction(
                f"node {name!r} forced into empty interval [{lo}, {hi}]"
                f" by edges {incident}"
            )
        intervals[name] = Interval(lo, hi)
    return intervals


def torus_knot_tau(q: int) -> int:
    """tau of the (2, q) torus knot for odd q; +-1 gives the unknot."""
    if q % 2 == 0:
        raise ValueError("the (2, q) torus link is a knot only for odd q")
    magnitude = (abs(q) - 1) // 2
    return magnitude if q > 0 else -magnitude


def family_graph(n: int) -> TauConstraintGraph:
    """Crossing-change graph pinning tau of the n-th family knot.

    Changing a positive crossing of the family knot K gives the torus knot
    T(2, -(2n+1)) =: P, so P -> K; changing a negative crossing gives R,
    so K -> R; and R is one positive-to-negative change away from
    T(2, -(2n+3)) =: T, so T -> R.
    """
    if n < 1:
        raise ValueError("family index must be >= 1")
    return TauConstraintGraph(
        nodes=(
            TauNode("K"),
            TauNode("P", torus_knot_tau(-(2 * n + 1))),
            TauNode("R"),
            TauNode("T", torus_knot_tau(-(2 * n + 3))),
        ),
        edges=(("P", "K"), ("K", "R"), ("T", "R")),
    )


def family_tau(n: int) -> int:
    """tau of the n-th family knot, pinned by propagation to exactly -n."""
    intervals = propagate(family_graph(n))
    pinned = intervals["K"]
    if not pinned.exact:
        raise RuntimeError(
            f"propagation failed to pin the family knot: got {pinned}"
        )
    return pinned.lower


def graph_from_dict(data: dict) -> TauConstraintGraph:
    """Build a graph from the JSON wire format.

    Expected shape: {"nodes": [{"name": str, "tau": int?}, ...],
    "edges": [[from, to], ...]}.  Anything else raises ValueError, so no
    float or boolean tau reaches the integer intervals.
    """
    if not (
        isinstance(data, dict)
        and isinstance(data.get("nodes"), list)
        and isinstance(data.get("edges"), list)
    ):
        raise ValueError('expected {"nodes": [...], "edges": [...]}')
    nodes = []
    for entry in data["nodes"]:
        if not isinstance(entry, dict):
            raise ValueError(f"node {entry!r} is not an object")
        if "name" not in entry:
            raise ValueError(f"node {entry!r} has no name")
        name, tau = entry["name"], entry.get("tau")
        if not isinstance(name, str):
            raise ValueError(f"node name {name!r} is not a string")
        # bool is a subclass of int, so test the exact type
        if tau is not None and type(tau) is not int:
            raise ValueError(f"tau of node {name!r} is {tau!r}, not an integer")
        nodes.append(TauNode(name, tau))
    edges = []
    for edge in data["edges"]:
        if not (
            isinstance(edge, (list, tuple))
            and len(edge) == 2
            and all(isinstance(end, str) for end in edge)
        ):
            raise ValueError(f"edge {edge!r} is not a pair of node names")
        edges.append(tuple(edge))
    return TauConstraintGraph(tuple(nodes), tuple(edges))
