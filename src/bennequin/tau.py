"""Bounding the tau concordance invariant by interval propagation.

Changing a negative crossing of A into a positive one produces B with
tau(A) <= tau(B) <= tau(A) + 1.  A constraint graph records knots as named
nodes (some with exact tau, e.g. torus knot leaves) and crossing changes
as directed edges A -> B; propagating the edge inequality in both
directions to a fixed point pins intervals for the unknown nodes.

Nodes are symbolic names, not diagrams: the claim that an edge really is a
single crossing change is supplied as data, the arithmetic consequences
are what this module computes.  :class:`Interval` endpoints are plain
integers with None as an explicit infinity; there is no floating point.
Reports use the same type for the four-ball genus bounds.
"""

from __future__ import annotations

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


def _max_lower(a: int | None, b: int | None) -> int | None:
    if a is None:
        return b
    if b is None:
        return a
    return max(a, b)


def _min_upper(a: int | None, b: int | None) -> int | None:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def propagate(graph: TauConstraintGraph) -> dict[str, Interval]:
    """Tighten intervals along all edges to a fixed point.

    Each edge a -> b yields tau(b) in [lower(a), upper(a) + 1] and
    tau(a) in [lower(b) - 1, upper(b)].  Exact nodes start as point
    intervals, others unbounded.  Raises
    :class:`PropagationContradiction` naming the node whose interval
    emptied and its incident edges.
    """
    lower: dict[str, int | None] = {}
    upper: dict[str, int | None] = {}
    for node in graph.nodes:
        lower[node.name] = node.tau
        upper[node.name] = node.tau

    def tighten(name: str, new_lower: int | None, new_upper: int | None) -> bool:
        lo = _max_lower(lower[name], new_lower)
        hi = _min_upper(upper[name], new_upper)
        if lo is not None and hi is not None and lo > hi:
            incident = [e for e in graph.edges if name in e]
            raise PropagationContradiction(
                f"node {name!r} forced into empty interval [{lo}, {hi}]"
                f" by edges {incident}"
            )
        changed = (lo, hi) != (lower[name], upper[name])
        lower[name], upper[name] = lo, hi
        return changed

    max_rounds = max(1, len(graph.nodes) * max(1, len(graph.edges)))
    for _ in range(max_rounds + 1):
        changed = False
        for a, b in graph.edges:
            up_a = None if upper[a] is None else upper[a] + 1
            changed |= tighten(b, lower[a], up_a)
            lo_b = None if lower[b] is None else lower[b] - 1
            changed |= tighten(a, lo_b, upper[b])
        if not changed:
            break
    return {
        node.name: Interval(lower[node.name], upper[node.name])
        for node in graph.nodes
    }


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
