"""Crossing-change interval propagation for the tau invariant."""

import random
import re
import time
from dataclasses import asdict

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bennequin.tau import (
    Interval,
    PropagationContradiction,
    TauConstraintGraph,
    TauNode,
    family_graph,
    family_tau,
    graph_from_dict,
    propagate,
    torus_knot_tau,
)
from oracles import fixpoint_propagate


def test_torus_knot_values():
    assert torus_knot_tau(-3) == -1
    assert torus_knot_tau(-5) == -2
    assert torus_knot_tau(1) == 0
    assert torus_knot_tau(-1) == 0
    assert torus_knot_tau(3) == 1
    assert torus_knot_tau(7) == 3
    with pytest.raises(ValueError):
        torus_knot_tau(4)


def test_single_exact_node():
    graph = TauConstraintGraph(nodes=(TauNode("A", -3),), edges=())
    assert propagate(graph) == {"A": Interval(-3, -3)}


def test_isolated_unknown_node_stays_unbounded():
    graph = TauConstraintGraph(nodes=(TauNode("A"),), edges=())
    interval = propagate(graph)["A"]
    assert (interval.lower, interval.upper) == (None, None)
    assert not interval.exact


def test_single_edge_gives_unit_interval():
    graph = TauConstraintGraph(
        nodes=(TauNode("K"), TauNode("P", -4)), edges=(("P", "K"),)
    )
    assert propagate(graph)["K"] == Interval(-4, -3)


def test_contradiction_reports_node_and_edges():
    graph = TauConstraintGraph(
        nodes=(TauNode("A", 0), TauNode("B", 5)), edges=(("A", "B"),)
    )
    with pytest.raises(PropagationContradiction) as excinfo:
        propagate(graph)
    message = str(excinfo.value)
    assert "B" in message and "('A', 'B')" in message


def test_family_graph_pins_value():
    for n in (1, 2, 100):
        intervals = propagate(family_graph(n))
        assert intervals["K"] == Interval(-n, -n)
        assert intervals["P"] == Interval(-n, -n)
        assert intervals["R"] == Interval(-n, -n)
        assert intervals["T"] == Interval(-n - 1, -n - 1)


def test_family_tau_values():
    assert family_tau(1) == -1
    assert family_tau(2) == -2
    assert family_tau(100) == -100
    with pytest.raises(ValueError):
        family_tau(0)


def test_two_step_tightening_mirrors_the_two_bound_arguments():
    # lower-bound step: only the torus-knot edge into the family knot
    n = 3
    partial = TauConstraintGraph(
        nodes=(TauNode("K"), TauNode("P", -n)), edges=(("P", "K"),)
    )
    assert propagate(partial)["K"] == Interval(-n, -n + 1)
    # upper-bound step: the chain through R tightens the upper end to -n
    assert propagate(family_graph(n))["K"] == Interval(-n, -n)


def test_propagation_confluent_under_edge_reordering():
    rng = random.Random(77)
    base = family_graph(4)
    expected = propagate(base)
    for _ in range(10):
        edges = list(base.edges)
        rng.shuffle(edges)
        shuffled = TauConstraintGraph(base.nodes, tuple(edges))
        assert propagate(shuffled) == expected


def test_propagation_monotone():
    # adding edges can only shrink intervals
    loose = TauConstraintGraph(
        nodes=(TauNode("K"), TauNode("P", -2), TauNode("R")),
        edges=(("P", "K"),),
    )
    tight = TauConstraintGraph(
        nodes=(TauNode("K"), TauNode("P", -2), TauNode("R", -2)),
        edges=(("P", "K"), ("K", "R")),
    )
    loose_k = propagate(loose)["K"]
    tight_k = propagate(tight)["K"]
    assert tight_k.lower >= loose_k.lower
    assert tight_k.upper <= loose_k.upper


def test_graph_validation():
    with pytest.raises(ValueError, match="unique"):
        TauConstraintGraph(nodes=(TauNode("A"), TauNode("A")), edges=())
    with pytest.raises(ValueError, match="unknown endpoint"):
        TauConstraintGraph(nodes=(TauNode("A"),), edges=(("A", "B"),))


def test_interval_validation():
    with pytest.raises(ValueError):
        Interval(3, 2)


def test_json_wire_format():
    data = {
        "nodes": [{"name": "K"}, {"name": "P", "tau": -1}],
        "edges": [["P", "K"]],
    }
    graph = graph_from_dict(data)
    out = {name: asdict(iv) for name, iv in propagate(graph).items()}
    assert out == {"K": {"lower": -1, "upper": 0}, "P": {"lower": -1, "upper": -1}}


@st.composite
def tau_graphs(draw):
    """1 to 9 nodes, some with tau in -4..4, and 0 to 14 edges drawn with
    replacement, so self-loops, duplicate edges and cycles all occur."""
    names = [f"k{i}" for i in range(draw(st.integers(1, 9)))]
    tau = st.none() | st.integers(-4, 4)
    taus = draw(st.lists(tau, min_size=len(names), max_size=len(names)))
    ends = st.sampled_from(names)
    edges = draw(st.lists(st.tuples(ends, ends), max_size=14))
    return TauConstraintGraph(
        tuple(TauNode(name, tau) for name, tau in zip(names, taus)), tuple(edges)
    )


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(tau_graphs())
@example(TauConstraintGraph((TauNode("A", 0), TauNode("B", 5)), (("A", "B"),)))
def test_propagation_matches_the_fixpoint(graph):
    try:
        expected = fixpoint_propagate(graph)
    except PropagationContradiction:
        expected = None
    if expected is not None:
        assert propagate(graph) == expected
        return
    with pytest.raises(PropagationContradiction) as excinfo:
        propagate(graph)
    message = str(excinfo.value)
    match = re.fullmatch(
        r"node '(\w+)' forced into empty interval \[(-?\d+), (-?\d+)\] by edges (.*)",
        message,
    )
    assert match, message
    name, lo, hi, incident = match.groups()
    assert int(lo) > int(hi)
    assert incident == str([e for e in graph.edges if name in e])


def test_long_chain_propagates_in_one_pass():
    # a chain listed head first, its one known tau at the tail: the slowest
    # shape for rounds of edge relaxation, which settle one node per round
    names = [f"n{i}" for i in range(500)]
    graph = TauConstraintGraph(
        tuple(TauNode(name) for name in names[:-1]) + (TauNode(names[-1], 0),),
        tuple(zip(names, names[1:])),
    )
    start = time.perf_counter()
    intervals = propagate(graph)
    assert time.perf_counter() - start < 0.1
    assert intervals["n0"] == Interval(-499, 0)
