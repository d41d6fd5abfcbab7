"""Crossing-change interval propagation for the tau invariant."""

import random
from dataclasses import asdict

import pytest

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
