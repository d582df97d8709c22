from __future__ import annotations

import math
import random
import time
import warnings
from fractions import Fraction as F

import pytest

from conftest import load_automaton
from grid_oracles import random_network
from zonecost.dbm import NEG_INF, POS_INF
from zonecost.explorer import Config, explore, extract_witness
from zonecost.model import compose, evaluate_run, parse_model
from zonecost.oracle import (
    OracleCapExceeded,
    build_corner_point,
    corner_point_cost,
    corners,
    initial_region,
    optimal_cost_cp,
    region_of,
    time_successor,
)


def _flat(text: str):
    return compose(parse_model(text))


def test_one_clock_region_chain():
    m = {"x": 1}
    r = initial_region(("x",), m)  # {0}
    chain = [r]
    while True:
        r = time_successor(r, m)
        if r is None:
            break
        chain.append(r)
    # {0}, (0,1), {1}, (1,oo)
    assert len(chain) == 4
    assert chain[0].kinds == (("int", 0),)
    assert chain[1].kinds == (("frac", 0),)
    assert chain[2].kinds == (("int", 1),)
    assert chain[3].kinds == (("above",),)
    assert [len(corners(c)) for c in chain] == [1, 2, 1, 1]
    assert corners(chain[1]) == [((0, 0),), ((0, 1),)]


def test_region_of_merges_equal_fractions():
    m = {"x": 2, "y": 2}
    r = region_of({"x": F(1, 2), "y": F(1, 2)}, ("x", "y"), m)
    assert r.order == ((0, 1),)
    r2 = region_of({"x": F(1, 3), "y": F(1, 2)}, ("x", "y"), m)
    assert r2.order == ((0,), (1,))


def test_region_of_above_bound_forgets_fraction():
    m = {"x": 1, "y": 3}
    r = region_of({"x": F(5, 2), "y": F(3, 2)}, ("x", "y"), m)
    assert r.kinds[0] == ("above",)
    assert r.order == ((1,),)


def test_equivalent_valuations_share_region():
    # the optimal cost from M-equivalent valuations coincides by construction:
    # they map to the same corner-graph node
    m = {"x": 1, "y": 10}
    a = region_of({"x": F(1, 2), "y": 12}, ("x", "y"), m)
    b = region_of({"x": F(1, 2), "y": 17}, ("x", "y"), m)
    assert a == b
    c = region_of({"x": F(1, 2), "y": 9}, ("x", "y"), m)
    assert a != c


def test_build_graph_counts_bounded():
    a = load_automaton("fig2right")
    g = build_corner_point(a)
    m = a.max_constants()
    n_clocks = len(a.clocks)
    bound = len(a.locations) * math.factorial(n_clocks) * (2 ** n_clocks)
    for c in a.clocks:
        bound *= 2 * (m[c] or 0) + 2
    regions = {(node.location, node.region) for node in g.nodes}
    assert len(regions) <= bound
    # corners per region are at most |clocks| + 1
    per_region = {}
    for node in g.nodes:
        per_region.setdefault((node.location, node.region), set()).add(node.corner)
    assert all(len(cs) <= n_clocks + 1 for cs in per_region.values())


def test_oracle_matches_explorer_on_corpus(corpus):
    for name in ["fig2left", "fig2right", "fig2right_rate1", "fig7", "ets_small",
                 "als_small", "als_hold", "unreachable"]:
        a = corpus[name]
        v = explore(a, Config(strategy="bfs", iteration_cap=50_000))
        assert v.terminated
        assert corner_point_cost(a) == v.cost, name


def test_goal_is_initial():
    a = _flat(
        "clocks x;\nautomaton a\n location l rate 3 goal initial;\n"
        " edge l -> l guard x = 1 reset x;\n"
    )
    assert corner_point_cost(a) == 0


def test_disconnected_goal():
    assert corner_point_cost(load_automaton("unreachable")) == POS_INF


def test_negative_cycle_detection():
    a = _flat(
        "clocks x;\nautomaton a\n location l rate 0 initial;\n location g rate 0 goal;\n"
        " edge l -> l weight -1;\n edge l -> g;\n"
    )
    assert corner_point_cost(a) == NEG_INF


def test_negative_cycle_must_be_coreachable():
    # the negative loop sits on a dead-end branch: optimal cost stays finite
    a = _flat(
        "clocks x;\nautomaton a\n location l rate 0 initial;\n"
        " location trap rate 0;\n location g rate 0 goal;\n"
        " edge l -> trap;\n edge trap -> trap weight -1;\n edge l -> g weight 2;\n"
    )
    assert corner_point_cost(a) == 2


def test_time_divergence_with_negative_rate():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for name in ["negrate", "negreset"]:
            a = load_automaton(name)
            assert corner_point_cost(a) == NEG_INF
            v = explore(a, Config(iteration_cap=1000))
            assert v.cost == NEG_INF


def test_cap_enforced():
    a = load_automaton("als_small")
    with pytest.raises(OracleCapExceeded):
        build_corner_point(a, cap=10)


def test_deadline_enforced():
    a = load_automaton("fig2left")
    with pytest.raises(OracleCapExceeded):
        build_corner_point(a, deadline=time.perf_counter())
    g = build_corner_point(a)
    with pytest.raises(OracleCapExceeded):
        optimal_cost_cp(g, a.goal_locations, deadline=time.perf_counter())


def test_fig2left_shortest_path_value():
    g = build_corner_point(load_automaton("fig2left"))
    a = load_automaton("fig2left")
    assert optimal_cost_cp(g, a.goal_locations) == 11


def test_oracle_matches_explorer_on_random_networks():
    # product views of sync networks, with nonnegative weights so that every
    # exploration terminates; each strategy's cost and witness are checked
    rng = random.Random(20161101)
    eps = F(1, 1000)
    costs = []
    for _ in range(150):
        a = compose(random_network(rng, nonnegative=True))
        expected = corner_point_cost(a, cap=300_000)
        for strategy in ("best", "sbfs"):
            v = explore(a, Config(inclusion="abstract", strategy=strategy, pruning=True))
            assert v.terminated
            assert v.cost == expected
            if v.cost != POS_INF:
                run = extract_witness(a, v.witness_state, eps)
                assert v.cost <= evaluate_run(a, run) <= v.cost + eps
        costs.append(expected)
    assert sum(c != POS_INF for c in costs) >= 60
    assert sum(0 < c < POS_INF for c in costs) >= 15
