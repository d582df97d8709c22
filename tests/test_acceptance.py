"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -v tests/test_acceptance.py` (or `-s` for the explicit
ACCEPTANCE lines).  Tolerances are exact rational comparisons unless a
criterion states otherwise; random corpora are seeded and deterministic.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction as F

import pytest

from conftest import load_automaton
from grid_oracles import brute_includes, random_priced_zone, random_zone, weaken
from zonecost.dbm import NEG_INF, POS_INF, Zone
from zonecost.explorer import STRATEGIES, Config, explore, extract_witness
from zonecost.inclusion import (
    clock_preorder,
    includes,
    s_value,
    simple_includes,
    uniform_bounds,
)
from zonecost.model import Run, evaluate_run
from zonecost.oracle import corner_point_cost
from zonecost.priced import AffineCost, PricedZone

XY = ("x", "y")


def _report(number: int, name: str) -> None:
    print(f"ACCEPTANCE {number:02d} {name}: PASS")


def _edge_index(a, src, dst):
    for i, e in enumerate(a.edges):
        if e.source == src and e.target == dst:
            return i
    raise AssertionError(f"no edge {src}->{dst}")


# -- 1 ------------------------------------------------------------------------


def test_c01_run_cost_semantics():
    a = load_automaton("fig2left_lax")
    run = Run(
        steps=(
            (F(1, 10), _edge_index(a, "l0", "l1")),
            (F(0), _edge_index(a, "l1", "l3")),
            (F(19, 10), _edge_index(a, "l3", "done")),
        )
    )
    assert evaluate_run(a, run) == F(47, 5)  # 5*0.1 + 1*1.9 + 7, exactly
    evaluate_run(a, run)  # warm-up before timing
    # the call's own CPU time: time spent descheduled under load is not the code's
    t0 = time.process_time()
    cost = evaluate_run(a, run)
    elapsed = time.process_time() - t0
    assert cost == F(47, 5)
    assert elapsed < 0.001, f"evaluate_run took {elapsed * 1000:.3f} ms"
    _report(1, "run-cost semantics (exact 47/5, < 1 ms)")


# -- 2 ------------------------------------------------------------------------


def test_c02_inner_suprema():
    zone = Zone.from_constraints(
        XY, [(None, "y", -1, False), ("x", "y", 0, False), ("y", "x", 2, False)]
    )
    m = {"x": 2, "y": 3}
    cells = list(clock_preorder(zone, m).downward_closed_sets())

    flat5 = PricedZone(zone, AffineCost.of(XY, {}, 5))
    sum_cost = PricedZone(zone, AffineCost.of(XY, {"x": 1, "y": 1}))
    values = {frozenset(y): s_value(flat5, sum_cost, y, m) for y in cells}
    assert max(v for v, _ in values.values()) == 0  # sup f = 0 + 5 = 5
    assert values[frozenset(XY)] == (0, {"x": 2, "y": 3})

    flat1 = PricedZone(zone, AffineCost.of(XY, {}, 1))
    skew = PricedZone(zone, AffineCost.of(XY, {"x": 2, "y": -1}))
    values = {frozenset(y): s_value(flat1, skew, y, m) for y in cells}
    assert max(v for v, _ in values.values()) == 1  # sup f = 1 + 1 = 2
    assert values[frozenset(XY)] == (1, {"x": 2, "y": 2})
    _report(2, "inner suprema 5 at (2,3) and 2 at (2,2)")


# -- 3 ------------------------------------------------------------------------


def test_c03_unbounded_clock_termination(corpus):
    a = corpus["fig2right"]
    v = explore(a, Config(inclusion="abstract", strategy="sbfs"))
    assert v.terminated
    assert v.cost == corner_point_cost(a) == 1
    a1 = corpus["fig2right_rate1"]
    v1 = explore(a1, Config(inclusion="abstract", strategy="sbfs"))
    assert v1.terminated
    assert v1.cost == corner_point_cost(a1) == 11  # optimal time 10 plus weight 1
    capped = explore(a, Config(inclusion="simple", strategy="sbfs", iteration_cap=5_000))
    assert not capped.terminated
    _report(3, "unbounded clocks: abstract terminates (1, 11), simple exceeds 5000")


# -- 4 ------------------------------------------------------------------------


def test_c04_oracle_equivalence(random_model_results):
    results, elapsed = random_model_results
    assert len(results) >= 200
    for a, verdict, oracle_cost in results:
        assert verdict.terminated
        assert verdict.cost == oracle_cost
    assert elapsed < 60, f"oracle-equivalence corpus took {elapsed:.1f} s"
    _report(4, f"explorer == corner-point on {len(results)} random automata "
               f"({elapsed:.1f} s)")


# -- 5 ------------------------------------------------------------------------


@pytest.fixture(scope="session")
def random_pairs():
    rng = random.Random(777)
    pairs = []
    for _ in range(500):
        a = random_priced_zone(rng, XY, 4)
        b = random_priced_zone(rng, XY, 4)
        m = {"x": rng.randint(0, 4), "y": rng.randint(0, 4)}
        pairs.append((a, b, m))
    return pairs


def test_c05_inclusion_oracle_equivalence(random_pairs):
    assert len(random_pairs) >= 500
    for a, b, m in random_pairs:
        assert includes(a, b, m) == brute_includes(a, b, m)
    _report(5, f"includes == integral-point oracle on {len(random_pairs)} pairs")


# -- 6 ------------------------------------------------------------------------


def test_c06_dominance(corpus):
    # simple implies abstract on every pair compared during exploration
    violations = 0
    compared = 0
    configs = [
        Config(inclusion="abstract", strategy="sbfs", pruning=True),
        Config(inclusion="abstract", strategy="bfs"),
        Config(inclusion="abstract", strategy="dfs", iteration_cap=3_000),
    ]
    for name in ["fig2right", "fig2left", "fig7", "ets_small", "als_small", "als_hold"]:
        a = corpus[name]
        m = a.max_constants()
        for cfg in configs:
            pairs = []
            explore(a, cfg, observer=lambda x, y, r: pairs.append((x, y, r)))
            for x, y, r in pairs:
                compared += 1
                if simple_includes(x, y) and not r:
                    violations += 1
    assert compared > 500 and violations == 0

    # passed-state counts: abstract never worse under SBFS+P, costs equal
    for name, simple_cap in [("ets_small", None), ("als_small", None),
                             ("als_hold", 2_500)]:
        a = corpus[name]
        va = explore(a, Config(inclusion="abstract", strategy="sbfs", pruning=True))
        vs = explore(
            a,
            Config(inclusion="simple", strategy="sbfs", pruning=True,
                   iteration_cap=simple_cap),
        )
        assert va.terminated
        assert va.stats.added_to_passed <= vs.stats.added_to_passed, name
        assert va.cost == vs.cost, name
    _report(6, f"simple => abstract on {compared} explored pairs; "
               "passed(abstract) <= passed(simple) under SBFS+P")


# -- 7 ------------------------------------------------------------------------


def test_c07_preorder_laws():
    rng = random.Random(4242)
    for _ in range(1000):
        pz = random_priced_zone(rng, XY, 4)
        m = {"x": rng.randint(0, 4), "y": rng.randint(0, 4)}
        assert includes(pz, pz, m)
    for _ in range(1000):
        a = random_priced_zone(rng, XY, 4)
        m = {"x": rng.randint(0, 4), "y": rng.randint(0, 4)}
        b = weaken(rng, a)
        c = weaken(rng, b)
        assert includes(a, b, m) and includes(b, c, m)  # premises by construction
        assert includes(a, c, m)
    _report(7, "reflexivity (1000) and transitivity (1000 weakened triples)")


# -- 8 ------------------------------------------------------------------------


def test_c08_relaxation():
    rng = random.Random(99)
    # unbounded-below left cost against a lower-bounded right cost: never included
    for _ in range(200):
        zl = random_zone(rng, XY, 4).up()  # guarantee an unbounded direction
        drop = AffineCost.of(XY, {"x": -1, "y": -1}, rng.randint(-3, 3))
        left = PricedZone(zl, drop)
        from zonecost.priced import is_lower_bounded

        assert not is_lower_bounded(left)
        zr = random_zone(rng, XY, 4)
        right = PricedZone(zr, AffineCost.of(XY, {"x": rng.randint(0, 2)}, 0))
        if not is_lower_bounded(right):
            continue
        m = {"x": rng.randint(0, 4), "y": rng.randint(0, 4)}
        assert not includes(left, right, m)

    # cells whose right-hand cost is unbounded below always pass
    for _ in range(200):
        mx = rng.randint(0, 3)
        m = {"x": mx, "y": rng.randint(0, 3)}
        beyond = Zone.universal(XY).intersect(
            [(None, "x", -(mx + rng.randint(1, 2)), True),
             (None, "y", -(m["y"] + 1), True)]
        )
        left = PricedZone(beyond, AffineCost.of(XY, {"x": rng.randint(-2, 2)},
                                                rng.randint(-1000, 0)))
        right = PricedZone(
            Zone.universal(XY).intersect([(None, "y", -(m["y"] + 1), True)]),
            AffineCost.of(XY, {"x": -1}),  # dives along the unbounded clock
        )
        assert includes(left, right, m)
    _report(8, "relaxation: diverging left never included, diverging right cells pass")


# -- 9 ------------------------------------------------------------------------


def test_c09_uniform_bound_underapproximation(random_pairs, random_model_results):
    implications = 0
    for a, b, m in random_pairs:
        if includes(a, b, uniform_bounds(m)):
            implications += 1
            assert includes(a, b, m)
    assert implications > 0
    results, _ = random_model_results
    for a, verdict, _ in results:
        vu = explore(a, Config(strategy="bfs", uniform_m=True))
        assert vu.terminated and vu.cost == verdict.cost
    for name in ["fig2left", "fig2right", "fig7", "ets_small", "als_small", "als_hold"]:
        a = load_automaton(name)
        v = explore(a, Config(strategy="bfs"))
        vu = explore(a, Config(strategy="bfs", uniform_m=True))
        assert v.cost == vu.cost
    _report(9, f"uniform-bound inclusion implies exact ({implications} hits); "
               "explorer costs unchanged under --uniform-m")


# -- 10 -----------------------------------------------------------------------


def test_c10_best_time_regression(corpus):
    a = corpus["fig7"]
    for inclusion in ("abstract", "simple"):
        for strategy in STRATEGIES:
            v = explore(a, Config(inclusion=inclusion, strategy=strategy))
            assert v.terminated
            assert v.cost == 1, (inclusion, strategy)
    _report(10, "one-clock best-time regression: cost exactly 1 in all 8 modes")


# -- 11 -----------------------------------------------------------------------


def test_c11_pruning_neutrality(random_model_results, corpus):
    results, _ = random_model_results
    for a, verdict, _ in results:
        # "best" stops at the first state that cannot beat the cost or hint
        for strategy in ("bfs", "best"):
            pruned = explore(a, Config(strategy=strategy, pruning=True))
            assert pruned.cost == verdict.cost
            if verdict.cost != POS_INF:
                hinted = explore(a, Config(strategy=strategy, hint=verdict.cost))
                assert hinted.cost == verdict.cost
                loose = explore(a, Config(strategy=strategy, hint=verdict.cost + 3))
                assert loose.cost == verdict.cost
    for name in ["fig2left", "ets_small", "als_small"]:
        a = corpus[name]
        base = explore(a, Config(strategy="bfs", pruning=False))
        for strategy in ("bfs", "best"):
            assert explore(a, Config(strategy=strategy, pruning=True)).cost == base.cost
            assert explore(a, Config(strategy=strategy, hint=base.cost)).cost == base.cost
    _report(11, "pruning and valid hints never change the cost")


# -- 12 -----------------------------------------------------------------------


def test_c12_witness_validity(random_model_results, corpus):
    eps = F(1, 1000)
    checked = 0
    results, _ = random_model_results
    for a, verdict, _ in results:
        if not verdict.terminated or verdict.cost in (POS_INF, NEG_INF):
            continue
        run = extract_witness(a, verdict.witness_state, eps)
        assert evaluate_run(a, run) <= verdict.cost + eps
        checked += 1
    for name in ["fig2left", "fig2right", "fig2right_rate1", "fig7", "ets_small",
                 "als_small", "als_hold"]:
        a = corpus[name]
        for strategy in STRATEGIES:
            v = explore(a, Config(strategy=strategy))
            run = extract_witness(a, v.witness_state, eps)
            assert evaluate_run(a, run) <= v.cost + eps
            checked += 1
    assert checked > 0
    _report(12, f"{checked} extracted runs within 1/1000 of the reported cost")
