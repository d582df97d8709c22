from __future__ import annotations

import json
import warnings
from collections import Counter
from fractions import Fraction as F

import pytest

from conftest import MODELS, landing_network_text, load_automaton
from grid_oracles import fm_minimize, zone_constraints
from zonecost import cli, dbm, explorer, inclusion, priced
from zonecost.dbm import NEG_INF, POS_INF, Zone
from zonecost.explorer import (
    STRATEGIES,
    Config,
    ConfigError,
    WitnessError,
    explore,
    extract_witness,
    symbolic_post,
    _choose_delay,
    _fiber_point,
    _initial_states,
    _pick_point,
)
from zonecost.inclusion import includes
from zonecost.model import Product, compose, evaluate_run, parse_model
from zonecost.priced import AffineCost, PricedZone


def test_symbolic_post_goal_sink_empty():
    a = load_automaton("fig2left")
    (init,) = _initial_states(a)
    # drive to the goal and check it has no successors
    frontier = [init]
    goal_states = []
    seen = 0
    while frontier and seen < 200:
        s = frontier.pop()
        seen += 1
        succ = symbolic_post(a, s)
        for t in succ:
            if t.location in a.goal_locations:
                goal_states.append(t)
            else:
                frontier.append(t)
    assert goal_states
    for g in goal_states:
        assert symbolic_post(a, g) == []


def test_symbolic_post_fig2left_first_step():
    a = load_automaton("fig2left")
    (init,) = _initial_states(a)
    succ = symbolic_post(a, init)
    assert [s.location for s in succ] == ["l1"]
    (s,) = succ
    # entered at y = 0 with x >= 2 paying 5x, constant along the free delay
    assert s.pz.zone.contains({"x": F(5, 2), "y": F(1, 2)})
    assert not s.pz.zone.contains({"x": F(3, 2), "y": 0})
    assert s.pz.cost.evaluate({"x": 3, "y": 1}) == 10  # entered at x - y = 2
    assert s.pz.cost.evaluate({"x": F(7, 2), "y": 0}) == F(35, 2)


def test_symbolic_post_fig2right_family():
    a = load_automaton("fig2right")
    (init,) = _initial_states(a)
    s = init
    for n in range(1, 4):
        succ = [t for t in symbolic_post(a, s) if t.location == "l0"]
        assert len(succ) == 1
        (s,) = succ
        z = s.pz.zone  # y - x <= n and x - y <= -n are both tight
        assert z.implies("y", "x", n, False) and not z.implies("y", "x", n, True)
        assert z.implies("x", "y", -n, False) and not z.implies("x", "y", -n, True)


def test_explore_costs_match_known_values(corpus):
    expected = {
        "fig2left": F(11),
        "fig2right": F(1),
        "fig2right_rate1": F(11),
        "fig7": F(1),
        "ets_small": F(4),
        "als_small": F(2),
        "als_hold": F(1),
        "unreachable": POS_INF,
    }
    for name, cost in expected.items():
        v = explore(corpus[name], Config(strategy="bfs", iteration_cap=50_000))
        assert v.terminated, name
        assert v.cost == cost, name


def test_strategies_agree_on_cost(corpus):
    for name in ["fig2left", "fig2right", "fig7", "ets_small", "als_hold", "als_small",
                 "fig2left_lax", "unreachable"]:
        costs = set()
        for strategy in STRATEGIES:
            v = explore(corpus[name], Config(strategy=strategy, iteration_cap=50_000))
            assert v.terminated
            costs.add(v.cost)
        assert len(costs) == 1


def test_minimum_cost_order_stores_fewer_states(corpus):
    # the CLI's default on als_hold: popping the cheapest state first and
    # stopping at the first that cannot beat the best cost stores 29 states
    # and makes 81 tests, where SBFS stores 45 and makes 171, Waiting tests
    # included
    a = corpus["als_hold"]
    best = explore(a, Config(strategy="best", pruning=True))
    sbfs = explore(a, Config(strategy="sbfs", pruning=True))
    assert best.terminated and best.cost == sbfs.cost == 1
    assert (best.stats.added_to_passed, best.stats.tests) == (29, 81)
    assert (sbfs.stats.added_to_passed, sbfs.stats.tests) == (45, 171)


def test_unknown_strategy_is_rejected(corpus):
    with pytest.raises(ConfigError):
        explore(corpus["fig7"], Config(strategy="astar"))


def test_simple_inclusion_does_not_terminate_on_fig2right(corpus):
    # SBFS, about 1 million tests; under the default minimum-cost order every
    # stored state shares one location's Passed list, and the scan makes
    # about 2 million
    v = explore(corpus["fig2right"], Config(inclusion="simple", strategy="sbfs",
                                            iteration_cap=2_000))
    assert not v.terminated


def test_stats_counters_consistent(corpus):
    v = explore(corpus["ets_small"], Config(strategy="bfs"))
    s = v.stats
    assert s.successful_tests <= s.tests
    assert s.max_stored >= sum(len(x) for x in v.passed.values())
    assert s.added_to_passed <= s.added_to_waiting


def test_passed_is_append_only(corpus):
    # every stored state stays stored, under every strategy, also when a
    # later one includes it, as happens under bfs, dfs or sbfs on fig2left,
    # fig7, ets_small, als_small and als_hold
    for name, a in corpus.items():
        for strategy in STRATEGIES:
            v = explore(a, Config(strategy=strategy, iteration_cap=20_000))
            assert v.terminated, (name, strategy)
            stored = sum(len(states) for states in v.passed.values())
            assert stored == v.stats.added_to_passed, (name, strategy)


def test_minimum_cost_order_stores_inclusions_only_at_equal_mincost(corpus):
    # under best, Passed is append-only: a stored state may be included in a
    # later one, but then both have the same mincost, since best pops in
    # nondecreasing mincost and x ⊑ y implies mincost(y) <= mincost(x)
    models = {name: corpus[name] for name in
              ["als_hold", "als_small", "fig7", "ets_small", "fig2right_rate1"]}
    models["landing3"] = compose(parse_model(landing_network_text(3)))
    ties = 0
    for name, a in models.items():
        m = a.max_constants()
        v = explore(a, Config(strategy="best", iteration_cap=20_000))
        assert v.terminated, name
        for states in v.passed.values():
            for i, s in enumerate(states):
                for t in states[i + 1:]:
                    if includes(s.pz, t.pz, m):
                        assert priced.mincost(s.pz) == priced.mincost(t.pz), name
                        ties += 1
    assert ties > 0  # als_hold stores included states


def test_pruning_and_hint_neutrality(corpus):
    for name in ["fig2left", "ets_small", "als_small"]:
        a = corpus[name]
        base = explore(a, Config(strategy="bfs", pruning=False))
        pruned = explore(a, Config(strategy="bfs", pruning=True))
        hinted = explore(a, Config(strategy="bfs", hint=base.cost + 1))
        exact_hint = explore(a, Config(strategy="bfs", hint=base.cost))
        assert base.cost == pruned.cost == hinted.cost == exact_hint.cost


def test_negative_weights_need_cap_and_warn():
    a = load_automaton("negrate")
    with pytest.raises(ConfigError):
        explore(a, Config(pruning=True))
    with warnings.catch_warnings(record=True) as w:
        warnings.simplefilter("always")
        v = explore(a, Config())
        assert any("negative weights" in str(x.message) for x in w)
    assert v.cost == NEG_INF


def test_minus_infinity_goal(corpus):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for name in ["negrate", "negreset"]:
            v = explore(load_automaton(name), Config(iteration_cap=1000))
            assert v.cost == NEG_INF


def test_time_cap_reports_unterminated(corpus):
    v = explore(corpus["fig2right"], Config(inclusion="simple", time_cap=0.05))
    assert not v.terminated


def test_progress_hook_called(corpus):
    seen = []
    explore(corpus["fig7"], Config(strategy="bfs"), on_progress=lambda n, c: seen.append((n, c)))
    assert seen and seen[0][0] == 1 and seen[0][1] == POS_INF


def test_witness_initial_goal():
    text = "clocks x;\nautomaton a\n location l rate 1 goal initial;\n edge l -> l guard x = 1 reset x;\n"
    a = compose(parse_model(text))
    v = explore(a, Config(strategy="bfs"))
    assert v.cost == 0
    run = extract_witness(a, v.witness_state, F(1, 1000))
    assert run.steps == () and run.trailing_delay == 0
    assert evaluate_run(a, run) == 0


def test_witness_validity_corpus(corpus):
    eps = F(1, 1000)
    for name in ["fig2left", "fig2right", "fig2right_rate1", "fig7", "ets_small",
                 "als_small", "als_hold"]:
        a = corpus[name]
        v = explore(a, Config(strategy="sbfs", iteration_cap=50_000))
        run = extract_witness(a, v.witness_state, eps)
        assert evaluate_run(a, run) <= v.cost + eps


def test_witness_points_stay_integral(monkeypatch, corpus):
    # LP vertices are integral, and these witnesses need no interpolation and
    # no fractional reset fiber, so no point becomes a fraction and no zone
    # is scaled
    points, factors = [], []
    pick = explorer._pick_point
    monkeypatch.setattr(explorer, "_pick_point",
                        lambda *a: points.append(pick(*a)) or points[-1])
    scale = Zone.scale
    monkeypatch.setattr(Zone, "scale", lambda z, f: factors.append(f) or scale(z, f))
    for name in ["als_hold", "als_small", "ets_small", "fig2left", "fig2left_lax",
                 "fig2right", "fig2right_rate1"]:
        a = corpus[name]
        v = explore(a, Config())
        extract_witness(a, v.witness_state, F(1, 1000))
    assert points
    assert [p for p in points if any(type(x) is not int for x in p.values())] == []
    assert factors == []


def test_fiber_point_with_fractional_coordinate():
    # 0 <= x <= 2, 1 < y <= 3, x - y <= 1 at x = 1/2: the zone is scaled by 2,
    # and the cheapest vertex lies on the strict bound y > 1
    zone = Zone.from_constraints(("x", "y"), [
        ("x", None, 2, False), (None, "y", -1, True), ("y", None, 3, False),
        ("x", "y", 1, False)])
    cost = AffineCost.of(("x", "y"), {"x": 2, "y": 1}, 1)
    budget = F(1, 100)
    w = _fiber_point(zone, cost, {"x": F(1, 2)}, budget)
    assert w["x"] == F(1, 2) and zone.contains(w)
    fiber = zone_constraints(zone) + [({"x": F(1)}, F(1, 2), False),
                                      ({"x": F(-1)}, F(-1, 2), False)]
    best = fm_minimize({"x": F(2), "y": F(1)}, F(1), fiber, ["x", "y"])
    assert best == 3
    assert best < cost.evaluate(w) <= best + budget


@pytest.mark.parametrize("rate, cx, budget, expect", [
    (0, 0, F(10), F(3, 2)),  # the interval's middle, from below
    (0, 1, F(10), F(3, 2)),  # the interval's middle, from above
    (3, 0, F(1), F(1, 4)),   # the budget's share, from below
])
def test_strict_delay_is_an_exact_fraction(rate, cx, budget, expect):
    # 1 < x < 4 entered backward from x = 4: delays lie in (0, 3), both ends
    # strict and integral, where (hi - lo) / 2 would make a float
    zone = Zone.from_constraints(("x",), [("x", None, 4, True), (None, "x", -1, True)])
    entry = PricedZone(zone, AffineCost.of(("x",), {"x": cx}))
    t = _choose_delay(entry, rate, {"x": 4}, budget)
    assert type(t) is F and 0 < t < 3
    assert t == expect


def test_witness_for_diverging_cost_raises():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        a = load_automaton("negrate")
        v = explore(a, Config(iteration_cap=100))
    with pytest.raises(ValueError):
        extract_witness(a, v.witness_state, F(1, 1000))
    # past that check, a cost unbounded below is a broken invariant
    halfline = Zone.from_constraints(("x",), [])
    with pytest.raises(WitnessError):
        _pick_point(halfline, AffineCost.of(("x",), {"x": -1}), F(1))


def test_observer_sees_all_tests(corpus):
    pairs = []
    v = explore(
        corpus["fig2right"],
        Config(strategy="bfs"),
        observer=lambda a, b, r: pairs.append((a, b, r)),
    )
    assert len(pairs) == v.stats.tests
    assert sum(1 for _, _, r in pairs if r) == v.stats.successful_tests


def test_each_test_calls_each_traced_inclusion_layer_once(monkeypatch, corpus):
    # the benchmark's tracer counts the inclusion layers at these names, so
    # its counts are the explorer's tests only while each test calls each
    # name exactly once
    calls = Counter()

    def count(owner, name):
        fn = getattr(owner, name)

        def counting(*args):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(owner, name, counting)

    count(explorer, "includes")
    count(explorer, "simple_includes")
    count(inclusion, "unpriced_m_inclusion")
    # the priced layers run only on some tests, but must be reached through
    # the module's names for the tracer to see them at all
    count(inclusion, "s_value")
    count(inclusion, "facet_reduce")
    v = explore(corpus["fig2right"], Config())
    assert v.stats.tests > 0
    assert calls.pop("s_value", 0) >= 1 and calls.pop("facet_reduce", 0) >= 1
    assert calls == {"includes": v.stats.tests, "unpriced_m_inclusion": v.stats.tests}
    calls.clear()
    v = explore(corpus["fig2right"], Config(inclusion="simple", iteration_cap=200))
    assert v.stats.tests > 0
    assert calls == {"simple_includes": v.stats.tests}


def _model_verdicts():
    """Every model in ``models/`` under the default configuration, capped."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # negative-weight models warn about the cap
        for path in sorted(MODELS.glob("*.wta")):
            a = load_automaton(path.stem)
            yield a, explore(a, Config(iteration_cap=5000))


def test_exploration_builds_only_integer_costs(monkeypatch):
    # integer rates and weights keep delay, reset and weight steps integral
    built = []
    init = AffineCost.__init__

    def record(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(AffineCost, "__init__", record)
    verdicts = list(_model_verdicts())
    assert len(verdicts) == len(list(MODELS.glob("*.wta")))
    assert built
    inexact = [c for c in built if any(type(k) is not int for k in (*c.coeffs, c.const))]
    assert inexact == []


def test_verdict_costs_and_run_delays_are_fractions(random_model_results):
    checked = 0
    pairs = list(_model_verdicts()) + [(a, v) for a, v, _ in random_model_results[0]]
    for a, v in pairs:
        if v.cost in (POS_INF, NEG_INF):
            continue
        assert type(v.cost) is F
        run = extract_witness(a, v.witness_state, F(1, 1000))
        delays = [d for d, _ in run.steps] + [run.trailing_delay]
        assert all(type(d) is F for d in delays)
        checked += 1
    assert checked > 0


@pytest.mark.parametrize("name", ["fig2right", "fig2right_rate1", "fig7"])
def test_closed_form_lps_need_no_flow_pass(monkeypatch, name):
    # every LP of these explorations and witnesses is a one-sign objective or
    # c * (x_a - x_b), which sup_affine reads off the canonical matrix
    passes, lps = [], []
    residual = dbm._residual_distances
    monkeypatch.setattr(dbm, "_residual_distances", lambda *a: passes.append(a) or residual(*a))
    for attr in ("sup_affine", "inf_affine"):
        lp = getattr(priced, attr)
        monkeypatch.setattr(priced, attr, lambda *a, lp=lp: lps.append(a) or lp(*a))
    a = load_automaton(name)
    v = explore(a, Config())
    extract_witness(a, v.witness_state, F(1, 1000))
    assert lps and passes == []


def test_one_parent_pieces_need_no_cost_comparison(monkeypatch):
    # on als_small every deduplication of successor pieces and facet pieces
    # has one parent, so zone containment decides it and no piece's cost is
    # compared with another's
    compared = []
    never_costlier = priced._never_costlier
    monkeypatch.setattr(
        priced, "_never_costlier",
        lambda q, p: compared.append((q, p)) or never_costlier(q, p),
    )
    v = explore(load_automaton("als_small"), Config())
    assert v.terminated and v.cost == 2
    assert compared == []


def _untouched(view: Product) -> bool:
    """Moves composed for under 1% of the locations, and no full listing."""
    n_locations = 1
    for a in view.network.automata:
        n_locations *= len(a.locations)
    listed = {"locations", "edges", "goal_locations"} & set(vars(view))
    return 100 * len(view._moves) < n_locations and not listed


def test_six_planes_explored_without_listing_the_product(tmp_path, monkeypatch, capsys):
    # 8,192 product locations and 40,960 product edges, of which a search
    # reaches a few dozen locations
    text = landing_network_text(6)
    a = compose(parse_model(text))
    assert a.edge_count == 40_960
    v = explore(a, Config(pruning=True))
    assert v.cost == 2 and v.terminated
    eps = F(1, 1000)
    run = extract_witness(a, v.witness_state, eps)
    assert 2 <= evaluate_run(a, run) <= 2 + eps
    assert _untouched(a)

    views = []

    def recording_compose(network):
        views.append(compose(network))
        return views[-1]

    monkeypatch.setattr(cli, "compose", recording_compose)
    path = tmp_path / "six_planes.wta"
    path.write_text(text, encoding="utf-8")
    assert cli.main([str(path), "--witness", "1/1000", "--stats", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["stats"]["cost"] == "2"
    assert 2 <= F(report["witness"]["cost"]) <= 2 + eps
    (view,) = views
    assert _untouched(view)
