from __future__ import annotations

import random
import re
from fractions import Fraction as F

import pytest

from conftest import MODELS, landing_network_text, load_automaton, load_model
from grid_oracles import eager_product, random_automaton, random_network
from zonecost.model import (
    Atom,
    Automaton,
    Edge,
    Location,
    ModelError,
    Network,
    Product,
    Run,
    RunError,
    compose,
    evaluate_run,
    parse_model,
    serialize_model,
)


def test_parse_fig2left_shape():
    net = load_model("fig2left")
    (a,) = net.automata
    assert len(a.locations) == 5
    assert len(a.edges) == 5
    assert [l.rate for l in a.locations] == [5, 0, 10, 1, 0]
    assert a.initial == "l0"
    assert a.goal_locations == {"done"}


def test_parse_empty_text_errors():
    with pytest.raises(ModelError):
        parse_model("")


def test_parse_negative_guard_constant_errors():
    text = "clocks x;\nautomaton a\n location l rate 0 initial;\n edge l -> l guard x >= -1;\n"
    with pytest.raises(ModelError) as e:
        parse_model(text)
    assert "line 4" in str(e.value)


def test_parse_guard_constants_below_the_dbm_limit():
    # a canonical DBM entry sums up to n constants, so (n + 1) * c must stay
    # below the encoded infinity's value 2**60
    def text(c):
        return f"clocks x y;\nautomaton a\n location l rate 0 initial;\n edge l -> l guard y <= {c};\n"

    limit = -(-(1 << 60) // 3)
    assert parse_model(text(limit - 1)).automata[0].edges[0].guard[0].const == limit - 1
    with pytest.raises(ModelError) as e:
        parse_model(text(limit))
    assert "line 4" in str(e.value)


def test_code_built_constants_below_the_dbm_limit():
    # the parser's limit holds for an automaton built in code: at 2**61 the
    # invariant's encoded bound passed the DBM's infinity and was dropped, so
    # the unreachable goal was reported at cost 5
    def automaton(inv, guard):
        return Automaton(
            "A", ("x",),
            (Location("l0", 0, (Atom("x", "<=", inv),), initial=True),
             Location("l1", 0, goal=True)),
            (Edge("l0", "l1", (Atom("x", ">=", guard),), weight=5),),
        )

    limit = 1 << 59  # (1 + 1) * c < 2**60
    automaton(limit - 1, limit - 1)
    for inv, guard in [(1 << 61, (1 << 61) + 1), (limit, 0), (0, limit)]:
        with pytest.raises(ModelError):
            automaton(inv, guard)


def test_parse_unknown_clock_errors():
    text = "clocks x;\nautomaton a\n location l rate 0 initial;\n edge l -> l guard z >= 1;\n"
    with pytest.raises(ModelError):
        parse_model(text)


_HEAD = "clocks x y;\nautomaton a\n location l rate 0 initial;\n"


@pytest.mark.parametrize("text, line, message", [
    pytest.param(_HEAD + " edge l -> l guard z >= 1;\n", 4, "unknown clock 'z'", id="guard-clock"),
    pytest.param("clocks x;\nautomaton a\n location l rate 0 invariant z <= 1 initial;\n",
                 3, "unknown clock 'z'", id="invariant-clock"),
    pytest.param(_HEAD + " edge l -> l reset x,w;\n", 4, "unknown clock 'w' in reset",
                 id="reset-clock"),
    pytest.param(_HEAD + " edge l -> l\n   guard x >= 1\n   reset w;\n", 4,
                 "unknown clock 'w' in reset", id="statement-over-three-lines"),
    pytest.param(_HEAD + " edge l -> l9;\n", 4, "unknown location 'l9'", id="edge-target"),
    pytest.param(_HEAD + " edge l8 -> l;\n", 4, "unknown location 'l8'", id="edge-source"),
    pytest.param(_HEAD + " location l rate 1;\n", 4, "duplicate location 'l'",
                 id="duplicate-location"),
    pytest.param("clocks x y x;\nautomaton a\n location l rate 0 initial;\n", 1,
                 "duplicate clock 'x'", id="duplicate-clock"),
    pytest.param(_HEAD + " edge l -> l guard x >= -1;\n", 4,
                 "guard constant must be a natural number, got -1", id="negative-constant"),
    pytest.param(_HEAD + " edge l -> l guard y <= 384307168202282326;\n", 4,
                 "guard constant 384307168202282326 too large: (clocks + 1) * c must be < 2**60",
                 id="constant-at-dbm-limit"),
    pytest.param("clocks x;\n", 1, "no automaton declared", id="no-automaton"),
])
def test_parse_errors_name_the_statement_line(text, line, message):
    # the constructors check these rules; the parser only adds the line
    with pytest.raises(ModelError) as e:
        parse_model(text)
    assert e.value.line == line
    assert str(e.value) == f"line {line}: {message}"


@pytest.mark.parametrize("text, message", [
    pytest.param("clocks x;\nautomaton a\n location l rate 0 initial;\n edge l -> l sync c!;\n",
                 "channel 'c' has no matching ?-edge", id="unmatched-channel"),
    pytest.param("clocks x;\n"
                 "automaton a\n location l rate 0 initial;\n edge l -> l guard x >= 1 sync c!;\n"
                 "automaton b\n location k rate 0 initial;\n edge k -> k guard x <= 1 sync c?;\n",
                 "clock 'x' used by both 'a' and 'b'", id="shared-clock"),
    pytest.param("clocks x;\nautomaton a\n location l rate 0;\n"
                 "automaton b\n location k rate 0 initial;\n",
                 "automaton a: needs exactly one initial location", id="no-initial-location"),
])
def test_parse_errors_of_a_whole_automaton_or_network_name_no_line(text, message):
    with pytest.raises(ModelError) as e:
        parse_model(text)
    assert e.value.line is None
    assert str(e.value) == message


def test_parse_dangling_channel_errors():
    text = (
        "clocks x;\n"
        "automaton a\n location l rate 0 initial;\n edge l -> l sync c!;\n"
    )
    with pytest.raises(ModelError) as e:
        parse_model(text)
    assert "channel" in str(e.value)


def test_parse_shared_clock_across_components_errors():
    text = (
        "clocks x;\n"
        "automaton a\n location l rate 0 initial;\n edge l -> l guard x >= 1 sync c!;\n"
        "automaton b\n location k rate 0 initial;\n edge k -> k guard x <= 1 sync c?;\n"
    )
    with pytest.raises(ModelError):
        parse_model(text)


def test_parse_model_without_clocks_errors():
    text = (
        "automaton a\n location l rate -1 initial;\n location g rate 0 goal;\n"
        " edge l -> g weight 3;\n"
    )
    with pytest.raises(ModelError) as e:
        parse_model(text)
    assert "at least one clock" in str(e.value)


def test_roundtrip_corpus():
    for name in ["fig2left", "fig2right", "fig7", "als_small", "ets_small", "negrate"]:
        net = load_model(name)
        assert parse_model(serialize_model(net)) == net


def test_compose_single_automaton_identity():
    net = load_model("fig2left")
    assert compose(net) == net.automata[0]


def test_compose_rates_add():
    text = (
        "clocks x y;\n"
        "automaton a\n location l rate 2 initial;\n edge l -> l guard x >= 1 sync c!;\n"
        "automaton b\n location k rate 3 initial;\n edge k -> k guard y >= 1 sync c?;\n"
    )
    a = compose(parse_model(text))
    assert len(a.locations) == 1
    assert a.locations[0].rate == 5
    assert len(a.edges) == 1  # the handshake
    assert a.edges[0].weight == 0


def test_compose_product_counts():
    net = load_model("als_small")
    sizes = [len(a.locations) for a in net.automata]
    product = compose(net)
    assert len(product.locations) == sizes[0] * sizes[1] * sizes[2]
    # goals: both planes at done, runway (no goals of its own) free or busy
    assert len(product.goal_locations) == 2
    assert all("done1" in g and "done2" in g for g in product.goal_locations)


def test_compose_edge_order():
    # product locations in itertools.product order; within one, component by
    # component, edges in declaration order, each !-edge followed by its
    # ?-partners (partner components in order, their edges in declaration order)
    text = (
        "clocks x;\n"
        "automaton A\n"
        " location a0 rate 1 initial;\n location a1 rate 0;\n"
        " edge a0 -> a1 guard x >= 1 weight 1;\n"
        " edge a0 -> a0 weight 2 sync go!;\n"
        " edge a1 -> a0 weight 3;\n"
        "automaton B\n"
        " location b0 rate 1 initial;\n location b1 rate 0 goal;\n"
        " edge b0 -> b1 weight 10 sync go?;\n"
        " edge b0 -> b0 weight 20;\n"
        " edge b0 -> b1 weight 30 sync go?;\n"
        "automaton C\n"
        " location c0 rate 0 initial;\n location c1 rate 0;\n"
        " edge c0 -> c1 weight 100 sync go?;\n"
        " edge c1 -> c0 weight 200;\n"
    )
    a = compose(parse_model(text))
    assert [l.name for l in a.locations] == [
        "a0,b0,c0", "a0,b0,c1", "a0,b1,c0", "a0,b1,c1",
        "a1,b0,c0", "a1,b0,c1", "a1,b1,c0", "a1,b1,c1",
    ]
    assert [(e.source, e.target, e.weight) for e in a.edges] == [
        ("a0,b0,c0", "a1,b0,c0", 1),
        ("a0,b0,c0", "a0,b1,c0", 12),
        ("a0,b0,c0", "a0,b1,c0", 32),
        ("a0,b0,c0", "a0,b0,c1", 102),
        ("a0,b0,c0", "a0,b0,c0", 20),
        ("a0,b0,c1", "a1,b0,c1", 1),
        ("a0,b0,c1", "a0,b1,c1", 12),
        ("a0,b0,c1", "a0,b1,c1", 32),
        ("a0,b0,c1", "a0,b0,c1", 20),
        ("a0,b0,c1", "a0,b0,c0", 200),
        ("a0,b1,c0", "a1,b1,c0", 1),
        ("a0,b1,c0", "a0,b1,c1", 102),
        ("a0,b1,c1", "a1,b1,c1", 1),
        ("a0,b1,c1", "a0,b1,c0", 200),
        ("a1,b0,c0", "a0,b0,c0", 3),
        ("a1,b0,c0", "a1,b0,c0", 20),
        ("a1,b0,c1", "a0,b0,c1", 3),
        ("a1,b0,c1", "a1,b0,c1", 20),
        ("a1,b0,c1", "a1,b0,c0", 200),
        ("a1,b1,c0", "a0,b1,c0", 3),
        ("a1,b1,c1", "a0,b1,c1", 3),
        ("a1,b1,c1", "a1,b1,c0", 200),
    ]
    assert a.edges[0].guard == (Atom("x", ">=", 1),)


def _assert_view_matches_eager_product(net, rng):
    ref = eager_product(net)
    view = compose(net)
    # a fresh view answers each location on its own, in any order
    assert view.max_constants() == ref.max_constants()
    assert view.min_weight() == ref.min_weight()
    assert view.edge_count == len(ref.edges)
    assert view.initial == ref.initial
    expected = {l.name: [] for l in ref.locations}
    for i, e in enumerate(ref.edges):
        expected[e.source].append((i, e))
    for name in rng.sample(sorted(expected), len(expected)):
        assert list(view.leaving(name)) == expected[name]
        assert view.location(name) == ref.location(name)  # goal and initial flags too
    assert view.locations == ref.locations
    assert view.edges == ref.edges
    assert view.goal_locations == ref.goal_locations
    return view


def test_product_view_matches_eager_product():
    rng = random.Random(20160211)
    views = [_assert_view_matches_eager_product(random_network(rng), rng) for _ in range(250)]
    # the corpus exercises what it is meant to: handshakes across and within
    # components, negative rates and weights, edges a channel leaves unpaired
    assert all(isinstance(v, Product) for v in views)
    assert sum(v.min_weight() < 0 for v in views) > 100
    assert sum(v.edge_count == 0 for v in views) < 25
    within = across = unpaired = 0
    for v in views:
        ends: dict[str, tuple[set, set]] = {}
        for i, a in enumerate(v.network.automata):
            for e in a.edges:
                if e.sync is not None:
                    ends.setdefault(e.sync[0], (set(), set()))[e.sync[1] == "?"].add(i)
        for senders, receivers in ends.values():
            paired = any(i != j for i in senders for j in receivers)
            within += bool(senders & receivers)
            across += paired
            unpaired += not paired
    assert min(within, across, unpaired) > 50
    for path in sorted(MODELS.glob("*.wta")):
        _assert_view_matches_eager_product(parse_model(path.read_text(encoding="utf-8")), rng)
    for n in range(2, 6):
        view = _assert_view_matches_eager_product(parse_model(landing_network_text(n)), rng)
        assert len(view.locations) == 2 * 4 ** n


def test_product_location_rejects_unknown_names():
    a = load_automaton("als_small")
    assert isinstance(a, Product)
    assert a.location("appr1,appr2,free").initial
    for name in ("nowhere", "appr1,appr2", "appr1,appr2,free,free", "appr1,appr2,nowhere",
                 "appr2,appr1,free", ""):
        with pytest.raises(KeyError):
            a.location(name)
        with pytest.raises(KeyError):
            a.leaving(name)


def test_evaluate_run_on_a_product_rejects_foreign_edges():
    a = load_automaton("als_small")
    for index in (-1, a.edge_count, a.edge_count + 5):
        with pytest.raises(RunError, match=f"no edge {index}"):
            evaluate_run(a, Run(steps=((F(1), index),)))
    elsewhere = a.leaving("early1,early2,busy")[0][0]
    with pytest.raises(RunError, match=f"edge {elsewhere} does not leave appr1,appr2,free"):
        evaluate_run(a, Run(steps=((F(1), elsewhere),)))
    assert "edges" not in vars(a)


def test_leaving_and_location_agree_with_a_scan():
    rng = random.Random(20160211)
    automata = [compose(parse_model(p.read_text(encoding="utf-8")))
                for p in sorted(MODELS.glob("*.wta"))]
    automata += [random_automaton(rng) for _ in range(50)]
    for a in automata:
        for l in a.locations:
            assert list(a.leaving(l.name)) == [
                (i, e) for i, e in enumerate(a.edges) if e.source == l.name
            ]
            assert a.location(l.name).name == l.name


def test_location_lookup_edge_cases():
    a = load_automaton("fig2left")
    with pytest.raises(KeyError):
        a.location("nowhere")
    assert a.leaving("done") == ()


def test_duplicate_location_names_rejected():
    # automata built without the parser (compose, random_automaton) get the
    # check too; a map by name would otherwise keep the last of the two
    with pytest.raises(ModelError, match="duplicate location"):
        Automaton("a", ("x",), (Location("l", 0, initial=True), Location("l", 1)), ())


def _two_locations(edge, clocks=("x",), invariant=(), name="a"):
    return Automaton(name, clocks, (Location("l0", 0, invariant, initial=True),
                                    Location("l1", 0, goal=True)), (edge,))


@pytest.mark.parametrize("build, message", [
    pytest.param(lambda: _two_locations(Edge("l0", "l1", (Atom("z", ">=", 1),))),
                 "unknown clock 'z'", id="guard-clock"),
    pytest.param(lambda: _two_locations(Edge("l0", "l1"), invariant=(Atom("z", "<=", 1),)),
                 "unknown clock 'z'", id="invariant-clock"),
    pytest.param(lambda: _two_locations(Edge("l0", "l9")), "unknown location 'l9'",
                 id="edge-target"),
    pytest.param(lambda: _two_locations(Edge("l0", "l1", (), ("w",), 5)),
                 "unknown clock 'w' in reset", id="reset-clock"),
    pytest.param(lambda: _two_locations(Edge("l0", "l1"), clocks=("x", "x")),
                 "duplicate clock names", id="duplicate-clock"),
    pytest.param(lambda: Network((_two_locations(Edge("l0", "l1", sync=("c", "!"))),), ("x",)),
                 "channel 'c' has no matching ?-edge", id="unmatched-channel"),
    pytest.param(lambda: _two_locations(Edge("l0", "l1", sync=("c", "x"))),
                 "sync polarity 'x' on channel 'c' is neither '!' nor '?'", id="sync-polarity"),
    pytest.param(lambda: Network((
        _two_locations(Edge("l0", "l1", (Atom("x", ">=", 1),), sync=("c", "!")), ("x", "y")),
        _two_locations(Edge("l0", "l1", (Atom("x", "<=", 1),), sync=("c", "?")), ("x", "y"),
                       name="b"),
    ), ("x", "y")), "clock 'x' used by both 'a' and 'b'", id="shared-clock"),
    pytest.param(lambda: Network((
        _two_locations(Edge("l0", "l1", (Atom("x", ">=", 1),)), ("x", "y")),
        _two_locations(Edge("l0", "l1", (), ("x",)), ("x", "y")),
    ), ("x", "y")), "clock 'x' used by both 'a' and 'a'", id="shared-clock-same-name"),
    pytest.param(lambda: Network((_two_locations(Edge("l0", "l1"), clocks=("y",)),), ("x",)),
                 "are not the network's", id="component-clocks"),
    pytest.param(lambda: Network((), ("x",)), "at least one automaton", id="empty-network"),
    pytest.param(lambda: Network((
        Automaton("a", ("x",), (Location("p,q", 0, initial=True),), ()),
        _two_locations(Edge("l0", "l1"), name="b"),
    ), ("x",)), "location name 'p,q' contains ','", id="comma-in-location"),
])
def test_code_built_models_are_checked_at_construction(build, message):
    # the constructors check every rule the parser does, so none of these
    # reaches explore, where each gave a KeyError or a wrong cost
    with pytest.raises(ModelError, match=re.escape(message)) as e:
        build()
    assert e.value.line is None


def test_max_constants_fig2right():
    a = load_automaton("fig2right")
    assert a.max_constants() == {"x": 1, "y": 10}


def test_max_constants_never_compared():
    text = "clocks x y;\nautomaton a\n location l rate 0 initial;\n edge l -> l guard x <= 2;\n"
    a = compose(parse_model(text))
    assert a.max_constants() == {"x": 2, "y": None}


def test_max_constants_fig4_style_model():
    text = (
        "clocks x y;\n"
        "automaton a\n location l rate 0 goal initial;\n"
        " edge l -> l guard x <= 2 && y <= 3;\n"
    )
    a = compose(parse_model(text))
    assert a.max_constants() == {"x": 2, "y": 3}


def test_max_constants_dominate_every_guard():
    for name in ["fig2left", "als_small", "ets_small"]:
        a = load_automaton(name)
        m = a.max_constants()
        for e in a.edges:
            for atom in e.guard:
                assert m[atom.clock] is not None and m[atom.clock] >= atom.const
        for l in a.locations:
            for atom in l.invariant:
                assert m[atom.clock] >= atom.const


def _edge_index(a, src, dst):
    for i, e in enumerate(a.edges):
        if e.source == src and e.target == dst:
            return i
    raise AssertionError(f"no edge {src}->{dst}")


def test_evaluate_run_example_cost():
    # delay 0.1 at rate 5, cross to the rate-1 branch, delay 1.9, pay +7
    a = load_automaton("fig2left_lax")
    run = Run(
        steps=(
            (F(1, 10), _edge_index(a, "l0", "l1")),
            (F(0), _edge_index(a, "l1", "l3")),
            (F(19, 10), _edge_index(a, "l3", "done")),
        )
    )
    assert evaluate_run(a, run) == F(47, 5)


def test_evaluate_run_zero():
    a = load_automaton("ets_small")
    assert evaluate_run(a, Run(steps=())) == 0


def test_evaluate_run_fig2right_nine_loops():
    a = load_automaton("fig2right")
    loop = _edge_index(a, "l0", "l0")
    final = _edge_index(a, "l0", "done")
    steps = tuple((F(1), loop) for _ in range(9)) + ((F(1), final),)
    assert evaluate_run(a, Run(steps=steps)) == 1


def test_evaluate_run_guard_violation_reports_step():
    a = load_automaton("fig2left")
    run = Run(steps=((F(1, 10), _edge_index(a, "l0", "l1")),))
    with pytest.raises(RunError) as e:
        evaluate_run(a, run)
    assert e.value.step == 1


def test_evaluate_run_invariant_violation():
    a = load_automaton("ets_small")
    run = Run(
        steps=((F(0), _edge_index(a, "start", "a_fast")),),
        trailing_delay=F(3, 2),
    )
    with pytest.raises(RunError):
        evaluate_run(a, run)


def test_evaluate_run_rejects_edge_index_out_of_range():
    a = compose(parse_model(
        "clocks x;\nautomaton a\n  location l rate 1 initial;\n  edge l -> l;\n"
    ))
    assert len(a.edges) == 1
    assert evaluate_run(a, Run(steps=((F(1), 0),))) == 1
    for index in (-1, 1, 99):
        with pytest.raises(RunError) as e:
            evaluate_run(a, Run(steps=((F(1), index),)))
        assert e.value.step == 1


def test_atom_str_and_holds():
    atom = Atom("x", ">=", 2)
    assert str(atom) == "x >= 2"
    assert atom.holds({"x": F(2)})
    assert not atom.holds({"x": F(3, 2)})


@pytest.mark.parametrize("op, const", [
    ("!=", 1), ("==", 1), ("<", 1.5), ("<=", F(1)), (">=", -1), ("=", True),
])
def test_atom_rejects_unknown_operator_or_constant(op, const):
    # an unknown operator was read as "=" by the explorer and raised KeyError
    # in holds; a float constant failed only inside the DBM encoding
    with pytest.raises(ModelError):
        Atom("x", op, const)
