from __future__ import annotations

from fractions import Fraction as F

import pytest

from conftest import load_automaton, load_model
from zonecost.model import (
    Atom,
    ModelError,
    Run,
    RunError,
    compose,
    evaluate_run,
    max_constants,
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


def test_parse_unknown_clock_errors():
    text = "clocks x;\nautomaton a\n location l rate 0 initial;\n edge l -> l guard z >= 1;\n"
    with pytest.raises(ModelError):
        parse_model(text)


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


def test_max_constants_fig2right():
    a = load_automaton("fig2right")
    assert max_constants(a) == {"x": 1, "y": 10}


def test_max_constants_never_compared():
    text = "clocks x y;\nautomaton a\n location l rate 0 initial;\n edge l -> l guard x <= 2;\n"
    a = compose(parse_model(text))
    assert max_constants(a) == {"x": 2, "y": None}


def test_max_constants_fig4_style_model():
    text = (
        "clocks x y;\n"
        "automaton a\n location l rate 0 goal initial;\n"
        " edge l -> l guard x <= 2 && y <= 3;\n"
    )
    a = compose(parse_model(text))
    assert max_constants(a) == {"x": 2, "y": 3}


def test_max_constants_dominate_every_guard():
    for name in ["fig2left", "als_small", "ets_small"]:
        a = load_automaton(name)
        m = max_constants(a)
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
