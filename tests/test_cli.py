from __future__ import annotations

import json

import pytest

from conftest import MODELS
from zonecost.cli import main

STATS_KEYS = {
    "added_to_waiting",
    "added_to_passed",
    "max_stored",
    "tests",
    "successful_tests",
    "wall_time_ms",
    "cost",
    "terminated",
}


def _run(capsys, *args) -> tuple[int, str]:
    code = main([str(a) for a in args])
    out = capsys.readouterr().out
    return code, out


def test_abstract_run_text(capsys):
    code, out = _run(capsys, MODELS / "fig2right.wta", "--inclusion", "abstract")
    assert code == 0
    assert "cost             1" in out
    assert "terminated       true" in out


def test_simple_run_hits_cap(capsys):
    code, out = _run(
        capsys, MODELS / "fig2right.wta", "--inclusion", "simple", "--cap", "800",
        "--stats", "json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["stats"]["terminated"] is False


def test_json_stats_schema(capsys):
    code, out = _run(capsys, MODELS / "ets_small.wta", "--stats", "json")
    assert code == 0
    report = json.loads(out)
    assert set(report["stats"].keys()) == STATS_KEYS
    assert report["stats"]["cost"] == "4"


def test_oracle_flag(capsys):
    code, out = _run(capsys, MODELS / "fig2left.wta", "--oracle", "--stats", "json")
    assert code == 0
    report = json.loads(out)
    assert report["stats"]["cost"] == "11"
    assert report["oracle"] == {"cost": "11", "agrees": True}


def test_oracle_honours_timeout(capsys):
    code, out = _run(
        capsys, MODELS / "fig2left.wta", "--oracle", "--timeout", "0", "--stats", "json"
    )
    assert code == 0
    oracle = json.loads(out)["oracle"]
    assert oracle["cost"] is None and oracle["agrees"] is None
    assert "deadline" in oracle["error"]


def test_witness_flag(capsys):
    code, out = _run(
        capsys, MODELS / "fig2left.wta", "--witness", "1/1000", "--stats", "json"
    )
    report = json.loads(out)
    from fractions import Fraction

    assert Fraction(report["witness"]["cost"]) <= Fraction(11) + Fraction(1, 1000)


def test_witness_absent_when_unreachable(capsys):
    code, out = _run(
        capsys, MODELS / "unreachable.wta", "--witness", "1/1000", "--stats", "json"
    )
    assert code == 0
    report = json.loads(out)
    assert report["stats"]["cost"] == "inf"
    assert report["witness"] is None


def test_parse_error_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.wta"
    bad.write_text("clocks x;\nautomaton a\n location l rate 0 initial;\n edge l -> l guard x >= -3;\n")
    code = main([str(bad)])
    err = capsys.readouterr().err
    assert code == 1
    assert "line 4" in err


def test_missing_file_exit_1(tmp_path, capsys):
    code = main([str(tmp_path / "nope.wta")])
    assert code == 1


def test_option_conflict_exit_2(capsys):
    code = main([str(MODELS / "negrate.wta"), "--prune"])
    err = capsys.readouterr().err
    assert code == 2
    assert "negative" in err


@pytest.mark.parametrize("option, value", [
    ("--witness", "0"), ("--witness", "-1/2"), ("--cap", "-3"), ("--timeout", "-0.5"),
])
def test_invalid_option_value_exit_2(capsys, option, value):
    # rejected while parsing the options, before the model is read or explored
    with pytest.raises(SystemExit) as e:
        main([str(MODELS / "fig2left.wta"), option, value])
    captured = capsys.readouterr()
    assert e.value.code == 2
    assert option in captured.err
    assert captured.out == ""


def test_negative_weights_auto_disable_prune(recwarn, capsys):
    code, out = _run(capsys, MODELS / "negrate.wta", "--cap", "1000", "--stats", "json")
    assert code == 0
    report = json.loads(out)
    assert report["stats"]["cost"] == "-inf"


def test_determinism_modulo_wall_time(capsys):
    reports = []
    for _ in range(2):
        code, out = _run(
            capsys, MODELS / "als_small.wta", "--stats", "json", "--witness", "1/100"
        )
        assert code == 0
        r = json.loads(out)
        r["stats"].pop("wall_time_ms")
        reports.append(r)
    assert reports[0] == reports[1]


def test_progress_lines(capsys):
    code = main([str(MODELS / "fig2right.wta"), "--inclusion", "simple",
                 "--cap", "1200", "--progress"])
    captured = capsys.readouterr()
    assert code == 0
    lines = [l for l in captured.err.splitlines() if l.startswith("progress ")]
    assert lines
    assert all("cost=" in l and "popped=" in l for l in lines)
