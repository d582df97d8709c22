"""Fast end-to-end check of the benchmark itself.

Every workload runs at a tiny size, untraced and traced: its checks must
pass and its report must carry exactly the metric names of BENCHMARK.json.
Run with ``python3 -m pytest bench/test_smoke.py`` or
``python3 bench/test_smoke.py`` from the repository root.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
SMOKE_SEED = 7


def _report(workload: str, trace: int) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run.main(["--workload", workload, "--seed", str(SMOKE_SEED),
                         "--seconds", "0", "--trace", str(trace)], tiny=True)
    assert code == 0
    return json.loads(out.getvalue().strip().splitlines()[-1])


def check_workload(workload: str) -> None:
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        report = _report(workload, trace)
        assert set(report) == {"correct", "attempted", "failed", "metrics"}
        assert report["correct"] is True, report
        assert report["attempted"] >= 1 and report["failed"] == 0, report
        expected = {m["name"]: m["unit"] for m in SPEC[key]}
        got = {name: m["unit"] for name, m in report["metrics"].items()}
        assert got == expected, (workload, trace)
    # the tracer put every patched function back
    from zonecost import explorer, inclusion
    assert explorer.symbolic_post.__module__ == "zonecost.explorer"
    assert inclusion.restrict_y.__module__ == "zonecost.inclusion"


def test_workloads_match_spec():
    assert {w["name"] for w in SPEC["workloads"]} == set(run.workloads.GENERATORS)
    for workload in run.workloads.GENERATORS:
        check_workload(workload)


def test_fails_without_sources():
    """Without the program's sources the benchmark exits nonzero and prints no result."""
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(HERE.parent / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / HERE.name,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        p = subprocess.run(SPEC["command"] + ["--workload", "random", "--seed", "1",
                                              "--seconds", "1", "--trace", "0"],
                           cwd=tmp, capture_output=True, text=True, timeout=60)
    assert p.returncode != 0
    assert p.stdout.strip() == ""


if __name__ == "__main__":
    test_workloads_match_spec()
    test_fails_without_sources()
    print("smoke: ok")
