from __future__ import annotations

import importlib.util
import random
import sys
import time
from pathlib import Path

import pytest

from zonecost.explorer import Config, explore
from zonecost.model import compose, parse_model
from zonecost.oracle import corner_point_cost

ROOT = Path(__file__).resolve().parent.parent
MODELS = ROOT / "models"

CORPUS_NAMES = [
    "fig2left",
    "fig2left_lax",
    "fig2right",
    "fig2right_rate1",
    "fig7",
    "ets_small",
    "als_small",
    "als_hold",
    "unreachable",
]


def load_model(name: str):
    return parse_model((MODELS / f"{name}.wta").read_text(encoding="utf-8"))


def load_automaton(name: str):
    return compose(load_model(name))


def _bench_workloads():
    """The benchmark's model generators (``bench/workloads.py``)."""
    module = sys.modules.get("workloads")
    if module is None:
        spec = importlib.util.spec_from_file_location("workloads", ROOT / "bench" / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules["workloads"] = module  # dataclasses look their module up
        spec.loader.exec_module(module)
    return module


def landing_network_text(n: int) -> str:
    """``n`` planes on one runway (n <= 7), in the shape of the benchmark's
    ``landing`` models: its 4-plane profile, then planes at target offsets 6,
    8 and 10 (early rate 1, late rate 2, late weight 0).  The optimum is 2.
    The product has 2 * 4**n locations."""
    w = _bench_workloads()
    profile = w.LANDING_PROFILES[-1] + ((6, 1, 2, 0), (8, 1, 2, 0), (10, 1, 2, 0))
    planes = tuple(w.Plane(1 + off, 2 + off, 3 + off, early, late, weight)
                   for off, early, late, weight in profile[:n])
    return w.landing_text(planes)


@pytest.fixture(scope="session")
def corpus():
    return {name: load_automaton(name) for name in CORPUS_NAMES}


@pytest.fixture(scope="session")
def random_models():
    """Deterministic random flat automata, filtered to desk-scale instances."""
    from grid_oracles import random_automaton

    rng = random.Random(20160211)
    models = []
    while len(models) < 200:
        a = random_automaton(rng)
        v = explore(a, Config(inclusion="abstract", strategy="bfs", iteration_cap=2500))
        if not v.terminated:
            continue
        models.append(a)
    return models


@pytest.fixture(scope="session")
def random_model_results(random_models):
    """Explorer verdicts and corner-point costs for the random corpus."""
    t0 = time.perf_counter()
    results = []
    for a in random_models:
        v = explore(a, Config(inclusion="abstract", strategy="bfs"))
        c = corner_point_cost(a, cap=300_000)
        results.append((a, v, c))
    elapsed = time.perf_counter() - t0
    return results, elapsed
