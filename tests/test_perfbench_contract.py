"""The benchmark under ``perfbench/`` drives the package from outside: its
tracer wraps functions by module and attribute name, and its workloads
read the learners' results. These tests load its files by path, without
changing them, so that a rename in the package fails here and not only
in a traced benchmark run."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

import localcausal

ROOT = Path(__file__).resolve().parent.parent


def load(name):
    path = ROOT / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


spans = load("spans")
workloads = load("workloads")


@pytest.mark.parametrize("module, attr, span", spans.PATCH_POINTS)
def test_patch_points_resolve(module, attr, span):
    assert callable(getattr(getattr(localcausal, module), attr))


def test_traced_passes_keep_answers_and_gates(tmp_path):
    seed = 1
    kinds = [
        workloads.OracleWorkload("oracle", n_dags=5, nodes=12,
                                 mean_degree=2.0),
        workloads.LearnWorkload("trace", "trace", 500, [0, 5], algo="emb",
                                runs=1),
        workloads.IoWorkload("io", "alarm", 500, tmp_path),
    ]
    untraced = [w.run_pass(w.setup(seed)) for w in kinds]
    originals = [getattr(getattr(localcausal, m), a)
                 for m, a, _ in spans.PATCH_POINTS]
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = [w.run_pass(w.setup(seed), tracer) for w in kinds]
    finally:
        tracer.uninstall()
        kinds[-1].cleanup()

    assert [getattr(getattr(localcausal, m), a)
            for m, a, _ in spans.PATCH_POINTS] == originals
    for before, after in zip(untraced, traced):
        for result in (before, after):
            assert result.attempted > 0
            assert not result.failures and not result.problems
        assert after.digest == before.digest
    # every wrapped name is the one its caller looks up
    assert {name for name, s in tracer.stats.items() if s.calls == 0} == set()

    seconds = sum(r.seconds for r in untraced)
    layer = tracer.layer_metrics(seconds, sum(r.seconds for r in traced),
                                 sum(r.ci_tests for r in untraced))
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert set(layer) == {m["name"] for m in declared}
