"""The benchmark's tracer still finds and counts the tree models.

``perfbench/tracer.py`` looks the model classes up by name and wraps their
``predict``; a rename in ``pkwbench.surrogates.trees`` would otherwise only
show as a failed ``perfbench/run.py --trace 1`` run.
"""

import importlib.util
from pathlib import Path

import numpy as np

import pkwbench.surrogates.trees as trees

_TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_and_counts_the_tree_ensemble():
    tracer_module = _load_tracer()
    rng = np.random.default_rng(3)
    X = rng.random((60, 4))
    y = rng.random(60)
    probe = rng.random((9, 4))
    want = trees.fit_forest(X, y, n_trees=5, seed=1).predict(probe)
    original = trees.TreeEnsemble.__dict__["predict"]

    tracer = tracer_module.Tracer("t")
    tracer.install()
    try:
        assert trees.TreeEnsemble.__dict__["predict"] is not original
        forest = trees.fit_forest(X, y, n_trees=5, seed=1)
        got = forest.predict(probe)
    finally:
        tracer.uninstall()

    assert got.tobytes() == want.tobytes()
    assert tracer.counts["trees.predict.calls"] == 1
    assert tracer.counts["trees.predict.rows"] == len(probe)
    assert tracer.counts["trees.nodes_built"] == forest.n_nodes
    assert trees.TreeEnsemble.__dict__["predict"] is original
    assert trees.fit_forest.__module__ == trees.__name__
    assert not hasattr(trees.fit_forest, "__wrapped__")
