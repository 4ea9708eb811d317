"""Drift arithmetic, the combined objective, and the grid tuner."""

from __future__ import annotations

import random
from dataclasses import fields

import numpy as np
import pytest

from mlmem.embedding import EmbedderConfig
from mlmem.memory import Attribute, EntityNode, FactTriple, SemanticGraph, merge_semantic
from mlmem.retention import (
    ObjectiveValue,
    TuneError,
    cumulative_retention_loss,
    drift,
    grid_csv,
    objective,
    tune,
)

CFG = EmbedderConfig(dim=16, seed=1)


def _graph(entities: dict[str, np.ndarray], dim: int = 16) -> SemanticGraph:
    nodes = {
        name: EntityNode({"a": Attribute("v", 0)}, vec, 1.0, 0)
        for name, vec in entities.items()
    }
    return SemanticGraph(nodes)


# ------------------------------------------------------------ node embeddings

def test_projection_changes_only_at_touched_entity():
    graph = merge_semantic(SemanticGraph(), [FactTriple("alice", "likes", "jazz")], 0, 0.9, 8, CFG)
    graph = merge_semantic(graph, [FactTriple("bob", "plays", "chess")], 0, 0.9, 8, CFG)
    updated = merge_semantic(graph, [FactTriple("alice", "likes", "blues")], 1, 0.9, 8, CFG)
    changed = {k for k in graph.nodes if not np.array_equal(graph.nodes[k].embedding, updated.nodes[k].embedding)}
    assert changed == {"alice"}


# ------------------------------------------------------------------------ drift

def test_drift_of_identical_graphs_is_zero():
    vec = np.zeros(16)
    vec[2] = 1.0
    graph = _graph({"alice": vec})
    report = drift(graph, graph)
    assert report.total == 0.0
    assert report.born == frozenset()
    assert report.died == frozenset()


def test_drift_squared_displacement_hand_value():
    base = np.zeros(16)
    base[0] = 1.0
    moved = base.copy()
    moved[1] = 0.3
    report = drift(_graph({"alice": base}), _graph({"alice": moved}))
    assert report.per_entity["alice"] == pytest.approx(0.09, abs=1e-12)
    assert report.total == pytest.approx(0.09, abs=1e-12)


def test_drift_birth_contributes_zero():
    vec = np.zeros(16)
    vec[0] = 1.0
    report = drift(SemanticGraph(), _graph({"alice": vec}))
    assert report.total == 0.0
    assert report.born == frozenset({"alice"})
    assert report.per_entity == {}


def test_drift_symmetry_over_shared_entities():
    rng = random.Random(3)
    a = {n: np.array([rng.uniform(-1, 1) for _ in range(16)]) for n in ("x", "y")}
    b = {n: np.array([rng.uniform(-1, 1) for _ in range(16)]) for n in ("y", "z")}
    forward = drift(_graph(a), _graph(b))
    backward = drift(_graph(b), _graph(a))
    assert forward.total == pytest.approx(backward.total, abs=1e-12)
    assert forward.born == backward.died
    assert forward.died == backward.born


def test_drift_over_a_merge_equals_the_full_computation():
    """Untouched nodes share their arrays across a merge; their 0.0 equals subtracting them."""
    facts = [FactTriple(f"p{i}", "likes", f"thing{i}") for i in range(6)]
    prev = merge_semantic(SemanticGraph(), facts, 0, 0.99, 6, CFG)
    update = [FactTriple("p1", "likes", "other"), FactTriple("p4", "plays", "chess"), FactTriple("q9", "likes", "x")]
    curr = merge_semantic(prev, update * 2, 1, 0.99, 6, CFG)
    shared = [n for n in prev.nodes if n in curr.nodes]
    assert {n for n in shared if prev.nodes[n].embedding is curr.nodes[n].embedding} == set(shared) - {"p1", "p4"}
    assert {"p1", "p4"} <= set(shared) and set(prev.nodes) - set(curr.nodes)
    deltas = {n: prev.nodes[n].embedding - curr.nodes[n].embedding for n in shared}
    full = {n: float(delta @ delta) for n, delta in deltas.items()}
    report = drift(prev, curr)
    assert report.per_entity == full and list(report.per_entity) == shared
    assert report.total == float(sum(full.values()))
    assert report.born == frozenset(curr.nodes) - frozenset(prev.nodes) == {"q9"}
    assert report.died == frozenset(prev.nodes) - frozenset(curr.nodes)


def test_drift_dimension_mismatch_raises():
    a = _graph({"alice": np.zeros(16)}, dim=16)
    b = _graph({"alice": np.zeros(8)}, dim=8)
    with pytest.raises(ValueError):
        drift(a, b)


# ------------------------------------------------- cumulative_retention_loss

def test_cumulative_loss_single_graph_is_zero():
    graph = _graph({"alice": np.zeros(16)})
    assert cumulative_retention_loss([graph]) == 0.0


def test_cumulative_loss_constant_trajectory_is_zero():
    graph = _graph({"alice": np.ones(16)})
    assert cumulative_retention_loss([graph, graph, graph]) == 0.0


def test_cumulative_loss_sums_pairwise_drifts():
    rng = random.Random(5)
    graphs = [
        _graph({n: np.array([rng.uniform(-1, 1) for _ in range(16)]) for n in ("x", "y")})
        for _ in range(3)
    ]
    a = drift(graphs[0], graphs[1]).total
    b = drift(graphs[1], graphs[2]).total
    assert cumulative_retention_loss(graphs) == pytest.approx(a + b, abs=1e-12)


def test_cumulative_loss_additive_over_concatenation():
    rng = random.Random(8)
    graphs = [
        _graph({"e": np.array([rng.uniform(-1, 1) for _ in range(16)])})
        for _ in range(5)
    ]
    whole = cumulative_retention_loss(graphs)
    split = cumulative_retention_loss(graphs[:3]) + cumulative_retention_loss(graphs[2:])
    assert whole == pytest.approx(split, abs=1e-12)


def test_cumulative_loss_rejects_empty_trajectory():
    with pytest.raises(ValueError):
        cumulative_retention_loss([])


# -------------------------------------------------------------------- objective

def test_objective_lambda_zero_decouples_retention():
    assert objective(0.4, 0.2, 0.0).total == pytest.approx(0.4, abs=1e-12)


def test_objective_pure_retention_term():
    assert objective(0.0, 0.7, 3.0).total == pytest.approx(2.1, abs=1e-12)


def test_an_objective_value_holds_no_lambda():
    """The lambda a value was scored under is its grid point's, which holds it once."""
    assert [f.name for f in fields(ObjectiveValue)] == ["gen_loss", "ret_loss", "total"]


def test_objective_hand_value():
    value = objective(0.3, 0.5, 2.0)
    assert value.total == pytest.approx(1.3, abs=1e-12)
    assert value.total == pytest.approx(value.gen_loss + 2.0 * value.ret_loss, abs=1e-9)


def test_objective_monotone_in_each_argument():
    base = objective(0.3, 0.5, 2.0).total
    assert objective(0.4, 0.5, 2.0).total >= base
    assert objective(0.3, 0.6, 2.0).total >= base
    assert objective(0.3, 0.5, 2.5).total >= base


def test_objective_rejects_negative_and_non_finite():
    with pytest.raises(ValueError):
        objective(-0.1, 0.0, 1.0)
    with pytest.raises(ValueError):
        objective(0.1, -0.2, 1.0)
    with pytest.raises(ValueError):
        objective(0.1, 0.2, -1.0)
    with pytest.raises(ValueError):
        objective(float("inf"), 0.2, 1.0)
    with pytest.raises(ValueError):
        objective(0.1, 10**400, 1.0)


# ------------------------------------------------------------------------ tune

def _table_handle(table):
    def evaluate(alpha, beta):
        return table[(alpha, beta)]
    return evaluate


def test_tune_single_triple_wins():
    result = tune(_table_handle({(0.5, 2.0): (0.4, 0.1)}), [0.5], [2.0], [1.0])
    assert result.best == (0.5, 2.0, 1.0)
    assert result.objective.total == pytest.approx(0.5, abs=1e-12)
    assert len(result.grid) == 1


def test_tune_smaller_objective_wins_with_independent_recomputation():
    table = {(0.2, 1.0): (0.6, 0.2), (0.8, 1.0): (0.3, 0.1)}
    result = tune(_table_handle(table), [0.2, 0.8], [1.0], [2.0])
    # recompute objectives independently from the raw losses
    recomputed = {
        (a, b, l): table[(a, b)][0] + l * table[(a, b)][1]
        for a in (0.2, 0.8) for b in (1.0,) for l in (2.0,)
    }
    expected = min(recomputed, key=lambda k: (recomputed[k], k))
    assert result.best == expected
    assert result.objective.total == pytest.approx(recomputed[expected], abs=1e-12)


def test_tune_tie_breaks_to_lexicographically_smallest():
    table = {(0.2, 1.0): (0.5, 0.0), (0.8, 1.0): (0.5, 0.0)}
    result = tune(_table_handle(table), [0.8, 0.2], [1.0], [0.5, 0.1])
    assert result.best == (0.2, 1.0, 0.1)


def test_tune_grid_preserved_in_evaluation_order():
    table = {(a, b): (a + b, 0.0) for a in (0.1, 0.9) for b in (1.0, 2.0)}
    result = tune(_table_handle(table), [0.1, 0.9], [1.0, 2.0], [0.0])
    order = [(p.alpha, p.beta, p.lambda_) for p in result.grid]
    assert order == [
        (0.1, 1.0, 0.0), (0.1, 2.0, 0.0), (0.9, 1.0, 0.0), (0.9, 2.0, 0.0),
    ]


def test_tune_failure_identifies_triple():
    def broken(alpha, beta):
        raise RuntimeError("boom")
    with pytest.raises(TuneError, match=r"alpha=0.5.*beta=2.0.*lambda=1.0"):
        tune(broken, [0.5], [2.0], [1.0])


def test_tune_validates_grid_ranges():
    handle = _table_handle({(0.5, 1.0): (0.1, 0.1)})
    with pytest.raises(ValueError):
        tune(handle, [], [1.0], [1.0])
    with pytest.raises(ValueError):
        tune(handle, [1.5], [1.0], [1.0])
    with pytest.raises(ValueError):
        tune(handle, [0.5], [0.0], [1.0])
    with pytest.raises(ValueError):
        tune(handle, [0.5], [1.0], [-1.0])
    with pytest.raises(ValueError):
        tune(handle, [0.5], [10**400], [1.0])


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), 10**400])
def test_tune_rejects_a_non_finite_lambda_before_any_engine_run(bad):
    calls = []

    def handle(alpha, beta):
        calls.append((alpha, beta))
        return 0.1, 0.1

    with pytest.raises(ValueError, match="lambda must be finite"):
        tune(handle, [0.5], [1.0], [1.0, bad])
    assert calls == []


def test_tune_accepts_numpy_floats():
    """The finiteness rule takes any real number here, not only the exact kinds a loaded field holds."""
    result = tune(lambda alpha, beta: (alpha, beta), list(np.linspace(0.1, 0.9, 5)), [np.float64(2.0)], [np.float64(0.5)])
    assert result.best == (0.1, 2.0, 0.5)


def test_tune_accepts_numpy_array_axes():
    def handle(alpha, beta):
        return alpha, beta

    result = tune(handle, np.linspace(0.1, 0.9, 5), np.array([2.0]), np.array([0.5]))
    assert result.best == (0.1, 2.0, 0.5)
    assert [p.alpha for p in result.grid] == list(np.linspace(0.1, 0.9, 5))
    with pytest.raises(ValueError, match="all grid axes must be non-empty"):
        tune(handle, np.linspace(0.1, 0.9, 0), [2.0], [0.5])


def test_grid_csv_writes_numpy_axes_as_python_numbers():
    def handle(alpha, beta):
        return alpha, beta

    alphas = np.linspace(0.1, 0.9, 2)
    assert grid_csv(tune(handle, alphas, [1.0], [0.5])) == grid_csv(tune(handle, alphas.tolist(), [1.0], [0.5]))
    assert grid_csv(tune(handle, np.array([1]), np.array([2]), [0])) == grid_csv(tune(handle, [1], [2], [0]))
    assert grid_csv(tune(handle, [1], [2], [0])).splitlines()[1].startswith("1,2,0,")


def test_grid_csv_format():
    result = tune(_table_handle({(0.5, 2.0): (0.25, 0.5)}), [0.5], [2.0], [2.0])
    text = grid_csv(result)
    lines = text.strip().splitlines()
    assert lines[0] == "alpha,beta,lambda,gen_loss,ret_loss,total"
    assert lines[1] == "0.5,2.0,2.0,0.25,0.5,1.25"
