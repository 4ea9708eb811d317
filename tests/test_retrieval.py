"""Gating softmax, layer representations, budgeted retrieval, entropy-bounded fusion."""

from __future__ import annotations

import math
import random
import tracemalloc

import numpy as np
import pytest

from mlmem import embedding, retrieval
from mlmem.embedding import EmbedderConfig, cosine, embed, frozen, unit
from mlmem.engine import EngineConfig, answer, initial_state, run
from mlmem.harness import generate_scenario
from mlmem.memory import (
    Attribute,
    EntityNode,
    EpisodicMemory,
    MemoryState,
    SemanticGraph,
    SummaryRecord,
    Utterance,
    WorkingMemory,
    node_text,
)
from mlmem.retrieval import (
    LAYERS,
    GatingWeights,
    Query,
    RetrievalResult,
    RetrievedItem,
    entropy,
    fuse,
    gate,
    layer_representation,
    make_query,
    retrieve,
    softmax_weights,
)
from state_vectors import grid_scores, reference_fuse

CFG = EmbedderConfig(dim=64, seed=9)
DIM = CFG.dim


def _unit(direction: int, dim: int = DIM) -> np.ndarray:
    vec = np.zeros(dim)
    vec[direction] = 1.0
    return vec


def _utterance(text: str, session: int = 0, turn: int = 0) -> Utterance:
    return Utterance(session, turn, "spk", text)


def _state(
    working_entries=(),
    episodic_state=None,
    log=(),
    nodes=None,
    cursor: int = 0,
    dim: int = DIM,
) -> MemoryState:
    return MemoryState(
        WorkingMemory(tuple(working_entries)),
        EpisodicMemory(np.zeros(dim) if episodic_state is None else episodic_state, tuple(log)),
        SemanticGraph(nodes or {}),
        cursor,
    )


def _node(embedding: np.ndarray, importance: float, last_updated: int = 0) -> EntityNode:
    return EntityNode({"likes": Attribute("x", last_updated)}, embedding, importance, last_updated)


# ------------------------------------------------------- layer_representation

def test_empty_layers_give_zero_vectors():
    state = _state()
    for layer in ("w", "e", "s"):
        assert not layer_representation(state, layer).any()


def test_working_representation_of_single_entry_is_that_embedding():
    emb = embed("alice likes jazz", CFG)
    state = _state(working_entries=[(_utterance("alice likes jazz"), emb)])
    rep = layer_representation(state, "w")
    assert np.allclose(rep, emb, atol=1e-12)


def test_semantic_representation_is_importance_weighted_mean():
    e1, e2 = _unit(0), _unit(1)
    nodes = {"a": _node(e1, 1.0), "b": _node(e2, 3.0)}
    state = _state(nodes=nodes)
    rep = layer_representation(state, "s")
    expected = 0.25 * e1 + 0.75 * e2
    expected = expected / np.linalg.norm(expected)
    assert np.allclose(rep, expected, atol=1e-12)


def test_episodic_representation_is_the_state_vector():
    vec = np.full(DIM, 0.1)
    state = _state(episodic_state=vec)
    assert np.array_equal(layer_representation(state, "e"), vec)


def test_semantic_mean_equals_the_sequential_sum_bit_for_bit():
    """The node mean, stacked here or read from a held matrix, has the bytes of the sequential sum
    ``mean += (importance / total) * embedding``, whatever the row count, dim, zero rows and importances.

    This rests on an assumption about numpy: its einsum sum-of-products kernel adds the rows in order, rounding each
    product before its add, with no fused multiply-add. A numpy build whose kernel fuses them, or reorders the adds,
    fails here first."""
    rng = np.random.default_rng(7)
    for case in range(120):
        dim = int(rng.choice([8, 13, 64, 128, 256, 300]))
        rows = [1, 2, 1500][case] if case < 3 else int(rng.integers(1, 1501))
        matrix = rng.standard_normal((rows, dim))
        matrix[rng.random(rows) < 0.1] = 0.0
        scale = float(rng.choice([1.0, 1e3, 1e6]))
        importances = [float(rng.integers(1, 8)) if case % 2 else float(rng.random() * scale) for _ in range(rows)]
        state = _state(nodes={f"n{i}": _node(matrix[i], importances[i]) for i in range(rows)}, dim=dim)
        total = sum(importances)
        mean = np.zeros(dim)
        for importance, row in zip(importances, matrix):
            mean += (importance / total) * row
        expected = unit(mean).tobytes()
        held = frozen(matrix.copy())
        assert layer_representation(state, "s").tobytes() == expected, (case, rows, dim)
        assert layer_representation(state, "s", held).tobytes() == expected, (case, rows, dim)


def test_a_cold_index_build_allocates_one_node_matrix(monkeypatch):
    """A cold build of a ~1,000-node state stacks each non-empty layer once and peaks at one node matrix plus
    small change: the semantic mean reads the matrix the index holds and copies none of it."""
    dim = 256
    rows = np.random.default_rng(3).standard_normal((1000, dim))
    nodes = {f"n{i}": _node(unit(row), float(1 + i % 5)) for i, row in enumerate(rows)}
    texts = ("alice likes jazz", "bob plays chess")
    vectors = [embed(text, EmbedderConfig(dim=dim)) for text in texts]
    working = [(_utterance(text, turn=turn), vec) for turn, (text, vec) in enumerate(zip(texts, vectors))]
    state = _state(working_entries=working, log=[SummaryRecord(0, texts[0], vectors[0])], nodes=nodes, dim=dim)
    node_matrix = len(nodes) * dim * 8

    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        retrieval._read_index.__wrapped__(state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= node_matrix + node_matrix // 8, (peak, node_matrix)

    calls = []
    original = embedding.stacked

    def spy(vectors):
        calls.append(len(vectors))
        return original(vectors)

    for module in (embedding, retrieval):
        monkeypatch.setattr(module, "stacked", spy)
    retrieval._read_index.__wrapped__(state)
    assert calls == [2, 1, 1000]


def _every_layer_state() -> MemoryState:
    """A state with two working entries, one log record and two nodes."""
    texts = ("alice likes jazz", "bob plays chess")
    vectors = [embed(text, CFG) for text in texts]
    working = [(_utterance(text, turn=turn), vec) for turn, (text, vec) in enumerate(zip(texts, vectors))]
    nodes = {"a": _node(_unit(0), 1.0), "b": _node(_unit(1), 3.0)}
    return _state(working_entries=working, log=[SummaryRecord(0, texts[0], vectors[0])], episodic_state=vectors[0],
                  nodes=nodes)


def test_a_cold_index_build_walks_each_layer_once(monkeypatch):
    """The build walks each layer once; the representations read the walk's held matrices, not a walk of their own."""
    walked = []
    original = retrieval._layer_view

    def spy(state, layer):
        walked.append(layer)
        return original(state, layer)

    monkeypatch.setattr(retrieval, "_layer_view", spy)
    retrieval._read_index.__wrapped__(_every_layer_state())
    assert walked == ["w", "e", "s"]


def test_a_representation_without_a_matrix_is_the_read_index_s_own_vector():
    """The vector the gate reads, not one computed beside it."""
    state = _every_layer_state()
    for i, layer in enumerate(LAYERS):
        assert layer_representation(state, layer) is retrieval._read_index(state)[0][i], layer


# ---------------------------------------------------------------------- gate

def test_softmax_equal_relevances_uniform():
    for beta in (0.5, 1.0, 10.0):
        weights = softmax_weights((0.5, 0.5, 0.5), beta)
        assert weights == pytest.approx((1 / 3, 1 / 3, 1 / 3), abs=1e-12)


def test_softmax_tiny_beta_is_uniform():
    weights = softmax_weights((0.9, -0.2, 0.4), 1e-9)
    assert weights == pytest.approx((1 / 3, 1 / 3, 1 / 3), abs=1e-6)


def test_softmax_matches_exact_oracle():
    # frozen from the exact-exponential oracle for r=(0.9, 0.5, 0.1), beta=5
    weights = softmax_weights((0.9, 0.5, 0.1), 5.0)
    exps = [math.exp(5.0 * r) for r in (0.9, 0.5, 0.1)]
    oracle = tuple(e / sum(exps) for e in exps)
    assert weights == pytest.approx(oracle, abs=1e-12)
    assert weights == pytest.approx((0.8668133321973349, 0.11731042782619838, 0.01587623997646677), abs=1e-9)


def test_softmax_shift_invariance():
    rng = random.Random(2)
    for _ in range(50):
        r = tuple(rng.uniform(-1, 1) for _ in range(3))
        c = rng.uniform(-100, 100)
        beta = rng.uniform(0.1, 20)
        base = softmax_weights(r, beta)
        shifted = softmax_weights(tuple(x + c for x in r), beta)
        assert shifted == pytest.approx(base, abs=1e-9)


def test_softmax_monotone_in_own_relevance():
    low = softmax_weights((0.1, 0.4, 0.2), 3.0)
    high = softmax_weights((0.3, 0.4, 0.2), 3.0)
    assert high[0] >= low[0]


def test_softmax_sharpens_to_argmax_at_high_beta():
    weights = softmax_weights((0.9, 0.5, 0.1), 50.0)
    assert weights[0] == pytest.approx(1.0, abs=1e-6)
    assert max(range(3), key=lambda i: weights[i]) == 0
    mild = softmax_weights((0.9, 0.5, 0.1), 0.7)
    assert max(range(3), key=lambda i: mild[i]) == 0


def test_softmax_rejects_bad_beta():
    with pytest.raises(ValueError):
        softmax_weights((0.1, 0.2, 0.3), 0.0)
    with pytest.raises(ValueError):
        softmax_weights((0.1, 0.2, 0.3), float("nan"))


def test_gate_on_all_zero_layers_is_uniform():
    query = make_query("anything", CFG, 0)
    weights = gate(query, tuple(layer_representation(_state(), l) for l in ("w", "e", "s")), 4.0)
    assert weights.as_tuple() == pytest.approx((1 / 3, 1 / 3, 1 / 3), abs=1e-12)
    total = weights.gamma_w + weights.gamma_e + weights.gamma_s
    assert total == pytest.approx(1.0, abs=1e-9)


def test_gate_matches_cosine_softmax_oracle():
    emb = embed("alice likes jazz", CFG)
    state = _state(
        working_entries=[(_utterance("alice likes jazz"), emb)],
        episodic_state=embed("bob plays chess", CFG),
        nodes={"carol": _node(embed("carol hikes", CFG), 2.0)},
    )
    query = make_query("alice jazz", CFG, 0)
    relevances = tuple(cosine(query.embedding, layer_representation(state, l)) for l in ("w", "e", "s"))
    oracle = softmax_weights(relevances, 4.0)
    weights = gate(query, tuple(layer_representation(state, l) for l in ("w", "e", "s")), 4.0)
    assert weights.as_tuple() == pytest.approx(oracle, abs=1e-12)


# ------------------------------------------------------------------- retrieve

def test_retrieve_empty_state_zero_vector_uniform_no_items():
    query = make_query("anything", CFG, 0)
    result = retrieve(query, _state(), 4.0, top_j=4, token_budget=64)
    assert not result.vector.any()
    assert result.weights.as_tuple() == pytest.approx((1 / 3, 1 / 3, 1 / 3), abs=1e-12)
    assert result.items == ()
    assert result.token_cost == 0


@pytest.mark.parametrize(
    "call",
    [
        lambda query: retrieve(query, _state(), 4.0, top_j=0, token_budget=64),
        lambda query: retrieve(query, _state(), 4.0, top_j=4, token_budget=0),
        lambda query: layer_representation(_state(), "q"),
    ],
    ids=["top_j", "token_budget", "unknown_layer"],
)
def test_retrieval_rejects_out_of_range_arguments(call):
    with pytest.raises(ValueError):
        call(make_query("anything", CFG, 0))


def test_retrieve_budget_binds_items_but_not_vector():
    emb = embed("alice likes jazz and long stories", CFG)
    state = _state(working_entries=[(_utterance("alice likes jazz and long stories"), emb)])
    query = make_query("alice likes jazz", CFG, 0)
    result = retrieve(query, state, 4.0, top_j=4, token_budget=1)
    assert result.items == ()
    assert result.token_cost == 0
    assert result.vector.any()


def test_retrieve_greedy_admission_skips_and_continues():
    # scores 0.9 / 0.8 / 0.7 with 6 / 5 / 2 tokens, budget 8: first and third fit
    query = Query("q", _unit(0), 0)
    def item(direction_weight, text, turn):
        vec = np.zeros(DIM)
        vec[0] = direction_weight
        vec[1] = math.sqrt(1 - direction_weight**2)
        return (_utterance(text, 0, turn), vec)
    state = _state(
        working_entries=[
            item(0.9, "one two three four five six", 0),
            item(0.8, "one two three four five", 1),
            item(0.7, "one two", 2),
        ]
    )
    result = retrieve(query, state, 4.0, top_j=4, token_budget=8)
    admitted = [i.token_count for i in result.items]
    assert admitted == [6, 2]
    assert result.token_cost == 8
    # independent brute-force greedy oracle over the same candidates
    candidates = sorted(
        ((cosine(e, query.embedding), u.token_count) for u, e in state.working.entries),
        key=lambda p: -p[0],
    )
    spent, chosen = 0, []
    for _, tokens in candidates:
        if spent + tokens <= 8:
            chosen.append(tokens)
            spent += tokens
    assert admitted == chosen


def test_retrieve_vector_is_weighted_layer_blend():
    emb = embed("alice likes jazz", CFG)
    state = _state(
        working_entries=[(_utterance("alice likes jazz"), emb)],
        episodic_state=embed("bob plays chess", CFG),
        nodes={"carol": _node(embed("carol hikes", CFG), 2.0)},
    )
    query = make_query("alice", CFG, 0)
    result = retrieve(query, state, 4.0, top_j=2, token_budget=64)
    expected = np.zeros(DIM)
    for layer, gamma in zip(("w", "e", "s"), result.weights.as_tuple()):
        expected += gamma * layer_representation(state, layer)
    assert np.allclose(result.vector, expected, atol=1e-12)


def test_retrieve_respects_top_j_per_layer():
    entries = []
    for turn in range(6):
        text = f"utterance number {turn} words"
        entries.append((_utterance(text, 0, turn), embed(text, CFG)))
    state = _state(working_entries=entries)
    query = make_query("utterance number words", CFG, 0)
    result = retrieve(query, state, 4.0, top_j=2, token_budget=512)
    assert len([i for i in result.items if i.layer == "w"]) <= 2


def test_retrieve_tie_break_prefers_earlier_items():
    emb = embed("same text here", CFG)
    state = _state(
        working_entries=[
            (_utterance("same text here", 0, 3), emb),
            (_utterance("same text here", 0, 1), emb),
        ]
    )
    query = make_query("same text here", CFG, 0)
    result = retrieve(query, state, 4.0, top_j=1, token_budget=512)
    assert [i for i in result.items if i.layer == "w"][0].turn_index == 1


def _tied_graph(nodes: int, sessions: int) -> MemoryState:
    """A graph of nodes "pN likes jazz", last updated in turn at sessions 0..sessions-1, whose grid scores against
    "likes jazz" all tie: of the ids p0, p1, ..., those whose hashed token adds nothing to the query's buckets."""
    cfg = EmbedderConfig()
    query = embed("likes jazz", cfg)
    graph = {}
    for n in range(4 * nodes):
        attributes = {"likes": Attribute("jazz", len(graph) % sessions)}
        vector = embed(node_text(f"p{n}", attributes), cfg)
        if round(float(vector @ query), 12) == round(math.sqrt(2.0 / 3.0), 12):
            graph[f"p{n}"] = EntityNode(attributes, vector, 1.0, len(graph) % sessions)
        if len(graph) == nodes:
            break
    return _state(nodes=graph, dim=cfg.dim)


def test_a_semantic_scan_keys_only_the_nodes_its_last_updated_cannot_settle(monkeypatch):
    """Every node ties with the query; the scan renders the text of the top_j nodes' last_updated class alone."""
    top_j, sessions = 5, 16
    state = _tied_graph(256, sessions)
    query = make_query("likes jazz", EmbedderConfig(), 0)
    matrix = np.stack([n.embedding for n in state.semantic.nodes.values()])
    assert len(set(grid_scores(matrix, query.embedding))) == 1
    everything: list[int] = []
    embedding.nearest(matrix, query.embedding, top_j, lambda i: everything.append(i) or i)
    assert len(everything) == 256  # without a rank, every tied row is keyed

    scans = []
    original = retrieval.nearest

    def spy(matrix, query, count, key=int, floor=-1.0, rank=None):
        keyed: list[int] = []
        hits = original(matrix, query, count, lambda i: keyed.append(i) or key(i), floor, rank)
        scans.append(len(keyed))
        return hits

    monkeypatch.setattr(retrieval, "nearest", spy)
    result = retrieve(query, state, 4.0, top_j=top_j, token_budget=512)
    shared = 256 // sessions  # the nodes last updated at session 0, the boundary
    [keyed] = scans  # the working and episodic layers are empty, so the semantic scan is the only one
    assert keyed <= top_j + shared
    assert [(i.session_index, i.text) for i in result.items] == [(0, f"{nid} likes jazz") for nid in sorted(
        nid for nid, node in state.semantic.nodes.items() if node.last_updated == 0)[:top_j]]


def test_retrieve_item_scores_are_gamma_weighted():
    emb = embed("alice likes jazz", CFG)
    state = _state(working_entries=[(_utterance("alice likes jazz"), emb)])
    query = make_query("alice likes jazz", CFG, 0)
    result = retrieve(query, state, 4.0, top_j=1, token_budget=64)
    item = [i for i in result.items if i.layer == "w"][0]
    assert item.score == pytest.approx(result.weights.gamma_w * item.similarity, abs=1e-12)


def test_retrieve_weights_override_for_uniform_gating():
    emb = embed("alice likes jazz", CFG)
    state = _state(working_entries=[(_utterance("alice likes jazz"), emb)])
    query = make_query("alice likes jazz", CFG, 0)
    result = retrieve(query, state, 4.0, 4, 64, weights=GatingWeights.uniform(4.0))
    assert result.weights.as_tuple() == (1 / 3, 1 / 3, 1 / 3)


def test_retrieve_refuses_caller_weights_off_the_simplex_and_a_beta_out_of_range():
    """Weights a caller passes once ran unchecked: (2, -1, 0) under beta NaN admitted an item scored 1.155."""
    state = _three_layer_state()
    query = make_query("alice likes jazz", CFG, 2)
    nan = float("nan")
    refused = [
        (nan, GatingWeights(2.0, -1.0, 0.0, 1.0), "beta must be finite and > 0, got nan"),
        (nan, GatingWeights.uniform(4.0), "beta must be finite and > 0, got nan"),
        (4.0, GatingWeights.uniform(nan), "beta must be finite and > 0, got nan"),
        (4.0, GatingWeights.uniform(0.0), "beta must be finite and > 0, got 0.0"),
        (4.0, GatingWeights(2.0, -1.0, 0.0, 1.0), "gate weights must lie in [0, 1] and sum to 1"),
        (4.0, GatingWeights(nan, 0.5, 0.5, 1.0), "gate weights must lie in [0, 1] and sum to 1"),
        (4.0, GatingWeights(0.5, 0.5, 2e-9, 1.0), "gate weights must lie in [0, 1] and sum to 1"),
        (4.0, GatingWeights(0.5, 0.25, 0.25 - 2e-9, 1.0), "gate weights must lie in [0, 1] and sum to 1"),
    ]
    for beta, weights, message in refused:
        with pytest.raises(ValueError) as info:
            retrieve(query, state, beta, 4, 64, weights=weights)
        assert str(info.value).startswith(message), (weights, str(info.value))
    # within SIMPLEX_TOLERANCE of a sum of 1, and one-hot, weights are taken as given
    for weights in (GatingWeights(0.5, 0.5, 5e-10, 4.0), GatingWeights(1.0, 0.0, 0.0, 4.0)):
        assert retrieve(query, state, 4.0, 4, 64, weights=weights).weights == weights


def _three_layer_state() -> MemoryState:
    texts = ["alice likes jazz", "alice likes long jazz sets", "bob plays chess", "alice hikes"]
    summaries = ["alice likes jazz and hikes", "bob plays chess", "carol reads"]
    return _state(
        working_entries=[(_utterance(t, 2, turn), embed(t, CFG)) for turn, t in enumerate(texts)],
        episodic_state=embed("alice likes jazz", CFG),
        log=[SummaryRecord(i, t, embed(t, CFG)) for i, t in enumerate(summaries)],
        nodes={
            "alice": _node(embed("alice likes x", CFG), 2.0, 1),
            "bob": _node(embed("bob likes x", CFG), 1.0, 0),
            "carol": _node(embed("carol likes x", CFG), 1.0, 2),
        },
        cursor=2,
    )


def _admission_oracle(query: Query, state: MemoryState, top_j: int, budget: int):
    """(layer, text, score, session, turn, speaker, tokens) rows admitted, in admission order; a row's
    similarity is its grid score, the query's inner product with it rounded to 12 decimals."""
    records = {
        "w": [(e, u.session_index, u.turn_index, u.text, u.speaker) for u, e in state.working.entries],
        "e": [(r.embedding, r.session_index, -1, r.text, "summary") for r in state.episodic.log],
        "s": [
            (n.embedding, n.last_updated, -1, node_text(nid, n.attributes), "fact")
            for nid, n in state.semantic.nodes.items()
        ],
    }
    rows = {}
    for layer, layer_rows in records.items():
        sims = grid_scores(np.stack([vector for vector, *_ in layer_rows]), query.embedding)
        rows[layer] = [(sim, *row) for sim, (_, *row) in zip(sims, layer_rows)]
    weights = gate(query, tuple(layer_representation(state, layer) for layer in LAYERS), 4.0)
    candidates = []
    for layer, gamma in zip(LAYERS, weights.as_tuple()):
        top = sorted(rows[layer], key=lambda r: (-r[0], r[1], r[2], r[3]))[:top_j]
        candidates += [
            (layer, text, gamma * sim, sess, turn, spk, len(text.split())) for sim, sess, turn, text, spk in top
        ]
    candidates.sort(key=lambda c: (-c[2], c[3], c[4], LAYERS.index(c[0]), c[1]))
    admitted, spent = [], 0
    for candidate in candidates:
        if spent + candidate[6] <= budget:
            admitted.append(candidate)
            spent += candidate[6]
    return admitted, candidates


def test_retrieve_items_match_admission_oracle_under_a_tight_budget():
    state = _three_layer_state()
    query = make_query("alice likes jazz", CFG, 2)
    admitted, candidates = _admission_oracle(query, state, top_j=3, budget=12)
    assert {c[0] for c in candidates} == set(LAYERS)
    assert len(admitted) < len(candidates)
    # the budget skips an item and then admits a later one
    assert candidates.index(admitted[-1]) > len(admitted) - 1
    result = retrieve(query, state, 4.0, top_j=3, token_budget=12)
    assert [
        (i.layer, i.text, i.score, i.session_index, i.turn_index, i.speaker, i.token_count) for i in result.items
    ] == admitted
    assert result.token_cost == sum(c[6] for c in admitted)


def test_fuse_context_is_items_in_session_turn_layer_text_order():
    state = _three_layer_state()
    query = make_query("alice likes jazz", CFG, 2)
    result = retrieve(query, state, 4.0, top_j=3, token_budget=64)
    assert {i.layer for i in result.items} == set(LAYERS)
    fused = fuse(query, result, mix=0.5, epsilon=50.0)
    ordered = sorted(result.items, key=lambda i: (i.session_index, i.turn_index, LAYERS.index(i.layer), i.text))
    assert ordered != list(result.items)
    assert fused.context_text.split("\n") == [f"{i.speaker}: {i.text}" for i in ordered]


# ----------------------------------------------------------------------- fuse

def _empty_retrieval(query: Query, dim: int = DIM):
    return retrieve(query, _state(dim=dim), 4.0, 1, 8)


def test_fuse_identity_endpoint_with_zero_retrieval():
    query = make_query("alice likes jazz", CFG, 0)
    fused = fuse(query, _empty_retrieval(query), mix=1.0, epsilon=50.0)
    assert np.array_equal(fused.vector, query.embedding)


def test_fuse_one_hot_has_zero_entropy_and_no_sharpening():
    query = Query("q", _unit(0, 8), 0)
    state = _state(dim=8)
    retrieval = retrieve(query, state, 4.0, 1, 8)
    fused = fuse(query, retrieval, mix=1.0, epsilon=0.001)
    assert fused.entropy == 0.0
    assert np.array_equal(fused.vector, query.embedding)


def test_entropy_of_a_one_hot_is_positive_zero_directly_and_through_the_fuse_fallback():
    assert math.copysign(1.0, entropy(_unit(3, 8))) == 1.0
    # equal magnitudes stay uniform under every sharpening, so fuse falls back to its one-hot
    query = Query("q", np.full(8, 1 / math.sqrt(8)), 0)
    fused = fuse(query, _empty_retrieval(query, dim=8), mix=1.0, epsilon=0.0)
    assert np.count_nonzero(fused.vector) == 1
    assert math.copysign(1.0, fused.entropy) == 1.0


def test_fuse_sharpens_uniform_vector_under_bound():
    # |raw| uniform over d=8: initial entropy ln 8 ~ 2.079 > 1.0
    vec = np.full(8, 1 / math.sqrt(8))
    query = Query("q", vec, 0)
    retrieval = _empty_retrieval(query, dim=8)
    raw = 1.0 * vec
    assert entropy(raw) == pytest.approx(math.log(8), abs=1e-12)
    fused = fuse(query, retrieval, mix=1.0, epsilon=1.0)
    assert fused.entropy <= 1.0
    # oracle: recompute entropy from the returned vector
    assert entropy(fused.vector) == pytest.approx(fused.entropy, abs=1e-12)


def test_fuse_never_increases_entropy():
    rng = random.Random(4)
    for _ in range(40):
        vec = np.array([rng.uniform(-1, 1) for _ in range(16)])
        query = Query("q", vec, 0)
        retrieval = _empty_retrieval(query, dim=16)
        eps = rng.uniform(0.2, 3.0)
        fused = fuse(query, retrieval, mix=1.0, epsilon=eps)
        assert fused.entropy <= entropy(vec) + 1e-12
        assert fused.entropy <= eps


def test_fuse_zero_vector_has_zero_entropy():
    query = Query("q", np.zeros(8), 0)
    fused = fuse(query, _empty_retrieval(query, dim=8), mix=1.0, epsilon=0.5)
    assert fused.entropy == 0.0
    assert not fused.vector.any()


def test_fuse_infeasible_bound_raises():
    vec = np.full(8, 1 / math.sqrt(8))
    query = Query("q", vec, 0)
    for epsilon in (-0.5, float("nan")):
        with pytest.raises(ValueError):
            fuse(query, _empty_retrieval(query, dim=8), mix=1.0, epsilon=epsilon)


def test_fuse_context_joined_newest_last_with_speaker_prefixes():
    cfg = EngineConfig(embedder=CFG)
    state = initial_state(cfg)
    old = _utterance("old words here", 0, 0)
    new = _utterance("new words here", 0, 1)
    state = _state(
        working_entries=[(old, embed(old.text, CFG)), (new, embed(new.text, CFG))],
        log=[SummaryRecord(0, "summary text line", embed("summary text line", CFG))],
    )
    query = make_query("words here", CFG, 1)
    result = retrieve(query, state, 4.0, 4, 512)
    fused = fuse(query, result, 0.5, 5.0)
    lines = fused.context_text.splitlines()
    assert lines[0].startswith("summary: ") or lines[0].startswith("spk: ")
    assert lines.index("spk: old words here") < lines.index("spk: new words here")
    assert fused.context_tokens == len(fused.context_text.split())


def test_fuse_rejects_bad_mix():
    query = make_query("x", CFG, 0)
    with pytest.raises(ValueError):
        fuse(query, _empty_retrieval(query), mix=1.5, epsilon=1.0)


def test_retrieved_items_are_tuples_in_field_order_that_refuse_assignment():
    item = RetrievedItem("w", "alice likes jazz", 0.5, 0.25, 3, 1, "spk", 3)
    assert isinstance(item, tuple)
    assert RetrievedItem._fields == (
        "layer", "text", "similarity", "score", "session_index", "turn_index", "speaker", "token_count"
    )
    assert item == ("w", "alice likes jazz", 0.5, 0.25, 3, 1, "spk", 3)
    with pytest.raises(AttributeError):
        item.score = 1.0


def _no_retrieval(dim: int) -> RetrievalResult:
    return RetrievalResult(np.zeros(dim), GatingWeights.uniform(1.0), (), 0)


def test_entropy_and_fuse_refuse_a_non_finite_vector():
    for vector in (np.array([np.nan, 1.0]), np.array([np.inf, 1.0]), np.array([-np.inf, np.inf])):
        with pytest.raises(ValueError, match="finite"):
            entropy(vector)
    nan_query = Query("q", np.array([np.nan, 1.0, 0.0]), 0)
    with pytest.raises(ValueError, match="finite"):
        fuse(nan_query, _no_retrieval(3), 1.0, 0.5)
    infinite_retrieval = RetrievalResult(np.array([np.inf, 0.0, 0.0]), GatingWeights.uniform(1.0), (), 0)
    with pytest.raises(ValueError, match="finite"):
        fuse(Query("q", np.ones(3), 0), infinite_retrieval, 0.5, 0.5)


def test_fuse_of_huge_tied_magnitudes_falls_back_to_the_one_hot():
    """Tied magnitudes of 1e300 stay uniform under every halving (the shifted magnitudes are all 0), so fuse
    returns its first-argmax one-hot, where dividing by tau once overflowed to inf - inf = NaN."""
    fused = fuse(Query("q", np.full(8, 1e300), 0), _no_retrieval(8), 1.0, 0.5)
    assert fused.vector.tolist() == [1.0] + [0.0] * 7
    assert math.copysign(1.0, fused.entropy) == 1.0 and fused.entropy == 0.0


def _sharpen_cases(count: int, seed: int):
    """(query, retrieval, mix, epsilon) over dims 1-300 and magnitudes 1e-300 to 1e288, spread over up to 600
    decades below the largest: some with zeros, some rounded into ties, some all equal; the bound lies between 0
    and the raw mix's entropy, or is 0 itself."""
    rng = np.random.default_rng(seed)
    for case in range(count):
        dim = int(rng.integers(1, 301))
        top = rng.uniform(-300.0, 288.0)
        spread = float(rng.choice([1e-3, 0.3, 3.0, 30.0, 600.0]))
        magnitudes = 10.0 ** np.clip(top - rng.uniform(0.0, spread, dim), -300.0, 288.0)
        if case % 4 == 1:
            magnitudes[rng.random(dim) < 0.3] = 0.0
        elif case % 4 == 2:
            largest = magnitudes.max()
            magnitudes = np.round(magnitudes / largest, int(rng.integers(1, 4))) * largest
        elif case % 8 == 3:
            magnitudes = np.full(dim, magnitudes[0])
        vector = magnitudes * rng.choice([-1.0, 1.0], dim)
        if case % 2:
            mix, other = float(rng.random()), rng.permutation(vector)
        else:
            mix, other = 1.0, np.zeros(dim)
        query, result = Query("q", vector, 0), RetrievalResult(other, GatingWeights.uniform(1.0), (), 0)
        h = entropy(mix * vector + (1.0 - mix) * other)
        epsilon = 0.0 if case % 10 == 0 else h * float(rng.random()) ** 3
        yield query, result, mix, epsilon


def test_fuse_equals_the_per_halving_reference_bit_for_bit():
    """fuse's passes of SHARPEN_BLOCK halvings return the vector bytes, entropy and context of one halving per loop,
    the winner as a new writable array of its own."""
    for case, (query, result, mix, epsilon) in enumerate(_sharpen_cases(1200, 17)):
        fused, expected = fuse(query, result, mix, epsilon), reference_fuse(query, result, mix, epsilon)
        assert fused.vector.tobytes() == expected.vector.tobytes(), case
        assert repr(fused.entropy) == repr(expected.entropy), case
        assert (fused.context_text, fused.context_tokens) == (expected.context_text, expected.context_tokens)
        assert fused.vector.flags.writeable and fused.vector.base is None, case


def test_fuse_of_an_answer_equals_the_reference_and_calls_entropy_once(monkeypatch):
    """A typical answer's mix needs a few halvings, and one pass settles them: entropy() itself sees the raw mix only,
    where one halving per loop called it once more per halving."""
    cfg = EngineConfig()
    state = run(generate_scenario(n_personas=4, periods=2, seed=0).sessions, cfg)[-1].state
    query = make_query("alice lives_in", cfg.embedder, 1)
    result, fused = answer(query, state, cfg)
    assert entropy(cfg.mix * query.embedding + (1.0 - cfg.mix) * result.vector) > cfg.epsilon
    expected = reference_fuse(query, result, cfg.mix, cfg.epsilon)
    assert (fused.vector.tobytes(), repr(fused.entropy)) == (expected.vector.tobytes(), repr(expected.entropy))
    calls = []
    monkeypatch.setattr(retrieval, "entropy", lambda vector: calls.append(vector) or entropy(vector))
    fuse(query, result, cfg.mix, cfg.epsilon)
    assert len(calls) == 1


def test_numpy_row_sums_are_the_one_dimensional_pairwise_sums():
    """fuse's passes rest on an assumption about numpy: ``sum(axis=1)`` over a C-contiguous 2-d float64 array, with
    or without keepdims, has in each row the bytes of that row summed alone as a 1-d array (numpy's pairwise sum).
    The addends here span 16 decades, so a build that sums rows in another order fails here first."""
    rng = np.random.default_rng(11)
    for width in [*range(1, 301), 511, 1024, 4099]:
        block = rng.standard_normal((8, width)) * 10.0 ** rng.uniform(-8.0, 8.0, (8, width))
        sums, kept = block.sum(axis=1), block.sum(axis=1, keepdims=True)
        for row, total, held in zip(block, sums, kept):
            alone = np.array(row.tolist()).sum()
            assert total.tobytes() == alone.tobytes() == held.tobytes(), width
