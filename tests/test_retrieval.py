"""Gating softmax, layer representations, budgeted retrieval, entropy-bounded fusion."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from mlmem.embedding import EmbedderConfig, cosine, embed
from mlmem.engine import EngineConfig, initial_state
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
    entropy,
    fuse,
    gate,
    layer_representation,
    make_query,
    retrieve,
    softmax_weights,
)
from state_vectors import grid_scores

CFG = EmbedderConfig(dim=64, seed=9)
DIM = CFG.dim


def _unit(direction: int, dim: int = DIM) -> np.ndarray:
    vec = np.zeros(dim)
    vec[direction] = 1.0
    return vec


def _utterance(text: str, session: int = 0, turn: int = 0) -> Utterance:
    return Utterance.from_text(session, turn, "spk", text)


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


def _node(entity_id: str, embedding: np.ndarray, importance: float, last_updated: int = 0) -> EntityNode:
    return EntityNode(entity_id, {"likes": Attribute("x", last_updated, 1.0)}, embedding, importance, last_updated)


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
    nodes = {"a": _node("a", e1, 1.0), "b": _node("b", e2, 3.0)}
    state = _state(nodes=nodes)
    rep = layer_representation(state, "s")
    expected = 0.25 * e1 + 0.75 * e2
    expected = expected / np.linalg.norm(expected)
    assert np.allclose(rep, expected, atol=1e-12)


def test_episodic_representation_is_the_state_vector():
    vec = np.full(DIM, 0.1)
    state = _state(episodic_state=vec)
    assert np.array_equal(layer_representation(state, "e"), vec)


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
        nodes={"carol": _node("carol", embed("carol hikes", CFG), 2.0)},
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
        nodes={"carol": _node("carol", embed("carol hikes", CFG), 2.0)},
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


def _three_layer_state() -> MemoryState:
    texts = ["alice likes jazz", "alice likes long jazz sets", "bob plays chess", "alice hikes"]
    summaries = ["alice likes jazz and hikes", "bob plays chess", "carol reads"]
    return _state(
        working_entries=[(_utterance(t, 2, turn), embed(t, CFG)) for turn, t in enumerate(texts)],
        episodic_state=embed("alice likes jazz", CFG),
        log=[SummaryRecord(i, t, embed(t, CFG), 1.0) for i, t in enumerate(summaries)],
        nodes={
            "alice": _node("alice", embed("alice likes x", CFG), 2.0, 1),
            "bob": _node("bob", embed("bob likes x", CFG), 1.0, 0),
            "carol": _node("carol", embed("carol likes x", CFG), 1.0, 2),
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
            (n.embedding, n.last_updated, -1, node_text(n.entity_id, n.attributes), "fact")
            for n in state.semantic.nodes.values()
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
        log=[SummaryRecord(0, "summary text line", embed("summary text line", CFG), 1.0)],
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
