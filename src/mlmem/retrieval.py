"""Layer relevances, softmax gating, budgeted retrieval, and bounded fusion.

Retrieval builds the three layer representation vectors once, gates them (the
query's cosine to each, softmaxed at temperature beta into a probability
simplex), blends them with those weights, and admits each layer's top items
greedily under a token budget. A layer's top items are found by one
matrix-vector product over its stacked vectors (``embedding.shortlist``) and
ranked by ``cosine`` over the shortlisted items only, so the ranking is the
one that scoring every item gives. Its result carries the admitted items as
one tuple in admission order. Fusion mixes the query with the retrieval vector and
sharpens it until the entropy of its magnitude distribution falls under the
configured bound. The layer order is ``LAYERS``. Inside the package,
``engine.answer`` is the only code that chains them under an ``EngineConfig``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from .embedding import Embedding, EmbedderConfig, cosine, embed, shortlist
from .memory import MemoryState, node_text

LAYERS = ("w", "e", "s")

SHARPEN_MAX_ITERATIONS = 64


class EntropyBoundError(RuntimeError):
    """Sharpening could not bring the fused vector under the entropy bound."""


@dataclass(frozen=True)
class Query:
    text: str
    embedding: Embedding
    session_index: int


def make_query(text: str, embedder: EmbedderConfig, session_index: int) -> Query:
    return Query(text, embed(text, embedder), session_index)


@dataclass(frozen=True)
class GatingWeights:
    """Softmax layer importances; always a probability simplex point."""

    gamma_w: float
    gamma_e: float
    gamma_s: float
    beta: float

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.gamma_w, self.gamma_e, self.gamma_s)

    @classmethod
    def uniform(cls, beta: float) -> "GatingWeights":
        return cls(1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0, beta)


@dataclass(frozen=True)
class RetrievedItem:
    layer: str
    text: str
    similarity: float
    score: float
    session_index: int
    turn_index: int
    speaker: str
    token_count: int


@dataclass(frozen=True)
class RetrievalResult:
    """The gated blend vector and the admitted items of all layers, in admission order."""

    vector: np.ndarray
    weights: GatingWeights
    items: tuple[RetrievedItem, ...]
    token_cost: int

    def all_items(self) -> tuple[RetrievedItem, ...]:
        return self.items


@dataclass(frozen=True)
class FusedState:
    vector: np.ndarray
    entropy: float
    context_text: str
    context_tokens: int


def layer_representation(state: MemoryState, layer: str) -> Embedding:
    """One vector per layer: working mean, episodic state, importance-weighted node mean.

    Means are renormalized to unit length; an empty layer yields the zero vector.
    """
    dim = state.episodic.state.dim
    if layer == "w":
        if not state.working.entries:
            return Embedding.zeros(dim)
        mean = np.mean([e.values for _, e in state.working.entries], axis=0)
        return _renormalized(mean, dim)
    if layer == "e":
        return state.episodic.state
    if layer == "s":
        nodes = list(state.semantic.nodes.values())
        if not nodes:
            return Embedding.zeros(dim)
        total = sum(n.importance for n in nodes)
        if total <= 0.0:
            return Embedding.zeros(dim)
        weighted = np.stack([n.embedding.values for n in nodes])
        weighted *= (np.array([n.importance for n in nodes]) / total)[:, None]
        return _renormalized(weighted.sum(axis=0), dim)
    raise ValueError(f"unknown layer {layer!r}")


def _renormalized(vec: np.ndarray, dim: int) -> Embedding:
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:
        return Embedding.zeros(dim)
    return Embedding(vec / norm, dim)


def softmax_weights(relevances: tuple[float, float, float], beta: float) -> tuple[float, float, float]:
    """Overflow-safe softmax of beta-scaled relevances."""
    if not (beta > 0.0 and math.isfinite(beta)):
        raise ValueError(f"beta must be finite and > 0, got {beta}")
    scaled = [beta * r for r in relevances]
    top = max(scaled)
    exps = [math.exp(s - top) for s in scaled]
    total = sum(exps)
    return tuple(e / total for e in exps)


def gate(query: Query, representations: tuple[Embedding, ...], beta: float) -> GatingWeights:
    """Softmax over the query's cosine to each layer representation, in LAYERS order."""
    relevances = tuple(cosine(query.embedding, rep) for rep in representations)
    gamma_w, gamma_e, gamma_s = softmax_weights(relevances, beta)
    return GatingWeights(gamma_w, gamma_e, gamma_s, beta)


def _layer_items(
    state: MemoryState, layer: str
) -> tuple[Sequence[tuple[Any, Embedding]], Callable[[Any], tuple[int, int, str, str]]]:
    """The layer's (record, vector) pairs, and the row (session, turn, text, speaker) of a record."""
    if layer == "w":
        return state.working.entries, lambda u: (u.session_index, u.turn_index, u.text, u.speaker)
    if layer == "e":
        return [(r, r.embedding) for r in state.episodic.log], lambda r: (r.session_index, -1, r.text, "summary")
    return [(n, n.embedding) for n in state.semantic.nodes.values()], lambda n: (
        n.last_updated, -1, node_text(n.entity_id, n.attributes), "fact"
    )


def _layer_candidates(
    query: Query, state: MemoryState, layer: str, top_j: int, gamma: float
) -> list[RetrievedItem]:
    """The layer's top-j by (-similarity, session, turn, text), each scored gamma * similarity.

    ``shortlist(..., top_j)`` over the stacked item vectors keeps every item
    whose cosine may reach the top-j, ties included; only those are scored by
    ``cosine`` and rendered as rows (similarity, session, turn, text,
    speaker), so a node's text is built for the shortlist only. An item's
    token count is its text's whitespace token count, which an utterance's
    token_count is checked to equal.
    """
    items, row = _layer_items(state, layer)
    if not items:
        return []
    q = query.embedding
    picked = shortlist(np.stack([e.values for _, e in items]), q.values, top_j)
    rows = [(cosine(items[i][1], q), *row(items[i][0])) for i in picked]
    rows.sort(key=lambda r: (-r[0], r[1], r[2], r[3]))
    return [
        RetrievedItem(layer, text, sim, gamma * sim, sess, turn, speaker, len(text.split()))
        for sim, sess, turn, text, speaker in rows[:top_j]
    ]


def retrieve(
    query: Query,
    state: MemoryState,
    beta: float,
    top_j: int,
    token_budget: int,
    weights: GatingWeights | None = None,
) -> RetrievalResult:
    """Gated retrieval vector plus greedy token-budgeted item admission.

    Items are scored layer-cosine times the layer's gate weight and admitted in
    descending score, skipping any item that would overflow the budget (ties:
    lower session_index, then lower turn_index, then LAYERS order, then text).
    The result's items are the admitted ones in that order. Passing ``weights``
    overrides the softmax gate (used for forced-uniform gating). Each layer
    representation is built once and serves both the gate and the blend.
    """
    if top_j < 1:
        raise ValueError("top_j must be >= 1")
    if token_budget < 1:
        raise ValueError("token_budget must be >= 1")
    representations = tuple(layer_representation(state, layer) for layer in LAYERS)
    if weights is None:
        weights = gate(query, representations, beta)

    vector = np.zeros(state.episodic.state.dim)
    candidates: list[RetrievedItem] = []
    for layer, rep, gamma in zip(LAYERS, representations, weights.as_tuple()):
        vector += gamma * rep.values
        candidates += _layer_candidates(query, state, layer, top_j, gamma)
    candidates.sort(key=lambda i: (-i.score, i.session_index, i.turn_index, LAYERS.index(i.layer), i.text))

    items: list[RetrievedItem] = []
    spent = 0
    for item in candidates:
        if spent + item.token_count > token_budget:
            continue
        items.append(item)
        spent += item.token_count
    return RetrievalResult(vector, weights, tuple(items), spent)


def entropy(vector: np.ndarray) -> float:
    """Shannon entropy (natural log) of the L1-normalized magnitude distribution.

    The zero vector has no mass to distribute and is assigned entropy 0.
    """
    magnitudes = np.abs(np.asarray(vector, dtype=np.float64))
    total = float(magnitudes.sum())
    if total == 0.0:
        return 0.0
    p = magnitudes / total
    nonzero = p[p > 0.0]
    return float(-(nonzero * np.log(nonzero)).sum())


def _softmax_sharpened(magnitudes: np.ndarray, tau: float) -> np.ndarray:
    scaled = magnitudes / tau
    scaled -= scaled.max()
    exps = np.exp(scaled)
    return exps / exps.sum()


def fuse(query: Query, retrieval: RetrievalResult, mix: float, epsilon: float) -> FusedState:
    """Convex query/retrieval mix, sharpened until entropy <= epsilon.

    Sharpening replaces the vector with softmax(|raw| / tau) at tau halved per
    iteration; after 64 halvings (only exact magnitude ties survive that long)
    it falls back to a first-argmax one-hot. A bound below the one-hot limit
    raises EntropyBoundError. Context is the admitted items' prefixed texts
    joined newest-last.
    """
    if not 0.0 <= mix <= 1.0:
        raise ValueError(f"mix must lie in [0, 1], got {mix}")
    raw = mix * query.embedding.values + (1.0 - mix) * retrieval.vector
    vector = raw
    h = entropy(raw)
    if h > epsilon:
        magnitudes = np.abs(raw)
        solved = False
        for k in range(1, SHARPEN_MAX_ITERATIONS + 1):
            candidate = _softmax_sharpened(magnitudes, 0.5**k)
            ch = entropy(candidate)
            if ch <= epsilon:
                vector, h, solved = candidate, ch, True
                break
        if not solved:
            one_hot = np.zeros_like(raw)
            one_hot[int(np.argmax(magnitudes))] = 1.0
            h = entropy(one_hot)
            if h > epsilon:
                raise EntropyBoundError(
                    f"cannot satisfy entropy bound {epsilon} (one-hot limit is {h})"
                )
            vector = one_hot

    ordered = sorted(
        retrieval.items,
        key=lambda i: (i.session_index, i.turn_index, LAYERS.index(i.layer), i.text),
    )
    context_text = "\n".join(f"{i.speaker}: {i.text}" for i in ordered)
    return FusedState(vector, h, context_text, len(context_text.split()))
