"""Layer relevances, softmax gating, budgeted retrieval, and bounded fusion.

Retrieval builds the three layer representation vectors once per state, gates
them (the query's cosine to each, softmaxed at temperature beta into a
probability simplex), blends them with those weights, and admits each layer's
top items (found by ``embedding.nearest`` over its stacked vectors) greedily
under a token budget. Its result carries the admitted items as one tuple in
admission order. Fusion mixes the query with the retrieval vector and
sharpens it until the entropy of its magnitude distribution falls under the
configured bound. The layer order is ``LAYERS``. Inside the package,
``engine.answer`` is the only code that chains them under an ``EngineConfig``.
Every vector is a plain numpy array: the episodic layer's representation is
the state's own read-only array, and the other vectors are new ones.

The first ``retrieve`` against a state builds its read index: the three
representations, each layer's items and row function, and the stacked
working and episodic matrices. ``_read_index`` is a one-entry
``functools.lru_cache`` keyed on the state, which hashes by identity, so a
retrieve against that same state object reuses it, any other state replaces
it, and a concurrent retrieve cannot pair one state with another's index.
States are immutable, so an index cannot go stale, and the one entry holds one
index and its state however many states a caller keeps. The semantic node
matrix, the largest, is not held: on the 1,024-node bench graph holding it
raised peak RSS 5.5-6.4%, so each retrieve stacks it with
``embedding.stacked``. ``layer_representation`` stays the uncached builder.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple, Sequence

import numpy as np

from .embedding import EmbedderConfig, cosine, embed, finite, frozen, nearest, stacked, unit
from .memory import MemoryState, node_text

LAYERS = ("w", "e", "s")

SHARPEN_MAX_ITERATIONS = 64


class EntropyBoundError(RuntimeError):
    """Sharpening could not bring the fused vector under the entropy bound."""


@dataclass(frozen=True)
class Query:
    text: str
    embedding: np.ndarray
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


def layer_representation(state: MemoryState, layer: str) -> np.ndarray:
    """One vector per layer: working mean, episodic state, importance-weighted node mean.

    Means are scaled to unit length by ``unit``; an empty layer yields the zero vector.
    """
    if layer == "w":
        if not state.working.entries:
            return np.zeros_like(state.episodic.state)
        return unit(np.mean([e for _, e in state.working.entries], axis=0))
    if layer == "e":
        return state.episodic.state
    if layer == "s":
        nodes = list(state.semantic.nodes.values())
        total = sum(n.importance for n in nodes)
        if total <= 0.0:
            return np.zeros_like(state.episodic.state)
        weighted = stacked([n.embedding for n in nodes])
        weighted *= (np.array([n.importance for n in nodes]) / total)[:, None]
        return unit(weighted.sum(axis=0))
    raise ValueError(f"unknown layer {layer!r}")


def softmax_weights(relevances: tuple[float, float, float], beta: float) -> tuple[float, float, float]:
    """Overflow-safe softmax of beta-scaled relevances."""
    if not (beta > 0.0 and finite(beta)):
        raise ValueError(f"beta must be finite and > 0, got {beta}")
    scaled = [beta * r for r in relevances]
    top = max(scaled)
    exps = [math.exp(s - top) for s in scaled]
    total = sum(exps)
    return tuple(e / total for e in exps)


def gate(query: Query, representations: tuple[np.ndarray, ...], beta: float) -> GatingWeights:
    """Softmax over the query's cosine to each layer representation, in LAYERS order."""
    relevances = tuple(cosine(query.embedding, rep) for rep in representations)
    gamma_w, gamma_e, gamma_s = softmax_weights(relevances, beta)
    return GatingWeights(gamma_w, gamma_e, gamma_s, beta)


def _layer_items(
    state: MemoryState, layer: str
) -> tuple[Sequence[tuple[Any, np.ndarray]], Callable[[Any], tuple[int, int, str, str]]]:
    """The layer's (record, vector) pairs, and the row (session, turn, text, speaker) of a record."""
    if layer == "w":
        return state.working.entries, lambda u: (u.session_index, u.turn_index, u.text, u.speaker)
    if layer == "e":
        return [(r, r.embedding) for r in state.episodic.log], lambda r: (r.session_index, -1, r.text, "summary")
    return [(n, n.embedding) for n in state.semantic.nodes.values()], lambda n: (
        n.last_updated, -1, node_text(n.entity_id, n.attributes), "fact"
    )


class _LayerIndex(NamedTuple):
    """A layer's (record, vector) pairs, its row function, its item vectors, and their matrix if held."""

    items: Sequence[tuple[Any, np.ndarray]]
    row: Callable[[Any], tuple[int, int, str, str]]
    vectors: list[np.ndarray]
    matrix: np.ndarray | None


class _ReadIndex(NamedTuple):
    representations: tuple[np.ndarray, ...]
    layers: tuple[_LayerIndex, ...]


@functools.lru_cache(maxsize=1)
def _read_index(state: MemoryState) -> _ReadIndex:
    """The state's read side, kept for the last state asked about; the semantic layer's matrix is not held."""
    layers = []
    for layer in LAYERS:
        items, row = _layer_items(state, layer)
        vectors = [e for _, e in items]
        layers.append(_LayerIndex(items, row, vectors, frozen(stacked(vectors)) if vectors and layer != "s" else None))
    return _ReadIndex(tuple(layer_representation(state, layer) for layer in LAYERS), tuple(layers))


def _layer_candidates(query: Query, layer: str, index: _LayerIndex, top_j: int, gamma: float) -> list[RetrievedItem]:
    """The layer's top-j by (-similarity, session, turn, text), each scored gamma * similarity.

    Only the items ``nearest`` keeps are rendered as rows (similarity,
    session, turn, text, speaker), so a node's text is built for those only.
    An item's token count is its text's whitespace token count, which an
    utterance's token_count is checked to equal.
    """
    items, row, vectors, matrix = index
    if not items:
        return []
    hits = nearest(stacked(vectors) if matrix is None else matrix, query.embedding, top_j)
    rows = [(sim, *row(items[i][0])) for i, sim in hits]
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
    representation is built once per state and serves both the gate and the
    blend.
    """
    if top_j < 1:
        raise ValueError("top_j must be >= 1")
    if token_budget < 1:
        raise ValueError("token_budget must be >= 1")
    representations, layers = _read_index(state)
    if weights is None:
        weights = gate(query, representations, beta)

    vector = np.zeros_like(state.episodic.state)
    candidates: list[RetrievedItem] = []
    for layer, rep, index, gamma in zip(LAYERS, representations, layers, weights.as_tuple()):
        vector += gamma * rep
        candidates += _layer_candidates(query, layer, index, top_j, gamma)
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
    it falls back to a first-argmax one-hot, whose entropy 0 meets any bound.
    A bound that is not >= 0 (NaN included) raises EntropyBoundError before any
    work. Context is the admitted items' prefixed texts joined newest-last.
    """
    if not 0.0 <= mix <= 1.0:
        raise ValueError(f"mix must lie in [0, 1], got {mix}")
    if not epsilon >= 0.0:
        raise EntropyBoundError(f"cannot satisfy entropy bound {epsilon} (the one-hot limit is 0)")
    raw = mix * query.embedding + (1.0 - mix) * retrieval.vector
    vector = raw
    h = entropy(raw)
    if h > epsilon:
        magnitudes = np.abs(raw)
        for k in range(1, SHARPEN_MAX_ITERATIONS + 1):
            candidate = _softmax_sharpened(magnitudes, 0.5**k)
            ch = entropy(candidate)
            if ch <= epsilon:
                vector, h = candidate, ch
                break
        else:
            vector = np.zeros_like(raw)
            vector[int(np.argmax(magnitudes))] = 1.0
            h = entropy(vector)

    ordered = sorted(
        retrieval.items,
        key=lambda i: (i.session_index, i.turn_index, LAYERS.index(i.layer), i.text),
    )
    context_text = "\n".join(f"{i.speaker}: {i.text}" for i in ordered)
    return FusedState(vector, h, context_text, len(context_text.split()))
