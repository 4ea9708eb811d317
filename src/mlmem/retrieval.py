"""Layer relevances, softmax gating, budgeted retrieval, and bounded fusion.

Retrieval builds the three layer representation vectors once per state, gates
them (the query's cosine to each, softmaxed at temperature beta into a
probability simplex), blends them with those weights, and admits each layer's
top items greedily under a token budget: ``embedding.nearest`` ranks each
layer by its grid score, which is the item's similarity, its ties broken by
the layer's row (session, turn, text, speaker) as key, and the items are built
from the rows it returns. The gate keeps ``cosine``, as a representation need
not be unit. Its result carries the
admitted items as one tuple in admission order. Fusion mixes the query with
the retrieval vector and sharpens it until the entropy of its magnitude
distribution falls under the configured bound. The layer order is ``LAYERS``.
Inside the package, ``engine.answer`` is the only code that chains them under
an ``EngineConfig``. Every vector is a plain numpy array: the episodic layer's
representation is the state's own read-only array, and the other vectors are
new ones.

Each layer is walked by ``_layer_view`` alone: its records, their vectors and
a record's row. The first ``retrieve`` against a state builds its read index:
the three representations and each layer's view, the working and episodic
vectors held as read-only matrices. ``_read_index`` is a one-entry
``functools.lru_cache`` keyed on the state, which hashes by identity, so a
retrieve against that same state object reuses it, any other state replaces
it, and a concurrent retrieve cannot pair one state with another's index.
States are immutable, so an index cannot go stale, and the one entry holds one
index and its state however many states a caller keeps. The semantic node
matrix, the largest, is not held: on the 1,024-node bench graph holding it
raised peak RSS by 8-9% (67.2 to 72.6-73.4 MB, snapshot v2) against a 5%
bound, so each retrieve stacks it with ``embedding.stacked``.
``layer_representation`` stays the uncached builder.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from operator import attrgetter
from typing import Any, Callable, Sequence

import numpy as np

from .embedding import EmbedderConfig, cosine, embed, finite, frozen, nearest, stacked, unit
from .memory import MemoryState, node_text

LAYERS = ("w", "e", "s")

SHARPEN_MAX_ITERATIONS = 64

# A layer's records, their vectors in order (a list, or the read index's read-only matrix), and the row
# (session, turn, text, speaker) of a record, the fields its retrieved item is ranked and built from.
_View = tuple[Sequence[Any], np.ndarray | list[np.ndarray], Callable[[Any], tuple[int, int, str, str]]]


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
    if layer == "e":
        return state.episodic.state
    records, vectors, _ = _layer_view(state, layer)
    if layer == "w":
        return unit(np.mean(vectors, axis=0)) if vectors else np.zeros_like(state.episodic.state)
    total = sum(n.importance for n in records)
    if total <= 0.0:
        return np.zeros_like(state.episodic.state)
    weighted = stacked(vectors)
    weighted *= (np.array([n.importance for n in records]) / total)[:, None]
    return unit(weighted.sum(axis=0))


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


def _layer_view(state: MemoryState, layer: str) -> _View:
    """The one walk of a layer: its records, their vectors in order, and a record's row; ValueError if unknown."""
    if layer == "w":
        entries = state.working.entries
        row = attrgetter("session_index", "turn_index", "text", "speaker")
        return [u for u, _ in entries], [e for _, e in entries], row
    if layer == "e":
        log = state.episodic.log
        return log, [r.embedding for r in log], lambda r: (r.session_index, -1, r.text, "summary")
    if layer == "s":
        nodes = list(state.semantic.nodes.values())
        return nodes, [n.embedding for n in nodes], lambda n: (
            n.last_updated, -1, node_text(n.entity_id, n.attributes), "fact"
        )
    raise ValueError(f"unknown layer {layer!r}")


@functools.lru_cache(maxsize=1)
def _read_index(state: MemoryState) -> tuple[tuple[np.ndarray, ...], tuple[_View, ...]]:
    """The state's read side, kept for the last state asked about: its representations, and each layer's view
    with the working and episodic vectors held as a read-only matrix (the semantic layer's are left a list)."""
    layers = []
    for layer in LAYERS:
        records, vectors, row = _layer_view(state, layer)
        layers.append((records, frozen(stacked(vectors)) if vectors and layer != "s" else vectors, row))
    return tuple(layer_representation(state, layer) for layer in LAYERS), tuple(layers)


def retrieve(
    query: Query,
    state: MemoryState,
    beta: float,
    top_j: int,
    token_budget: int,
    weights: GatingWeights | None = None,
) -> RetrievalResult:
    """Gated retrieval vector plus greedy token-budgeted item admission.

    Items are scored similarity times the layer's gate weight and admitted in
    descending score, skipping any item that would overflow the budget (ties:
    lower session_index, then lower turn_index, then LAYERS order, then text).
    The result's items are the admitted ones in that order; an item costs its
    text's whitespace tokens, as an utterance's token_count. Passing ``weights``
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
    for layer, rep, (records, vectors, row), gamma in zip(LAYERS, representations, layers, weights.as_tuple()):
        vector += gamma * rep
        if records:
            matrix = stacked(vectors) if isinstance(vectors, list) else vectors
            hits = nearest(matrix, query.embedding, top_j, lambda i: row(records[i]))
            candidates += [RetrievedItem(layer, text, sim, gamma * sim, sess, turn, speaker, len(text.split()))
                           for (sess, turn, text, speaker), sim in hits]
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

    The zero vector has no mass to distribute and is assigned entropy 0. A
    one-hot's sum, 1 * log 1, is 0.0; it is subtracted from 0.0, not negated,
    so its entropy is 0.0, never -0.0.
    """
    magnitudes = np.abs(np.asarray(vector, dtype=np.float64))
    total = float(magnitudes.sum())
    if total == 0.0:
        return 0.0
    p = magnitudes / total
    nonzero = p[p > 0.0]
    return 0.0 - float((nonzero * np.log(nonzero)).sum())


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
    A bound that is not >= 0 (NaN included) or a mix outside [0, 1] raises
    ValueError before any work. Context is the admitted items' prefixed texts joined newest-last.
    """
    if not 0.0 <= mix <= 1.0:
        raise ValueError(f"mix must lie in [0, 1], got {mix}")
    if not epsilon >= 0.0:
        raise ValueError(f"epsilon must be >= 0 (the one-hot limit), got {epsilon}")
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
