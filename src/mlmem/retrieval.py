"""Layer relevances, softmax gating, budgeted retrieval, and bounded fusion.

Retrieval builds the three layer representation vectors once per state, gates
them (the query's cosine to each, softmaxed at temperature beta into a
probability simplex), blends them with those weights, and admits each layer's
top items greedily under a token budget: ``embedding.nearest`` ranks each
layer by its grid score, which is the item's similarity, its ties broken by
the layer's row (session, turn, text, speaker) as key, and the items are built
from the rows it returns. A node's row starts with its ``last_updated``, which
the semantic scan passes as its coarse rank, so of the nodes tied at the cut
only those of the earliest sessions are rendered as text; the working and
episodic rows are cheap attribute reads and pass none. The gate keeps
``cosine``, as a representation need not be unit. Its result carries the
admitted items as one tuple in admission order, each a ``RetrievedItem``
NamedTuple. Fusion mixes the query with the retrieval vector and sharpens it
until the entropy of its magnitude distribution falls under the configured
bound: one array pass computes ``SHARPEN_BLOCK`` halvings of the softmax
temperature as rows, with each row's entropy, and the first row under the
bound wins, with the bytes one halving per loop gives. The layer order is ``LAYERS``.
Inside the package, ``engine.answer`` is the only code that chains them under
an ``EngineConfig``. Every vector is a plain numpy array: the episodic layer's
representation is the state's own read-only array, and the other vectors are
new ones.

Each layer is walked by ``_layer_view`` alone: its records (a semantic record
is an (id, node) pair, as a node's id is its graph key), their vectors and a
record's row. The first ``retrieve`` against a state builds its read index:
the three representations and each layer's view, each layer's vectors held as
one read-only matrix, so a retrieve scans them as they are. ``_read_index``
keeps one entry in a ``weakref.WeakKeyDictionary`` keyed on the state, which
hashes and compares by identity: a retrieve against that same state object
reuses it, the entry goes as soon as its state dies, and a build for another
state drops it before it builds, so at most one index is alive and the index
never keeps a state alive. A lookup matches only the state itself, so a
concurrent retrieve cannot pair one state with another's index; a race can at
worst build an index twice. States are immutable, so an index cannot go stale.
``_read_index.__wrapped__`` is the uncached builder. A build walks each layer
once and calls ``layer_representation`` with each layer's held matrix, so it
stacks each layer once and the semantic mean reads the node matrix the index
keeps; ``layer_representation`` without a matrix returns the index's own
vector, the one the gate reads, building the index if the state has none.
"""

from __future__ import annotations

import functools
import math
import weakref
from dataclasses import dataclass
from operator import attrgetter
from typing import Any, Callable, NamedTuple, Sequence

import numpy as np

from .embedding import EmbedderConfig, check_ranges, cosine, embed, frozen, nearest, stacked, unit
from .memory import MemoryState, node_text

LAYERS = ("w", "e", "s")

SHARPEN_MAX_ITERATIONS = 64

SIMPLEX_TOLERANCE = 1e-9  # how far a caller's gate weights may sum from 1, as perfbench's answer check allows

# Halvings per array pass of fuse. Every answer of the seed-1 perfbench workloads stops at halving 4, 5 or 6
# (chat_long: 2,111 at 4, 289 at 5; answer_heavy: 809 at 4, 5 at 5, 2 at 6; graph_wide: 187 at 4, 4 at 5, 1 at 6),
# so one pass almost always settles an answer.
SHARPEN_BLOCK = 8
# 2**k for the halvings k = 1..64: one (SHARPEN_BLOCK, 1) column of scales per pass. Python's exact powers of two,
# since nothing else runs numpy's power loop, and its first call faults in another 128 kB of the process's pages.
_SHARPEN_SCALES = np.array([2.0**k for k in range(1, SHARPEN_MAX_ITERATIONS + 1)]).reshape(-1, SHARPEN_BLOCK, 1)

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
    """Layer importances on the probability simplex, and the gate's temperature.

    The gate's softmax makes them; a caller may pass its own to ``retrieve``, which refuses weights off the simplex
    (one outside [0, 1], or a sum off 1 by more than ``SIMPLEX_TOLERANCE``) and a beta that breaks its ``RANGES``
    rule. The constructor checks nothing.
    """

    gamma_w: float
    gamma_e: float
    gamma_s: float
    beta: float

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.gamma_w, self.gamma_e, self.gamma_s)

    @classmethod
    def uniform(cls, beta: float) -> "GatingWeights":
        return cls(1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0, beta)


class RetrievedItem(NamedTuple):
    """One admitted item: its layer, text and scores, and the row it was ranked by."""

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


def layer_representation(state: MemoryState, layer: str, matrix: np.ndarray | None = None) -> np.ndarray:
    """One vector per layer: working mean, episodic state, importance-weighted node mean; ValueError if unknown.

    Means are scaled to unit length by ``unit``; an empty layer yields the zero vector. ``matrix`` holds the layer's
    vectors as rows, as the read index does; without it the state's read index answers, built if need be. einsum adds
    the weighted rows in order, each product rounded before its add: the bytes of
    ``mean += (importance / total) * embedding`` over the nodes, in ``state.semantic.nodes`` order.
    """
    if layer not in LAYERS:
        raise ValueError(f"unknown layer {layer!r}")
    if matrix is None:
        return _read_index(state)[0][LAYERS.index(layer)]
    if layer == "e":
        return state.episodic.state
    if not len(matrix):
        return np.zeros_like(state.episodic.state)
    if layer == "w":
        return unit(matrix.mean(axis=0))
    importances = [n.importance for n in state.semantic.nodes.values()]
    total = sum(importances)
    if total <= 0.0:
        return np.zeros_like(state.episodic.state)
    return unit(np.einsum("i,ij->j", np.array(importances) / total, matrix))


def softmax_weights(relevances: tuple[float, float, float], beta: float) -> tuple[float, float, float]:
    """Overflow-safe softmax of beta-scaled relevances."""
    check_ranges(beta=beta)
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
    """The one walk of a layer ("w", "e", else "s"): its records, their vectors in order, and a record's row."""
    if layer == "w":
        entries = state.working.entries
        row = attrgetter("session_index", "turn_index", "text", "speaker")
        return [u for u, _ in entries], [e for _, e in entries], row
    if layer == "e":
        log = state.episodic.log
        return log, [r.embedding for r in log], lambda r: (r.session_index, -1, r.text, "summary")
    nodes = list(state.semantic.nodes.items())
    return nodes, [n.embedding for _, n in nodes], lambda pair: (
        pair[1].last_updated, -1, node_text(pair[0], pair[1].attributes), "fact"
    )


def _one_live_state(build: Callable[[MemoryState], Any]) -> Callable[[MemoryState], Any]:
    """build, cached for the last state asked about while that state lives; ``cache_clear`` drops the entry,
    ``lookup`` returns it for its state (None for any other) and builds nothing, and ``__wrapped__`` is build
    itself."""
    held: weakref.WeakKeyDictionary[MemoryState, Any] = weakref.WeakKeyDictionary()

    @functools.wraps(build)
    def cached(state: MemoryState) -> Any:
        built = held.get(state)
        if built is None:
            held.clear()  # the old index dies before the new one is built
            built = held[state] = build(state)
        return built

    cached.cache_clear = held.clear
    cached.lookup = held.get
    return cached


@_one_live_state
def _read_index(state: MemoryState) -> tuple[tuple[np.ndarray, ...], tuple[_View, ...]]:
    """The state's read side: its representations, and each layer's view with its vectors held as a read-only
    matrix (an empty layer's stay an empty list)."""
    representations, layers = [], []
    for layer in LAYERS:
        records, vectors, row = _layer_view(state, layer)
        held = frozen(stacked(vectors)) if vectors else vectors
        representations.append(layer_representation(state, layer, held))
        layers.append((records, held, row))
    return tuple(representations), tuple(layers)


_held_index = _read_index.lookup  # bound once, so it reads the cache even where `_read_index` is swapped out


def held_node_matrix(state: MemoryState) -> np.ndarray | None:
    """The read-only node matrix of the state's read index when that index is built and the graph has a node, else
    None; it builds nothing, so ``engine.step`` hands a merge the matrix its last answer already paid for."""
    built = _held_index(state)
    if built is None:
        return None
    matrix = built[1][LAYERS.index("s")][1]
    return matrix if len(matrix) else None


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
    text's whitespace tokens, as an utterance's token_count, and the budget
    bounds their sum, token_cost, not the context ``fuse`` builds, which adds each
    item's speaker tokens. Passing ``weights``
    overrides the softmax gate (used for forced-uniform gating); ValueError unless they lie on the simplex and both
    beta and weights.beta keep beta's ``RANGES`` rule. Each layer
    representation is built once per state and serves both the gate and the
    blend.
    """
    check_ranges(top_j=top_j, token_budget=token_budget)
    representations, layers = _read_index(state)
    if weights is None:
        weights = gate(query, representations, beta)
    else:
        check_ranges(beta=beta)
        check_ranges(beta=weights.beta)
        gammas = weights.as_tuple()
        if not all(0.0 <= g <= 1.0 for g in gammas) or abs(sum(gammas) - 1.0) > SIMPLEX_TOLERANCE:
            raise ValueError(f"gate weights must lie in [0, 1] and sum to 1, got {gammas!r}")

    vector = np.zeros_like(state.episodic.state)
    candidates: list[RetrievedItem] = []
    for layer, rep, (records, vectors, row), gamma in zip(LAYERS, representations, layers, weights.as_tuple()):
        vector += gamma * rep
        if records:
            # a node's last_updated leads its row, so it ranks the tied nodes before any node text is rendered
            rank = (lambda i: records[i][1].last_updated) if layer == "s" else None
            hits = nearest(vectors, query.embedding, top_j, lambda i: row(records[i]), rank=rank)
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
    so its entropy is 0.0, never -0.0. Magnitudes that do not sum to a finite
    number (a NaN or infinite entry, or an overflowing sum) raise ValueError.
    """
    magnitudes = np.abs(np.asarray(vector, dtype=np.float64))
    total = float(magnitudes.sum())
    if not math.isfinite(total):
        raise ValueError(f"entropy needs magnitudes with a finite sum, got {total}")
    if total == 0.0:
        return 0.0
    p = magnitudes / total
    nonzero = p[p > 0.0]
    return 0.0 - float((nonzero * np.log(nonzero)).sum())


def fuse(query: Query, retrieval: RetrievalResult, mix: float, epsilon: float) -> FusedState:
    """Convex query/retrieval mix, sharpened until entropy <= epsilon.

    Sharpening replaces the vector with softmax(|raw| / tau), tau = 0.5**k,
    for the first halving k whose entropy meets the bound. One array pass
    takes SHARPEN_BLOCK halvings as rows: ``exp((|raw| - max|raw|) * 2**k)``
    over the row's own sum, and the row's entropy as ``entropy`` takes it
    (over its sum again, then ``0.0 - sum(p * log p)``), or through ``entropy``
    itself in a pass holding a zero (an exp underflow). Scaling by a power of
    two commutes with rounding, so the winner, a new writable array, has the
    bytes of one halving per loop. After 64 halvings (only magnitudes within
    about 2**-64 of the largest last that long; a ulp at 1e-10 is that close)
    it falls back to a first-argmax one-hot, whose entropy 0 meets any bound.
    A bound that is not >= 0 (NaN included) or a mix outside [0, 1] raises
    ValueError before any work; a non-finite query or retrieval vector raises
    entropy's ValueError before any sharpening. Context is the admitted items'
    texts, each prefixed ``speaker: ``, joined newest-last, so context_tokens is
    the budgeted token_cost plus each item's speaker tokens.
    """
    check_ranges(mix=mix)
    # epsilon's one rule outside RANGES, which holds a config's bound > 0: fuse alone also takes the one-hot limit, 0
    if not epsilon >= 0.0:
        raise ValueError(f"epsilon must be >= 0 (the one-hot limit), got {epsilon}")
    raw = mix * query.embedding + (1.0 - mix) * retrieval.vector
    vector = raw
    h = entropy(raw)
    if h > epsilon:
        magnitudes = np.abs(raw)
        shifted = magnitudes - magnitudes.max()
        for scales in _SHARPEN_SCALES:
            exps = np.exp(shifted * scales)
            candidates = exps / exps.sum(axis=1, keepdims=True)
            p = candidates / candidates.sum(axis=1, keepdims=True)
            if p.min() > 0.0:
                entropies = 0.0 - (p * np.log(p)).sum(axis=1)
            else:
                entropies = np.array([entropy(candidate) for candidate in candidates])
            passing = np.flatnonzero(entropies <= epsilon)
            if len(passing):
                vector, h = candidates[passing[0]].copy(), float(entropies[passing[0]])
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
