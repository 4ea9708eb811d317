"""Test helpers for the vectors a state holds, which a deterministic snapshot does not write.

``state_bytes`` is what tests compare states by: the snapshot plus every held
vector's bytes. ``reference_embed`` is the deterministic embedding as the
README states it, with no memo at all, from the exact integer ``hash_counts``. ``reference_nearest`` is the scan as
the README states it: every row scored on the grid, the rows below the floor
dropped, the rest keyed and sorted. ``always_reachable`` is the bound that rules nothing out, so a merge run under it
scans every candidate in full. ``reference_fuse`` is fusion one halving at a time, each candidate's entropy
taken by ``entropy`` itself.
"""

from __future__ import annotations

import hashlib
from typing import Any, Callable, Iterator

import numpy as np

from mlmem.embedding import tokenize
from mlmem.engine import EngineConfig
from mlmem.memory import MemoryState, node_text
from mlmem.retrieval import LAYERS, FusedState, Query, RetrievalResult, entropy
from mlmem.snapshot import dumps_state


def held_vectors(state: MemoryState) -> Iterator[tuple[str, np.ndarray]]:
    """(text, vector) of every working entry, log record and node, in snapshot order; the vector embeds the text."""
    yield from ((u.text, vector) for u, vector in state.working.entries)
    yield from ((record.text, record.embedding) for record in state.episodic.log)
    yield from ((node_text(nid, n.attributes), n.embedding) for nid, n in state.semantic.nodes.items())


def state_bytes(state: MemoryState, cfg: EngineConfig) -> bytes:
    """The state's snapshot, then the bytes of the episodic state and of every held vector."""
    vectors = [state.episodic.state, *(vector for _, vector in held_vectors(state))]
    return dumps_state(state, cfg).encode() + b"".join(vector.tobytes() for vector in vectors)


def hash_counts(text: str, dim: int, seed: int) -> np.ndarray:
    """The hashed count vector of text, hashing every token afresh: each token's 8-byte blake2b digest under the
    seed's 8-byte little-endian signed key, read little-endian as h, adds +1 to bucket h % dim when h's top bit
    is set and -1 otherwise. Its entries are small integers, held exactly."""
    counts = np.zeros(dim)
    key = seed.to_bytes(8, "little", signed=True)
    for token in tokenize(text):
        h = int.from_bytes(hashlib.blake2b(token.encode("utf-8"), key=key, digest_size=8).digest(), "little")
        counts[h % dim] += 1.0 if h >> 63 else -1.0
    return counts


def reference_embed(text: str, dim: int, seed: int) -> np.ndarray:
    """``hash_counts`` scaled to L2 norm 1 (a zero count vector stays zero)."""
    counts = hash_counts(text, dim, seed)
    norm = np.linalg.norm(counts)
    return counts / norm if norm > 0.0 else counts


def grid_scores(matrix: np.ndarray, query: np.ndarray) -> list[float]:
    """Each row's scan score: its inner product with the unit query, clamped to [-1, 1] and rounded to 12
    decimals; all 0 for a zero query. The product is one matrix-vector product, as the scan takes it."""
    norm = np.linalg.norm(query)
    if norm == 0.0:
        return [0.0] * len(matrix)
    return np.round(np.clip(matrix @ (query / norm), -1.0, 1.0), 12).tolist()


def reference_nearest(
    matrix: np.ndarray,
    query: np.ndarray,
    count: int,
    key: Callable[[int], Any] = int,
    floor: float = -1.0,
    rank: Callable[[int], Any] | None = None,
) -> list[tuple[Any, float]]:
    """Every row's (key(row), grid score) that is at least floor, in one stable sort by (-score, key), cut at count.
    It scores and keys every row in full: floor only filters, it never skips a product, and rank is ignored."""
    hits = [(key(row), score) for row, score in enumerate(grid_scores(matrix, query)) if score >= floor]
    return sorted(hits, key=lambda hit: (-hit[1], hit[0]))[:count]


def always_reachable(matrix: np.ndarray, queries: np.ndarray, floor: float) -> list[bool]:
    """``embedding.reachable`` with no bound at all: every query may reach the floor, so every scan runs."""
    return [True] * len(queries)


def reference_fuse(query: Query, retrieval: RetrievalResult, mix: float, epsilon: float) -> FusedState:
    """The mix, then softmax(|raw| / tau) at tau = 0.5**k for k = 1..64, one halving per loop: the first candidate
    whose entropy is at most epsilon wins, else the first-argmax one-hot. Context as ``fuse`` joins it."""
    raw = mix * query.embedding + (1.0 - mix) * retrieval.vector
    vector = raw
    h = entropy(raw)
    if h > epsilon:
        magnitudes = np.abs(raw)
        for k in range(1, 64 + 1):
            scaled = magnitudes / 0.5**k
            scaled -= scaled.max()
            exps = np.exp(scaled)
            candidate = exps / exps.sum()
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
