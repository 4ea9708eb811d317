"""The three memory layers and their consolidation updates.

Working memory is a bounded tail of the latest session, episodic memory is a
decayed running blend of session-summary embeddings plus a ring-buffered log,
and semantic memory is an entity graph with similarity-thresholded merging,
recency-wins conflict resolution, and (importance, recency) eviction.

Every update is a pure function of (previous state, session, config), so
replaying a session sequence reproduces bit-identical states.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace

import numpy as np

from .embedding import Embedding, EmbedderConfig, cosine, embed


@dataclass(frozen=True)
class FactTriple:
    """(subject, attribute-or-relation, value) with extraction confidence."""

    subject: str
    predicate: str
    object: str
    confidence: float = 1.0


@dataclass(frozen=True)
class Utterance:
    session_index: int
    turn_index: int
    speaker: str
    text: str
    token_count: int
    annotations: tuple[FactTriple, ...] = ()

    def __post_init__(self) -> None:
        if self.session_index < 0 or self.turn_index < 0:
            raise ValueError("session_index and turn_index must be non-negative")
        actual = len(self.text.split())
        if actual == 0:
            raise ValueError("utterance text must contain at least one token")
        if self.token_count != actual:
            raise ValueError(f"token_count {self.token_count} != {actual} whitespace tokens")

    @classmethod
    def from_text(
        cls,
        session_index: int,
        turn_index: int,
        speaker: str,
        text: str,
        annotations: tuple[FactTriple, ...] = (),
    ) -> "Utterance":
        return cls(session_index, turn_index, speaker, text, len(text.split()), annotations)


@dataclass(frozen=True)
class Session:
    index: int
    utterances: tuple[Utterance, ...]

    def __post_init__(self) -> None:
        if not self.utterances:
            raise ValueError("session must contain at least one utterance")
        for u in self.utterances:
            if u.session_index != self.index:
                raise ValueError(f"utterance session_index {u.session_index} != session {self.index}")
        turns = [u.turn_index for u in self.utterances]
        if any(b <= a for a, b in zip(turns, turns[1:])):
            raise ValueError("turn_index must be strictly increasing within a session")

    def token_count(self) -> int:
        return sum(u.token_count for u in self.utterances)


@dataclass(frozen=True)
class WorkingMemory:
    """Most recent session's tail, bounded by window size and a token budget."""

    entries: tuple[tuple[Utterance, Embedding], ...]
    window_k: int
    capacity_tokens: int

    def __post_init__(self) -> None:
        if self.window_k < 1 or self.capacity_tokens < 1:
            raise ValueError("window_k and capacity_tokens must be positive")
        if len(self.entries) > self.window_k:
            raise ValueError("working memory exceeds its window")
        if self.token_count() > self.capacity_tokens:
            raise ValueError("working memory exceeds its token budget")

    def token_count(self) -> int:
        return sum(u.token_count for u, _ in self.entries)

    @classmethod
    def empty(cls, window_k: int, capacity_tokens: int) -> "WorkingMemory":
        return cls((), window_k, capacity_tokens)


@dataclass(frozen=True)
class SummaryRecord:
    session_index: int
    text: str
    embedding: Embedding
    salience: float


@dataclass(frozen=True)
class EpisodicMemory:
    """Decayed blend of summary embeddings plus a ring buffer of the summaries."""

    state: Embedding
    log: tuple[SummaryRecord, ...]
    capacity: int
    alpha: float

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ValueError("episodic capacity must be positive")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha}")
        if len(self.log) > self.capacity:
            raise ValueError("episodic log exceeds capacity")

    @classmethod
    def empty(cls, dim: int, capacity: int, alpha: float) -> "EpisodicMemory":
        return cls(Embedding.zeros(dim), (), capacity, alpha)


@dataclass(frozen=True)
class AttributeValue:
    value: str
    session_index: int
    superseded: tuple[str, ...] = ()


@dataclass(frozen=True)
class EntityNode:
    entity_id: str
    attributes: dict[str, AttributeValue]
    embedding: Embedding
    importance: float
    last_updated: int


def node_text(entity_id: str, attributes: dict[str, AttributeValue]) -> str:
    """Canonical node rendering, attributes sorted by name; also the embedding source."""
    parts = [entity_id]
    for name in sorted(attributes):
        parts.append(f"{name} {attributes[name].value}")
    return " ".join(parts)


@dataclass(frozen=True)
class SemanticGraph:
    """Entity-event graph: attributed nodes plus deduplicated relation edges."""

    nodes: dict[str, EntityNode] = field(default_factory=dict)
    edges: tuple[tuple[str, str, str, int, float], ...] = ()
    capacity_nodes: int = 64

    def __post_init__(self) -> None:
        if self.capacity_nodes < 1:
            raise ValueError("capacity_nodes must be positive")
        if len(self.nodes) > self.capacity_nodes:
            raise ValueError("node count exceeds capacity_nodes")
        for edge in self.edges:
            if edge[0] not in self.nodes:
                raise ValueError(f"edge subject {edge[0]!r} has no node")

    def current_value(self, subject: str, attribute: str) -> str | None:
        node = self.nodes.get(subject.lower().strip())
        if node is None:
            return None
        record = node.attributes.get(attribute)
        return None if record is None else record.value

    @classmethod
    def empty(cls, capacity_nodes: int) -> "SemanticGraph":
        return cls({}, (), capacity_nodes)


@dataclass(frozen=True)
class MemoryState:
    """The full layered state; session_cursor is -1 before anything is ingested."""

    working: WorkingMemory
    episodic: EpisodicMemory
    semantic: SemanticGraph
    session_cursor: int


def update_working(state: WorkingMemory, session: Session, embedder: EmbedderConfig) -> WorkingMemory:
    """Replace the window with the session tail, trimming oldest past the token budget."""
    kept = list(session.utterances[-state.window_k:])
    while kept and sum(u.token_count for u in kept) > state.capacity_tokens:
        kept.pop(0)
    entries = tuple((u, embed(u.text, embedder)) for u in kept)
    return replace(state, entries=entries)


def summarize(session: Session, m: int, embedder: EmbedderConfig) -> SummaryRecord:
    """Extractive summary: the top-m utterances by cosine to the session centroid.

    Ties go to the lower turn_index; selected utterances are concatenated in
    original order; salience is the mean selected cosine clamped to [0, 1].
    """
    if m < 1:
        raise ValueError("summary size m must be >= 1")
    embeddings = [embed(u.text, embedder) for u in session.utterances]
    centroid = Embedding(
        np.mean([e.values for e in embeddings], axis=0), embedder.dim
    )
    scores = [cosine(e, centroid) for e in embeddings]
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], session.utterances[i].turn_index))
    chosen = sorted(order[:m])
    text = " ".join(session.utterances[i].text for i in chosen)
    salience = max(0.0, min(1.0, sum(scores[i] for i in chosen) / len(chosen)))
    return SummaryRecord(session.index, text, embed(text, embedder), salience)


def update_episodic(
    prev: EpisodicMemory, summary: SummaryRecord, *, renormalize: bool = True
) -> EpisodicMemory:
    """Blend state <- alpha*state + (1-alpha)*summary; renormalize only past unit norm.

    The summary is appended to the log, evicting the oldest record at capacity.
    ``renormalize=False`` exposes the raw recursion for closed-form verification.
    """
    blended = prev.alpha * prev.state.values + (1.0 - prev.alpha) * summary.embedding.values
    if renormalize:
        norm = float(np.linalg.norm(blended))
        if norm > 1.0:
            blended = blended / norm
    log = (prev.log + (summary,))[-prev.capacity:]
    return replace(prev, state=Embedding(blended, prev.state.dim), log=log)


_FACT_PATTERNS = (
    (re.compile(r"^([a-z0-9_]+)\s+lives\s+in\s+(.+)$"), "lives_in"),
    (re.compile(r"^([a-z0-9_]+)\s+works\s+(?:as|at)\s+(.+)$"), "works"),
    (re.compile(r"^([a-z0-9_]+)\s+(likes|loves|hates)\s+(.+)$"), None),
    (re.compile(r"^([a-z0-9_]+)\s+is\s+(.+)$"), "is"),
)

_TRAILING_PUNCT = re.compile(r"[\s.,;:!?]+$")


def extract_facts(summary: SummaryRecord, session: Session) -> list[FactTriple]:
    """Pattern-based triples over the session's utterances plus annotation passthrough.

    The summary argument is the consolidation hook; triples are mined from the
    raw utterances so annotation-carried ground truth is never lost to
    summarization. Unmatched utterances yield nothing.
    """
    del summary
    triples: list[FactTriple] = []
    for utterance in session.utterances:
        text = _TRAILING_PUNCT.sub("", utterance.text.lower().strip())
        for pattern, relation in _FACT_PATTERNS:
            match = pattern.match(text)
            if match is None:
                continue
            if relation is None:
                subject, verb, obj = match.groups()
                triples.append(FactTriple(subject, verb, obj.strip(), 1.0))
            else:
                subject, obj = match.groups()
                triples.append(FactTriple(subject, relation, obj.strip(), 1.0))
            break
        for annotation in utterance.annotations:
            triples.append(annotation)
    return triples


def _canonical(value: str) -> str:
    return value.lower().strip()


def merge_semantic(
    graph: SemanticGraph,
    facts: list[FactTriple],
    session_index: int,
    tau_s: float,
    embedder: EmbedderConfig,
) -> SemanticGraph:
    """Fold triples into the graph with thresholded entity matching and eviction.

    A triple lands on an exact entity_id match, else on the highest-cosine node
    at or above tau_s (ties to the lexicographically smaller id), else a new
    node. Same-attribute conflicts resolve recency-wins with the old value kept
    in the superseded list. Past capacity, nodes with the lowest
    (importance, last_updated) are evicted and their edges dropped.
    """
    if not 0.0 <= tau_s <= 1.0:
        raise ValueError(f"tau_s must lie in [0, 1], got {tau_s}")
    nodes = dict(graph.nodes)
    edges: dict[tuple[str, str, str], tuple[str, str, str, int, float]] = {
        (e[0], e[1], e[2]): e for e in graph.edges
    }

    for triple in facts:
        subject = _canonical(triple.subject)
        predicate = _canonical(triple.predicate)
        value = _canonical(triple.object)
        if not subject:
            continue

        target_id = subject if subject in nodes else None
        if target_id is None and nodes:
            candidate_text = node_text(subject, {predicate: AttributeValue(value, session_index)})
            candidate = embed(candidate_text, embedder)
            scores = {node_id: cosine(candidate, node.embedding) for node_id, node in nodes.items()}
            best_score = max(scores.values())
            if best_score >= tau_s:
                target_id = min(nid for nid, score in scores.items() if score == best_score)

        if target_id is None:
            target_id = subject
            nodes[target_id] = EntityNode(target_id, {}, Embedding.zeros(embedder.dim), 0.0, session_index)

        node = nodes[target_id]
        edge_key = (target_id, predicate, value)
        existing_edge = edges.get(edge_key)
        if existing_edge is not None and existing_edge[3] == session_index:
            continue
        if existing_edge is None or session_index > existing_edge[3]:
            edges[edge_key] = (target_id, predicate, value, session_index, triple.confidence)

        attributes = dict(node.attributes)
        record = attributes.get(predicate)
        if record is None:
            attributes[predicate] = AttributeValue(value, session_index)
        elif record.value == value:
            attributes[predicate] = replace(record, session_index=max(record.session_index, session_index))
        elif session_index >= record.session_index:
            attributes[predicate] = AttributeValue(value, session_index, record.superseded + (record.value,))
        else:
            attributes[predicate] = replace(record, superseded=record.superseded + (value,))

        nodes[target_id] = EntityNode(
            target_id,
            attributes,
            embed(node_text(target_id, attributes), embedder),
            node.importance + 1.0,
            max(node.last_updated, session_index),
        )

    if len(nodes) > graph.capacity_nodes:
        ranked = sorted(nodes.values(), key=lambda n: (n.importance, n.last_updated, n.entity_id))
        doomed = {n.entity_id for n in ranked[: len(nodes) - graph.capacity_nodes]}
        nodes = {nid: node for nid, node in nodes.items() if nid not in doomed}
        edges = {k: e for k, e in edges.items() if e[0] not in doomed}

    return SemanticGraph(nodes, tuple(edges.values()), graph.capacity_nodes)
