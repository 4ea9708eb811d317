"""The three memory layers and their consolidation updates.

Working memory is a bounded tail of the latest session, episodic memory is a
decayed running blend of session-summary embeddings plus a ring-buffered log,
and semantic memory is an entity graph with similarity-thresholded merging,
recency-wins conflict resolution, and (importance, recency) eviction. Graph
facts are mined from raw utterances, not from the episodic summary. A merge
scans the graph for an unseen subject with one matrix-vector product
(``embedding.shortlist``) and decides the match by ``cosine`` over the
shortlisted nodes only.

The layers hold data only: each update takes its bounds (k, C_w, alpha, C_e,
C_s) as arguments, raising ValueError when one is out of range, and is a pure
function of them, so replaying a session sequence reproduces bit-identical states.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from .embedding import Embedding, EmbedderConfig, cosine, embed, shortlist


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
    """Most recent session's tail; ``update_working`` bounds it by k and C_w."""

    entries: tuple[tuple[Utterance, Embedding], ...] = ()

    def token_count(self) -> int:
        return sum(u.token_count for u, _ in self.entries)


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
    log: tuple[SummaryRecord, ...] = ()

    @classmethod
    def empty(cls, dim: int) -> "EpisodicMemory":
        return cls(Embedding.zeros(dim))


@dataclass(frozen=True)
class AttributeValue:
    value: str
    session_index: int


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
    """Attributed nodes plus the fact history: one edge per (node, predicate, value) stated, at its last session."""

    nodes: dict[str, EntityNode] = field(default_factory=dict)
    edges: tuple[tuple[str, str, str, int, float], ...] = ()

    def __post_init__(self) -> None:
        for edge in self.edges:
            if edge[0] not in self.nodes:
                raise ValueError(f"edge subject {edge[0]!r} has no node")

    def current_value(self, subject: str, attribute: str) -> str | None:
        node = self.nodes.get(subject.lower().strip())
        if node is None:
            return None
        record = node.attributes.get(attribute)
        return None if record is None else record.value


@dataclass(frozen=True)
class MemoryState:
    """The full layered state; session_cursor is -1 before anything is ingested."""

    working: WorkingMemory
    episodic: EpisodicMemory
    semantic: SemanticGraph
    session_cursor: int


def update_working(session: Session, k: int, C_w: int, embedder: EmbedderConfig) -> WorkingMemory:
    """A new window of the session's last k utterances, trimming the oldest past C_w tokens."""
    if k < 1 or C_w < 1:
        raise ValueError(f"k and C_w must be >= 1, got {k}, {C_w}")
    kept = list(session.utterances[-k:])
    while kept and sum(u.token_count for u in kept) > C_w:
        kept.pop(0)
    return WorkingMemory(tuple((u, embed(u.text, embedder)) for u in kept))


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
    prev: EpisodicMemory, summary: SummaryRecord, alpha: float, C_e: int, *, renormalize: bool = True
) -> EpisodicMemory:
    """Blend state <- alpha*state + (1-alpha)*summary; renormalize only past unit norm.

    The summary is appended to the log, evicting the oldest records past C_e.
    ``renormalize=False`` exposes the raw recursion for closed-form verification.
    """
    if not 0.0 <= alpha <= 1.0 or C_e < 1:
        raise ValueError(f"alpha must lie in [0, 1] and C_e be >= 1, got {alpha}, {C_e}")
    blended = alpha * prev.state.values + (1.0 - alpha) * summary.embedding.values
    if renormalize:
        norm = float(np.linalg.norm(blended))
        if norm > 1.0:
            blended = blended / norm
    return EpisodicMemory(Embedding(blended, prev.state.dim), (prev.log + (summary,))[-C_e:])


_FACT_PATTERNS = (
    (re.compile(r"^([a-z0-9_]+)\s+lives\s+in\s+(.+)$"), "lives_in"),
    (re.compile(r"^([a-z0-9_]+)\s+works\s+(?:as|at)\s+(.+)$"), "works"),
    (re.compile(r"^([a-z0-9_]+)\s+(likes|loves|hates)\s+(.+)$"), None),
    (re.compile(r"^([a-z0-9_]+)\s+is\s+(.+)$"), "is"),
)

_TRAILING_PUNCT = re.compile(r"[\s.,;:!?]+$")


def extract_facts(session: Session) -> list[FactTriple]:
    """Pattern-based triples over the session's utterances plus annotation passthrough.

    Triples are mined from the raw utterances, not from the session summary, so
    annotation-carried ground truth is never lost to summarization. Unmatched
    utterances yield nothing.
    """
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
    C_s: int,
    embedder: EmbedderConfig,
) -> SemanticGraph:
    """Fold triples into the graph with thresholded entity matching and eviction.

    A triple lands on an exact entity_id match, else on the highest-cosine node
    at or above tau_s (ties to the lexicographically smaller id), else a new
    node. A triple whose edge was last stated in this session is skipped;
    otherwise its edge keeps its latest session, and recency wins: the triple
    becomes the attribute's value unless the attribute was set at a later
    session. Past C_s nodes, those with the lowest (importance, last_updated)
    are evicted and their edges dropped.

    The match is decided by ``cosine``: ``shortlist(..., 1)`` over a row
    buffer of the node vectors keeps every node that may hold the best cosine,
    ties included, and only those are scored. The buffer lives for this call
    only, so the graph holds each vector once.
    """
    if not 0.0 <= tau_s <= 1.0 or C_s < 1:
        raise ValueError(f"tau_s must lie in [0, 1] and C_s be >= 1, got {tau_s}, {C_s}")
    nodes = dict(graph.nodes)
    edges: dict[tuple[str, str, str], tuple[str, str, str, int, float]] = {
        (e[0], e[1], e[2]): e for e in graph.edges
    }
    # The node vectors in `nodes` order plus a spare row per triple, built at
    # the first unseen subject and kept current; the merge's only scan reads it.
    matrix: np.ndarray | None = None
    rows: dict[str, int] = {}

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
            if matrix is None:
                matrix = np.zeros((len(nodes) + len(facts), embedder.dim))
                np.stack([node.embedding.values for node in nodes.values()], out=matrix[: len(nodes)])
                rows = {nid: row for row, nid in enumerate(nodes)}
            ids = list(nodes)
            scores = {
                ids[i]: cosine(candidate, nodes[ids[i]].embedding)
                for i in shortlist(matrix[: len(ids)], candidate.values, 1)
            }
            best_score = max(scores.values())
            if best_score >= tau_s:
                target_id = min(nid for nid, score in scores.items() if score == best_score)

        if target_id is None:
            target_id = subject
            nodes[target_id] = EntityNode(target_id, {}, Embedding.zeros(embedder.dim), 0.0, session_index)
            if matrix is not None:
                rows[target_id] = len(rows)

        node = nodes[target_id]
        edge_key = (target_id, predicate, value)
        existing_edge = edges.get(edge_key)
        if existing_edge is not None and existing_edge[3] == session_index:
            continue
        if existing_edge is None or session_index > existing_edge[3]:
            edges[edge_key] = (target_id, predicate, value, session_index, triple.confidence)

        attributes = dict(node.attributes)
        record = attributes.get(predicate)
        if record is None or session_index >= record.session_index:
            attributes[predicate] = AttributeValue(value, session_index)

        nodes[target_id] = EntityNode(
            target_id,
            attributes,
            embed(node_text(target_id, attributes), embedder),
            node.importance + 1.0,
            max(node.last_updated, session_index),
        )
        if matrix is not None:
            matrix[rows[target_id]] = nodes[target_id].embedding.values

    if len(nodes) > C_s:
        ranked = sorted(nodes.values(), key=lambda n: (n.importance, n.last_updated, n.entity_id))
        doomed = {n.entity_id for n in ranked[: len(nodes) - C_s]}
        nodes = {nid: node for nid, node in nodes.items() if nid not in doomed}
        edges = {k: e for k, e in edges.items() if e[0] not in doomed}

    return SemanticGraph(nodes, tuple(edges.values()))
