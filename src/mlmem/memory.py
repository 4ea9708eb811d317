"""The three memory layers and their consolidation updates.

Working memory is a bounded tail of the latest session, episodic memory is a
decayed running blend of session-summary embeddings plus a ring-buffered log,
and semantic memory is an entity graph with similarity-thresholded merging,
recency-wins conflict resolution, and (importance, recency) eviction. Each
node attribute holds its current value with the session it was last stated
at: a displaced value is gone, so the graph holds at most C_s nodes and their
attributes, and no fact history. A triple's confidence is checked on input
and never stored, since no decision reads it.
Graph facts are mined from raw utterances, not from the episodic summary: a
line states one when, case-folded and with trailing whitespace and ``.,;:!?``
trimmed, it reads ``subject verb value``, the subject one ``[a-z0-9_]`` token
and the verb ``lives in`` (relation ``lives_in``), ``works as`` or ``works at``
(``works``), or ``likes``, ``loves``, ``hates`` or ``is`` (each its own
relation); ``_VERBS`` is that table.
The summary's and the merge's scans go through ``embedding.nearest``, whose
score is each row's similarity here and whose ties go to the key each passes:
the summary's row index (its turn order) and the merge's node id. The merge
passes tau_s as the scan's floor. A merge embeds each node it changes once,
however many of its triples touch it.

Every vector a layer holds is a read-only embedding array (see ``embedding``);
the updates build new arrays and never write one in place. The layers hold
data only and check nothing when built; ``engine.check_state`` lists what the
updates keep. Each update takes its bounds (k, C_w, alpha, C_e, C_s) as
arguments, raising ValueError when one breaks its ``embedding.RANGES`` rule,
and is a pure function of them: replaying sessions reproduces bit-identical states.
"""

from __future__ import annotations

import heapq
import re
from dataclasses import dataclass, field, replace
from typing import Any, NamedTuple

import numpy as np

from .embedding import EmbedderConfig, check_kinds, check_ranges, embed, frozen, nearest, stacked


@dataclass(frozen=True)
class FactTriple:
    """(subject, attribute-or-relation, value) with extraction confidence; ValueError when a part is blank or the
    confidence is no finite number (``check_kinds``). The confidence is input only: ``merge_semantic`` stores none."""

    subject: str
    predicate: str
    object: str
    confidence: float = 1.0

    def __post_init__(self) -> None:
        if not (self.subject.strip() and self.predicate.strip() and self.object.strip()):
            raise ValueError(f"fact parts must not be blank, got {(self.subject, self.predicate, self.object)!r}")
        check_kinds("FactTriple.confidence", "float", (self.confidence,))


@dataclass(frozen=True)
class Utterance:
    """One line of a session; token_count is its text's whitespace tokens, counted on construction and replace."""

    session_index: int
    turn_index: int
    speaker: str
    text: str
    token_count: int = field(init=False)
    annotations: tuple[FactTriple, ...] = ()

    def __post_init__(self) -> None:
        if self.session_index < 0 or self.turn_index < 0:
            raise ValueError("session_index and turn_index must be non-negative")
        token_count = len(self.text.split())
        if token_count == 0:
            raise ValueError("utterance text must contain at least one token")
        object.__setattr__(self, "token_count", token_count)
        if type(self.annotations) is not tuple or not all(type(a) is FactTriple for a in self.annotations):
            raise ValueError(f"annotations must be a tuple of FactTriple, got {self.annotations!r}")

    @classmethod
    def from_text(cls, *args: Any) -> "Utterance":
        """``Utterance(*args)``: the constructor under its former name, which the benchmark (``perfbench``) calls."""
        return cls(*args)


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

    entries: tuple[tuple[Utterance, np.ndarray], ...] = ()

    def token_count(self) -> int:
        return sum(u.token_count for u, _ in self.entries)


@dataclass(frozen=True)
class SummaryRecord:
    session_index: int
    text: str
    embedding: np.ndarray


@dataclass(frozen=True)
class EpisodicMemory:
    """Decayed blend of summary embeddings plus a ring buffer of the summaries."""

    state: np.ndarray
    log: tuple[SummaryRecord, ...] = ()

    @classmethod
    def empty(cls, dim: int) -> "EpisodicMemory":
        return cls(frozen(np.zeros(dim)))


class Attribute(NamedTuple):
    """A node attribute's current value and the last session it was stated at."""

    value: str
    session: int


@dataclass(frozen=True)
class EntityNode:
    """A graph node; its id is its key in ``SemanticGraph.nodes``, which no field restates."""

    attributes: dict[str, Attribute]
    embedding: np.ndarray
    importance: float
    last_updated: int


def node_text(entity_id: str, attributes: dict[str, Attribute]) -> str:
    """Canonical node rendering, attribute values sorted by name; also the embedding source."""
    parts = [entity_id]
    for name in sorted(attributes):
        parts.append(f"{name} {attributes[name].value}")
    return " ".join(parts)


@dataclass(frozen=True)
class SemanticGraph:
    """Attributed nodes; each attribute is the graph's one fact about its (node, predicate).

    ``edges`` derives the (node, predicate, value) -> session view of the attributes on each read.
    Nothing in the engine reads it; it stays because the benchmark (``perfbench``) reports its size.
    """

    nodes: dict[str, EntityNode] = field(default_factory=dict)

    @property
    def edges(self) -> dict[tuple[str, str, str], int]:
        return {
            (node_id, name, attribute.value): attribute.session
            for node_id, node in self.nodes.items()
            for name, attribute in node.attributes.items()
        }

    def current_value(self, subject: str, attribute: str) -> str | None:
        node = self.nodes.get(canonical(subject))
        current = None if node is None else node.attributes.get(canonical(attribute))
        return None if current is None else current.value


@dataclass(frozen=True, eq=False)
class MemoryState:
    """The full layered state; session_cursor is -1 before anything is ingested; embedder made its vectors.

    It hashes and compares by identity, so it can key ``retrieval``'s read index: field-wise ``==`` would
    ask numpy arrays for one truth value, and dicts do not hash. Compare states by ``dumps_state`` bytes, which
    in deterministic mode fix each working, log and node vector by its text alone (see ``snapshot``).
    """

    working: WorkingMemory
    episodic: EpisodicMemory
    semantic: SemanticGraph
    session_cursor: int
    embedder: EmbedderConfig = field(default_factory=EmbedderConfig)


def update_working(session: Session, k: int, C_w: int, embedder: EmbedderConfig) -> WorkingMemory:
    """A new window of the session's last k utterances, trimming the oldest past C_w tokens."""
    check_ranges(k=k, C_w=C_w)
    kept = list(session.utterances[-k:])
    while kept and sum(u.token_count for u in kept) > C_w:
        kept.pop(0)
    return WorkingMemory(tuple((u, embed(u.text, embedder)) for u in kept))


def summarize(session: Session, m: int, embedder: EmbedderConfig) -> SummaryRecord:
    """Extractive summary: the top-m utterances by ``nearest``'s score against the session centroid.

    Ties go to the lower turn_index; selected utterances are concatenated in
    original order.
    """
    check_ranges(summary_m=m)
    matrix = stacked([embed(u.text, embedder) for u in session.utterances])
    chosen = sorted(i for i, _ in nearest(matrix, matrix.mean(axis=0), m))
    text = " ".join(session.utterances[i].text for i in chosen)
    return SummaryRecord(session.index, text, embed(text, embedder))


def update_episodic(
    prev: EpisodicMemory, summary: SummaryRecord, alpha: float, C_e: int, *, renormalize: bool = True
) -> EpisodicMemory:
    """Blend state <- alpha*state + (1-alpha)*summary; renormalize only past unit norm.

    The summary is appended to the log, evicting the oldest records past C_e.
    ``renormalize=False`` exposes the raw recursion for closed-form verification.
    """
    check_ranges(alpha=alpha, C_e=C_e)
    blended = alpha * prev.state + (1.0 - alpha) * summary.embedding
    if renormalize:
        norm = float(np.linalg.norm(blended))
        if norm > 1.0:
            blended = blended / norm
    return EpisodicMemory(frozen(blended), (prev.log + (summary,))[-C_e:])


# Each verb form a fact line may state, and the relation its triple names; _FACT_LINE matches any of them.
_VERBS = {"lives in": "lives_in", "works as": "works", "works at": "works", "likes": "likes", "loves": "loves",
          "hates": "hates", "is": "is"}
_FACT_LINE = re.compile(r"^([a-z0-9_]+)\s+(" + "|".join(v.replace(" ", r"\s+") for v in _VERBS) + r")\s+(.+)$")

_TRAILING_PUNCT = re.compile(r"[\s.,;:!?]+$")


def extract_facts(session: Session) -> list[FactTriple]:
    """Pattern-based triples over the session's utterances plus annotation passthrough.

    Triples are mined from the raw utterances, not from the session summary, so
    annotation-carried ground truth is never lost to summarization. A line
    that ``_FACT_LINE`` matches (see the module docstring) yields (subject,
    its verb's relation, value); other lines yield nothing.
    """
    triples: list[FactTriple] = []
    for utterance in session.utterances:
        match = _FACT_LINE.match(_TRAILING_PUNCT.sub("", utterance.text.lower().strip()))
        if match is not None:
            subject, verb, value = match.groups()
            triples.append(FactTriple(subject, _VERBS[" ".join(verb.split())], value, 1.0))
        triples.extend(utterance.annotations)
    return triples


def canonical(text: str) -> str:
    """The form ``merge_semantic`` stores each entity id, attribute name and value in."""
    return text.lower().strip()


def merge_semantic(
    graph: SemanticGraph,
    facts: list[FactTriple],
    session_index: int,
    tau_s: float,
    C_s: int,
    embedder: EmbedderConfig,
) -> SemanticGraph:
    """Fold triples into the graph with thresholded entity matching and eviction.

    A triple lands on the node keyed by its subject, else on the top ``nearest`` node
    at or above tau_s (ties to the lexicographically smaller id), else a new
    node. tau_s is the scan's floor, so a candidate that no node can reach over
    the candidate's nonzero columns costs no full scan, and the bound is exact
    (see ``nearest``). A triple that restates an attribute's value at the
    attribute's session is skipped. Recency wins: a triple at that session or
    later becomes the attribute, its value and session, so within a session
    the last statement wins. An older triple changes no attribute.
    Each triple not skipped adds 1 to its node's importance. Past C_s nodes,
    those with the lowest (importance, last_updated, id) are evicted.

    The match scans a row buffer of the node vectors with ``nearest``. The
    buffer lives for this call only, so the graph holds each vector once. A
    node whose attribute values change is re-embedded once, before a scan reads
    its row or at the end unless evicted, as folding one triple per call would see.
    """
    check_ranges(tau_s=tau_s, C_s=C_s)
    nodes = dict(graph.nodes)
    # The node vectors in `nodes` order plus a spare row per triple, built at
    # the first unseen subject; the merge's only scan reads it after `refresh`
    # re-embeds the `stale` nodes, whose vector and row lag their attributes.
    matrix: np.ndarray | None = None
    ids: list[str] = []
    rows: dict[str, int] = {}
    stale: dict[str, None] = {}

    def refresh() -> None:
        for nid in filter(nodes.__contains__, stale):  # an evicted node is not re-embedded
            nodes[nid] = replace(nodes[nid], embedding=embed(node_text(nid, nodes[nid].attributes), embedder))
            if matrix is not None:
                matrix[rows[nid]] = nodes[nid].embedding
        stale.clear()

    for triple in facts:
        subject = canonical(triple.subject)
        predicate = canonical(triple.predicate)
        stated = Attribute(canonical(triple.object), session_index)

        target_id = subject if subject in nodes else None
        if target_id is None and nodes:
            candidate = embed(node_text(subject, {predicate: stated}), embedder)
            refresh()
            if matrix is None:
                matrix = stacked([node.embedding for node in nodes.values()] + [np.zeros(embedder.dim)] * len(facts))
                ids = list(nodes)
                rows = {nid: row for row, nid in enumerate(ids)}
            hits = nearest(matrix[: len(ids)], candidate, 1, ids.__getitem__, floor=tau_s)
            if hits:
                ((target_id, _),) = hits

        if target_id is None:
            target_id = subject
            nodes[target_id] = EntityNode({}, frozen(np.zeros(embedder.dim)), 0.0, session_index)
            if matrix is not None:
                rows[target_id] = len(ids)
                ids.append(target_id)

        node = nodes[target_id]
        attributes = node.attributes
        current = attributes.get(predicate)
        if current == stated:
            continue
        if current is None or session_index >= current.session:
            attributes = {**attributes, predicate: stated}
            if current is None or current.value != stated.value:
                stale[target_id] = None

        nodes[target_id] = EntityNode(
            attributes, node.embedding, node.importance + 1.0, max(node.last_updated, session_index)
        )

    if len(nodes) > C_s:
        # ids are distinct, so the key is a total order over nodes and the doomed set does not depend on their order
        ranked = ((n.importance, n.last_updated, nid) for nid, n in nodes.items())
        for *_, nid in heapq.nsmallest(len(nodes) - C_s, ranked):
            del nodes[nid]
    refresh()

    return SemanticGraph(nodes)
