"""Per-session orchestration: consolidate all layers, answer the query, respond.

``answer`` is the one gate -> retrieve -> fuse path: it reads the retrieval
knobs of an ``EngineConfig`` (uniform gating, top-j, token budget, mix,
epsilon), and the step, the harness probes and ``mlmem query`` all go through
it. One step folds a session into each enabled layer, answers the query against
the new state, generates a response through a pluggable responder, and records
the semantic drift against the pre-step graph. The layer bounds come from the
step's cfg alone, so a state built under another config is resumed under the
given one; a layer the cfg disables is carried over as it is, and the step
raises ValueError when it exceeds the cfg's bounds. A run folds steps from the
zero state (or a resumed one), one step per output asked for (``steps``; ``run``
keeps them all), each asking the session's final utterance and answering with
the ``TemplateResponder``; a caller that asks anything else calls ``step``.
Replaying the same sessions reproduces bit-identical outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from operator import attrgetter, ge, ne
from typing import Any, Iterator, Protocol, Sequence

from .embedding import RANGES, UNIT_TOLERANCE, EmbedderConfig, check_field_kinds, check_kinds, check_ranges
from .memory import (
    EpisodicMemory,
    MemoryState,
    SemanticGraph,
    Session,
    WorkingMemory,
    canonical,
    extract_facts,
    merge_semantic,
    summarize,
    update_episodic,
    update_working,
)
from .retention import DriftReport, drift
from .retrieval import (
    LAYERS,
    FusedState,
    GatingWeights,
    Query,
    RetrievalResult,
    fuse,
    held_node_matrix,
    make_query,
    retrieve,
)


class EngineRunError(RuntimeError):
    """A step failed mid-run; the session index is in the message."""


@dataclass(frozen=True)
class EngineConfig:
    """All engine knobs in one place, kind- and range-checked once at construction; each changes a run.

    The layer bounds live here only, and ``step`` passes them to the updates: k
    and C_w cap working memory's utterances and tokens, alpha is the episodic
    decay and C_e its log length, and C_s caps the semantic graph's nodes.

    lambda weights the tuner objective only, so it is an axis of ``tune``, not a field.

    enabled_layers and uniform_gating exist for the harness's baseline policies
    and ablation variants: a disabled layer is never consolidated (``step``
    rejects one that exceeds its bounds), and uniform gating pins the weights
    at (1/3, 1/3, 1/3).
    """

    k: int = 8
    C_w: int = 256
    C_e: int = 16
    C_s: int = 64
    alpha: float = 0.6
    beta: float = 4.0
    tau_s: float = 0.9
    epsilon: float = 2.0
    mix: float = 0.5
    top_j: int = 4
    token_budget: int = 512
    summary_m: int = 3
    embedder: EmbedderConfig = field(default_factory=EmbedderConfig)
    enabled_layers: tuple[str, ...] = LAYERS
    uniform_gating: bool = False

    def __post_init__(self) -> None:
        check_field_kinds(self)
        check_ranges(**{f.name: getattr(self, f.name) for f in fields(self) if f.name in RANGES})
        layers = self.enabled_layers
        if not (layers and all(x in LAYERS for x in layers) and len(set(layers)) == len(layers)):
            raise ValueError(f"enabled_layers must be a tuple naming one or more of {LAYERS} once each, got {layers!r}")


# Each layer's bounds in EngineConfig, in the order check_layer_bounds reads the sizes.
_LAYER_BOUNDS = (("w", "k"), ("w", "C_w"), ("e", "C_e"), ("s", "C_s"))


def check_layer_bounds(state: MemoryState, cfg: EngineConfig, layers: Sequence[str] = LAYERS) -> None:
    """ValueError when one of the layers exceeds its cfg bound: k and C_w for w, C_e for e, C_s for s."""
    working = state.working
    sizes = (len(working.entries), working.token_count(), len(state.episodic.log), len(state.semantic.nodes))
    for (layer, name), size in zip(_LAYER_BOUNDS, sizes):
        bound = getattr(cfg, name)
        if layer in layers and size > bound:
            raise ValueError(f"layer size {size} exceeds the config's {name}={bound}")


def check_embedder(state: MemoryState, cfg: EngineConfig) -> None:
    """ValueError unless cfg's embedder made the state's vectors; the zero state (cursor -1) has none but its
    zero episodic state, so it takes any embedder of that dim."""
    if state.embedder != cfg.embedder and (state.session_cursor >= 0 or state.embedder.dim != cfg.embedder.dim):
        raise ValueError(f"the state was built under {state.embedder}, not the config's {cfg.embedder}")


def check_state(state: MemoryState, cfg: EngineConfig) -> None:
    """ValueError unless the state keeps what every update keeps; this is the one list of those rules.

    - Every scalar is of its field's kind (``check_field_kinds``), a node's id and an attribute's name and value str,
      an attribute's session int.
    - session_cursor is at least -1, and every recorded session (a working entry's, a log record's, an attribute's,
      a node's last_updated) lies in [0, session_cursor]: resuming would fold a session in twice.
    - The working entries make one ``Session``, as ``update_working`` keeps the tail of one session.
    - The log's sessions strictly increase: ``update_episodic`` evicts the oldest record by position.
    - Each log record's text has a whitespace token, as ``summarize`` joins whole utterances and each has one.
    - The log is empty only beside a zero episodic state: every blend appends its summary, and with ``C_e`` >= 1 the
      log never empties again.
    - The episodic state's L2 norm is at most 1 + ``UNIT_TOLERANCE``: a blend of a state of norm at most 1 with a
      unit or zero summary stays within 1, and ``update_episodic`` rescales past it.
    - Each node's id (its key in the graph) and each attribute's name and value are non-blank and ``canonical``, as a
      merge stores and looks them up (``Alice `` would be a node no merge or query reaches): ``FactTriple`` refuses a
      blank part, and ``canonical`` keeps a non-blank part non-blank.
    - Each node has an attribute, and its importance is a whole number of at least its attribute count: a merge
      writes an attribute into every node it makes, and each triple it folds adds 1 to an importance from 0.
    - Each node's last_updated is its newest attribute's session, as a merge moves both to its session.
    - The layers keep cfg's bounds (``check_layer_bounds``).

    ``step`` builds no state this refuses and does not call it; a snapshot load does, once.
    """
    cursor, log, nodes = state.session_cursor, state.episodic.log, state.semantic.nodes
    utterances = tuple(u for u, _ in state.working.entries)
    for records in ((state,), utterances, log, tuple(nodes.values())):
        check_field_kinds(*records)
    # each column is gathered and kind-checked once, before any rule below reads it
    ids = list(nodes)
    names = [name for node in nodes.values() for name in node.attributes]
    rows = [attribute for node in nodes.values() for attribute in node.attributes.values()]
    values, sessions = [a.value for a in rows], [a.session for a in rows]
    for name, kind, column in (("node id", "str", ids), ("attribute name", "str", names),
                               ("attribute value", "str", values), ("attribute session", "int", sessions)):
        check_kinds(name, kind, column)

    logged = [r.session_index for r in log]
    recorded = [*(u.session_index for u in utterances), *logged, *sessions, *(n.last_updated for n in nodes.values())]
    if cursor < -1 or min(recorded, default=0) < 0 or max(recorded, default=cursor) > cursor:
        raise ValueError(f"session_cursor {cursor} is below -1, or a recorded session lies outside [0, {cursor}]")
    if utterances:
        Session(utterances[0].session_index, utterances)  # its constructor refuses any other tail
    if any(map(ge, logged, logged[1:])):
        raise ValueError(f"episodic log sessions {logged} do not strictly increase")
    for record in log:
        if not record.text.split():
            raise ValueError(f"log record of session {record.session_index} has text {record.text!r} with no "
                             "token, which no summary has")
    if not log and state.episodic.state.any():
        raise ValueError("the episodic log is empty beside a nonzero episodic state, though every blend appends its "
                         "summary")
    norm = math.sqrt(float(state.episodic.state.dot(state.episodic.state)))
    if norm > 1.0 + UNIT_TOLERANCE:
        raise ValueError(f"the episodic state must have L2 norm at most 1, as every blend has, got {norm!r}")

    # whole columns (names repeat, so their set) show cheaply whether any text is blank or not canonical; only then
    # does the loop below look for the node to name
    flagged = any(not all(column) or any(map(ne, column, map(canonical, column)))
                  for column in (ids, set(names), values))
    for entity_id, node in nodes.items():
        attributes, importance = node.attributes, node.importance
        if not attributes:
            raise ValueError(f"node {entity_id!r} has no attributes")
        if importance < len(attributes):
            raise ValueError(f"node {entity_id!r} has importance {importance} below its {len(attributes)} attributes")
        if not float(importance).is_integer():
            raise ValueError(f"node {entity_id!r} has importance {importance}, which no count of merged triples is")
        newest = max(map(attrgetter("session"), attributes.values()))
        if newest > node.last_updated:
            name = next(name for name, attribute in attributes.items() if attribute.session == newest)
            raise ValueError(f"node {entity_id!r} is older than its attribute {name!r} of session {newest}")
        if newest < node.last_updated:
            raise ValueError(f"node {entity_id!r} was updated at session {node.last_updated}, after its newest "
                             f"attribute, of session {newest}")
        if flagged:
            if not entity_id:
                raise ValueError("a node has a blank entity_id, a part no FactTriple holds")
            if entity_id != canonical(entity_id):
                raise ValueError(f"node {entity_id!r} is not lowercase and stripped, as a merge writes its id")
            for name, (value, _) in attributes.items():
                if not (name and value):
                    raise ValueError(f"node {entity_id!r} has attribute {name!r} = {value!r}, a blank part no "
                                     "FactTriple holds")
                if name != canonical(name) or value != canonical(value):
                    raise ValueError(f"node {entity_id!r} has attribute {name!r} = {value!r}, not lowercase and "
                                     "stripped, as a merge writes each")
    check_layer_bounds(state, cfg)


def answer(query: Query, state: MemoryState, cfg: EngineConfig) -> tuple[RetrievalResult, FusedState]:
    """Gate, retrieve and fuse one query against a state under cfg's retrieval knobs."""
    weights = GatingWeights.uniform(cfg.beta) if cfg.uniform_gating else None
    retrieval = retrieve(query, state, cfg.beta, cfg.top_j, cfg.token_budget, weights=weights)
    return retrieval, fuse(query, retrieval, cfg.mix, cfg.epsilon)


@dataclass(frozen=True)
class StepOutput:
    state: MemoryState
    retrieval: RetrievalResult
    fused: FusedState
    drift: DriftReport
    response: str
    context_usage: float


class Responder(Protocol):
    def generate(self, fused: FusedState, query: Query) -> str: ...


class TemplateResponder:
    """Deterministic echo of the assembled context and the query."""

    def generate(self, fused: FusedState, query: Query) -> str:
        memory = "; ".join(line for line in fused.context_text.splitlines())
        return f"Based on memory: {memory} | answer to: {query.text}"


def initial_state(cfg: EngineConfig) -> MemoryState:
    """The zero state: empty layers, cursor -1; only cfg's embedding dim shapes it."""
    return MemoryState(WorkingMemory(), EpisodicMemory.empty(cfg.embedder.dim), SemanticGraph(), -1, cfg.embedder)


def step(
    state: MemoryState,
    session: Session,
    query: Query,
    cfg: EngineConfig,
    responder: Responder,
    *,
    history_tokens: int = 0,
) -> StepOutput:
    """One consolidate-answer-respond step; the input state is untouched.

    Raises ValueError when the session is out of order, when another embedder
    built the state (``check_embedder``), or when a layer that cfg disables
    exceeds cfg's bounds on it.

    ``history_tokens`` is the raw token total of previously ingested sessions;
    run() threads it so context_usage is measured against the full history.
    """
    if session.index != state.session_cursor + 1:
        raise ValueError(
            f"session {session.index} out of order; expected {state.session_cursor + 1}"
        )
    check_embedder(state, cfg)

    disabled = tuple(layer for layer in LAYERS if layer not in cfg.enabled_layers)
    if disabled:
        check_layer_bounds(state, cfg, disabled)

    working = state.working
    episodic = state.episodic
    semantic = state.semantic

    if "w" in cfg.enabled_layers:
        working = update_working(session, cfg.k, cfg.C_w, cfg.embedder)
    if "e" in cfg.enabled_layers:
        episodic = update_episodic(state.episodic, summarize(session, cfg.summary_m, cfg.embedder), cfg.alpha, cfg.C_e)
    if "s" in cfg.enabled_layers:
        facts = extract_facts(session)
        semantic = merge_semantic(state.semantic, facts, session.index, cfg.tau_s, cfg.C_s, cfg.embedder,
                                  held_node_matrix(state))

    new_state = MemoryState(working, episodic, semantic, session.index, cfg.embedder)

    retrieval, fused = answer(query, new_state, cfg)
    response = responder.generate(fused, query)
    step_drift = drift(state.semantic, new_state.semantic)

    history = history_tokens + session.token_count()
    usage = min(1.0, fused.context_tokens / history) if history > 0 else 0.0
    return StepOutput(new_state, retrieval, fused, step_drift, response, usage)


def steps(
    sessions: Sequence[Session],
    cfg: EngineConfig,
    *,
    start_state: MemoryState | None = None,
    history_tokens: int = 0,
) -> Iterator[StepOutput]:
    """Fold step over the sessions from the zero state (or a snapshot to resume), one step per output asked for.

    Each step asks the session's final utterance text and answers with the
    ``TemplateResponder``. The first failing step aborts the run with its index.
    """
    responder = TemplateResponder()
    state = start_state if start_state is not None else initial_state(cfg)
    history = history_tokens
    for session in sessions:
        query = make_query(session.utterances[-1].text, cfg.embedder, session.index)
        try:
            output = step(state, session, query, cfg, responder, history_tokens=history)
        except ValueError:
            raise
        except Exception as exc:
            raise EngineRunError(f"step for session {session.index} failed: {exc}") from exc
        yield output
        state = output.state
        history += session.token_count()


def run(*args: Any, **kwargs: Any) -> list[StepOutput]:
    """``list(steps(...))`` over the same arguments: every step's output, in session order."""
    return list(steps(*args, **kwargs))


# The baseline policies and the layers each keeps; mlmf (None) runs the config as it is.
POLICIES = {"mlmf": None, "window_only": ("w",), "summary_only": ("e",)}


def policy_config(cfg: EngineConfig, policy: str) -> EngineConfig:
    """cfg under a ``POLICIES`` name: mlmf keeps all layers, the others keep exactly one; ValueError if unknown."""
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}")
    return cfg if POLICIES[policy] is None else replace(cfg, enabled_layers=POLICIES[policy])
