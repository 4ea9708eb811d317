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
zero state, one step per output asked for (``steps``; ``run`` keeps them all);
replaying the same sessions reproduces bit-identical outputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Any, Iterator, Mapping, Protocol, Sequence

from .embedding import EmbedderConfig, check_field_kinds
from .memory import (
    EpisodicMemory,
    MemoryState,
    SemanticGraph,
    Session,
    WorkingMemory,
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
    make_query,
    retrieve,
)


class EngineRunError(RuntimeError):
    """A step failed mid-run; the session index is in the message."""


@dataclass(frozen=True)
class EngineConfig:
    """All engine knobs in one place, validated once at construction; each changes a run.

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
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "int" and value < 1:
                raise ValueError(f"{f.name} must be >= 1, got {value!r}")
            if f.name in ("alpha", "tau_s", "mix") and not 0.0 <= value <= 1.0:
                raise ValueError(f"{f.name} must lie in [0, 1], got {value}")
            if f.name in ("beta", "epsilon") and not value > 0.0:
                raise ValueError(f"{f.name} must be > 0, got {value}")
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
        semantic = merge_semantic(state.semantic, facts, session.index, cfg.tau_s, cfg.C_s, cfg.embedder)

    new_state = MemoryState(working, episodic, semantic, session.index, cfg.embedder)

    retrieval, fused = answer(query, new_state, cfg)
    response = responder.generate(fused, query)
    step_drift = drift(state.semantic, new_state.semantic)

    history = history_tokens + session.token_count()
    usage = min(1.0, fused.context_tokens / history) if history > 0 else 0.0
    return StepOutput(new_state, retrieval, fused, step_drift, response, usage)


def steps(
    sessions: Sequence[Session],
    queries: Mapping[int, Query] | None,
    cfg: EngineConfig,
    responder: Responder | None = None,
    *,
    start_state: MemoryState | None = None,
    history_tokens: int = 0,
) -> Iterator[StepOutput]:
    """Fold step over the sessions from the zero state (or a snapshot to resume), one step per output asked for.

    Steps without an explicit query default to the session's final utterance
    text. The first failing step aborts the run with its index.
    """
    responder = responder if responder is not None else TemplateResponder()
    queries = queries or {}
    state = start_state if start_state is not None else initial_state(cfg)
    history = history_tokens
    for session in sessions:
        query = queries.get(session.index)
        if query is None:
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
