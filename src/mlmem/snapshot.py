"""Every wire format: states, configs, session files and eval reports, as JSON.

Snapshot wire format, version 2 (single JSON document)::

    {
      "config": {"k": 8, "C_w": 256, ..., "embedder": {"dim": 256, ...}},
      "format_version": 2,
      "state": {
        "session_cursor": 3,
        "working": {"entries": [entry, ..]},
        "episodic": {"state": [float...], "log": [summary, ..]},
        "semantic": {"nodes": [node, ..], "edges": [[s, r, o, t, c], ..]}
      }
    }

An entry is its utterance ``{"session": int, "turn": int, "speaker": str,
"text": str, "facts": [...]?}``, a summary ``{"session": int, "text": str,
"salience": float}``, and a node ``{"entity_id": str, "attributes": [[name,
{"value": str, "session": int}], ..], "importance": float, "last_updated":
int}``. Each entry, summary and node holds a vector that is ``embed`` of its
text: the utterance's text, the summary's text, and ``memory.node_text`` of
the node's id and attributes. A deterministic dump writes none of these
vectors, since each is ``embed(text, cfg.embedder)``, and loading rebuilds
them so; only the episodic state, a blend, is written. A state records the
embedder that built it, and dumping it under another raises ValueError, so a
load never rebuilds other vectors than the state held. In remote mode, whose
vectors no load may ask the service for again, each entry, summary and node
carries its vector as ``"embedding": [float...]``, and loading reads it. A
deterministic document that carries one of these vectors, and a remote one that
lacks one, is malformed.

Version 1, written before, has no ``"format_version"`` key (loading accepts
``1`` too): each entry is an ``[utterance, [float...]]`` pair and every
summary and node carries its ``"embedding"``, in either mode. In deterministic
mode a v1 vector must equal ``embed`` of its text bit for bit, else the
snapshot is malformed, so that it re-dumps as v2 without change.

The edges are the graph's one fact history (see
``memory.SemanticGraph``), one row per (node, predicate, value) key, in the
order of the graph's edge mapping. An attribute's ``"session"`` is not held in
the state: it is written from, and must load equal to, its value's edge
session. Layer bounds live in the config only (k, C_w, C_e, alpha, C_s).
Older snapshots also carry them in the state, the retired config keys ``seed``
and ``lambda``, and a ``superseded`` list per attribute; loading ignores those
keys.

Node attributes, entries, and log records are serialized as ordered lists so a
round-trip preserves iteration order exactly; floats survive via repr, so
dump -> load -> dump is byte-identical.

Session JSONL carries one session per line:
``{"index": int, "utterances": [{"turn": int, "speaker": str, "text": str, "facts": [...]?}]}``
with optional fact annotations ``{"s": str, "p": str, "o": str, "c": float}``.

An eval report is ``{"retention_at": {"gap": float, ..}, "fmr": float,
"mean_context_usage": float, "success_rate": float, "drift_curve": [float...],
"config": config}``.

One rule rejects outside input: it is malformed when reading it raises one of
``_MALFORMED``, as a missing key, a ``format_version`` other than the int 1
or 2, a field the kind rule refuses (every reader
runs ``embedding.check_field_kinds`` on the records it builds), a vector that
is not a list of ``embedder.dim`` numbers, a working entry's, log record's or
node's vector whose L2 norm is neither 0 nor within 1e-12 of 1
(``embedding.vector_from_json``), an episodic state whose L2 norm exceeds
1 + 1e-12 (no ``update_episodic`` blend does), or a record its dataclass
refuses (a blank fact part, say) does; so do a
node that repeats an entity_id or an attribute name, an edge row that repeats
a key, a graph no merge could build (``_check_graph``: an attribute value
without its edge, an edge whose subject has no node or a node older than the
edge, or whose (node, predicate) has no current value, an attribute
``"session"`` that is not its edge's session as an int or is older than
another edge of its (node, predicate) (recency wins), a node ``importance`` below 1), a ``session_cursor`` below -1,
a recorded session (a working entry's, a log record's, an edge's, a node's
``last_updated``) outside [0, cursor], an episodic log whose sessions do not
strictly increase, and a ``retention_at`` key that does not spell its gap as
``str(int)`` does (so two spellings of one gap cannot collide). Each reader catches these once and raises ValueError
with its prefix: ``config_from_dict`` and ``loads_config`` "malformed config: ",
``loads_state`` "malformed snapshot: " (also for layers over the config's k,
C_w, C_e or C_s), ``read_sessions_jsonl``
"path:N: malformed session record: ", ``report_from_dict`` and
``loads_report`` "malformed report: ". The ``loads_*`` readers parse JSON
text, so invalid JSON is malformed input too.
Vectors load as read-only arrays, as ``embed`` makes them.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import fields, is_dataclass
from itertools import chain
from operator import itemgetter
from typing import Any, Callable, Iterable

import numpy as np

from .embedding import UNIT_TOLERANCE, EmbedderConfig, check_field_kinds, check_kinds, embed, vector_from_json
from .engine import EngineConfig, check_embedder, check_layer_bounds
from .harness import EvalReport
from .memory import (
    EntityNode,
    EpisodicMemory,
    FactTriple,
    MemoryState,
    SemanticGraph,
    Session,
    SummaryRecord,
    Utterance,
    WorkingMemory,
    node_text,
)


# What a reader counts as malformed input (see the module docstring).
_MALFORMED = (KeyError, TypeError, IndexError, AttributeError, ValueError, OverflowError)

_EDGE = ("str", "str", "str", "int", "float")

FORMAT_VERSION = 2  # what dumps_state writes; loads_state reads 1 and 2 (see the module docstring)


def _check_state(state: MemoryState) -> None:
    """The kind check over every scalar field of a loaded state; vector_from_json checks vectors."""
    # Attribute names and values must be edge key fields (_check_graph), so the edge columns check them.
    utterances = tuple(map(itemgetter(0), state.working.entries))
    facts = tuple(chain.from_iterable(u.annotations for u in utterances))
    for records in ((state,), utterances, facts, state.episodic.log, tuple(state.semantic.nodes.values())):
        check_field_kinds(*records)
    edges = state.semantic.edges
    for i, (annotation, column) in enumerate(zip(_EDGE, (*zip(*edges), *zip(*edges.values())))):
        check_kinds(f"edge field {i}", annotation, column)


def _check_sessions(state: MemoryState) -> None:
    """ValueError unless the cursor is >= -1, each recorded session (a working entry's, a log record's,
    an edge's, a node's last_updated) lies in [0, cursor], and the log's sessions strictly increase
    (``update_episodic`` evicts the oldest record by position)."""
    cursor = state.session_cursor
    log = [r.session_index for r in state.episodic.log]
    recorded = [u.session_index for u, _ in state.working.entries] + log
    recorded += [s for s, _ in state.semantic.edges.values()] + [n.last_updated for n in state.semantic.nodes.values()]
    if cursor < -1 or min(recorded, default=0) < 0 or max(recorded, default=cursor) > cursor:
        raise ValueError(f"session_cursor {cursor} is below -1, or a recorded session lies outside [0, {cursor}]")
    if any(earlier >= later for earlier, later in zip(log, log[1:])):
        raise ValueError(f"episodic log sessions {log} do not strictly increase")


def _check_graph(nodes: list[dict[str, Any]], graph: SemanticGraph) -> None:
    """ValueError unless the graph is one ``merge_semantic`` could build, the only check of its invariants.

    A node record's importance is at least 1 (each merge into a node adds 1), and each attribute value has its
    edge, whose session its "session" is as a JSON int. An edge's subject is a node no older than it
    (``last_updated``), and its (node, predicate) has a current value no edge of it is later than (values of
    one session tie).
    """
    current: dict[tuple[str, str], int] = {}
    for node in nodes:
        node_id = node["entity_id"]
        if node["importance"] < 1.0:
            raise ValueError(f"node {node_id!r} has importance below 1")
        for name, record in node["attributes"]:
            value, session = record["value"], record["session"]
            edge = graph.edges.get((node_id, name, value))
            if edge is None:
                raise ValueError(f"attribute {node_id!r} {name!r} value {value!r} has no edge")
            if type(session) is not int or session != edge[0]:
                raise ValueError(f"attribute {node_id!r} {name!r} session {session!r} is not its edge's")
            current[node_id, name] = session
    for (node_id, predicate, value), (session, _) in graph.edges.items():
        if node_id not in graph.nodes:
            raise ValueError(f"edge subject {node_id!r} has no node")
        if session > graph.nodes[node_id].last_updated:
            raise ValueError(f"node {node_id!r} is older than its edge {predicate!r} {value!r} of session {session}")
        if (node_id, predicate) not in current:
            raise ValueError(f"edge {node_id!r} {predicate!r} {value!r} has no current value on its node")
        if session > current[node_id, predicate]:
            raise ValueError(
                f"attribute {node_id!r} {predicate!r} is of session {current[node_id, predicate]}, "
                f"but {value!r} was stated later, at session {session}"
            )


# Top-level config keys of fields that never reached the engine; older
# snapshots and reports carry them, so loading accepts and ignores them.
_RETIRED_KEYS = ("seed", "lambda")


def config_to_dict(cfg: Any) -> dict[str, Any]:
    """Every config field under its name; nested configs recurse, tuples become lists."""
    out: dict[str, Any] = {}
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if is_dataclass(value):
            value = config_to_dict(value)
        elif isinstance(value, tuple):
            value = list(value)
        out[f.name] = value
    return out


def _from_dict(cls: type, data: dict[str, Any]) -> Any:
    """Inverse of config_to_dict: missing keys keep the field default, unknown keys raise ValueError.

    A list for a tuple field is read as a tuple; the config's constructor checks each value's kind.
    """
    if not isinstance(data, dict):
        raise ValueError(f"{cls.__name__} must be a JSON object, got {type(data).__name__}")
    unknown = sorted(set(data) - {f.name for f in fields(cls)})
    if unknown:
        raise ValueError(f"unknown {cls.__name__} key(s): {', '.join(unknown)}")
    defaults = cls()
    kwargs: dict[str, Any] = {}
    for key, value in data.items():
        default = getattr(defaults, key)
        if is_dataclass(default):
            value = _from_dict(type(default), value)
        elif isinstance(default, tuple) and isinstance(value, list):
            value = tuple(value)
        kwargs[key] = value
    return cls(**kwargs)


def _config_from_dict(data: dict[str, Any]) -> EngineConfig:
    if isinstance(data, dict):
        data = {key: value for key, value in data.items() if key not in _RETIRED_KEYS}
    return _from_dict(EngineConfig, data)


def _read(what: str, read: Callable[[Any], Any], load: Callable[[], Any]) -> Any:
    """read(load()); raises ValueError("malformed <what>: ...") when either raises one of _MALFORMED."""
    try:
        return read(load())
    except _MALFORMED as exc:
        raise ValueError(f"malformed {what}: {exc}") from exc


def config_from_dict(data: dict[str, Any]) -> EngineConfig:
    """Raises ValueError("malformed config: ...") on an unknown key and on a scalar of the wrong JSON type."""
    return _read("config", _config_from_dict, lambda: data)


def loads_config(text: str) -> EngineConfig:
    """config_from_dict of a JSON document; invalid JSON is a malformed config too."""
    return _read("config", _config_from_dict, lambda: json.loads(text))


def _fact_to_dict(fact: FactTriple) -> dict[str, Any]:
    return {"s": fact.subject, "p": fact.predicate, "o": fact.object, "c": fact.confidence}


def _fact_from_dict(data: dict[str, Any]) -> FactTriple:
    return FactTriple(data["s"], data["p"], data["o"], data.get("c", 1.0))


def _utterance_to_dict(utterance: Utterance) -> dict[str, Any]:
    """The utterance without its session index, which the enclosing record carries."""
    out: dict[str, Any] = {"turn": utterance.turn_index, "speaker": utterance.speaker, "text": utterance.text}
    if utterance.annotations:
        out["facts"] = [_fact_to_dict(f) for f in utterance.annotations]
    return out


def _utterance_from_dict(data: dict[str, Any], session_index: int) -> Utterance:
    return Utterance.from_text(
        session_index,
        data["turn"],
        data["speaker"],
        data["text"],
        tuple(_fact_from_dict(f) for f in data.get("facts", ())),
    )


# _vector with its embedder and version bound: (record, text) -> vector
_Vector = Callable[[dict[str, Any], str], np.ndarray]


def _vector(record: dict[str, Any], text: str, embedder: EmbedderConfig, version: int) -> np.ndarray:
    """The vector of a loaded working entry, log record or node, whose "embedding" the document may carry.

    A remote record carries it. A deterministic one gets ``embed(text)``: a v2 record carries none, and a v1
    record's must be that vector bit for bit.
    """
    if embedder.mode == "remote":
        return vector_from_json(record["embedding"], embedder.dim, embedded=True)
    derived = embed(text, embedder)
    if version == 2:
        if "embedding" in record:
            raise ValueError(f"a deterministic v2 snapshot carries no working, log or node vector; {text!r} has one")
        return derived
    if vector_from_json(record["embedding"], embedder.dim, embedded=True).tobytes() != derived.tobytes():
        raise ValueError(f"the stored vector of {text!r} is not its embedding")
    return derived


def _summary_to_dict(record: SummaryRecord) -> dict[str, Any]:
    return {"session": record.session_index, "text": record.text, "salience": record.salience}


def _summary_from_dict(data: dict[str, Any], vector: _Vector) -> SummaryRecord:
    return SummaryRecord(data["session"], data["text"], vector(data, data["text"]), data["salience"])


def _node_to_dict(node: EntityNode, graph: SemanticGraph) -> dict[str, Any]:
    """The node record; each attribute's "session" is its value's edge session."""
    return {
        "entity_id": node.entity_id,
        "attributes": [
            [name, {"value": value, "session": graph.edges[node.entity_id, name, value][0]}]
            for name, value in node.attributes.items()
        ],
        "importance": node.importance,
        "last_updated": node.last_updated,
    }


def _node_from_dict(data: dict[str, Any], vector: _Vector) -> EntityNode:
    node_id = data["entity_id"]
    attributes = {name: record["value"] for name, record in data["attributes"]}
    if len(attributes) != len(data["attributes"]):
        raise ValueError(f"node {node_id!r} repeats an attribute name")
    return EntityNode(
        node_id, attributes, vector(data, node_text(node_id, attributes)), data["importance"], data["last_updated"]
    )


def state_to_dict(state: MemoryState, cfg: EngineConfig) -> dict[str, Any]:
    """The v2 document; only in remote mode does a working entry, log record or node carry its vector.

    ValueError unless cfg's embedder built the state (``engine.check_embedder``)."""
    check_embedder(state, cfg)
    carried = cfg.embedder.mode == "remote"

    def record(fields: dict[str, Any], vector: np.ndarray) -> dict[str, Any]:
        return {**fields, "embedding": vector.tolist()} if carried else fields

    return {
        "config": config_to_dict(cfg),
        "format_version": FORMAT_VERSION,
        "state": {
            "session_cursor": state.session_cursor,
            "working": {
                "entries": [
                    record({"session": u.session_index, **_utterance_to_dict(u)}, e) for u, e in state.working.entries
                ],
            },
            "episodic": {
                "state": state.episodic.state.tolist(),
                "log": [record(_summary_to_dict(r), r.embedding) for r in state.episodic.log],
            },
            "semantic": {
                "nodes": [record(_node_to_dict(n, state.semantic), n.embedding) for n in state.semantic.nodes.values()],
                "edges": [[*key, *edge] for key, edge in state.semantic.edges.items()],
            },
        },
    }


def state_from_dict(data: dict[str, Any]) -> tuple[MemoryState, EngineConfig]:
    """Raises one of _MALFORMED on a malformed snapshot; loads_state names it as one."""
    version = data.get("format_version", 1)
    if type(version) is not int or version not in (1, 2):
        raise ValueError(f"format_version must be 1 or 2, got {version!r}")
    cfg = _config_from_dict(data["config"])
    vector = functools.partial(_vector, embedder=cfg.embedder, version=version)
    raw = data["state"]
    entries = raw["working"]["entries"]
    if version == 1:  # an [utterance, vector] pair
        entries = [{**u, "embedding": e} for u, e in entries]
    working = WorkingMemory(tuple((_utterance_from_dict(u, u["session"]), vector(u, u["text"])) for u in entries))
    episodic = EpisodicMemory(
        vector_from_json(raw["episodic"]["state"], cfg.embedder.dim),
        tuple(_summary_from_dict(r, vector) for r in raw["episodic"]["log"]),
    )
    norm = math.sqrt(float(episodic.state.dot(episodic.state)))
    if norm > 1.0 + UNIT_TOLERANCE:
        raise ValueError(f"the episodic state must have L2 norm at most 1, as every blend has, got {norm!r}")
    rows = raw["semantic"]["edges"]
    edges = {(s, r, o): (t, c) for s, r, o, t, c in rows}
    if len(edges) != len(rows):
        raise ValueError(f"{len(rows) - len(edges)} edge(s) repeat a (node, predicate, value) key")
    nodes = raw["semantic"]["nodes"]
    semantic = SemanticGraph({n["entity_id"]: _node_from_dict(n, vector) for n in nodes}, edges)
    if len(semantic.nodes) != len(nodes):
        raise ValueError(f"{len(nodes) - len(semantic.nodes)} node(s) repeat an entity_id")
    state = MemoryState(working, episodic, semantic, raw["session_cursor"], cfg.embedder)
    _check_state(state)
    _check_sessions(state)
    _check_graph(nodes, semantic)
    check_layer_bounds(state, cfg)
    return state, cfg


def dumps_state(state: MemoryState, cfg: EngineConfig) -> str:
    """The snapshot of a state the engine built under cfg, as v2 JSON (see the module docstring).

    A deterministic dump records each working, log and node vector as ``embed(text, cfg.embedder)`` of its
    record's text, by writing the text alone; ``loads_state`` rebuilds the vector so.
    """
    return json.dumps(state_to_dict(state, cfg), sort_keys=True)


def loads_state(text: str) -> tuple[MemoryState, EngineConfig]:
    """Raises ValueError("malformed snapshot: ...") on invalid JSON and on a malformed snapshot."""
    return _read("snapshot", state_from_dict, lambda: json.loads(text))


def session_to_dict(session: Session) -> dict[str, Any]:
    return {"index": session.index, "utterances": [_utterance_to_dict(u) for u in session.utterances]}


def session_from_dict(data: dict[str, Any]) -> Session:
    """Raises one of _MALFORMED on a malformed session; read_sessions_jsonl names it as one."""
    index = data["index"]
    session = Session(index, tuple(_utterance_from_dict(u, index) for u in data["utterances"]))
    facts = tuple(chain.from_iterable(u.annotations for u in session.utterances))
    for records in ((session,), session.utterances, facts):
        check_field_kinds(*records)
    return session


def write_sessions_jsonl(sessions: Iterable[Session], path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for session in sessions:
            handle.write(json.dumps(session_to_dict(session), sort_keys=True) + "\n")


def read_sessions_jsonl(path: str) -> list[Session]:
    sessions: list[Session] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                sessions.append(session_from_dict(json.loads(line)))
            except _MALFORMED as exc:
                raise ValueError(f"{path}:{line_number}: malformed session record: {exc}") from exc
    return sessions


def report_to_dict(report: EvalReport) -> dict[str, Any]:
    return {
        "retention_at": {str(gap): value for gap, value in report.retention_at.items()},
        "fmr": report.fmr,
        "mean_context_usage": report.mean_context_usage,
        "success_rate": report.success_rate,
        "drift_curve": list(report.drift_curve),
        "config": config_to_dict(report.config_echo),
    }


def _report_from_dict(data: dict[str, Any]) -> EvalReport:
    """Raises one of _MALFORMED on a malformed report; a retention_at key must spell its gap as str(int) does."""
    report = EvalReport(
        retention_at={int(gap): value for gap, value in data["retention_at"].items()},
        fmr=data["fmr"],
        mean_context_usage=data["mean_context_usage"],
        success_rate=data["success_rate"],
        drift_curve=tuple(data["drift_curve"]),
        config_echo=_config_from_dict(data["config"]),
    )
    keys = list(data["retention_at"])
    if list(map(str, report.retention_at)) != keys:
        raise ValueError(f"retention_at keys must spell distinct gaps as str(int) does, got {keys}")
    check_field_kinds(report)
    check_kinds("EvalReport.retention_at", "float", report.retention_at.values())
    check_kinds("EvalReport.drift_curve", "float", report.drift_curve)
    return report


def report_from_dict(data: dict[str, Any]) -> EvalReport:
    """Raises ValueError("malformed report: ...") on a missing key or a field of the wrong JSON type."""
    return _read("report", _report_from_dict, lambda: data)


def loads_report(text: str) -> EvalReport:
    """report_from_dict of a JSON document; invalid JSON is a malformed report too."""
    return _read("report", _report_from_dict, lambda: json.loads(text))
