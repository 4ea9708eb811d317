"""Every wire format: states, configs, session files and eval reports, as JSON.

Snapshot wire format (single JSON document)::

    {
      "config": {"k": 8, "C_w": 256, ..., "embedder": {"dim": 256, ...}},
      "state": {
        "session_cursor": 3,
        "working": {"entries": [[utterance, [float...]], ..]},
        "episodic": {"state": [float...], "log": [summary, ..]},
        "semantic": {"nodes": [node, ..], "edges": [[s, r, o, t, c], ..]}
      }
    }

A node is ``{"entity_id": str, "attributes": [[name, {"value": str,
"session": int}], ..], "embedding": [float...], "importance": float,
"last_updated": int}``; the edges are the graph's one fact history (see
``memory.SemanticGraph``). Layer bounds live in the config only (k, C_w, C_e,
alpha, C_s). Older snapshots also carry them in the state, the retired config
keys ``seed`` and ``lambda``, and a ``superseded`` list per attribute; loading
ignores those keys.

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
``_MALFORMED``, as a missing key, a field of another JSON type than its
annotation (a bool is no int, an int is a float, ``NaN``, ``Infinity`` and an
int too large for a float are no numbers), a vector that is not a list of
``embedder.dim`` numbers, or a record its dataclass refuses does. Each reader
catches these once and raises ValueError with its prefix: ``config_from_dict``
"malformed config: ", ``loads_state`` "malformed snapshot: " (also for invalid
JSON and layers over the config's k, C_w, C_e or C_s), ``read_sessions_jsonl``
"path:N: malformed session record: ", ``report_from_dict`` "malformed report: ".
Vectors load as read-only arrays, as ``embed`` makes them.
"""

from __future__ import annotations

import json
import math
from dataclasses import fields, is_dataclass
from itertools import chain
from operator import attrgetter, itemgetter
from typing import Any, Iterable, Sequence

import numpy as np

from .embedding import frozen
from .engine import EngineConfig, check_layer_bounds
from .harness import EvalReport
from .memory import (
    AttributeValue,
    EntityNode,
    EpisodicMemory,
    FactTriple,
    MemoryState,
    SemanticGraph,
    Session,
    SummaryRecord,
    Utterance,
    WorkingMemory,
)


# What a reader counts as malformed input (see the module docstring).
_MALFORMED = (KeyError, TypeError, IndexError, AttributeError, ValueError, OverflowError)

# The JSON types a loaded value may have, by annotation: a bool is no int, an int is a float.
_KINDS = {"int": (int,), "float": (int, float), "str": (str,), "bool": (bool,), "str | None": (str, type(None))}
_EDGE = ("str", "str", "str", "int", "float")


def _vector_from_list(values: list[float], dim: int) -> np.ndarray:
    """The read-only vector; TypeError unless values holds JSON numbers only, ValueError unless dim finite ones."""
    odd = set(map(type, values)).difference(_KINDS["float"])
    if odd:
        raise TypeError(f"vector coordinate must be float, got {odd.pop().__name__}")
    vector = np.asarray(values, dtype=np.float64)
    if vector.shape != (dim,) or not np.isfinite(vector).all():
        raise ValueError(f"vector must hold {dim} finite coordinates, got shape {vector.shape}")
    return frozen(vector)


def _check_types(name: str, annotation: str, values: Iterable[Any]) -> None:
    """TypeError unless each value's exact type is one _KINDS allows and, in a float field, is finite.

    NaN and Infinity are no JSON numbers, and an int too large for a float raises OverflowError.
    """
    values = tuple(values)
    odd = set(map(type, values)).difference(_KINDS[annotation])
    if odd:
        raise TypeError(f"{name} must be {annotation}, got {odd.pop().__name__}")
    if annotation == "float" and not all(map(math.isfinite, values)):
        raise TypeError(f"{name} must be finite")


def _check_records(*groups: Sequence[Any]) -> None:
    """_check_types over each int, float and str field of each group of same-type records."""
    for records in groups:
        for f in fields(records[0]) if records else ():
            if f.type in _KINDS:
                _check_types(f"{type(records[0]).__name__}.{f.name}", f.type, map(attrgetter(f.name), records))


def _check_state(state: MemoryState) -> None:
    """_check_types over every int, float and str field of a loaded state; _vector_from_list checks vectors."""
    utterances = tuple(map(itemgetter(0), state.working.entries))
    nodes = tuple(state.semantic.nodes.values())
    attributes = tuple(chain.from_iterable(node.attributes.items() for node in nodes))
    attribute_values = tuple(map(itemgetter(1), attributes))
    facts = tuple(chain.from_iterable(u.annotations for u in utterances))
    _check_records((state,), utterances, facts, state.episodic.log, nodes, attribute_values)
    _check_types("attribute name", "str", map(itemgetter(0), attributes))
    for i, (annotation, column) in enumerate(zip(_EDGE, zip(*state.semantic.edges))):
        _check_types(f"edge field {i}", annotation, column)


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

    A scalar whose JSON type its field annotation does not allow raises TypeError.
    """
    if not isinstance(data, dict):
        raise ValueError(f"{cls.__name__} must be a JSON object, got {type(data).__name__}")
    annotations = {f.name: f.type for f in fields(cls)}
    unknown = sorted(set(data) - set(annotations))
    if unknown:
        raise ValueError(f"unknown {cls.__name__} key(s): {', '.join(unknown)}")
    defaults = cls()
    kwargs: dict[str, Any] = {}
    for key, value in data.items():
        default = getattr(defaults, key)
        if is_dataclass(default):
            value = _from_dict(type(default), value)
        elif isinstance(default, tuple):
            if not isinstance(value, list):
                raise TypeError(f"{cls.__name__}.{key} must be a list, got {type(value).__name__}")
            value = tuple(value)
        else:
            _check_types(f"{cls.__name__}.{key}", annotations[key], (value,))
        kwargs[key] = value
    return cls(**kwargs)


def _config_from_dict(data: dict[str, Any]) -> EngineConfig:
    if isinstance(data, dict):
        data = {key: value for key, value in data.items() if key not in _RETIRED_KEYS}
    return _from_dict(EngineConfig, data)


def config_from_dict(data: dict[str, Any]) -> EngineConfig:
    """Raises ValueError("malformed config: ...") on an unknown key and on a scalar of the wrong JSON type."""
    try:
        return _config_from_dict(data)
    except _MALFORMED as exc:
        raise ValueError(f"malformed config: {exc}") from exc


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


def _summary_to_dict(record: SummaryRecord) -> dict[str, Any]:
    return {
        "session": record.session_index,
        "text": record.text,
        "embedding": record.embedding.tolist(),
        "salience": record.salience,
    }


def _summary_from_dict(data: dict[str, Any], dim: int) -> SummaryRecord:
    return SummaryRecord(
        data["session"], data["text"], _vector_from_list(data["embedding"], dim), data["salience"]
    )


def _node_to_dict(node: EntityNode) -> dict[str, Any]:
    return {
        "entity_id": node.entity_id,
        "attributes": [
            [name, {"value": rec.value, "session": rec.session_index}]
            for name, rec in node.attributes.items()
        ],
        "embedding": node.embedding.tolist(),
        "importance": node.importance,
        "last_updated": node.last_updated,
    }


def _node_from_dict(data: dict[str, Any], dim: int) -> EntityNode:
    attributes = {name: AttributeValue(rec["value"], rec["session"]) for name, rec in data["attributes"]}
    return EntityNode(
        data["entity_id"],
        attributes,
        _vector_from_list(data["embedding"], dim),
        data["importance"],
        data["last_updated"],
    )


def state_to_dict(state: MemoryState, cfg: EngineConfig) -> dict[str, Any]:
    return {
        "config": config_to_dict(cfg),
        "state": {
            "session_cursor": state.session_cursor,
            "working": {
                "entries": [
                    [{"session": u.session_index, **_utterance_to_dict(u)}, e.tolist()]
                    for u, e in state.working.entries
                ],
            },
            "episodic": {
                "state": state.episodic.state.tolist(),
                "log": [_summary_to_dict(r) for r in state.episodic.log],
            },
            "semantic": {
                "nodes": [_node_to_dict(n) for n in state.semantic.nodes.values()],
                "edges": [list(e) for e in state.semantic.edges],
            },
        },
    }


def state_from_dict(data: dict[str, Any]) -> tuple[MemoryState, EngineConfig]:
    """Raises one of _MALFORMED on a malformed snapshot; loads_state names it as one."""
    cfg = _config_from_dict(data["config"])
    dim = cfg.embedder.dim
    raw = data["state"]
    working = WorkingMemory(
        tuple(
            (_utterance_from_dict(u, u["session"]), _vector_from_list(e, dim))
            for u, e in raw["working"]["entries"]
        )
    )
    episodic = EpisodicMemory(
        _vector_from_list(raw["episodic"]["state"], dim),
        tuple(_summary_from_dict(r, dim) for r in raw["episodic"]["log"]),
    )
    semantic = SemanticGraph(
        {n["entity_id"]: _node_from_dict(n, dim) for n in raw["semantic"]["nodes"]},
        tuple((s, r, o, t, c) for s, r, o, t, c in raw["semantic"]["edges"]),
    )
    state = MemoryState(working, episodic, semantic, raw["session_cursor"])
    _check_state(state)
    check_layer_bounds(state, cfg)
    return state, cfg


def dumps_state(state: MemoryState, cfg: EngineConfig) -> str:
    return json.dumps(state_to_dict(state, cfg), sort_keys=True)


def loads_state(text: str) -> tuple[MemoryState, EngineConfig]:
    """Raises ValueError("malformed snapshot: ...") on invalid JSON and on a malformed snapshot."""
    try:
        return state_from_dict(json.loads(text))
    except _MALFORMED as exc:
        raise ValueError(f"malformed snapshot: {exc}") from exc


def session_to_dict(session: Session) -> dict[str, Any]:
    return {"index": session.index, "utterances": [_utterance_to_dict(u) for u in session.utterances]}


def session_from_dict(data: dict[str, Any]) -> Session:
    """Raises one of _MALFORMED on a malformed session; read_sessions_jsonl names it as one."""
    index = data["index"]
    session = Session(index, tuple(_utterance_from_dict(u, index) for u in data["utterances"]))
    facts = tuple(chain.from_iterable(u.annotations for u in session.utterances))
    _check_records((session,), session.utterances, facts)
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


def report_from_dict(data: dict[str, Any]) -> EvalReport:
    """Raises ValueError("malformed report: ...") on a missing key or a field of the wrong JSON type."""
    try:
        report = EvalReport(
            retention_at={int(gap): value for gap, value in data["retention_at"].items()},
            fmr=data["fmr"],
            mean_context_usage=data["mean_context_usage"],
            success_rate=data["success_rate"],
            drift_curve=tuple(data["drift_curve"]),
            config_echo=_config_from_dict(data["config"]),
        )
        _check_records((report,))
        _check_types("EvalReport.retention_at", "float", report.retention_at.values())
        _check_types("EvalReport.drift_curve", "float", report.drift_curve)
    except _MALFORMED as exc:
        raise ValueError(f"malformed report: {exc}") from exc
    return report
