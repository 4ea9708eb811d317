"""Lossless JSON serialization for states, configs, and session files.

Snapshot wire format (single JSON document)::

    {
      "config": {"k": 8, ..., "lambda": 0.5, "embedder": {"dim": 256, ...}},
      "state": {
        "session_cursor": 3,
        "working": {"window_k": .., "capacity_tokens": .., "entries": [[utterance, [float...]], ..]},
        "episodic": {"alpha": .., "capacity": .., "state": [float...], "log": [summary, ..]},
        "semantic": {"capacity_nodes": .., "nodes": [node, ..], "edges": [[s, r, o, t, c], ..]}
      }
    }

Node attributes, entries, and log records are serialized as ordered lists so a
round-trip preserves iteration order exactly; floats survive via repr, so
dump -> load -> dump is byte-identical.

Session JSONL carries one session per line:
``{"index": int, "utterances": [{"turn": int, "speaker": str, "text": str, "facts": [...]?}]}``
with optional fact annotations ``{"s": str, "p": str, "o": str, "c": float}``.
"""

from __future__ import annotations

import json
from dataclasses import fields, is_dataclass
from typing import Any, Iterable

import numpy as np

from .embedding import Embedding
from .engine import EngineConfig
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


def _vector_to_list(embedding: Embedding) -> list[float]:
    return [float(v) for v in embedding.values]


def _vector_from_list(values: list[float], dim: int) -> Embedding:
    return Embedding(np.asarray(values, dtype=np.float64), dim)


# Field names whose JSON key differs: ``lambda`` is a Python keyword.
_WIRE_KEYS = {"lambda_": "lambda"}


def config_to_dict(cfg: Any) -> dict[str, Any]:
    """Every config field under its wire key; nested configs recurse, tuples become lists."""
    out: dict[str, Any] = {}
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if is_dataclass(value):
            value = config_to_dict(value)
        elif isinstance(value, tuple):
            value = list(value)
        out[_WIRE_KEYS.get(f.name, f.name)] = value
    return out


def _from_dict(cls: type, data: dict[str, Any]) -> Any:
    """Inverse of config_to_dict: missing keys keep the field default, unknown keys raise ValueError."""
    if not isinstance(data, dict):
        raise ValueError(f"{cls.__name__} must be a JSON object, got {type(data).__name__}")
    names = {_WIRE_KEYS.get(f.name, f.name): f.name for f in fields(cls)}
    unknown = sorted(set(data) - set(names))
    if unknown:
        raise ValueError(f"unknown {cls.__name__} key(s): {', '.join(unknown)}")
    defaults = cls()
    kwargs: dict[str, Any] = {}
    for key, value in data.items():
        default = getattr(defaults, names[key])
        if is_dataclass(default):
            value = _from_dict(type(default), value)
        elif isinstance(default, tuple):
            value = tuple(value)
        kwargs[names[key]] = value
    return cls(**kwargs)


def config_from_dict(data: dict[str, Any]) -> EngineConfig:
    return _from_dict(EngineConfig, data)


def _fact_to_dict(fact: FactTriple) -> dict[str, Any]:
    return {"s": fact.subject, "p": fact.predicate, "o": fact.object, "c": fact.confidence}


def _fact_from_dict(data: dict[str, Any]) -> FactTriple:
    return FactTriple(data["s"], data["p"], data["o"], data.get("c", 1.0))


def _utterance_to_dict(utterance: Utterance) -> dict[str, Any]:
    out: dict[str, Any] = {
        "session": utterance.session_index,
        "turn": utterance.turn_index,
        "speaker": utterance.speaker,
        "text": utterance.text,
    }
    if utterance.annotations:
        out["facts"] = [_fact_to_dict(f) for f in utterance.annotations]
    return out


def _utterance_from_dict(data: dict[str, Any]) -> Utterance:
    return Utterance.from_text(
        data["session"],
        data["turn"],
        data["speaker"],
        data["text"],
        tuple(_fact_from_dict(f) for f in data.get("facts", ())),
    )


def _summary_to_dict(record: SummaryRecord) -> dict[str, Any]:
    return {
        "session": record.session_index,
        "text": record.text,
        "embedding": _vector_to_list(record.embedding),
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
            [name, {"value": rec.value, "session": rec.session_index, "superseded": list(rec.superseded)}]
            for name, rec in node.attributes.items()
        ],
        "embedding": _vector_to_list(node.embedding),
        "importance": node.importance,
        "last_updated": node.last_updated,
    }


def _node_from_dict(data: dict[str, Any], dim: int) -> EntityNode:
    attributes = {
        name: AttributeValue(rec["value"], rec["session"], tuple(rec["superseded"]))
        for name, rec in data["attributes"]
    }
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
                "window_k": state.working.window_k,
                "capacity_tokens": state.working.capacity_tokens,
                "entries": [
                    [_utterance_to_dict(u), _vector_to_list(e)] for u, e in state.working.entries
                ],
            },
            "episodic": {
                "alpha": state.episodic.alpha,
                "capacity": state.episodic.capacity,
                "state": _vector_to_list(state.episodic.state),
                "log": [_summary_to_dict(r) for r in state.episodic.log],
            },
            "semantic": {
                "capacity_nodes": state.semantic.capacity_nodes,
                "nodes": [_node_to_dict(n) for n in state.semantic.nodes.values()],
                "edges": [list(e) for e in state.semantic.edges],
            },
        },
    }


def state_from_dict(data: dict[str, Any]) -> tuple[MemoryState, EngineConfig]:
    cfg = config_from_dict(data["config"])
    dim = cfg.embedder.dim
    raw = data["state"]
    working = WorkingMemory(
        tuple(
            (_utterance_from_dict(u), _vector_from_list(e, dim))
            for u, e in raw["working"]["entries"]
        ),
        raw["working"]["window_k"],
        raw["working"]["capacity_tokens"],
    )
    episodic = EpisodicMemory(
        _vector_from_list(raw["episodic"]["state"], dim),
        tuple(_summary_from_dict(r, dim) for r in raw["episodic"]["log"]),
        raw["episodic"]["capacity"],
        raw["episodic"]["alpha"],
    )
    semantic = SemanticGraph(
        {n["entity_id"]: _node_from_dict(n, dim) for n in raw["semantic"]["nodes"]},
        tuple((e[0], e[1], e[2], e[3], e[4]) for e in raw["semantic"]["edges"]),
        raw["semantic"]["capacity_nodes"],
    )
    return MemoryState(working, episodic, semantic, raw["session_cursor"]), cfg


def dumps_state(state: MemoryState, cfg: EngineConfig) -> str:
    return json.dumps(state_to_dict(state, cfg), sort_keys=True)


def loads_state(text: str) -> tuple[MemoryState, EngineConfig]:
    return state_from_dict(json.loads(text))


def session_to_dict(session: Session) -> dict[str, Any]:
    utterances = []
    for u in session.utterances:
        item: dict[str, Any] = {"turn": u.turn_index, "speaker": u.speaker, "text": u.text}
        if u.annotations:
            item["facts"] = [_fact_to_dict(f) for f in u.annotations]
        utterances.append(item)
    return {"index": session.index, "utterances": utterances}


def session_from_dict(data: dict[str, Any]) -> Session:
    index = data["index"]
    utterances = tuple(
        Utterance.from_text(
            index,
            u["turn"],
            u["speaker"],
            u["text"],
            tuple(_fact_from_dict(f) for f in u.get("facts", ())),
        )
        for u in data["utterances"]
    )
    return Session(index, utterances)


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
            except (KeyError, TypeError, json.JSONDecodeError) as exc:
                raise ValueError(f"{path}:{line_number}: malformed session record: {exc}") from exc
    return sessions
