"""Lossless JSON serialization for states, configs, and session files.

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

Loading raises ``ValueError("malformed snapshot: ...")`` when an int, float or
str field of the loaded state holds another JSON type (a bool is no int), when a
vector holds a non-finite coordinate (JSON ``NaN`` or ``Infinity``), and when
the layers exceed the config's k, C_w, C_e or C_s.
A config scalar (snapshot, report or config file) of another JSON type than its
field annotation allows raises ``ValueError("malformed config: ...")``.

Node attributes, entries, and log records are serialized as ordered lists so a
round-trip preserves iteration order exactly; floats survive via repr, so
dump -> load -> dump is byte-identical.

Session JSONL carries one session per line:
``{"index": int, "utterances": [{"turn": int, "speaker": str, "text": str, "facts": [...]?}]}``
with optional fact annotations ``{"s": str, "p": str, "o": str, "c": float}``.
Reading raises ``ValueError("path:N: malformed session record: ...")`` on a
line that is no such record, a mistyped field included (same checker as snapshots).
"""

from __future__ import annotations

import json
from dataclasses import fields, is_dataclass
from itertools import chain
from operator import attrgetter, itemgetter
from typing import Any, Iterable, Sequence

import numpy as np

from .embedding import Embedding
from .engine import EngineConfig, check_layer_bounds
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
    return embedding.values.tolist()


def _vector_from_list(values: list[float], dim: int) -> Embedding:
    vector = np.asarray(values, dtype=np.float64)
    if not np.isfinite(vector).all():
        raise ValueError("malformed snapshot: vector holds a non-finite coordinate")
    return Embedding(vector, dim)


# The JSON types a loaded value may have, by annotation: a bool is no int, an int is a float.
_KINDS = {"int": (int,), "float": (int, float), "str": (str,), "bool": (bool,), "str | None": (str, type(None))}
_EDGE = ("str", "str", "str", "int", "float")


def _check_types(name: str, annotation: str, values: Iterable[Any]) -> None:
    """TypeError unless each value's exact type is one _KINDS allows; runs at C speed over a column."""
    odd = set(map(type, values)).difference(_KINDS[annotation])
    if odd:
        raise TypeError(f"{name} must be {annotation}, got {odd.pop().__name__}")


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


def config_from_dict(data: dict[str, Any]) -> EngineConfig:
    """Raises ValueError on an unknown key and on a scalar of the wrong JSON type."""
    if isinstance(data, dict):
        data = {key: value for key, value in data.items() if key not in _RETIRED_KEYS}
    try:
        return _from_dict(EngineConfig, data)
    except TypeError as exc:
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
            [name, {"value": rec.value, "session": rec.session_index}]
            for name, rec in node.attributes.items()
        ],
        "embedding": _vector_to_list(node.embedding),
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
                    [{"session": u.session_index, **_utterance_to_dict(u)}, _vector_to_list(e)]
                    for u, e in state.working.entries
                ],
            },
            "episodic": {
                "state": _vector_to_list(state.episodic.state),
                "log": [_summary_to_dict(r) for r in state.episodic.log],
            },
            "semantic": {
                "nodes": [_node_to_dict(n) for n in state.semantic.nodes.values()],
                "edges": [list(e) for e in state.semantic.edges],
            },
        },
    }


def state_from_dict(data: dict[str, Any]) -> tuple[MemoryState, EngineConfig]:
    """Raises TypeError on a mistyped field and ValueError when the layers exceed the config's bounds."""
    cfg = config_from_dict(data["config"])
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
        tuple((e[0], e[1], e[2], e[3], e[4]) for e in raw["semantic"]["edges"]),
    )
    state = MemoryState(working, episodic, semantic, raw["session_cursor"])
    _check_state(state)
    try:
        check_layer_bounds(state, cfg)
    except ValueError as exc:
        raise ValueError(f"malformed snapshot: {exc}") from exc
    return state, cfg


def dumps_state(state: MemoryState, cfg: EngineConfig) -> str:
    return json.dumps(state_to_dict(state, cfg), sort_keys=True)


def loads_state(text: str) -> tuple[MemoryState, EngineConfig]:
    """Raises ValueError on invalid JSON and on a malformed snapshot (see the module docstring)."""
    data = json.loads(text)
    try:
        return state_from_dict(data)
    except (KeyError, TypeError, IndexError, AttributeError) as exc:
        raise ValueError(f"malformed snapshot: {exc!r}") from exc


def session_to_dict(session: Session) -> dict[str, Any]:
    return {"index": session.index, "utterances": [_utterance_to_dict(u) for u in session.utterances]}


def session_from_dict(data: dict[str, Any]) -> Session:
    """Raises TypeError when an int, float or str field of the session holds another JSON type."""
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
            except (KeyError, TypeError, AttributeError, json.JSONDecodeError) as exc:
                raise ValueError(f"{path}:{line_number}: malformed session record: {exc}") from exc
    return sessions
