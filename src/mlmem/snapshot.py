"""Every wire format: states, configs, session files and eval reports, as JSON.

Snapshot wire format, version 3 (single JSON document)::

    {
      "config": {"k": 8, "C_w": 256, ..., "embedder": {"dim": 256, ...}},
      "format_version": 3,
      "state": {
        "session_cursor": 3,
        "working": {"entries": [entry, ..]},
        "episodic": {"state": [float...], "log": [summary, ..]},
        "semantic": {"nodes": [node, ..]}
      }
    }

An entry is its utterance ``{"session": int, "turn": int, "speaker": str,
"text": str, "facts": [...]?}``, a summary ``{"session": int, "text": str,
"salience": float}``, and a node ``{"entity_id": str, "attributes": [[name,
value, session, confidence], ..], "importance": float, "last_updated": int}``,
each attribute row a ``memory.Attribute`` after its name, so each fact is
written once. Each entry, summary and node holds a vector that is ``embed`` of its
text: the utterance's text, the summary's text, and ``memory.node_text`` of
the node's id and attributes. A deterministic dump writes none of these
vectors, since each is ``embed(text, cfg.embedder)``, and loading rebuilds
them so, every text in one ``embedding.embed_all`` call; only the episodic
state, a blend, is written. A state records the
embedder that built it, and dumping it under another raises ValueError, so a
load never rebuilds other vectors than the state held. In remote mode, whose
vectors no load may ask the service for again, each entry, summary and node
carries its vector as ``"embedding": [float...]``, and loading reads it. A
deterministic document that carries one of these vectors, and a remote one that
lacks one, is malformed. Version 3 is the one format loading reads: a document
of version 1 (written before, with no ``"format_version"`` key) or version 2
(whose edge rows restated every attribute) is malformed. Layer bounds live in
the config only (k, C_w, C_e, alpha, C_s).

Node attributes, entries, and log records are serialized as ordered lists so a
round-trip preserves iteration order exactly; floats survive via repr, so
dump -> load -> dump is byte-identical.

Session JSONL carries one session per line:
``{"index": int, "utterances": [{"turn": int, "speaker": str, "text": str, "facts": [...]?}]}``
with optional fact annotations ``{"s": str, "p": str, "o": str, "c": float?}``.

Configs and eval reports share one codec: ``config_to_dict`` writes every field of an ``EngineConfig`` or a
``harness.EvalReport`` under its name (a nested dataclass as an object, a tuple as a list, a mapping's keys as
strings, so a report's ``retention_at`` is ``{"gap": float, ..}``), and ``_from_dict`` reads it back from the
field annotations.

One rule rejects outside input: it is malformed when reading it raises one of
``_MALFORMED``, as a missing key, a ``format_version`` other than the int 3
(a missing one is version 1), a config or report key no field has (the retired
``seed`` and ``lambda`` too), a snapshot or session key no v3 writer writes (``_check_keys``;
``"embedding"`` is written in remote mode only), a field the kind rule refuses (every reader
runs ``embedding.check_field_kinds`` on the records it builds), a vector that
is not a list of ``embedder.dim`` numbers, a working entry's, log record's or
node's vector whose L2 norm is neither 0 nor within 1e-12 of 1
(``embedding.vector_from_json``), an episodic state whose L2 norm exceeds
1 + 1e-12 (no ``update_episodic`` blend does), or a record its dataclass
refuses (a blank fact part, say) does; so do a
node that repeats an entity_id or an attribute name, an attribute row that is
not four fields long (the message names its node), a graph no merge could build (``_check_graph``: a node
``importance`` below 1, an entity_id, attribute name or value that is not
lowercase and stripped as ``memory.canonical`` leaves it, an attribute session
later than its node's ``last_updated``), a ``session_cursor`` below -1,
a recorded session (a working entry's, a log record's, an attribute's, a node's
``last_updated``) outside [0, cursor], working entries that ``memory.Session``
refuses as one session (``update_working`` keeps the tail of one session), an
episodic log whose sessions do not strictly increase, a config or report tuple
field whose value is not a list, and
a ``retention_at`` key that does not spell its gap as ``str(int)`` does (so
two spellings of one gap cannot collide). Each reader catches these once and raises ValueError
with its prefix: ``loads_config`` "malformed config: ", ``loads_state`` "malformed snapshot: " (also for layers
over the config's k, C_w, C_e or C_s), ``read_sessions_jsonl`` "path:N: malformed session record: ", and
``loads_report`` "malformed report: ". Each parses JSON text, so invalid JSON is malformed input too.
Vectors load as read-only arrays, as ``embed`` makes them.
"""

from __future__ import annotations

import json
import math
from dataclasses import fields, is_dataclass
from functools import cache, partial
from itertools import chain
from operator import itemgetter
from typing import AbstractSet, Any, Callable, Iterable, get_args, get_origin, get_type_hints

import numpy as np

from .embedding import UNIT_TOLERANCE, EmbedderConfig, check_field_kinds, check_kinds, embed_all, vector_from_json
from .engine import EngineConfig, check_embedder, check_layer_bounds
from .harness import EvalReport
from .memory import (
    Attribute,
    EntityNode,
    EpisodicMemory,
    FactTriple,
    MemoryState,
    SemanticGraph,
    Session,
    SummaryRecord,
    Utterance,
    WorkingMemory,
    canonical,
    node_text,
)


# What a reader counts as malformed input (see the module docstring).
_MALFORMED = (KeyError, TypeError, IndexError, AttributeError, ValueError, OverflowError)

FORMAT_VERSION = 3  # what dumps_state writes and the one version loads_state reads

# (field, kind) of each column of an attribute row: its name, then the ``memory.Attribute`` fields.
_ATTRIBUTE_ROW = [("name", "str"), *((name, kind.__name__) for name, kind in get_type_hints(Attribute).items())]


# The keys a v3 writer writes on a working entry and on a fact; a session line's utterance is a working entry
# without its "session", which the session record carries.
_ENTRY_KEYS = frozenset({"session", "turn", "speaker", "text", "facts"})
_FACT_KEYS = frozenset({"s", "p", "o", "c"})


def _check_keys(*checks: tuple[str, AbstractSet[str], Iterable[dict[str, Any]]]) -> None:
    """ValueError naming the keys a record carries that no writer writes, for each (kind, keys, records)."""
    for kind, keys, records in checks:
        for record in records:
            if not record.keys() <= keys:
                raise ValueError(f"unknown {kind} key(s): {', '.join(sorted(record.keys() - keys))}")


def _check_state(state: MemoryState) -> None:
    """The kind check over every scalar field of a loaded state; vector_from_json checks vectors."""
    utterances = tuple(map(itemgetter(0), state.working.entries))
    facts = tuple(chain.from_iterable(u.annotations for u in utterances))
    nodes = tuple(state.semantic.nodes.values())
    for records in ((state,), utterances, facts, state.episodic.log, nodes):
        check_field_kinds(*records)
    rows = [(name, *attribute) for node in nodes for name, attribute in node.attributes.items()]
    for (name, kind), column in zip(_ATTRIBUTE_ROW, zip(*rows)):
        check_kinds(f"attribute {name}", kind, column)


def _check_sessions(state: MemoryState) -> None:
    """ValueError unless the cursor is >= -1, each recorded session (a working entry's, a log record's,
    an attribute's, a node's last_updated) lies in [0, cursor], the working entries make a ``Session`` (one
    session in strictly increasing turn order, as ``update_working`` keeps a session's tail), and the log's sessions
    strictly increase (``update_episodic`` evicts the oldest record by position)."""
    cursor = state.session_cursor
    log = [r.session_index for r in state.episodic.log]
    utterances = tuple(u for u, _ in state.working.entries)
    recorded = [u.session_index for u in utterances] + log
    for node in state.semantic.nodes.values():
        recorded += [a.session for a in node.attributes.values()] + [node.last_updated]
    if cursor < -1 or min(recorded, default=0) < 0 or max(recorded, default=cursor) > cursor:
        raise ValueError(f"session_cursor {cursor} is below -1, or a recorded session lies outside [0, {cursor}]")
    if utterances:
        Session(utterances[0].session_index, utterances)  # its constructor refuses any other tail
    if any(earlier >= later for earlier, later in zip(log, log[1:])):
        raise ValueError(f"episodic log sessions {log} do not strictly increase")


def _check_graph(graph: SemanticGraph) -> None:
    """ValueError unless each node's importance is at least 1 (each merge into a node adds 1), its entity_id and
    each attribute's name and value are in the ``canonical`` form a merge stores, and none of its attributes is of a
    session later than its ``last_updated`` (a merge moves both to its session)."""
    for node in graph.nodes.values():
        if node.importance < 1.0:
            raise ValueError(f"node {node.entity_id!r} has importance below 1")
        if node.entity_id != canonical(node.entity_id):
            raise ValueError(f"node {node.entity_id!r} is not lowercase and stripped, as a merge writes its id")
        for name, attribute in node.attributes.items():
            if attribute.session > node.last_updated:
                raise ValueError(f"node {node.entity_id!r} is older than its attribute {name!r} of session "
                                 f"{attribute.session}")
            if name != canonical(name) or attribute.value != canonical(attribute.value):
                raise ValueError(f"node {node.entity_id!r} has attribute {name!r} = {attribute.value!r}, not "
                                 "lowercase and stripped, as a merge writes each")


def config_to_dict(record: Any) -> dict[str, Any]:
    """Every field of a config or report under its name; nested dataclasses recurse, tuples become lists, and a
    mapping's keys become strings, so ``sort_keys`` orders retention_at's gaps as text: 1, 10, 2."""
    out: dict[str, Any] = {}
    for f in fields(record):
        value = getattr(record, f.name)
        if is_dataclass(value):
            value = config_to_dict(value)
        elif isinstance(value, tuple):
            value = list(value)
        elif isinstance(value, dict):
            value = {str(key): item for key, item in value.items()}
        out[f.name] = value
    return out


@cache
def _field_hints(cls: type) -> dict[str, Any]:
    """The resolved annotation of each field of dataclass cls, looked up once per class."""
    hints = get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls)}


def _from_dict(cls: type, data: dict[str, Any]) -> Any:
    """Inverse of config_to_dict: missing keys keep the field default (TypeError for a field without one), unknown
    keys raise ValueError, and the dataclass's constructor checks each value's kind.

    A field's annotation says how its JSON value reads: a nested dataclass by ``_from_dict``, a tuple from a list
    (ValueError naming the field for any other value), and a mapping's string keys as its key type.
    """
    if not isinstance(data, dict):
        raise ValueError(f"{cls.__name__} must be a JSON object, got {type(data).__name__}")
    hints = _field_hints(cls)
    unknown = sorted(data.keys() - hints.keys())
    if unknown:
        raise ValueError(f"unknown {cls.__name__} key(s): {', '.join(unknown)}")
    kwargs: dict[str, Any] = {}
    for key, value in data.items():
        hint = hints[key]
        if is_dataclass(hint):
            value = _from_dict(hint, value)
        elif get_origin(hint) is tuple:
            if not isinstance(value, list):
                raise ValueError(f"{cls.__name__}.{key} must be a JSON list, got {type(value).__name__}")
            value = tuple(value)
        elif get_origin(hint) is dict:
            value = {get_args(hint)[0](k): item for k, item in value.items()}
        kwargs[key] = value
    return cls(**kwargs)


def _read(what: str, read: Callable[[Any], Any], text: str) -> Any:
    """read(json.loads(text)); raises ValueError("malformed <what>: ...") when either raises one of _MALFORMED."""
    try:
        return read(json.loads(text))
    except _MALFORMED as exc:
        raise ValueError(f"malformed {what}: {exc}") from exc


def loads_config(text: str) -> EngineConfig:
    """Raises ValueError("malformed config: ...") on invalid JSON, an unknown key and a value of the wrong JSON type."""
    return _read("config", partial(_from_dict, EngineConfig), text)


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


def _vectors(records: list[dict[str, Any]], texts: list[str], embedder: EmbedderConfig) -> list[np.ndarray]:
    """The vectors of loaded working entries, log records or nodes: a remote record carries its "embedding", and
    deterministic ones, which carry none (``_check_keys``), get ``embed_all(texts)``."""
    if embedder.mode == "remote":
        return [vector_from_json(record["embedding"], embedder.dim, embedded=True) for record in records]
    return embed_all(texts, embedder)


def _summary_to_dict(record: SummaryRecord) -> dict[str, Any]:
    return {"session": record.session_index, "text": record.text, "salience": record.salience}


def _summary_from_dict(data: dict[str, Any], vector: np.ndarray) -> SummaryRecord:
    return SummaryRecord(data["session"], data["text"], vector, data["salience"])


def _node_to_dict(node: EntityNode) -> dict[str, Any]:
    """The node record; each attribute is one [name, value, session, confidence] row."""
    return {
        "entity_id": node.entity_id,
        "attributes": [[name, *attribute] for name, attribute in node.attributes.items()],
        "importance": node.importance,
        "last_updated": node.last_updated,
    }


def _node_attributes(data: dict[str, Any]) -> dict[str, Attribute]:
    try:
        attributes = {
            name: Attribute(value, session, confidence) for name, value, session, confidence in data["attributes"]
        }
    except ValueError as exc:  # a row of other than four fields
        row = ", ".join(name for name, _ in _ATTRIBUTE_ROW)
        raise ValueError(f"node {data['entity_id']!r} has an attribute row that is not [{row}]: {exc}") from exc
    if len(attributes) != len(data["attributes"]):
        raise ValueError(f"node {data['entity_id']!r} repeats an attribute name")
    return attributes


def state_to_dict(state: MemoryState, cfg: EngineConfig) -> dict[str, Any]:
    """The v3 document; only in remote mode does a working entry, log record or node carry its vector.

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
                "nodes": [record(_node_to_dict(n), n.embedding) for n in state.semantic.nodes.values()],
            },
        },
    }


def state_from_dict(data: dict[str, Any]) -> tuple[MemoryState, EngineConfig]:
    """Raises one of _MALFORMED on a malformed snapshot; loads_state names it as one."""
    version = data.get("format_version", 1)  # a version 1 document has no such key
    if type(version) is not int or version != FORMAT_VERSION:
        raise ValueError(f"format_version {version!r} is not {FORMAT_VERSION}, the one version loading reads")
    cfg = _from_dict(EngineConfig, data["config"])
    raw = data["state"]
    entries = raw["working"]["entries"]
    log = raw["episodic"]["log"]
    nodes = raw["semantic"]["nodes"]
    vector = {"embedding"} if cfg.embedder.mode == "remote" else set()  # a remote record carries its vector
    _check_keys(
        ("document", {"config", "format_version", "state"}, [data]),
        ("state", {"session_cursor", "working", "episodic", "semantic"}, [raw]),
        ("working", {"entries"}, [raw["working"]]),
        ("episodic", {"state", "log"}, [raw["episodic"]]),
        ("semantic", {"nodes"}, [raw["semantic"]]),
        ("working entry", _ENTRY_KEYS | vector, entries),
        ("log record", {"session", "text", "salience", *vector}, log),
        ("node", {"entity_id", "attributes", "importance", "last_updated", *vector}, nodes),
        ("fact", _FACT_KEYS, chain.from_iterable(entry.get("facts", ()) for entry in entries)),
    )
    utterances = [_utterance_from_dict(u, u["session"]) for u in entries]
    attributes = [_node_attributes(n) for n in nodes]
    texts = [u.text for u in utterances] + [r["text"] for r in log]
    texts += [node_text(n["entity_id"], a) for n, a in zip(nodes, attributes)]
    # one embed_all call for every text; the layers below take their vectors from it in this order
    vectors = iter(_vectors([*entries, *log, *nodes], texts, cfg.embedder))
    working = WorkingMemory(tuple(zip(utterances, vectors)))
    episodic = EpisodicMemory(
        vector_from_json(raw["episodic"]["state"], cfg.embedder.dim), tuple(map(_summary_from_dict, log, vectors))
    )
    norm = math.sqrt(float(episodic.state.dot(episodic.state)))
    if norm > 1.0 + UNIT_TOLERANCE:
        raise ValueError(f"the episodic state must have L2 norm at most 1, as every blend has, got {norm!r}")
    semantic = SemanticGraph({
        n["entity_id"]: EntityNode(n["entity_id"], a, vector, n["importance"], n["last_updated"])
        for n, a, vector in zip(nodes, attributes, vectors)
    })
    if len(semantic.nodes) != len(nodes):
        raise ValueError(f"{len(nodes) - len(semantic.nodes)} node(s) repeat an entity_id")
    state = MemoryState(working, episodic, semantic, raw["session_cursor"], cfg.embedder)
    _check_state(state)
    _check_sessions(state)
    _check_graph(semantic)
    check_layer_bounds(state, cfg)
    return state, cfg


def dumps_state(state: MemoryState, cfg: EngineConfig) -> str:
    """The snapshot of a state the engine built under cfg, as v3 JSON (see the module docstring).

    A deterministic dump records each working, log and node vector as ``embed(text, cfg.embedder)`` of its
    record's text, by writing the text alone; ``loads_state`` rebuilds the vector so.
    """
    return json.dumps(state_to_dict(state, cfg), sort_keys=True)


def loads_state(text: str) -> tuple[MemoryState, EngineConfig]:
    """Raises ValueError("malformed snapshot: ...") on invalid JSON and on a malformed snapshot."""
    return _read("snapshot", state_from_dict, text)


def session_to_dict(session: Session) -> dict[str, Any]:
    return {"index": session.index, "utterances": [_utterance_to_dict(u) for u in session.utterances]}


def session_from_dict(data: dict[str, Any]) -> Session:
    """Raises one of _MALFORMED on a malformed session, such as one carrying a key no writer writes;
    read_sessions_jsonl names it as one."""
    utterances = data["utterances"]
    _check_keys(
        ("session", {"index", "utterances"}, [data]),
        ("utterance", _ENTRY_KEYS - {"session"}, utterances),
        ("fact", _FACT_KEYS, chain.from_iterable(u.get("facts", ()) for u in utterances)),
    )
    index = data["index"]
    session = Session(index, tuple(_utterance_from_dict(u, index) for u in utterances))
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


def _report_from_dict(data: dict[str, Any]) -> EvalReport:
    """Raises one of _MALFORMED on a malformed report; a retention_at key must spell its gap as str(int) does."""
    report = _from_dict(EvalReport, data)
    keys = list(data["retention_at"])
    if list(map(str, report.retention_at)) != keys:
        raise ValueError(f"retention_at keys must spell distinct gaps as str(int) does, got {keys}")
    check_field_kinds(report)
    check_kinds("EvalReport.retention_at", "float", report.retention_at.values())
    check_kinds("EvalReport.drift_curve", "float", report.drift_curve)
    return report


def loads_report(text: str) -> EvalReport:
    """Raises ValueError("malformed report: ...") on invalid JSON, a missing or unknown key and a value of the wrong
    JSON type."""
    return _read("report", _report_from_dict, text)
