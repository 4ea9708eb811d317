"""Every wire format: states, configs, session files and eval reports, as JSON.

Snapshot wire format, version 4 (single JSON document)::

    {
      "config": {"k": 8, "C_w": 256, ..., "embedder": {"dim": 256, ...}},
      "format_version": 4,
      "state": {
        "session_cursor": 3,
        "working": {"entries": [entry, ..]},
        "episodic": {"state": [float...], "log": [summary, ..]},
        "semantic": {"nodes": [node, ..]}
      }
    }

An entry is its utterance ``{"session": int, "turn": int, "speaker": str,
"text": str}`` without its fact annotations (the next step replaces the
window, and ``extract_facts`` reads only the incoming session, so no load
would read them), a summary ``{"session": int, "text": str}``, and a node
``{"entity_id": str, "attributes": [[name, value, session], ..],
"importance": float, "last_updated": int}``, its entity_id the node's key in
``SemanticGraph.nodes`` (an ``EntityNode`` holds no id), each attribute row a
``memory.Attribute`` after its name, so each fact is written once. Each entry,
summary and node holds a vector that is ``embed`` of its text: the
utterance's text, the summary's text, and ``memory.node_text`` of the node's
id and attributes. A deterministic dump writes none of these vectors, since
each is ``embed(text, cfg.embedder)``, and loading rebuilds them so, every
text in one ``embedding.embed_all`` call; only the episodic state, a blend, is
written. A state records the embedder that built it, and dumping it under
another raises ValueError, so a load never rebuilds other vectors than the
state held. In remote mode, whose vectors no load may ask the service for
again, each entry, summary and node carries its vector as ``"embedding":
[float...]``, and loading reads it. A deterministic document that carries one
of these vectors, and a remote one that lacks one, is malformed. Version 4 is
the one format loading reads: a document of version 1 (written before, with
no ``"format_version"`` key), version 2 (whose edge rows restated every
attribute) or version 3 (whose log records carried a salience, attribute rows
a confidence, and working entries their facts) is malformed. Layer bounds live
in the config only (k, C_w, C_e, alpha, C_s).

Node attributes, entries, and log records are serialized as ordered lists so a
round-trip preserves iteration order exactly; floats survive via repr, so
dump -> load -> dump is byte-identical.

Session JSONL carries one session per line:
``{"index": int, "utterances": [{"turn": int, "speaker": str, "text": str, "facts": [...]?}]}``
with optional fact annotations ``{"s": str, "p": str, "o": str, "c": float?}``; ``"c"`` is kind-checked
(``memory.FactTriple``) and stored nowhere.

Configs and eval reports share one codec: ``config_to_dict`` writes every field of an ``EngineConfig`` or a
``harness.EvalReport`` under its name (a nested dataclass as an object, a tuple as a list, a mapping's keys as
strings, so a report's ``retention_at`` is ``{"gap": float, ..}``), and ``_from_dict`` reads it back from the
field annotations. A snapshot's config and a report, its config included, carry every field, their embedders'
too, so none loads under a default it was not written with; a ``--config`` file may leave fields out, which keep
their defaults.

One rule rejects outside input: it is malformed when reading it raises one of ``_MALFORMED``. The readers check wire
shape: a JSON object that repeats a key (``json.loads`` alone would keep its last value), a missing key, a
``format_version`` other than the int 4 (a missing one is version 1), a config or report key no field has (the retired
``seed`` and ``lambda`` too), a snapshot or session key no v4 writer writes (``_check_keys``; ``"embedding"`` is
written in remote mode only), an attribute row that is not a list of three fields (the message names its node), a node
that repeats an entity_id or an attribute name, a vector that is not a list of ``embedder.dim`` finite numbers, a
working entry's, log record's or node's vector whose L2 norm is neither 0 nor within 1e-12 of 1
(``embedding.vector_from_json``), a record its dataclass refuses (a blank fact part, say), a config or report tuple
field whose value is not a list, a mapping field whose value is not an object, and a ``retention_at`` key that does
not spell its gap as ``str(int)`` does (so two spellings of one gap cannot collide). Sessions and reports are
kind-checked (``embedding.check_field_kinds``), and a loaded state must pass ``engine.check_state``, the one list of
what the updates keep. Each reader catches these once and raises ValueError with its prefix: ``loads_config``
"malformed config: ", ``loads_state`` "malformed snapshot: ", ``read_sessions_jsonl`` "path:N: malformed session
record: ", and ``loads_report`` "malformed report: ". Each parses JSON text, so invalid JSON is malformed input too.
Vectors load as read-only arrays, as ``embed`` makes them.
"""

from __future__ import annotations

import json
from dataclasses import fields, is_dataclass
from functools import cache, partial
from itertools import chain
from typing import AbstractSet, Any, Callable, Iterable, get_args, get_origin, get_type_hints

import numpy as np

from .embedding import EmbedderConfig, check_field_kinds, check_kinds, embed_all, vector_from_json
from .engine import EngineConfig, check_embedder, check_state
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
    node_text,
)


# What a reader counts as malformed input (see the module docstring).
_MALFORMED = (KeyError, TypeError, IndexError, AttributeError, ValueError, OverflowError)

FORMAT_VERSION = 4  # what dumps_state writes and the one version loads_state reads

def _check_keys(*checks: tuple[str, AbstractSet[str], Iterable[dict[str, Any]]]) -> None:
    """ValueError naming the keys a record carries that no writer writes, for each (kind, keys, records)."""
    for kind, keys, records in checks:
        for record in records:
            if not record.keys() <= keys:
                raise ValueError(f"unknown {kind} key(s): {', '.join(sorted(record.keys() - keys))}")


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


def _from_dict(cls: type, data: dict[str, Any], complete: bool) -> Any:
    """Inverse of config_to_dict: unknown keys raise ValueError, and the dataclass's constructor checks each value's
    kind. A ``complete`` record, as config_to_dict writes it, must carry every field, its nested ones too (ValueError
    naming the missing keys); otherwise missing keys keep the field default.

    A field's annotation says how its JSON value reads: a nested dataclass by ``_from_dict``, a tuple from a list
    (ValueError naming the field for any other value), and a mapping's string keys as its key type (ValueError
    naming the field for a value that is not an object).
    """
    if not isinstance(data, dict):
        raise ValueError(f"{cls.__name__} must be a JSON object, got {type(data).__name__}")
    hints = _field_hints(cls)
    unknown = sorted(data.keys() - hints.keys())
    if unknown:
        raise ValueError(f"unknown {cls.__name__} key(s): {', '.join(unknown)}")
    missing = sorted(hints.keys() - data.keys()) if complete else []
    if missing:
        raise ValueError(f"missing {cls.__name__} key(s): {', '.join(missing)}")
    kwargs: dict[str, Any] = {}
    for key, value in data.items():
        hint = hints[key]
        if is_dataclass(hint):
            value = _from_dict(hint, value, complete)
        elif get_origin(hint) is tuple:
            if not isinstance(value, list):
                raise ValueError(f"{cls.__name__}.{key} must be a JSON list, got {type(value).__name__}")
            value = tuple(value)
        elif get_origin(hint) is dict:
            if not isinstance(value, dict):
                raise ValueError(f"{cls.__name__}.{key} must be a JSON object, got {type(value).__name__}")
            value = {get_args(hint)[0](k): item for k, item in value.items()}
        kwargs[key] = value
    return cls(**kwargs)


def _object(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    """The dict of one JSON object's (key, value) pairs; ValueError naming a key it repeats, which ``json.loads``
    would read as its last value."""
    out = dict(pairs)
    if len(out) != len(pairs):
        keys = [key for key, _ in pairs]
        raise ValueError(f"repeated key {next(key for key in keys if keys.count(key) > 1)!r}")
    return out


_loads = partial(json.loads, object_pairs_hook=_object)  # every reader's parse: a repeated key raises ValueError


def _read(what: str, read: Callable[[Any], Any], text: str) -> Any:
    """read(_loads(text)); raises ValueError("malformed <what>: ...") when either raises one of _MALFORMED."""
    try:
        return read(_loads(text))
    except _MALFORMED as exc:
        raise ValueError(f"malformed {what}: {exc}") from exc


def loads_config(text: str) -> EngineConfig:
    """Raises ValueError("malformed config: ...") on invalid JSON, an unknown key and a value of the wrong JSON type;
    a missing key keeps its default."""
    return _read("config", partial(_from_dict, EngineConfig, complete=False), text)


def _fact_to_dict(fact: FactTriple) -> dict[str, Any]:
    return {"s": fact.subject, "p": fact.predicate, "o": fact.object, "c": fact.confidence}


def _fact_from_dict(data: dict[str, Any]) -> FactTriple:
    return FactTriple(data["s"], data["p"], data["o"], data.get("c", 1.0))


def _utterance_to_dict(utterance: Utterance) -> dict[str, Any]:
    """A session line's utterance, without its session index, which the session record carries."""
    out: dict[str, Any] = {"turn": utterance.turn_index, "speaker": utterance.speaker, "text": utterance.text}
    if utterance.annotations:
        out["facts"] = [_fact_to_dict(f) for f in utterance.annotations]
    return out


def _utterance_from_dict(data: dict[str, Any], session_index: int) -> Utterance:
    return Utterance(
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
    return {"session": record.session_index, "text": record.text}


def _summary_from_dict(data: dict[str, Any], vector: np.ndarray) -> SummaryRecord:
    return SummaryRecord(data["session"], data["text"], vector)


def _node_to_dict(entity_id: str, node: EntityNode) -> dict[str, Any]:
    """The record of the node keyed entity_id; each attribute is one [name, value, session] row."""
    return {
        "entity_id": entity_id,
        "attributes": [[name, *attribute] for name, attribute in node.attributes.items()],
        "importance": node.importance,
        "last_updated": node.last_updated,
    }


def _node_attributes(data: dict[str, Any]) -> dict[str, Attribute]:
    rows = data["attributes"]
    for row in rows:  # a plain loop: all() over a generator read ~60 us slower on a 256-node load
        if type(row) is not list or len(row) != 3:
            raise ValueError(f"node {data['entity_id']!r} has an attribute row that is not [name, value, session]")
    attributes = {name: Attribute(value, session) for name, value, session in rows}
    if len(attributes) != len(rows):
        raise ValueError(f"node {data['entity_id']!r} repeats an attribute name")
    return attributes


def state_to_dict(state: MemoryState, cfg: EngineConfig) -> dict[str, Any]:
    """The v4 document; only in remote mode does a working entry, log record or node carry its vector.

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
                    record({"session": u.session_index, "turn": u.turn_index, "speaker": u.speaker, "text": u.text}, e)
                    for u, e in state.working.entries
                ],
            },
            "episodic": {
                "state": state.episodic.state.tolist(),
                "log": [record(_summary_to_dict(r), r.embedding) for r in state.episodic.log],
            },
            "semantic": {
                "nodes": [record(_node_to_dict(nid, n), n.embedding) for nid, n in state.semantic.nodes.items()],
            },
        },
    }


def state_from_dict(data: dict[str, Any]) -> tuple[MemoryState, EngineConfig]:
    """Raises one of _MALFORMED on a malformed snapshot, such as a state check_state refuses; loads_state names it."""
    version = data.get("format_version", 1)  # a version 1 document has no such key
    if type(version) is not int or version != FORMAT_VERSION:
        raise ValueError(f"format_version {version!r} is not {FORMAT_VERSION}, the one version loading reads")
    cfg = _from_dict(EngineConfig, data["config"], complete=True)
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
        ("working entry", {"session", "turn", "speaker", "text", *vector}, entries),
        ("log record", {"session", "text", *vector}, log),
        ("node", {"entity_id", "attributes", "importance", "last_updated", *vector}, nodes),
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
    semantic = SemanticGraph({
        n["entity_id"]: EntityNode(a, vector, n["importance"], n["last_updated"])
        for n, a, vector in zip(nodes, attributes, vectors)
    })
    if len(semantic.nodes) != len(nodes):
        raise ValueError(f"{len(nodes) - len(semantic.nodes)} node(s) repeat an entity_id")
    state = MemoryState(working, episodic, semantic, raw["session_cursor"], cfg.embedder)
    check_state(state, cfg)
    return state, cfg


def dumps_state(state: MemoryState, cfg: EngineConfig) -> str:
    """The snapshot of a state the engine built under cfg, as v4 JSON (see the module docstring).

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
        ("utterance", {"turn", "speaker", "text", "facts"}, utterances),
        ("fact", {"s", "p", "o", "c"}, chain.from_iterable(u.get("facts", ()) for u in utterances)),
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
                sessions.append(session_from_dict(_loads(line)))
            except _MALFORMED as exc:
                raise ValueError(f"{path}:{line_number}: malformed session record: {exc}") from exc
    return sessions


def _report_from_dict(data: dict[str, Any]) -> EvalReport:
    """Raises one of _MALFORMED on a malformed report; a retention_at key must spell its gap as str(int) does."""
    report = _from_dict(EvalReport, data, complete=True)
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
