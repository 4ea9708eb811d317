"""Snapshot and JSONL round-trips must be lossless down to the byte."""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlmem.embedding import EmbedderConfig, embed
from mlmem.cli import main
from mlmem.engine import EngineConfig, initial_state, run
from mlmem.harness import generate_scenario
from mlmem.memory import FactTriple, Session, Utterance
from mlmem.snapshot import (
    config_from_dict,
    config_to_dict,
    dumps_state,
    loads_state,
    read_sessions_jsonl,
    session_from_dict,
    session_to_dict,
    write_sessions_jsonl,
)

CFG = EngineConfig(embedder=EmbedderConfig(dim=32, seed=4))


def _built_state():
    scenario = generate_scenario(4, 3, seed=9)
    return run(scenario.sessions, None, CFG)[-1].state


def test_state_round_trip_is_byte_identical():
    state = _built_state()
    blob = dumps_state(state, CFG)
    loaded, cfg = loads_state(blob)
    assert cfg == CFG
    assert dumps_state(loaded, cfg) == blob


def test_loaded_state_preserves_structure_and_vectors():
    state = _built_state()
    loaded, _ = loads_state(dumps_state(state, CFG))
    assert loaded.session_cursor == state.session_cursor
    assert list(loaded.semantic.nodes) == list(state.semantic.nodes)
    assert loaded.semantic.edges == state.semantic.edges
    for key in state.semantic.nodes:
        assert np.array_equal(
            loaded.semantic.nodes[key].embedding,
            state.semantic.nodes[key].embedding,
        )
        assert loaded.semantic.nodes[key].attributes == state.semantic.nodes[key].attributes
    assert np.array_equal(loaded.episodic.state, state.episodic.state)
    assert [r.text for r in loaded.episodic.log] == [r.text for r in state.episodic.log]
    assert [u.text for u, _ in loaded.working.entries] == [u.text for u, _ in state.working.entries]


def _state_vectors(state):
    """Every vector a state holds: working entries, episodic state and log, node embeddings."""
    yield from (vector for _, vector in state.working.entries)
    yield state.episodic.state
    yield from (record.embedding for record in state.episodic.log)
    yield from (node.embedding for node in state.semantic.nodes.values())


def test_state_vectors_and_embeddings_are_read_only():
    outputs = run(generate_scenario(6, 6, seed=1).sessions, None, CFG)
    loaded, _ = loads_state(dumps_state(outputs[-1].state, CFG))
    states = [initial_state(CFG), *(o.state for o in outputs), loaded]
    vectors = [v for state in states for v in _state_vectors(state)]
    vectors.append(embed("alice lives in paris", CFG.embedder))
    assert len(vectors) > len(states) * 2
    for vector in vectors:
        assert vector.dtype == np.float64 and vector.shape == (CFG.embedder.dim,)
        assert not vector.flags.writeable
        with pytest.raises(ValueError):
            vector[0] = 1.0


def test_loaded_state_continues_identically():
    scenario = generate_scenario(4, 4, seed=17)
    sessions = list(scenario.sessions)
    head = run(sessions[:2], None, CFG)
    loaded, cfg = loads_state(dumps_state(head[-1].state, CFG))
    history = sum(s.token_count() for s in sessions[:2])
    original_tail = run(sessions[2:], None, CFG, start_state=head[-1].state, history_tokens=history)
    loaded_tail = run(sessions[2:], None, cfg, start_state=loaded, history_tokens=history)
    for a, b in zip(original_tail, loaded_tail):
        assert dumps_state(a.state, CFG) == dumps_state(b.state, CFG)
        assert a.response == b.response


def test_older_format_snapshot_loads_to_the_same_state_and_query(tmp_path, capsys):
    blob = dumps_state(_built_state(), CFG)
    data = json.loads(blob)
    assert not {"seed", "lambda"} & set(data["config"])
    assert not {"window_k", "capacity_tokens"} & set(data["state"]["working"])
    assert not {"alpha", "capacity"} & set(data["state"]["episodic"])
    assert "capacity_nodes" not in data["state"]["semantic"]
    # the format written before the layer bounds lived in the config only
    data["config"].update({"seed": 7, "lambda": 0.25})
    data["state"]["working"].update({"window_k": CFG.k, "capacity_tokens": CFG.C_w})
    data["state"]["episodic"].update({"alpha": CFG.alpha, "capacity": CFG.C_e})
    data["state"]["semantic"]["capacity_nodes"] = CFG.C_s
    legacy = json.dumps(data, sort_keys=True)

    loaded, cfg = loads_state(legacy)
    assert cfg == CFG
    assert dumps_state(loaded, cfg) == blob
    answers = []
    for name, text in (("new.json", blob), ("old.json", legacy)):
        (tmp_path / name).write_text(text)
        assert main(["query", "--snapshot", str(tmp_path / name), "--text", "alice lives_in"]) == 0
        answers.append(capsys.readouterr().out)
    assert answers[0] == answers[1]


def test_older_snapshot_with_superseded_lists_loads_and_redumps_without_them(tmp_path, capsys):
    cities = ["london", "paris", "rome", "paris", "london", "oslo"]
    sessions = [
        Session(i, (Utterance.from_text(i, 0, "alice", f"alice lives in {city}"),
                    Utterance.from_text(i, 1, "bob", f"bob likes {cities[-1 - i]}")))
        for i, city in enumerate(cities)
    ]
    blob = dumps_state(run(sessions, None, CFG)[-1].state, CFG)
    data = json.loads(blob)
    # the format that kept each attribute's displaced values, repeats included
    superseded = {
        "alice": ["london", "paris", "rome", "paris", "london"],
        "bob": ["oslo", "london", "paris", "rome", "paris"],
    }
    for node in data["state"]["semantic"]["nodes"]:
        for name, record in node["attributes"]:
            assert set(record) == {"value", "session"}
            record["superseded"] = superseded[node["entity_id"]]
    legacy = json.dumps(data, sort_keys=True)
    # sha256 of the snapshot that format's dumps_state wrote for these sessions
    assert hashlib.sha256(legacy.encode()).hexdigest() == (
        "b2574e5be1ae89fd1f2c552bb2c59334e005ce17787751f08baa0d41f680d90f"
    )

    loaded, cfg = loads_state(legacy)
    assert dumps_state(loaded, cfg) == blob
    answers = []
    for name, text in (("new.json", blob), ("old.json", legacy)):
        (tmp_path / name).write_text(text)
        for query in ("alice lives_in", "bob likes"):
            assert main(["query", "--snapshot", str(tmp_path / name), "--text", query]) == 0
            answers.append(capsys.readouterr().out)
    assert answers[:2] == answers[2:]
    assert "alice lives_in oslo" in answers[0] and "bob likes london" in answers[1]


@pytest.mark.parametrize("name", ["k", "C_w", "C_e", "C_s"])
def test_loads_state_rejects_layers_over_the_config_bounds(name, tmp_path):
    state = _built_state()
    sizes = {
        "k": len(state.working.entries),
        "C_w": state.working.token_count(),
        "C_e": len(state.episodic.log),
        "C_s": len(state.semantic.nodes),
    }
    assert sizes[name] > 1
    data = json.loads(dumps_state(state, CFG))
    data["config"][name] = sizes[name] - 1
    blob = json.dumps(data)
    with pytest.raises(ValueError, match=f"malformed snapshot: .*{name}={sizes[name] - 1}"):
        loads_state(blob)
    path = tmp_path / "over.json"
    path.write_text(blob)
    assert main(["query", "--snapshot", str(path), "--text", "alice lives_in"]) == 2


def test_config_json_accepts_and_drops_retired_keys():
    data = config_to_dict(CFG)
    assert not {"lambda", "lambda_", "seed"} & set(data)
    assert config_from_dict({**data, "lambda": 0.25, "seed": 3}) == CFG


def test_config_from_partial_dict_fills_defaults():
    cfg = config_from_dict({"k": 3, "lambda": 0.25})
    assert cfg.k == 3
    assert cfg.C_w == EngineConfig().C_w


def test_config_from_dict_rejects_unknown_keys():
    with pytest.raises(ValueError, match="tau"):
        config_from_dict({"tau": 0.1})
    with pytest.raises(ValueError, match="lambda_"):
        config_from_dict({"lambda_": 0.1})
    with pytest.raises(ValueError, match="dimm"):
        config_from_dict({"embedder": {"dimm": 32}})
    with pytest.raises(ValueError, match="EmbedderConfig must be a JSON object"):
        config_from_dict({"embedder": None})
    with pytest.raises(ValueError, match="lambda"):
        config_from_dict({"embedder": {"lambda": 0.5}})
    assert config_from_dict({"seed": 3, "embedder": {"seed": 5}}) == EngineConfig(embedder=EmbedderConfig(seed=5))


def test_session_jsonl_round_trip(tmp_path):
    sessions = [
        Session(
            0,
            (
                Utterance.from_text(0, 0, "alice", "alice lives_in paris",
                                    (FactTriple("alice", "lives_in", "paris", 1.0),)),
                Utterance.from_text(0, 2, "narrator", "the ferry horn echoed twice"),
            ),
        ),
        Session(1, (Utterance.from_text(1, 0, "bob", "bob likes jazz"),)),
    ]
    path = tmp_path / "sessions.jsonl"
    write_sessions_jsonl(sessions, str(path))
    loaded = read_sessions_jsonl(str(path))
    assert loaded == sessions


def test_session_jsonl_schema_matches_wire_format():
    session = Session(
        2,
        (
            Utterance.from_text(2, 1, "bob", "bob works as a chef",
                                (FactTriple("bob", "works", "chef", 0.8),)),
        ),
    )
    data = session_to_dict(session)
    assert data == {
        "index": 2,
        "utterances": [
            {
                "turn": 1,
                "speaker": "bob",
                "text": "bob works as a chef",
                "facts": [{"s": "bob", "p": "works", "o": "chef", "c": 0.8}],
            }
        ],
    }
    assert session_from_dict(json.loads(json.dumps(data))) == session


def test_malformed_jsonl_identifies_the_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"index": 0, "utterances": [{"turn": 0, "speaker": "a", "text": "hi there"}]}\n{"nope": 1}\n')
    with pytest.raises(ValueError, match="bad.jsonl:2"):
        read_sessions_jsonl(str(path))


def test_snapshot_size_depends_on_capacities_not_history_length():
    import dataclasses

    small = dataclasses.replace(CFG, k=4, C_w=48, C_e=4, C_s=6)
    scenario = generate_scenario(6, 30, facts_per_persona=2, distractors_per_session=3, seed=2)
    outputs = run(scenario.sessions, None, small)
    sizes = [len(dumps_state(o.state, small).encode()) for o in outputs]
    late = sizes[15:]
    assert (max(late) - min(late)) / max(late) < 0.10



def _paths(node, path=()):
    """(path, value) of every node under a JSON tree, keys and list indices as path steps."""
    yield path, node
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _paths(child, (*path, key))


def _is_vector(value) -> bool:
    return isinstance(value, list) and len(value) == CFG.embedder.dim and all(type(v) is float for v in value)


_SNAPSHOT = dumps_state(_built_state(), CFG)
_NODES = dict(_paths(json.loads(_SNAPSHOT)))
_COORDINATES = [path for path in _NODES if path and _is_vector(_NODES[path[:-1]])]
_SCALARS = [path for path, value in _NODES.items() if not isinstance(value, (dict, list)) and path not in _COORDINATES]
_KEYS = [path for path in _NODES if path and isinstance(_NODES[path[:-1]], dict)]
_JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4),
    st.lists(st.integers(), max_size=2), st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)


def _json_type(value) -> str:
    return "number" if type(value) in (int, float) else type(value).__name__


# See test_embedding.py: keeps a reported failure from becoming an INTERNALERROR.
@pytest.mark.filterwarnings("ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")
@settings(deadline=None, database=None)
@given(st.data())
def test_an_edited_snapshot_loads_or_is_malformed(data):
    """One leaf of another JSON type, or one key fewer: the snapshot loads or is malformed, never more.

    A non-number in place of a number never loads.
    """
    document = json.loads(_SNAPSHOT)
    replace = data.draw(st.booleans(), label="replace")
    if replace:
        path = data.draw(st.one_of(st.sampled_from(_SCALARS), st.sampled_from(_COORDINATES)), label="leaf")
        value = data.draw(_JSON_VALUES.filter(lambda v: _json_type(v) != _json_type(_NODES[path])), label="value")
    else:
        path = data.draw(st.sampled_from(_KEYS), label="deleted key")
    parent = document
    for key in path[:-1]:
        parent = parent[key]
    if replace:
        parent[path[-1]] = value
    else:
        del parent[path[-1]]
    try:
        loads_state(json.dumps(document))
    except ValueError as exc:
        assert str(exc).startswith("malformed snapshot: "), exc
    else:
        assert not (replace and _json_type(_NODES[path]) == "number"), f"{value!r} in place of the number at {path} loaded"
