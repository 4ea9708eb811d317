"""Snapshot and JSONL round-trips must be lossless down to the byte."""

from __future__ import annotations

import json

import numpy as np
import pytest

from mlmem.embedding import EmbedderConfig
from mlmem.engine import EngineConfig, run
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
            loaded.semantic.nodes[key].embedding.values,
            state.semantic.nodes[key].embedding.values,
        )
        assert loaded.semantic.nodes[key].attributes == state.semantic.nodes[key].attributes
    assert np.array_equal(loaded.episodic.state.values, state.episodic.state.values)
    assert [r.text for r in loaded.episodic.log] == [r.text for r in state.episodic.log]
    assert [u.text for u, _ in loaded.working.entries] == [u.text for u, _ in state.working.entries]


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


def test_config_json_uses_lambda_key_exactly():
    data = config_to_dict(CFG)
    assert "lambda" in data
    assert "lambda_" not in data
    assert config_from_dict(data) == CFG


def test_config_from_partial_dict_fills_defaults():
    cfg = config_from_dict({"k": 3, "lambda": 0.25})
    assert cfg.k == 3
    assert cfg.lambda_ == 0.25
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
    cfg = config_from_dict({"seed": 3, "embedder": {"seed": 5}})
    assert (cfg.seed, cfg.embedder.seed) == (3, 5)


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
