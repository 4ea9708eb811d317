"""Snapshot and JSONL round-trips must be lossless down to the byte."""

from __future__ import annotations

import dataclasses
import json
import re
from operator import itemgetter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlmem import embedding, snapshot
from mlmem.embedding import EmbedderConfig, embed
from mlmem.cli import main
from mlmem.engine import EngineConfig, TemplateResponder, check_state, initial_state, run, step, steps
from mlmem.harness import EvalReport, generate_scenario
from mlmem.memory import Attribute, FactTriple, Session, Utterance
from mlmem.retrieval import make_query
from mlmem.snapshot import (
    config_to_dict,
    dumps_state,
    loads_config,
    loads_report,
    loads_state,
    read_sessions_jsonl,
    session_from_dict,
    session_to_dict,
    state_to_dict,
    write_sessions_jsonl,
)
from state_vectors import held_vectors, reference_embed, state_bytes

CFG = EngineConfig(embedder=EmbedderConfig(dim=32, seed=4))


def _built_state():
    scenario = generate_scenario(4, 3, seed=9)
    return run(scenario.sessions, CFG)[-1].state


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
    for key in state.semantic.nodes:
        assert np.array_equal(
            loaded.semantic.nodes[key].embedding,
            state.semantic.nodes[key].embedding,
        )
        assert loaded.semantic.nodes[key].attributes == state.semantic.nodes[key].attributes
    assert np.array_equal(loaded.episodic.state, state.episodic.state)
    assert [r.text for r in loaded.episodic.log] == [r.text for r in state.episodic.log]
    assert [u.text for u, _ in loaded.working.entries] == [u.text for u, _ in state.working.entries]
    assert state_bytes(loaded, CFG) == state_bytes(state, CFG)


def test_zero_vectors_load():
    """A text with no [a-z0-9] token embeds to the zero vector, which loads: a stored vector is unit or zero."""
    state = run([Session(0, (Utterance(0, 0, "bob", "?? !!"),))], CFG)[-1].state
    ((_, entry),) = state.working.entries
    (record,) = state.episodic.log
    assert not entry.any() and not record.embedding.any()
    loaded, cfg = loads_state(dumps_state(state, CFG))
    assert state_bytes(loaded, cfg) == state_bytes(state, CFG)


def test_state_vectors_and_embeddings_are_read_only():
    outputs = run(generate_scenario(6, 6, seed=1).sessions, CFG)
    loaded, _ = loads_state(dumps_state(outputs[-1].state, CFG))
    states = [initial_state(CFG), *(o.state for o in outputs), loaded]
    vectors = [v for state in states for v in (state.episodic.state, *(vector for _, vector in held_vectors(state)))]
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
    head = run(sessions[:2], CFG)
    loaded, cfg = loads_state(dumps_state(head[-1].state, CFG))
    history = sum(s.token_count() for s in sessions[:2])
    original_tail = run(sessions[2:], CFG, start_state=head[-1].state, history_tokens=history)
    loaded_tail = run(sessions[2:], cfg, start_state=loaded, history_tokens=history)
    for a, b in zip(original_tail, loaded_tail):
        assert state_bytes(a.state, CFG) == state_bytes(b.state, CFG)
        assert a.response == b.response


def test_a_snapshot_writes_no_field_a_load_would_not_read():
    """No log record carries a salience, no attribute row a confidence, and no working entry its utterance's facts,
    though the state holds them: the next step replaces the window, and its facts come from its own session."""
    fact = FactTriple("bob", "works", "chef", 0.8)
    state = run([Session(0, (Utterance(0, 0, "bob", "bob works as a chef", (fact,)),))], CFG)[-1].state
    assert state.working.entries[0][0].annotations == (fact,)
    data = state_to_dict(state, CFG)["state"]
    assert [sorted(entry) for entry in data["working"]["entries"]] == [["session", "speaker", "text", "turn"]]
    assert [sorted(record) for record in data["episodic"]["log"]] == [["session", "text"]]
    assert [node["attributes"] for node in data["semantic"]["nodes"]] == [[["works", "chef", 0]]]
    loaded, _ = loads_state(dumps_state(state, CFG))
    assert loaded.working.entries[0][0].annotations == ()
    assert state_bytes(loaded, CFG) == state_bytes(state, CFG)


def test_older_format_snapshot_and_retired_config_keys_are_refused(tmp_path, capsys):
    """Version 4 is the one format that loads, and the retired top-level config keys are unknown keys: a version 1,
    2 or 3 document and a snapshot, config or report that carries ``seed`` or ``lambda`` are malformed, and say why."""
    data = state_to_dict(_built_state(), CFG)
    documents = [
        ("format_version 1 is not 4", {key: value for key, value in data.items() if key != "format_version"}),
        ("format_version 1 is not 4", {**data, "format_version": 1}),
        ("format_version 2 is not 4", {**data, "format_version": 2}),
        ("format_version 3 is not 4", {**data, "format_version": 3}),
        ("unknown EngineConfig key(s): seed", {**data, "config": {**data["config"], "seed": 7}}),
        ("unknown EngineConfig key(s): lambda", {**data, "config": {**data["config"], "lambda": 0.25}}),
    ]
    for message, document in documents:
        with pytest.raises(ValueError, match=re.escape(f"malformed snapshot: {message}")):
            loads_state(json.dumps(document))
        path = tmp_path / "old.json"
        path.write_text(json.dumps(document))
        assert main(["query", "--snapshot", str(path), "--text", "alice lives_in"]) == 2
        assert capsys.readouterr().err.startswith(f"error: malformed snapshot: {message}")
    report = config_to_dict(EvalReport({1: 1.0}, 0.0, 0.25, 1.0, (0.0,), CFG))
    assert loads_report(json.dumps(report)) == EvalReport({1: 1.0}, 0.0, 0.25, 1.0, (0.0,), CFG)
    for key, value in (("seed", 3), ("lambda", 0.25)):
        with pytest.raises(ValueError, match=re.escape(f"malformed config: unknown EngineConfig key(s): {key}")):
            loads_config(json.dumps({**data["config"], key: value}))
        with pytest.raises(ValueError, match=re.escape(f"malformed report: unknown EngineConfig key(s): {key}")):
            loads_report(json.dumps({**report, "config": {**report["config"], key: value}}))


def test_snapshot_and_report_configs_carry_every_key(tmp_path, capsys):
    """A snapshot's config and a report's, their embedders too, carry every field, so none loads under a default it
    was not written with: one that lacks a key is malformed and names it. A config file may leave keys out."""
    data = state_to_dict(_built_state(), CFG)
    report = config_to_dict(EvalReport({1: 1.0}, 0.0, 0.25, 1.0, (0.0,), CFG))
    config = data["config"]
    no_seed = {**config, "embedder": {k: v for k, v in config["embedder"].items() if k != "seed"}}
    no_c_s = {k: v for k, v in config.items() if k != "C_s"}
    for document, read, what in ((data, loads_state, "snapshot"), (report, loads_report, "report")):
        for edited, message in ((no_seed, "EmbedderConfig key(s): seed"), (no_c_s, "EngineConfig key(s): C_s")):
            with pytest.raises(ValueError, match=re.escape(f"malformed {what}: missing {message}")):
                read(json.dumps({**document, "config": edited}))
    with pytest.raises(ValueError, match=re.escape("malformed report: missing EvalReport key(s): fmr")):
        loads_report(json.dumps({k: v for k, v in report.items() if k != "fmr"}))
    path = tmp_path / "no-seed.json"
    path.write_text(json.dumps({**data, "config": no_seed}))
    assert main(["query", "--snapshot", str(path), "--text", "alice lives_in"]) == 2
    assert capsys.readouterr().err.startswith("error: malformed snapshot: missing EmbedderConfig key(s): seed")
    assert loads_config(json.dumps(no_seed)) == dataclasses.replace(CFG, embedder=EmbedderConfig(dim=32))
    assert loads_config(json.dumps(no_c_s)) == CFG


def _assert_held_vectors_are_embeddings(state, embedder: EmbedderConfig) -> None:
    """Every working, log and node vector is the uncached embedding of its text, which a deterministic snapshot
    relies on."""
    for text, vector in held_vectors(state):
        assert vector.tobytes() == reference_embed(text, embedder.dim, embedder.seed).tobytes(), text


def _assert_a_load_rebuilds_the_vectors(state, cfg: EngineConfig) -> None:
    """A deterministic load rebuilds every vector the state holds bit for bit (test names say "v2", the format that
    first wrote no such vector)."""
    loaded, loaded_cfg = loads_state(dumps_state(state, cfg))
    assert state_bytes(loaded, loaded_cfg) == state_bytes(state, cfg)


def test_v2_rebuilds_held_vectors_through_updates_similarity_merges_and_eviction():
    cfg = EngineConfig(k=3, C_e=2, C_s=2, tau_s=0.7, embedder=CFG.embedder)
    texts = [
        ["alice lives in london", "bob likes jazz"],
        ["alice lives in paris", "?? !!"],  # an update; a text with no token embeds to zero
        ["alicia lives in paris"],  # merges into alice by similarity
        ["carol works as chef", "carol likes tea", "dave is tall"],  # past C_s=2: evicts
        ["alice lives in paris", "?? !!"],  # a restatement
    ]
    sessions = [
        Session(i, tuple(Utterance(i, t, "spk", text) for t, text in enumerate(turns)))
        for i, turns in enumerate(texts)
    ]
    outputs = run(sessions, cfg)
    nodes = [o.state.semantic.nodes for o in outputs]
    assert nodes[1]["alice"].attributes == {"lives_in": Attribute("paris", 1)}
    assert "alicia" not in nodes[2] and nodes[2]["alice"].importance == 3.0
    assert set(nodes[2]) == {"alice", "bob"} and set(nodes[3]) == {"alice", "carol"}  # bob and dave evicted
    assert not outputs[-1].state.working.entries[-1][1].any()
    for output in outputs:
        _assert_held_vectors_are_embeddings(output.state, cfg.embedder)
        _assert_a_load_rebuilds_the_vectors(output.state, cfg)
    blob = dumps_state(outputs[-1].state, cfg)
    assert '"embedding"' not in blob
    # only the episodic state is written as a vector
    assert sum(map(_is_vector, map(itemgetter(1), _paths(json.loads(blob))))) == 1


def test_a_load_embeds_every_text_in_one_call():
    """Working entries, log records and nodes, in that order, go through one ``embed_all`` call, which embeds more
    texts than the text cache holds as a batch (the cache's size is patched below this state's text count)."""
    state = _built_state()
    blob = dumps_state(state, CFG)
    texts = [text for text, _ in held_vectors(state)]
    assert state.working.entries and state.episodic.log and state.semantic.nodes
    alone = mock.Mock(side_effect=AssertionError("a text was embedded alone"))
    with mock.patch.object(snapshot, "embed_all", wraps=embedding.embed_all) as calls:
        with mock.patch.multiple(embedding, EMBED_CACHE_ENTRIES=len(texts) - 1, _embed_hash=alone):
            loaded, _ = loads_state(blob)
    assert [call.args[0] for call in calls.call_args_list] == [texts]
    _assert_held_vectors_are_embeddings(loaded, CFG.embedder)
    assert dumps_state(loaded, CFG) == blob


_UTTERANCES = st.one_of(
    st.builds(
        "{} {} {}".format,
        st.sampled_from(["alice", "alicia", "bob", "bobby"]),
        st.sampled_from(["lives in", "works as", "likes"]),
        st.sampled_from(["paris", "rome", "jazz"]),
    ),
    st.sampled_from(["?? !!", "-- ..", "the ferry horn echoed"]),
)


# See test_embedding.py: keeps a reported failure from becoming an INTERNALERROR.
@pytest.mark.filterwarnings("ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")
@settings(deadline=None, database=None)
@given(
    st.lists(st.lists(_UTTERANCES, min_size=1, max_size=4), min_size=1, max_size=6),
    st.sampled_from([0.5, 0.7, 0.9]),
    st.integers(1, 4),
    st.integers(1, 3),
)
def test_every_held_vector_is_the_embedding_of_its_text_and_v2_rebuilds_it(texts, tau_s, C_s, k):
    """Random streams of restatements, updates, similarity merges, eviction and token-less texts, step by step."""
    cfg = EngineConfig(k=k, C_e=2, C_s=C_s, tau_s=tau_s, embedder=CFG.embedder)
    sessions = [
        Session(i, tuple(Utterance(i, t, "spk", text) for t, text in enumerate(turns)))
        for i, turns in enumerate(texts)
    ]
    for output in steps(sessions, cfg):
        check_state(output.state, cfg)
        _assert_held_vectors_are_embeddings(output.state, cfg.embedder)
        _assert_a_load_rebuilds_the_vectors(output.state, cfg)


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


def test_config_from_partial_dict_fills_defaults():
    cfg = loads_config(json.dumps({"k": 3}))
    assert cfg.k == 3
    assert cfg.C_w == EngineConfig().C_w


def test_config_from_dict_rejects_unknown_keys():
    with pytest.raises(ValueError, match="tau"):
        loads_config(json.dumps({"tau": 0.1}))
    with pytest.raises(ValueError, match="lambda_"):
        loads_config(json.dumps({"lambda_": 0.1}))
    with pytest.raises(ValueError, match="dimm"):
        loads_config(json.dumps({"embedder": {"dimm": 32}}))
    with pytest.raises(ValueError, match="EmbedderConfig must be a JSON object"):
        loads_config(json.dumps({"embedder": None}))
    with pytest.raises(ValueError, match="lambda"):
        loads_config(json.dumps({"embedder": {"lambda": 0.5}}))


def test_config_json_accepts_and_drops_retired_keys():
    """The config JSON accepts the embedder's own ``seed`` field and drops the retired top-level ``seed`` and
    ``lambda`` keys: it never writes them, and a config that carries one is refused as an unknown key."""
    data = config_to_dict(CFG)
    assert not {"lambda", "lambda_", "seed"} & set(data)
    assert loads_config(json.dumps(data)) == CFG
    for retired in ({"seed": 3}, {"lambda": 0.25}):
        with pytest.raises(ValueError, match=re.escape(f"unknown EngineConfig key(s): {next(iter(retired))}")):
            loads_config(json.dumps({**data, **retired}))
    assert loads_config(json.dumps({"embedder": {"seed": 5}})) == EngineConfig(embedder=EmbedderConfig(seed=5))


def test_session_jsonl_round_trip(tmp_path):
    sessions = [
        Session(
            0,
            (
                Utterance(0, 0, "alice", "alice lives_in paris",
                                    (FactTriple("alice", "lives_in", "paris", 1.0),)),
                Utterance(0, 2, "narrator", "the ferry horn echoed twice"),
            ),
        ),
        Session(1, (Utterance(1, 0, "bob", "bob likes jazz"),)),
    ]
    path = tmp_path / "sessions.jsonl"
    write_sessions_jsonl(sessions, str(path))
    path.write_text(path.read_text().replace("\n", "\n \n", 1))  # a blank line is skipped
    loaded = read_sessions_jsonl(str(path))
    assert loaded == sessions


def test_session_jsonl_schema_matches_wire_format():
    session = Session(
        2,
        (
            Utterance(2, 1, "bob", "bob works as a chef",
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


def _repeat_first(text: str, key: str, value: str) -> str:
    """text with value stated under key just before key's first statement: that object states key twice, and
    json.loads alone would read it as its original, last value."""
    marker = f'"{key}": '
    assert marker in text
    return text.replace(marker, f"{marker}{value}, {marker}", 1)


def test_a_config_that_repeats_a_key_is_malformed():
    with pytest.raises(ValueError, match=re.escape("malformed config: repeated key 'tau_s'")):
        loads_config('{"tau_s": 0.9, "tau_s": 0.3}')
    with pytest.raises(ValueError, match=re.escape("malformed config: repeated key 'dim'")):
        loads_config('{"embedder": {"dim": 16, "dim": 32}}')


def test_a_snapshot_node_that_repeats_a_key_is_malformed():
    text = dumps_state(_built_state(), CFG)
    assert dumps_state(*loads_state(text)) == text
    with pytest.raises(ValueError, match=re.escape("malformed snapshot: repeated key 'importance'")):
        loads_state(_repeat_first(text, "importance", "1.0"))


def test_a_session_utterance_that_repeats_a_key_is_malformed(tmp_path):
    path = tmp_path / "repeated.jsonl"
    path.write_text('{"index": 0, "utterances": [{"turn": 0, "speaker": "a", "text": "alice likes jazz", '
                    '"text": "bob likes tea"}]}\n')
    with pytest.raises(ValueError, match=re.escape(f"{path}:1: malformed session record: repeated key 'text'")):
        read_sessions_jsonl(str(path))


def test_a_report_that_repeats_a_key_is_malformed():
    text = json.dumps(config_to_dict(EvalReport({1: 1.0}, 0.0, 0.25, 1.0, (0.0,), CFG)))
    with pytest.raises(ValueError, match=re.escape("malformed report: repeated key 'fmr'")):
        loads_report(_repeat_first(text, "fmr", "0.5"))


def test_snapshot_size_depends_on_capacities_not_history_length():
    small = dataclasses.replace(CFG, k=4, C_w=48, C_e=4, C_s=6)
    scenario = generate_scenario(6, 30, facts_per_persona=2, distractors_per_session=3, seed=2)
    outputs = run(scenario.sessions, small)
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


def _tree(snapshot: str):
    """The snapshot, each path's node, and the paths of its vector coordinates, its other scalars, its keys, its
    other numbers and its lists of rows."""
    nodes = dict(_paths(json.loads(snapshot)))
    coordinates = [path for path in nodes if path and _is_vector(nodes[path[:-1]])]
    scalars = [path for path, value in nodes.items() if not isinstance(value, (dict, list)) and path not in coordinates]
    keys = [path for path in nodes if path and isinstance(nodes[path[:-1]], dict)]
    numbers = [path for path in scalars if type(nodes[path]) in (int, float)]
    lists = [path for path, value in nodes.items() if isinstance(value, list) and value]
    return snapshot, nodes, coordinates, scalars, keys, numbers, lists


# the deterministic snapshot writes only the episodic state's coordinates, and a remote one every vector as well:
# the built state stands in for one the remote embedder built, and loading it asks the service nothing
_REMOTE = EngineConfig(embedder=dataclasses.replace(CFG.embedder, mode="remote", remote_endpoint="http://127.0.0.1:9/"))
_TREES = {
    "deterministic": _tree(dumps_state(_built_state(), CFG)),
    "remote": _tree(dumps_state(dataclasses.replace(_built_state(), embedder=_REMOTE.embedder), _REMOTE)),
}
_JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4),
    st.lists(st.integers(), max_size=2), st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)


def _json_type(value) -> str:
    return "number" if type(value) in (int, float) else type(value).__name__


def _embed_as_a_service_would(text: str, cfg: EmbedderConfig) -> np.ndarray:
    """A stand-in for the remote service, so a step under a remote config sends no request."""
    return embedding._embed_hash(text, cfg.dim, cfg.seed)


# See test_embedding.py: keeps a reported failure from becoming an INTERNALERROR.
@pytest.mark.filterwarnings("ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")
@settings(deadline=None, database=None)
@given(st.data())
def test_an_edited_snapshot_loads_or_is_malformed(data):
    """One leaf of another JSON type, one key fewer, one number nudged, or one list row swapped with another,
    dropped or repeated: the snapshot loads or is malformed, never more.

    A non-number in place of a number never loads, nor does a config that lacks a key. A document that loads
    re-dumps as itself, and a step with its next session builds a state that check_state passes.
    """
    snapshot, nodes, coordinates, scalars, keys, numbers, lists = _TREES[
        data.draw(st.sampled_from(sorted(_TREES)), label="mode")]
    document = json.loads(snapshot)
    edit = data.draw(st.sampled_from(["replace", "delete", "nudge", "swap", "drop", "repeat"]), label="edit")
    if edit == "replace":
        path = data.draw(st.one_of(st.sampled_from(scalars), st.sampled_from(coordinates)), label="leaf")
        value = data.draw(_JSON_VALUES.filter(lambda v: _json_type(v) != _json_type(nodes[path])), label="value")
    elif edit == "delete":
        path = data.draw(st.sampled_from(keys), label="deleted key")
    elif edit == "nudge":
        path = data.draw(st.sampled_from(numbers), label="number")
        value = nodes[path] + data.draw(st.sampled_from([-1, 1, 0.5]), label="by")
    else:
        path = data.draw(st.sampled_from([p for p in lists if edit != "swap" or len(nodes[p]) > 1]), label="list")
        row = data.draw(st.integers(0, len(nodes[path]) - 1), label="row")
    parent = document
    for key in path[:-1]:
        parent = parent[key]
    if edit in ("replace", "nudge"):
        parent[path[-1]] = value
    elif edit == "delete":
        del parent[path[-1]]
    else:
        rows = parent[path[-1]]
        if edit == "swap":
            other = data.draw(st.integers(0, len(rows) - 1).filter(lambda i: i != row), label="other row")
            rows[row], rows[other] = rows[other], rows[row]
        elif edit == "drop":
            del rows[row]
        else:
            rows.insert(row, json.loads(json.dumps(rows[row])))
    try:
        state, cfg = loads_state(json.dumps(document))
    except ValueError as exc:
        assert str(exc).startswith("malformed snapshot: "), exc
        return
    number = edit == "replace" and _json_type(nodes[path]) == "number"
    assert not number, f"{value!r} in place of the number at {path} loaded"
    assert not (edit == "delete" and path[0] == "config"), f"a config without the key at {path} loaded"
    assert dumps_state(state, cfg) == json.dumps(document, sort_keys=True)
    index = state.session_cursor + 1
    session = Session(index, (Utterance(index, 0, "spk", "alice lives in rome"),))
    with mock.patch.object(embedding, "_embed_remote", _embed_as_a_service_would):
        check_state(step(state, session, make_query("alice lives_in", cfg.embedder, index), cfg,
                         TemplateResponder()).state, cfg)
