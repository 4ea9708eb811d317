"""CLI subcommands end to end, including exit codes."""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from dataclasses import replace

import pytest

from mlmem import cli, engine
from mlmem.cli import main
from mlmem.embedding import EmbedderConfig
from mlmem.engine import EngineConfig, answer, initial_state, run
from mlmem.harness import generate_scenario
from mlmem.memory import Session, Utterance
from mlmem.retrieval import make_query
from mlmem.snapshot import dumps_state, loads_state, write_sessions_jsonl


@pytest.fixture()
def sessions_file(tmp_path):
    scenario = generate_scenario(3, 3, seed=5)
    path = tmp_path / "sessions.jsonl"
    write_sessions_jsonl(scenario.sessions, str(path))
    return path


def test_ingest_then_query(tmp_path, sessions_file, capsys):
    snapshot = tmp_path / "state.json"
    assert main(["ingest", "--input", str(sessions_file), "--snapshot", str(snapshot)]) == 0
    capsys.readouterr()

    state, cfg = loads_state(snapshot.read_text())
    assert state.session_cursor == 2
    assert cfg.k == 8

    persona = generate_scenario(3, 3, seed=5).personas[0]
    attribute, value = persona.facts[0]
    assert main(["query", "--snapshot", str(snapshot), "--text", f"{persona.name} {attribute}"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert set(out["weights"]) == {"gamma_w", "gamma_e", "gamma_s", "beta"}
    assert value in out["context_text"]
    assert out["response"].startswith("Based on memory:")


def test_query_respects_budget_and_top_j(tmp_path, sessions_file, capsys):
    snapshot = tmp_path / "state.json"
    main(["ingest", "--input", str(sessions_file), "--snapshot", str(snapshot)])
    capsys.readouterr()
    assert main(["query", "--snapshot", str(snapshot), "--text", "alice", "--top-j", "1", "--budget", "4"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["token_cost"] <= 4


def test_query_on_an_empty_ingest_prints_no_negative_zero_entropy(tmp_path, capsys):
    """A one-token query against the zero state fuses a one-hot, whose entropy prints as 0.0, not -0.0."""
    empty, snapshot = tmp_path / "empty.jsonl", tmp_path / "state.json"
    empty.write_text("")
    assert main(["ingest", "--input", str(empty), "--snapshot", str(snapshot)]) == 0
    capsys.readouterr()
    assert main(["query", "--snapshot", str(snapshot), "--text", "alice"]) == 0
    assert '"entropy": 0.0,' in capsys.readouterr().out


@pytest.mark.parametrize("uniform", [False, True])
def test_query_prints_engine_answer(tmp_path, sessions_file, capsys, uniform):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"uniform_gating": uniform}))
    snapshot = tmp_path / "state.json"
    main(["ingest", "--input", str(sessions_file), "--snapshot", str(snapshot), "--config", str(config)])
    capsys.readouterr()
    assert main(["query", "--snapshot", str(snapshot), "--text", "alice lives_in"]) == 0
    out = json.loads(capsys.readouterr().out)

    state, cfg = loads_state(snapshot.read_text())
    retrieval, fused = answer(make_query("alice lives_in", cfg.embedder, state.session_cursor), state, cfg)
    weights = retrieval.weights
    assert out["weights"] == {
        "gamma_w": weights.gamma_w, "gamma_e": weights.gamma_e, "gamma_s": weights.gamma_s, "beta": weights.beta,
    }
    assert out["context_text"] == fused.context_text
    assert out["token_cost"] == retrieval.token_cost
    assert out["entropy"] == fused.entropy


def test_ingest_with_config_file(tmp_path, sessions_file, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"k": 2, "embedder": {"dim": 32}}))
    snapshot = tmp_path / "state.json"
    assert main(["ingest", "--input", str(sessions_file), "--snapshot", str(snapshot), "--config", str(config)]) == 0
    capsys.readouterr()
    state, cfg = loads_state(snapshot.read_text())
    assert cfg.k == 2
    assert cfg.embedder.dim == 32
    assert len(state.working.entries) <= 2


def test_eval_writes_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main([
        "eval", "--scenario-seed", "3", "--personas", "3", "--periods", "3",
        "--policy", "mlmf", "--out", str(out),
    ])
    assert code == 0
    capsys.readouterr()
    report = json.loads(out.read_text())
    assert set(report["retention_at"]) == {"1", "2"}
    assert "lambda" not in report["config"] and "seed" not in report["config"]


def test_eval_policies_differ(tmp_path, capsys):
    full = tmp_path / "full.json"
    window = tmp_path / "window.json"
    main(["eval", "--scenario-seed", "3", "--personas", "4", "--periods", "4", "--out", str(full)])
    main([
        "eval", "--scenario-seed", "3", "--personas", "4", "--periods", "4",
        "--policy", "window_only", "--out", str(window),
    ])
    capsys.readouterr()
    full_report = json.loads(full.read_text())
    window_report = json.loads(window.read_text())
    assert full_report["retention_at"]["3"] >= window_report["retention_at"]["3"]


def test_ablate_writes_all_variants(tmp_path, capsys):
    out = tmp_path / "ablation.json"
    code = main(["ablate", "--scenario-seed", "1", "--personas", "3", "--periods", "3", "--out", str(out)])
    assert code == 0
    capsys.readouterr()
    payload = json.loads(out.read_text())
    assert set(payload) == {"full", "no_semantic", "no_episodic", "no_gating"}


def test_sweep_writes_csv(tmp_path, capsys):
    out = tmp_path / "grid.csv"
    code = main([
        "sweep", "--scenario-seed", "2", "--personas", "2", "--periods", "2",
        "--alphas", "0.2,0.8", "--betas", "2.0", "--lambdas", "0.0,1.0",
        "--out", str(out),
    ])
    assert code == 0
    assert "best alpha=" in capsys.readouterr().out
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "alpha,beta,lambda,gen_loss,ret_loss,total"
    assert len(lines) == 5


def test_plotdata_emits_period_retention_rows(tmp_path, capsys):
    report = tmp_path / "report.json"
    main(["eval", "--scenario-seed", "4", "--personas", "3", "--periods", "4", "--out", str(report)])
    capsys.readouterr()
    curves = tmp_path / "curves.csv"
    assert main(["plotdata", "--report", str(report), "--out", str(curves)]) == 0
    lines = curves.read_text().strip().splitlines()
    assert lines[0] == "period,retention"
    assert len(lines) == 4
    assert lines[1].startswith("1,")


@pytest.mark.parametrize(
    "edit, named",
    [
        (lambda report: report["retention_at"].update({"1": "abc"}), "EvalReport.retention_at must be float"),
        (lambda report: report.update(retention_at=[1.0, 0.5]), "EvalReport.retention_at must be a JSON object"),
        (lambda report: report.update(retention_at="x"), "EvalReport.retention_at must be a JSON object, got str"),
        (lambda report: report.update(retention_at=3), "EvalReport.retention_at must be a JSON object, got int"),
        (lambda report: report.pop("fmr"), "fmr"),
        (lambda report: report["retention_at"].update({"01": 0.25}), "retention_at keys must spell distinct gaps"),
        (lambda report: json.dumps(report)[:50], ""),
        (lambda report: report.update(fmr_typo=0.0), "unknown EvalReport key(s): fmr_typo"),
        (lambda report: report.update(drift_curve={}), "EvalReport.drift_curve must be a JSON list, got dict"),
        (lambda report: report.update(drift_curve=""), "EvalReport.drift_curve must be a JSON list, got str"),
    ],
    ids=["retention_str", "retention_list", "retention_at_str", "retention_at_int", "no_fmr", "retention_gap_respelled", "truncated", "unknown_key",
         "drift_curve_object", "drift_curve_str"],
)
def test_malformed_report_is_validation_error(tmp_path, capsys, edit, named):
    """An edit changes the report in place, or returns the str to write instead; the message names what it
    breaks."""
    report = tmp_path / "report.json"
    main(["eval", "--scenario-seed", "4", "--personas", "2", "--periods", "3", "--out", str(report)])
    data = json.loads(report.read_text())
    text = edit(data)
    report.write_text(text if isinstance(text, str) else json.dumps(data))
    capsys.readouterr()
    curves = tmp_path / "curves.csv"
    assert main(["plotdata", "--report", str(report), "--out", str(curves)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: malformed report: ") and named in err
    assert not curves.exists()


def test_failing_engine_step_is_runtime_error(tmp_path, sessions_file, monkeypatch, capsys):
    original = engine.merge_semantic

    def failing(graph, facts, session_index, *args):
        if session_index == 1:
            raise RuntimeError("graph store offline")
        return original(graph, facts, session_index, *args)

    monkeypatch.setattr(engine, "merge_semantic", failing)
    snapshot = tmp_path / "s.json"
    assert main(["ingest", "--input", str(sessions_file), "--snapshot", str(snapshot)]) == 3
    assert capsys.readouterr().err == "runtime error: step for session 1 failed: graph store offline\n"
    assert not snapshot.exists()


def test_sweep_rejects_a_malformed_float_list(tmp_path, capsys):
    out = tmp_path / "grid.csv"
    code = main([
        "sweep", "--scenario-seed", "2", "--personas", "2", "--periods", "2",
        "--alphas", "0.3,x", "--betas", "2.0", "--lambdas", "0.0", "--out", str(out),
    ])
    assert code == 2
    assert capsys.readouterr().err == "error: --alphas must be a comma-separated float list, got '0.3,x'\n"
    assert not out.exists()


def test_internal_key_error_is_runtime_error(tmp_path, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise KeyError("gap")

    monkeypatch.setattr("mlmem.cli.evaluate", broken)
    assert main(["eval", "--scenario-seed", "1", "--personas", "2", "--periods", "2", "--out", str(tmp_path / "r.json")]) == 3
    assert capsys.readouterr().err.startswith("runtime error: ")


def test_missing_input_is_validation_error(tmp_path):
    assert main(["ingest", "--input", str(tmp_path / "nope.jsonl"), "--snapshot", str(tmp_path / "s.json")]) == 2


def test_bad_config_is_validation_error(tmp_path, sessions_file):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"alpha": 7.0}))
    code = main(["ingest", "--input", str(sessions_file), "--snapshot", str(tmp_path / "s.json"), "--config", str(config)])
    assert code == 2


@pytest.mark.parametrize(
    "bad",
    [
        {"tau": 0.1},
        {"embedder": {"dimm": 32}},
        [1],
        {"embedder": None},
        {"enabled_layers": "ws"},
        {"enabled_layers": ["w", "w"]},
        {"epsilon": float("nan")},
        {"epsilon": float("inf")},
        {"tau_s": 1.5},
        {"mix": -0.5},
        '{"k": 8,',
        {"seed": 3},
        {"lambda": 0.25},
    ],
)
def test_malformed_config_is_validation_error(tmp_path, capsys, bad):
    """A config object, or a str: the file text as it is."""
    config = tmp_path / "cfg.json"
    config.write_text(bad if isinstance(bad, str) else json.dumps(bad))
    code = main([
        "eval", "--scenario-seed", "1", "--personas", "2", "--periods", "2",
        "--config", str(config), "--out", str(tmp_path / "r.json"),
    ])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: malformed config: ")
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize(
    "bad",
    [{"k": "8"}, {"k": 2.5}, {"k": True}, {"beta": "4"}, {"embedder": {"dim": "256"}}, {"uniform_gating": 1}],
    ids=["k_str", "k_float", "k_bool", "beta_str", "dim_str", "flag_int"],
)
def test_mistyped_config_scalar_is_validation_error(tmp_path, sessions_file, capsys, bad):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(bad))
    snapshot = tmp_path / "s.json"
    code = main(["ingest", "--input", str(sessions_file), "--snapshot", str(snapshot), "--config", str(config)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: malformed config: ")
    assert not snapshot.exists()


def test_well_typed_config_scalars_ingest(tmp_path, sessions_file):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"k": 3, "beta": 4, "uniform_gating": True, "embedder": {"remote_endpoint": None}}))
    snapshot = tmp_path / "s.json"
    assert main(["ingest", "--input", str(sessions_file), "--snapshot", str(snapshot), "--config", str(config)]) == 0
    assert json.loads(snapshot.read_text())["config"]["uniform_gating"] is True


def _edited(document: str, edit) -> str:
    """The snapshot document with edit applied to its "state" object."""
    data = json.loads(document)
    edit(data["state"])
    return json.dumps(data)


_EMPTY_SNAPSHOT = dumps_state(initial_state(EngineConfig()), EngineConfig())
# alice lives in london, paris, then rome, one city a session: her node holds ["lives_in", "rome", 2]
_ALICE_SESSIONS = [Session(i, (Utterance.from_text(i, 0, "alice", f"alice lives in {city}"),))
                   for i, city in enumerate(["london", "paris", "rome"])]
_ALICE_SNAPSHOT = dumps_state(run(_ALICE_SESSIONS, None, EngineConfig())[-1].state, EngineConfig())
_SCENARIO_STATE = run(generate_scenario(3, 3, seed=5).sessions, None, EngineConfig())[-1].state
_SCENARIO_SNAPSHOT = dumps_state(_SCENARIO_STATE, EngineConfig())
# the remote snapshot carries every vector; loading it sends no request, so the endpoint is never dialled.
# The scenario state stands in for one the remote embedder built, so it is relabelled with that embedder.
_REMOTE = EngineConfig(embedder=EmbedderConfig(mode="remote", remote_endpoint="http://127.0.0.1:9/unused"))
_REMOTE_SNAPSHOT = dumps_state(replace(_SCENARIO_STATE, embedder=_REMOTE.embedder), _REMOTE)


def _importance_below_one(state) -> None:
    for node in state["semantic"]["nodes"]:
        node["importance"] = -1.0


def _node_vector_times_three(state) -> None:
    node = state["semantic"]["nodes"][0]
    node["embedding"] = [3.0 * x for x in node["embedding"]]


def _episodic_state_times_five(state) -> None:
    state["episodic"]["state"] = [5.0 * x for x in state["episodic"]["state"]]


# the vectors the scenario state holds for its first working entry, log record and node; a deterministic
# snapshot may not carry even these
_FIRST_VECTORS = [
    _SCENARIO_STATE.working.entries[0][1].tolist(),
    _SCENARIO_STATE.episodic.log[0].embedding.tolist(),
    next(iter(_SCENARIO_STATE.semantic.nodes.values())).embedding.tolist(),
]


def _versioned(version) -> str:
    data = json.loads(_SCENARIO_SNAPSHOT)
    data["format_version"] = version
    return json.dumps(data)


def _v3(document: str) -> str:
    """The document as a version 3 writer wrote it: a salience on each log record and attribute rows [name, value,
    session, confidence]."""
    data = json.loads(document)
    for record in data["state"]["episodic"]["log"]:
        record["salience"] = 0.5
    for node in data["state"]["semantic"]["nodes"]:
        node["attributes"] = [[*row, 1.0] for row in node["attributes"]]
    data["format_version"] = 3
    return json.dumps(data)


def _v2(document: str) -> str:
    """The version 3 document as a version 2 writer wrote it: attribute rows [name, {"value": .., "session": ..}]
    and an edge row [node, name, value, session, confidence] per attribute."""
    data = json.loads(document)
    semantic = data["state"]["semantic"]
    semantic["edges"] = [[node["entity_id"], *row] for node in semantic["nodes"] for row in node["attributes"]]
    for node in semantic["nodes"]:
        node["attributes"] = [[name, {"value": v, "session": session}] for name, v, session, _ in node["attributes"]]
    data["format_version"] = 2
    return json.dumps(data)


def _with_key(path: str, key: str, value=0) -> str:
    """The scenario snapshot with key set to value on the object at path (dot-separated keys and list indices)."""
    data = json.loads(_SCENARIO_SNAPSHOT)
    target = data
    for step in filter(None, path.split(".")):
        target = target[int(step) if step.isdigit() else step]
    target[key] = value
    return json.dumps(data)


# A key no v4 writer writes, on each kind of object a snapshot holds, and the message naming it.
_UNKNOWN_KEYS = {
    "unknown_document_key": (_with_key("", "format_verison", 3), "unknown document key(s): format_verison"),
    "unknown_state_key": (_with_key("state", "session_cursr", 2), "unknown state key(s): session_cursr"),
    "working_layer_bound": (_with_key("state.working", "k", 8), "unknown working key(s): k"),
    "episodic_layer_bound": (_with_key("state.episodic", "C_e", 64), "unknown episodic key(s): C_e"),
    "semantic_edges": (_with_key("state.semantic", "edges", []), "unknown semantic key(s): edges"),
    "unknown_working_entry_key": (_with_key("state.working.entries.0", "speakr", "x"),
                                  "unknown working entry key(s): speakr"),
    "unknown_log_record_key": (_with_key("state.episodic.log.0", "salince", 0.5), "unknown log record key(s): salince"),
    "log_record_salience": (_with_key("state.episodic.log.0", "salience", 0.5), "unknown log record key(s): salience"),
    "unknown_node_key": (_with_key("state.semantic.nodes.0", "importanc", 1.0), "unknown node key(s): importanc"),
    "node_with_superseded_list": (_with_key("state.semantic.nodes.0", "superseded", ["paris"]),
                                  "unknown node key(s): superseded"),
    "working_entry_facts": (_with_key("state.working.entries.0", "facts", [{"s": "alice", "p": "is", "o": "x"}]),
                            "unknown working entry key(s): facts"),
}


def _misshapen_row(edit) -> tuple[str, str]:
    """The scenario snapshot with edit applied to its first node's attribute rows, and the message naming that
    node."""
    data = json.loads(_SCENARIO_SNAPSHOT)
    node = data["state"]["semantic"]["nodes"][0]
    edit(node["attributes"])
    return json.dumps(data), f"node {node['entity_id']!r} has an attribute row that is not [name, value, session]"


# An attribute row that is not a list of three fields, and the message naming its node.
_MISSHAPEN_ROWS = {
    "attribute_row_of_two": _misshapen_row(lambda rows: rows[0].pop()),
    "attribute_row_of_four": _misshapen_row(lambda rows: rows[0].append(1.0)),  # a v3 row, which carried a confidence
    "attribute_row_of_five": _misshapen_row(lambda rows: rows[0].extend([1.0, "extra"])),
    "attribute_row_number": _misshapen_row(lambda rows: rows.__setitem__(0, 5)),
    "attribute_row_null": _misshapen_row(lambda rows: rows.__setitem__(0, None)),
    # three characters, which unpacking would read as a name, value and session
    "attribute_row_string": _misshapen_row(lambda rows: rows.__setitem__(0, "abc")),
}


def _alice_node(edit) -> str:
    """The alice snapshot with edit applied to alice's node."""
    return _edited(_ALICE_SNAPSHOT, lambda state: edit(state["semantic"]["nodes"][0]))


# A node id, attribute name or value no merge writes, since a merge lowercases and strips each, and the message
# naming its node.
_UNCANONICAL = {
    "entity_id_uncanonical": (_alice_node(lambda node: node.update(entity_id="Alice ")),
                              "node 'Alice ' is not lowercase and stripped"),
    "attribute_name_uncanonical": (_alice_node(lambda node: node["attributes"][0].__setitem__(0, "Lives_In")),
                                   "node 'alice' has attribute 'Lives_In' = 'rome', not lowercase and stripped"),
    "attribute_value_uncanonical": (_alice_node(lambda node: node["attributes"][0].__setitem__(1, " Paris")),
                                    "node 'alice' has attribute 'lives_in' = ' Paris', not lowercase and stripped"),
}
# A node no merge builds, and the message naming it: every merge writes an attribute, each triple it folds adds 1
# to an importance that starts at 0, and it moves last_updated and the attribute it writes to its session.
_UNMERGEABLE = {
    "node_without_attributes": (_alice_node(lambda node: node.update(attributes=[])),
                                "node 'alice' has no attributes"),
    "importance_below_attribute_count": (
        _alice_node(lambda node: node.update(attributes=[*node["attributes"], ["likes", "jazz", 2]],
                                             importance=1.0)),
        "node 'alice' has importance 1.0 below its 2 attributes"),
    "fractional_importance": (_alice_node(lambda node: node.update(importance=3.5)),
                              "node 'alice' has importance 3.5, which no count of merged triples is"),
    "last_updated_past_newest_attribute": (
        _alice_node(lambda node: node["attributes"][0].__setitem__(2, 1)),
        "node 'alice' was updated at session 2, after its newest attribute, of session 1"),
}
_V3_SNAPSHOT = _v3(_SCENARIO_SNAPSHOT)
_V2_SNAPSHOT = _v2(_V3_SNAPSHOT)
# the fragment of its message that names what is malformed, for the documents that have one
_NAMED = {
    _V3_SNAPSHOT: "malformed snapshot: format_version 3 is not 4",
    _V2_SNAPSHOT: "malformed snapshot: format_version 2 is not 4",
    **dict(_UNKNOWN_KEYS.values()),
    **dict(_MISSHAPEN_ROWS.values()),
    **dict(_UNCANONICAL.values()),
    **dict(_UNMERGEABLE.values()),
}


@pytest.mark.parametrize(
    "document",
    [
        json.dumps({"config": {}, "state": None}),
        json.dumps([1, 2]),
        json.dumps({"config": {}, "state": {"session_cursor": 0, "working": {"entries": 5}}}),
        '{"config": {}, "state": {"session_cursor": 0',
        _edited(_EMPTY_SNAPSHOT, lambda state: state.update(session_cursor=-7)),
        _edited(_ALICE_SNAPSHOT, lambda state: state.update(session_cursor=0)),
        _edited(_ALICE_SNAPSHOT, lambda state: state["semantic"]["nodes"][0].update(last_updated=0)),
        _edited(_SCENARIO_SNAPSHOT, _importance_below_one),
        _edited(_SCENARIO_SNAPSHOT, lambda state: state["episodic"]["log"].reverse()),
        _edited(_REMOTE_SNAPSHOT, _node_vector_times_three),
        _edited(_SCENARIO_SNAPSHOT, _episodic_state_times_five),
        _V3_SNAPSHOT,
        _V2_SNAPSHOT,
        _versioned(5),
        _versioned(0),
        _versioned("2"),
        _versioned(2.0),
        _versioned(True),
        _versioned(None),
        _edited(_SCENARIO_SNAPSHOT, lambda state: state["working"]["entries"][0].update(embedding=_FIRST_VECTORS[0])),
        _edited(_SCENARIO_SNAPSHOT, lambda state: state["episodic"]["log"][0].update(embedding=_FIRST_VECTORS[1])),
        _edited(_SCENARIO_SNAPSHOT, lambda state: state["semantic"]["nodes"][0].update(embedding=_FIRST_VECTORS[2])),
        _edited(_REMOTE_SNAPSHOT, lambda state: state["working"]["entries"][0].pop("embedding")),
        _edited(_REMOTE_SNAPSHOT, lambda state: state["episodic"]["log"][0].pop("embedding")),
        _edited(_REMOTE_SNAPSHOT, lambda state: state["semantic"]["nodes"][0].pop("embedding")),
        _edited(_SCENARIO_SNAPSHOT, lambda state: state["working"]["entries"][0].update(session=0)),
        _edited(_SCENARIO_SNAPSHOT, lambda state: state["working"]["entries"].reverse()),
        _edited(_SCENARIO_SNAPSHOT, lambda state: state["working"]["entries"].__setitem__(
            1, dict(state["working"]["entries"][0]))),
        *(document for document, _ in _UNKNOWN_KEYS.values()),
        *(document for document, _ in _MISSHAPEN_ROWS.values()),
        *(document for document, _ in _UNCANONICAL.values()),
        *(document for document, _ in _UNMERGEABLE.values()),
    ],
    ids=[
        "document0", "document1", "document2", "truncated",
        "cursor_below_minus_one", "cursor_before_recorded_sessions",
        "node_older_than_an_edge", "importance_below_one", "log_out_of_session_order", "node_vector_times_three",
        "episodic_state_times_five", "format_version_3", "format_version_2", "format_version_5", "format_version_0",
        "format_version_str", "format_version_float", "format_version_true", "format_version_null",
        "v2_carries_a_working_vector",
        "v2_carries_a_log_vector", "v2_carries_a_node_vector", "remote_v2_lacks_a_working_vector",
        "remote_v2_lacks_a_log_vector", "remote_v2_lacks_a_node_vector", "working_entry_of_another_session",
        "working_entries_reversed", "working_turn_repeated", *_UNKNOWN_KEYS, *_MISSHAPEN_ROWS, *_UNCANONICAL,
        *_UNMERGEABLE,
    ],
)
def test_malformed_snapshot_is_validation_error(tmp_path, capsys, document):
    snapshot = tmp_path / "state.json"
    snapshot.write_text(document)
    assert main(["query", "--snapshot", str(snapshot), "--text", "alice lives_in"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: malformed snapshot") and _NAMED.get(document, "") in err


def test_failing_dump_leaves_the_old_snapshot(tmp_path, sessions_file, monkeypatch, capsys):
    snapshot = tmp_path / "state.json"
    assert main(["ingest", "--input", str(sessions_file), "--snapshot", str(snapshot)]) == 0
    before = snapshot.read_bytes()

    def failing(state, cfg):
        raise RuntimeError("dump failed")

    monkeypatch.setattr(cli, "dumps_state", failing)
    assert main(["ingest", "--input", str(sessions_file), "--snapshot", str(snapshot)]) == 3
    assert capsys.readouterr().err.endswith("runtime error: dump failed\n")
    assert snapshot.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sessions.jsonl", "state.json"]


def test_failing_rename_leaves_the_old_report_and_no_temp_file(tmp_path, monkeypatch, capsys):
    report = tmp_path / "r.json"
    report.write_text("old")

    def failing(src, dst):
        raise OSError("rename failed")

    monkeypatch.setattr(cli.os, "replace", failing)
    code = main(["eval", "--scenario-seed", "1", "--personas", "2", "--periods", "2", "--out", str(report)])
    assert code == 2
    assert capsys.readouterr().err == "error: rename failed\n"
    assert report.read_text() == "old"
    assert [p.name for p in tmp_path.iterdir()] == ["r.json"]


def _mistype(path: str, value):
    """Set the scalar at path (keys and list indices, dot-separated) to value."""
    def edit(data):
        *parents, last = [int(key) if key.isdigit() else key for key in path.split(".")]
        target = data["state"]
        for key in parents:
            target = target[key]
        target[last] = value
    return edit


def _on_remote(edit):
    """edit applied to the remote-mode snapshot of the document's state, which carries every vector."""
    def on_remote(data):
        state, _ = loads_state(json.dumps(data))
        data.update(json.loads(dumps_state(replace(state, embedder=_REMOTE.embedder), _REMOTE)))
        edit(data)
    return on_remote


def _repeat_first(path: str):
    """Append a copy of the first record of the list at path (dot-separated, under the semantic graph)."""
    def edit(data):
        records = data["state"]["semantic"]
        for key in path.split("."):
            records = records[int(key) if key.isdigit() else key]
        records.append(json.loads(json.dumps(records[0])))
    return edit


@pytest.mark.parametrize(
    "edit",
    [
        _mistype("session_cursor", "x"),
        _mistype("semantic.nodes.0.importance", "x"),
        _mistype("semantic.nodes.0.last_updated", "x"),
        _mistype("working.entries.0.text", 5),
        _mistype("semantic.nodes.0.attributes.0.2", "x"),
        _on_remote(_mistype("semantic.nodes.0.embedding.0", float("nan"))),
        _on_remote(_mistype("working.entries.0.embedding.3", float("inf"))),
        _mistype("episodic.state.5", float("-inf")),
        _on_remote(_mistype("episodic.log.0.embedding.7", float("nan"))),
        _on_remote(_mistype("semantic.nodes.0.embedding", [0.1, 0.2, 0.3])),
        _mistype("episodic.state", [[0.0] * 256]),
        _on_remote(_mistype("semantic.nodes.0.embedding", ["0.5"] * 256)),
        _mistype("episodic.state.0", True),
        _mistype("working.entries.0.text", " "),
        _mistype("episodic.state", [[1.0], [1.0, 2.0]]),
        _mistype("working.entries.0.turn", -1),
        _mistype("semantic.nodes.0.attributes.0", ["a"]),
        _on_remote(_mistype("semantic.nodes.0.embedding.0", 10**400)),
        _mistype("semantic.nodes.0.importance", 10**400),
        _mistype("semantic.nodes.0.attributes.0", ["lives_in", "paris", 0, 1.0]),
        _repeat_first("nodes"),
        _repeat_first("nodes.0.attributes"),
        _mistype("semantic.nodes.0.attributes.0.2", True),
        _mistype("semantic.nodes.0.attributes.0.1", 5),
        _mistype("semantic.nodes.0.attributes.0.0", None),
        _mistype("working.entries.0.session", 3),
        _mistype("episodic.log.0.session", -1),
        _mistype("semantic.nodes.0.attributes.0.2", 3),
        _mistype("semantic.nodes.0.attributes.0.2", -1),
        _mistype("semantic.nodes.0.last_updated", 3),
    ],
    ids=[
        "cursor", "importance", "last_updated", "text", "edge_session",
        "node_vector_nan", "working_vector_inf", "episodic_state_inf", "log_vector_nan", "node_vector_short",
        "episodic_state_2d", "node_vector_str", "episodic_state_bool", "blank_text", "episodic_state_ragged",
        "negative_turn", "attribute_pair_short", "node_vector_huge_int", "importance_huge_int", "edge_extra_field",
        "node_repeated", "attribute_repeated", "attribute_session_true", "attribute_value_int", "attribute_name_null",
        "working_session_after_cursor", "log_session_negative", "edge_session_after_cursor",
        "attribute_session_negative", "node_last_updated_after_cursor",
    ],
)
def test_mistyped_snapshot_scalar_is_validation_error(tmp_path, sessions_file, capsys, edit):
    snapshot = tmp_path / "state.json"
    assert main(["ingest", "--input", str(sessions_file), "--snapshot", str(snapshot)]) == 0
    data = json.loads(snapshot.read_text())
    edit(data)
    snapshot.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["query", "--snapshot", str(snapshot), "--text", "alice lives_in"]) == 2
    assert capsys.readouterr().err.startswith("error: malformed snapshot")


def _session_line(
    index=0, turn=0, speaker="alice", text="alice lives in paris", s="alice", p="lives_in", o="paris", c=1.0
):
    fact = {"s": s, "p": p, "o": o, "c": c}
    utterance = {"turn": turn, "speaker": speaker, "text": text, "facts": [fact]}
    return json.dumps({"index": index, "utterances": [utterance]})


def _edited_line(edit) -> str:
    """The default session line with edit applied to its session object."""
    data = json.loads(_session_line())
    edit(data)
    return json.dumps(data)


# A key no writer writes, on each kind of object a session line holds, and the message naming it.
_UNKNOWN_SESSION_KEYS = {
    "utterance_fact_for_facts": (_edited_line(lambda data: data["utterances"][0].update(
        fact=data["utterances"][0].pop("facts"))), "unknown utterance key(s): fact"),
    "unknown_session_key": (_edited_line(lambda data: data.update(session=0)), "unknown session key(s): session"),
    "unknown_fact_key": (_edited_line(lambda data: data["utterances"][0]["facts"][0].update(conf=1.0)),
                         "unknown fact key(s): conf"),
}


@pytest.mark.parametrize(
    "line",
    [
        _session_line(text=5),
        _session_line(s=1),
        _session_line(speaker=7),
        _session_line(c="high"),
        _session_line(turn="0"),
        _session_line(index="0"),
        _session_line(c=float("nan")),
        _session_line(c=float("inf")),
        json.dumps({"index": 0, "utterances": [
            {"turn": 1, "speaker": "alice", "text": "hello"}, {"turn": 1, "speaker": "alice", "text": "again"},
        ]}),
        json.dumps({"index": 0, "utterances": []}),
        _session_line(text=" "),
        _session_line(s=" "),
        _session_line(p="", o=""),
        *(line for line, _ in _UNKNOWN_SESSION_KEYS.values()),
    ],
    ids=[
        "text", "fact_subject", "speaker", "fact_confidence", "turn", "index",
        "confidence_nan", "confidence_inf", "turn_repeated", "no_utterances", "blank_text",
        "blank_fact_subject", "blank_fact_predicate_and_object", *_UNKNOWN_SESSION_KEYS,
    ],
)
def test_mistyped_session_field_is_validation_error(tmp_path, capsys, line):
    sessions = tmp_path / "sessions.jsonl"
    sessions.write_text(line + "\n")
    snapshot = tmp_path / "state.json"
    assert main(["ingest", "--input", str(sessions), "--snapshot", str(snapshot)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {sessions}:1: malformed session record: ")
    assert dict(_UNKNOWN_SESSION_KEYS.values()).get(line, "") in err
    assert not snapshot.exists()


def test_well_typed_session_line_ingests(tmp_path):
    """An int confidence is a float by the kind rule, and a fact's "c" is optional."""
    sessions = tmp_path / "sessions.jsonl"
    for line in (_session_line(c=1), _edited_line(lambda data: data["utterances"][0]["facts"][0].pop("c"))):
        sessions.write_text(line + "\n")
        assert main(["ingest", "--input", str(sessions), "--snapshot", str(tmp_path / "state.json")]) == 0


def test_bad_arguments_are_validation_errors(tmp_path):
    assert main(["eval", "--scenario-seed", "1", "--policy", "bogus", "--out", str(tmp_path / "r.json")]) == 2
    assert main(["unknown-command"]) == 2


def test_policy_choices_are_the_engine_policies():
    base = EngineConfig()
    for name, layers in engine.POLICIES.items():
        args = cli.build_parser().parse_args(["eval", "--scenario-seed", "1", "--policy", name, "--out", "r.json"])
        cfg = engine.policy_config(base, args.policy)
        assert cfg is base if layers is None else cfg.enabled_layers == layers


def test_remote_embedder_failure_is_runtime_error(tmp_path, sessions_file):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"embedder": {"mode": "remote", "remote_endpoint": "http://127.0.0.1:9/dead"}}))
    code = main(["ingest", "--input", str(sessions_file), "--snapshot", str(tmp_path / "s.json"), "--config", str(config)])
    assert code == 3


def test_console_entry_point_runs(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "mlmem.cli", "eval", "--scenario-seed", "1",
         "--personas", "2", "--periods", "2", "--out", str(tmp_path / "r.json")],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    assert "success_rate=" in result.stdout


# sha256 of each artifact for the default config, scenario seed 0, and the
# sessions of generate_scenario(6, 30, seed=2); any change to one is an output
# change and must be stated as one.
_PINNED = {
    "sessions.jsonl": "7251a0fd0d24f50e29addf72bc0141e38aa552394eff0cda8b4b1964cd8d843e",
    "ingest": "cdcf03597ac903ddb8825da86dd5598f75ae06e8c6cebff626a8bb74e4dbc03f",
    "query alice lives_in": "8b06fdef565d7afeaa122138b029382cc3dd5a4797ba2ca06940c9328a89bf1e",
    "query --top-j 1 --budget 6": "9be617a87d4ad1e34ef1763b0745783c38c4cef35484196aa3a08d587de81d83",
    "query bob works --budget 3": "3279e11a593df78532a2feab7f751eea38fbfb462565bad6a107b2b890baa8d6",
    "eval": "a53c466b98eb600c3a86953b7e06a7ec3fe0be3da3945c895fe902169f1b2f34",
    "eval tau_s=0.3": "36c22130ccc0ab22eabc5d6b83e66ee862e99e9876a0416bcb9d51c62e2f984c",
    "eval --personas 3 --periods 12": "22296b37e5fbe0e042b5334ffc3413fdc369f154180f72212ca0332fbf238b41",
    "ablate": "c6977a58c14047e379eeaf152da459691985ad6472f56a5a82662d0aa9d29c8e",
    "sweep": "3542a1a639e957e7e18f009e9a824ce03141a1eb459d16a98f8165ad97140eb4",
}


def test_cli_artifacts_match_pinned_digests(tmp_path, capsys):
    def digest(data: bytes) -> str:
        return hashlib.sha256(data).hexdigest()

    def stdout_of(argv):
        capsys.readouterr()
        assert main(argv) == 0
        return capsys.readouterr().out.encode()

    def file_of(path, *argv):
        """The bytes main(argv) writes to path, which it takes as the last argument."""
        assert main([*argv, str(path)]) == 0
        return path.read_bytes()

    sessions = tmp_path / "sessions.jsonl"
    write_sessions_jsonl(generate_scenario(6, 30, seed=2).sessions, str(sessions))
    snapshot = tmp_path / "state.json"
    tau = tmp_path / "tau.json"
    tau.write_text(json.dumps({"tau_s": 0.3}))
    query = ["query", "--snapshot", str(snapshot), "--text"]
    scenario = ["--scenario-seed", "0"]
    grid = ["--alphas", "0.3,0.7", "--betas", "2,6", "--lambdas", "0,1"]
    actual = {
        "sessions.jsonl": digest(sessions.read_bytes()),
        "ingest": digest(file_of(snapshot, "ingest", "--input", str(sessions), "--snapshot")),
        "query alice lives_in": digest(stdout_of([*query, "alice lives_in"])),
        "query --top-j 1 --budget 6": digest(stdout_of([*query, "alice lives_in", "--top-j", "1", "--budget", "6"])),
        "query bob works --budget 3": digest(stdout_of([*query, "bob works", "--budget", "3"])),
        "eval": digest(file_of(tmp_path / "eval.json", "eval", *scenario, "--out")),
        "eval tau_s=0.3": digest(file_of(tmp_path / "eval_tau.json", "eval", *scenario, "--config", str(tau), "--out")),
        # gaps 10 and 11 sort before 2 as text: a writer that orders retention_at's gaps as numbers breaks this
        "eval --personas 3 --periods 12": digest(
            file_of(tmp_path / "eval_12.json", "eval", *scenario, "--personas", "3", "--periods", "12", "--out")),
        "ablate": digest(file_of(tmp_path / "ablate.json", "ablate", *scenario, "--out")),
        "sweep": digest(file_of(tmp_path / "grid.csv", "sweep", *scenario, *grid, "--out")),
    }
    assert actual == _PINNED
