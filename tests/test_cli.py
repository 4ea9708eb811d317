"""CLI subcommands end to end, including exit codes."""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from mlmem.cli import main
from mlmem.engine import answer
from mlmem.harness import generate_scenario
from mlmem.retrieval import make_query
from mlmem.snapshot import loads_state, write_sessions_jsonl


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


def test_missing_input_is_validation_error(tmp_path):
    assert main(["ingest", "--input", str(tmp_path / "nope.jsonl"), "--snapshot", str(tmp_path / "s.json")]) == 2


def test_bad_config_is_validation_error(tmp_path, sessions_file):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"alpha": 7.0}))
    code = main(["ingest", "--input", str(sessions_file), "--snapshot", str(tmp_path / "s.json"), "--config", str(config)])
    assert code == 2


@pytest.mark.parametrize("bad", [{"tau": 0.1}, {"embedder": {"dimm": 32}}, [1], {"embedder": None}])
def test_malformed_config_is_validation_error(tmp_path, capsys, bad):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(bad))
    code = main([
        "eval", "--scenario-seed", "1", "--personas", "2", "--periods", "2",
        "--config", str(config), "--out", str(tmp_path / "r.json"),
    ])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize(
    "document",
    [
        {"config": {}, "state": None},
        [1, 2],
        {"config": {}, "state": {"session_cursor": 0, "working": {"entries": 5}}},
    ],
)
def test_malformed_snapshot_is_validation_error(tmp_path, capsys, document):
    snapshot = tmp_path / "state.json"
    snapshot.write_text(json.dumps(document))
    assert main(["query", "--snapshot", str(snapshot), "--text", "alice lives_in"]) == 2
    assert capsys.readouterr().err.startswith("error: malformed snapshot")


def _mistype(path: str, value):
    """Set the scalar at path (keys and list indices, dot-separated) to value."""
    def edit(data):
        *parents, last = [int(key) if key.isdigit() else key for key in path.split(".")]
        target = data["state"]
        for key in parents:
            target = target[key]
        target[last] = value
    return edit


@pytest.mark.parametrize(
    "edit",
    [
        _mistype("session_cursor", "x"),
        _mistype("semantic.nodes.0.importance", "x"),
        _mistype("semantic.nodes.0.last_updated", "x"),
        _mistype("working.entries.0.0.text", 5),
        _mistype("episodic.log.0.salience", "x"),
        _mistype("semantic.edges.0.3", "x"),
    ],
    ids=["cursor", "importance", "last_updated", "text", "salience", "edge_session"],
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


def _session_line(index=0, turn=0, speaker="alice", text="alice lives in paris", s="alice", c=1.0):
    fact = {"s": s, "p": "lives_in", "o": "paris", "c": c}
    utterance = {"turn": turn, "speaker": speaker, "text": text, "facts": [fact]}
    return json.dumps({"index": index, "utterances": [utterance]})


@pytest.mark.parametrize(
    "line",
    [
        _session_line(text=5),
        _session_line(s=1),
        _session_line(speaker=7),
        _session_line(c="high"),
        _session_line(turn="0"),
        _session_line(index="0"),
    ],
    ids=["text", "fact_subject", "speaker", "fact_confidence", "turn", "index"],
)
def test_mistyped_session_field_is_validation_error(tmp_path, capsys, line):
    sessions = tmp_path / "sessions.jsonl"
    sessions.write_text(line + "\n")
    snapshot = tmp_path / "state.json"
    assert main(["ingest", "--input", str(sessions), "--snapshot", str(snapshot)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {sessions}:1: malformed session record: ")
    assert not snapshot.exists()


def test_well_typed_session_line_ingests(tmp_path):
    sessions = tmp_path / "sessions.jsonl"
    sessions.write_text(_session_line(c=1) + "\n")
    assert main(["ingest", "--input", str(sessions), "--snapshot", str(tmp_path / "state.json")]) == 0


def test_bad_arguments_are_validation_errors(tmp_path):
    assert main(["eval", "--scenario-seed", "1", "--policy", "bogus", "--out", str(tmp_path / "r.json")]) == 2
    assert main(["unknown-command"]) == 2


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
