"""Step orchestration, run folding, determinism, and cross-module consistency."""

from __future__ import annotations

import gc
import hashlib
import inspect
import random
import re
import sys
import threading
import tracemalloc
import weakref
from dataclasses import fields, replace

import numpy as np
import pytest

from mlmem import embedding, engine, memory, retrieval
from mlmem.embedding import EmbedderConfig, cosine, embed
from mlmem.engine import (
    EngineConfig,
    EngineRunError,
    TemplateResponder,
    answer,
    check_state,
    initial_state,
    policy_config,
    run,
    step,
    steps,
)
from mlmem.harness import generate_scenario
from mlmem.memory import Attribute, FactTriple, SemanticGraph, Session, Utterance
from mlmem.retention import cumulative_retention_loss, objective, tune
from mlmem.retrieval import LAYERS, layer_representation, make_query
from mlmem.snapshot import dumps_state, loads_state
from state_vectors import always_reachable, reference_embed, reference_nearest, state_bytes
from test_acceptance import _fuzz_session

CFG = EngineConfig(embedder=EmbedderConfig(dim=64, seed=2))


def _session(index: int, texts: list[str], annotations: dict[int, tuple[FactTriple, ...]] | None = None) -> Session:
    annotations = annotations or {}
    return Session(
        index,
        tuple(
            Utterance(index, turn, "spk", text, annotations.get(turn, ()))
            for turn, text in enumerate(texts)
        ),
    )


def test_step_gates_toward_working_for_echoed_query():
    session = _session(0, ["alice visited the old harbor today"])
    query = make_query("alice visited the old harbor today", CFG.embedder, 0)
    output = step(initial_state(CFG), session, query, CFG, TemplateResponder())
    # oracle: compare the three cosines directly
    relevances = {
        layer: cosine(query.embedding, layer_representation(output.state, layer))
        for layer in ("w", "e", "s")
    }
    weights = output.retrieval.weights
    gammas = {"w": weights.gamma_w, "e": weights.gamma_e, "s": weights.gamma_s}
    best_layer = max(relevances, key=lambda l: relevances[l])
    assert relevances["w"] == pytest.approx(1.0, abs=1e-9)
    assert gammas["w"] == max(gammas.values())
    assert gammas["w"] > gammas["s"]
    assert relevances[best_layer] == relevances["w"]


def test_step_is_deterministic():
    session = _session(0, ["alice likes jazz", "bob plays chess"])
    query = make_query("alice", CFG.embedder, 0)
    a = step(initial_state(CFG), session, query, CFG, TemplateResponder())
    b = step(initial_state(CFG), session, query, CFG, TemplateResponder())
    assert state_bytes(a.state, CFG) == state_bytes(b.state, CFG)
    assert a.response == b.response
    assert a.fused.context_text == b.fused.context_text
    assert np.array_equal(a.fused.vector, b.fused.vector)
    assert a.drift.total == b.drift.total
    assert a.context_usage == b.context_usage


def test_step_drift_equals_touched_entity_displacement():
    intro = _session(0, ["alice lives in london"])
    update = _session(1, ["alice lives in paris"])
    state0 = initial_state(CFG)
    out0 = step(state0, intro, make_query("alice", CFG.embedder, 0), CFG, TemplateResponder())
    out1 = step(out0.state, update, make_query("alice", CFG.embedder, 1), CFG, TemplateResponder())
    # hand pipeline: node text before and after the value flip
    before = embed("alice lives_in london", CFG.embedder)
    after = embed("alice lives_in paris", CFG.embedder)
    expected = float(((before - after) ** 2).sum())
    assert out1.drift.total == pytest.approx(expected, abs=1e-12)
    assert out1.drift.total > 0.0


def test_step_rejects_out_of_order_session():
    state = initial_state(CFG)
    with pytest.raises(ValueError):
        step(state, _session(3, ["hello there"]), make_query("x", CFG.embedder, 3), CFG, TemplateResponder())


def test_step_does_not_mutate_input_state():
    state = initial_state(CFG)
    snapshot_before = state_bytes(state, CFG)
    step(state, _session(0, ["alice likes jazz"]), make_query("alice", CFG.embedder, 0), CFG, TemplateResponder())
    assert state_bytes(state, CFG) == snapshot_before
    assert state.session_cursor == -1


def test_run_empty_sessions_yield_empty_outputs():
    assert run([], CFG) == []


def test_run_returns_one_output_per_session_and_final_cursor():
    sessions = [_session(i, [f"session {i} text"]) for i in range(4)]
    outputs = run(sessions, CFG)
    assert len(outputs) == 4
    assert outputs[-1].state.session_cursor == 3


def test_run_drift_sums_match_cumulative_retention_loss():
    sessions = [
        _session(0, ["alice lives in london", "bob likes jazz"]),
        _session(1, ["alice lives in paris"]),
        _session(2, ["bob likes blues", "carol plays piano"]),
    ]
    outputs = run(sessions, CFG)
    trajectory = [initial_state(CFG).semantic] + [o.state.semantic for o in outputs]
    assert sum(o.drift.total for o in outputs) == pytest.approx(
        cumulative_retention_loss(trajectory), abs=1e-12
    )


def test_run_replay_is_bit_identical():
    sessions = [_session(i, [f"alice fact number {i}", "bob plays chess"]) for i in range(5)]
    first = run(sessions, CFG)
    second = run(sessions, CFG)
    for a, b in zip(first, second):
        assert state_bytes(a.state, CFG) == state_bytes(b.state, CFG)
        assert a.response == b.response
        assert np.array_equal(a.fused.vector, b.fused.vector)


def test_run_prefix_consistency():
    sessions = [_session(i, [f"topic {i} came up", f"alice note {i}"]) for i in range(6)]
    full = run(sessions, CFG)
    for t in (0, 2, 4):
        prefix = run(sessions[: t + 1], CFG)
        assert state_bytes(prefix[-1].state, CFG) == state_bytes(full[t].state, CFG)


def test_run_resumes_from_snapshot_state():
    sessions = [_session(i, [f"note {i} for today"]) for i in range(4)]
    full = run(sessions, CFG)
    head = run(sessions[:2], CFG)
    tail = run(sessions[2:], CFG, start_state=head[-1].state,
               history_tokens=sum(s.token_count() for s in sessions[:2]))
    assert state_bytes(tail[-1].state, CFG) == state_bytes(full[-1].state, CFG)
    assert tail[0].context_usage == full[2].context_usage


def test_run_default_query_is_final_utterance():
    sessions = [_session(0, ["first words here", "closing words here"])]
    outputs = run(sessions, CFG)
    assert outputs[0].response.endswith("answer to: closing words here")


def test_only_step_takes_a_custom_query_or_responder():
    """A fold asks each session's final utterance and answers with the TemplateResponder; step takes any other."""
    assert list(inspect.signature(steps).parameters) == ["sessions", "cfg", "start_state", "history_tokens"]
    sessions = [_session(0, ["alice likes jazz"])]
    with pytest.raises(TypeError):
        run(sessions, {0: make_query("custom probe", CFG.embedder, 0)}, CFG)

    class Shouting:
        def generate(self, fused, query):
            return query.text.upper()

    output = step(initial_state(CFG), sessions[0], make_query("custom probe", CFG.embedder, 0), CFG, Shouting())
    assert output.response == "CUSTOM PROBE"


def test_steps_runs_one_step_per_output_asked_for(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1].index)
        return step(*args, **kwargs)

    monkeypatch.setattr(engine, "step", counting)
    sessions = [_session(i, [f"alice note {i}"]) for i in range(3)]
    outputs = steps(sessions, CFG)
    assert calls == []
    assert next(outputs).state.session_cursor == 0
    assert calls == [0]


def _failing_summarize(monkeypatch, at: int, error: Exception) -> None:
    """Make the episodic summary raise error at session index at."""
    original = engine.summarize

    def failing(session, *args):
        if session.index == at:
            raise error
        return original(session, *args)

    monkeypatch.setattr(engine, "summarize", failing)


def test_run_names_the_session_whose_step_failed(monkeypatch):
    _failing_summarize(monkeypatch, 2, RuntimeError("disk on fire"))
    sessions = [_session(i, [f"alice note {i}"]) for i in range(4)]
    with pytest.raises(EngineRunError, match=r"^step for session 2 failed: disk on fire$") as info:
        run(sessions, CFG)
    assert isinstance(info.value.__cause__, RuntimeError)


def test_run_passes_a_value_error_through_unwrapped(monkeypatch):
    error = ValueError("bound out of range")
    _failing_summarize(monkeypatch, 1, error)
    sessions = [_session(i, [f"alice note {i}"]) for i in range(3)]
    with pytest.raises(ValueError) as info:
        run(sessions, CFG)
    assert info.value is error


def test_context_usage_bounded_and_budget_respected():
    sessions = [_session(i, [f"word {i} " + "x " * 10]) for i in range(5)]
    outputs = run(sessions, CFG)
    for output in outputs:
        assert 0.0 <= output.context_usage <= 1.0
        assert output.retrieval.token_cost <= CFG.token_budget
        assert output.fused.entropy <= CFG.epsilon


def test_layer_disabled_configs_keep_layers_empty():
    sessions = [_session(0, ["alice likes jazz"]), _session(1, ["bob plays chess"])]
    window_cfg = policy_config(CFG, "window_only")
    outputs = run(sessions, window_cfg)
    final = outputs[-1].state
    assert not final.episodic.state.any()
    assert final.episodic.log == ()
    assert final.semantic.nodes == {}
    summary_cfg = policy_config(CFG, "summary_only")
    outputs = run(sessions, summary_cfg)
    final = outputs[-1].state
    assert final.working.entries == ()
    assert final.semantic.nodes == {}
    assert len(final.episodic.log) == 2


def test_policy_config_rejects_unknown_policy():
    with pytest.raises(ValueError):
        policy_config(CFG, "everything")


def test_uniform_gating_flag_forces_uniform_weights():
    cfg = replace(CFG, uniform_gating=True)
    sessions = [_session(0, ["alice likes jazz"])]
    outputs = run(sessions, cfg)
    assert outputs[0].retrieval.weights.as_tuple() == (1 / 3, 1 / 3, 1 / 3)


def test_engine_config_validation():
    for bad in (
        {"k": 0},
        {"top_j": 2.5},
        {"k": True},
        {"uniform_gating": "false"},
        {"uniform_gating": 1},
        {"alpha": True},
        {"beta": True},
        {"mix": False},
        {"enabled_layers": "ws"},
        {"enabled_layers": ["w", "s"]},
        {"enabled_layers": (["w"],)},
        {"embedder": {"dim": 8}},
        {"beta": 10**400},
        {"epsilon": 10**400},
    ):
        with pytest.raises(ValueError):
            EngineConfig(**bad)
    with pytest.raises(ValueError):
        EngineConfig(alpha=1.5)
    with pytest.raises(ValueError):
        EngineConfig(beta=0.0)
    with pytest.raises(ValueError):
        EngineConfig(epsilon=0.0)
    with pytest.raises(ValueError):
        EngineConfig(enabled_layers=())
    with pytest.raises(ValueError):
        EngineConfig(enabled_layers=("w", "q"))


def _range_callers(name: str) -> list:
    """Each function call that takes the knob ``name``, as a function of the knob's value, the others in range."""
    embedder = CFG.embedder
    session = _session(0, ["alice likes jazz", "bob lives in rome"])
    state = run([session], CFG)[0].state
    summary = memory.summarize(session, 1, embedder)
    facts = [FactTriple(f"p{i}", "likes", "jazz") for i in range(5)]
    query = make_query("alice", embedder, 0)
    fused_from = retrieval.retrieve(query, state, 1.0, 1, 8)

    def tuned(alpha: float = 0.5, beta: float = 1.0, lambda_: float = 0.0) -> None:
        tune(lambda *pair: pytest.fail(f"tune ran the engine at {pair} before refusing an axis"), [alpha], [beta],
             [lambda_])

    return {
        "k": [lambda v: memory.update_working(session, v, 8, embedder)],
        "C_w": [lambda v: memory.update_working(session, 1, v, embedder)],
        "C_e": [lambda v: memory.update_episodic(state.episodic, summary, 0.5, v)],
        "C_s": [lambda v: memory.merge_semantic(state.semantic, facts, 1, 0.9, v, embedder)],
        "top_j": [lambda v: retrieval.retrieve(query, state, 1.0, v, 8)],
        "token_budget": [lambda v: retrieval.retrieve(query, state, 1.0, 1, v)],
        "summary_m": [lambda v: memory.summarize(session, v, embedder)],
        "alpha": [lambda v: memory.update_episodic(state.episodic, summary, v, 1), lambda v: tuned(alpha=v)],
        "tau_s": [lambda v: memory.merge_semantic(state.semantic, facts, 1, v, 8, embedder)],
        "mix": [lambda v: retrieval.fuse(query, fused_from, v, 1.0)],
        "beta": [lambda v: retrieval.softmax_weights((0.0, 0.5, 1.0), v),
                 lambda v: retrieval.retrieve(query, state, v, 1, 8), lambda v: tuned(beta=v)],
        "epsilon": [],  # fuse states its own rule, which takes the one-hot limit 0
        "lambda": [lambda v: objective(0.5, 0.5, v), lambda v: tuned(lambda_=v)],
        "gen_loss": [lambda v: objective(v, 0.5, 0.0)],
        "ret_loss": [lambda v: objective(0.5, v, 0.0)],
    }[name]


# Values each rule refuses, NaN among them.
_OUT_OF_RANGE = {">= 1": (0, -3, 0.5, float("nan")), "in [0, 1]": (-0.1, 1.5, float("nan")),
                 "finite and > 0": (0.0, -1.0, float("inf"), float("nan")),
                 "finite and >= 0": (-0.5, float("inf"), float("nan"))}


@pytest.mark.parametrize("name", list(embedding.RANGES))
def test_every_caller_of_a_knob_refuses_the_same_values_with_the_same_message(name):
    rule, _ = embedding.RANGES[name]
    kind = {f.name: f.type for f in fields(EngineConfig)}.get(name)
    callers = _range_callers(name)
    assert callers or kind, f"nothing takes {name}"
    for value in _OUT_OF_RANGE[rule]:
        # a config field's kind rule comes first: an int field holds no 0.5, a float field no NaN or infinity
        in_kind = kind and type(value) in embedding.FIELD_KINDS[kind] and embedding.finite(value)
        for call in callers + [lambda v: EngineConfig(**{name: v})] if in_kind else callers:
            with pytest.raises(ValueError) as info:
                call(value)
            assert str(info.value) == f"{name} must be {rule}, got {value!r}"


def test_every_numeric_config_field_has_a_range():
    numeric = [f.name for f in fields(EngineConfig) if f.type in ("int", "float")]
    assert numeric and [name for name in numeric if name not in embedding.RANGES] == []


def test_merge_semantic_refuses_a_nan_node_bound():
    """A NaN bound compares false to every size, so it once folded five subjects into five nodes and evicted none."""
    facts = [FactTriple(f"p{i}", "likes", "jazz") for i in range(5)]
    with pytest.raises(ValueError, match=re.escape("C_s must be >= 1, got nan")):
        memory.merge_semantic(SemanticGraph(), facts, 0, 0.9, float("nan"), CFG.embedder)


def test_context_tokens_are_the_budgeted_texts_plus_each_items_speaker():
    """token_budget bounds the admitted texts (token_cost); fuse prefixes each with ``speaker: ``, so a context
    is longer than its cost by the speakers' tokens and can pass the budget."""
    scenario = generate_scenario(20, 8, seed=0)
    for cfg in (EngineConfig(), EngineConfig(C_s=12, token_budget=12)):
        outputs = run(scenario.sessions, cfg)
        for output in outputs:
            items = output.retrieval.items
            assert items and all(item.speaker.strip() for item in items)
            assert output.retrieval.token_cost <= cfg.token_budget
            speakers = sum(len(item.speaker.split()) for item in items)
            assert output.fused.context_tokens == output.retrieval.token_cost + speakers
    first = run(scenario.sessions[:1], EngineConfig())[0]
    assert (first.retrieval.token_cost, first.fused.context_tokens) == (49, 58)
    assert max(output.fused.context_tokens for output in outputs) == 16  # under token_budget=12


def test_template_responder_mentions_context_and_query():
    sessions = [_session(0, ["alice likes jazz"])]
    outputs = run(sessions, CFG)
    assert outputs[0].response.startswith("Based on memory: ")
    assert "alice likes jazz" in outputs[0].response
    assert outputs[0].response.endswith("answer to: alice likes jazz")


def _assert_same_answer(got, expected):
    (got_retrieval, got_fused), (want_retrieval, want_fused) = got, expected
    assert np.array_equal(got_retrieval.vector, want_retrieval.vector)
    assert got_retrieval.weights == want_retrieval.weights
    assert got_retrieval.items == want_retrieval.items
    assert got_retrieval.token_cost == want_retrieval.token_cost
    assert np.array_equal(got_fused.vector, want_fused.vector)
    assert got_fused.entropy == want_fused.entropy
    assert got_fused.context_text == want_fused.context_text
    assert got_fused.context_tokens == want_fused.context_tokens


@pytest.mark.parametrize("uniform", [False, True])
def test_step_answers_through_answer(uniform):
    cfg = replace(CFG, uniform_gating=uniform)
    sessions = [
        _session(0, ["alice likes jazz", "bob plays chess"], {0: (FactTriple("alice", "likes", "jazz", 1.0),)}),
        _session(1, ["carol lives_in oslo", "alice likes jazz"], {0: (FactTriple("carol", "lives_in", "oslo", 1.0),)}),
    ]
    head = run(sessions[:1], cfg)[-1].state
    query = make_query("alice jazz", cfg.embedder, 1)
    output = step(head, sessions[1], query, cfg, TemplateResponder())
    _assert_same_answer((output.retrieval, output.fused), answer(query, output.state, cfg))
    assert (output.retrieval.weights.as_tuple() == (1 / 3, 1 / 3, 1 / 3)) is uniform


@pytest.mark.parametrize("uniform", [False, True])
def test_answer_and_step_build_each_layer_representation_once(monkeypatch, uniform):
    """Once per state: the step builds them, later answers on that state reuse them, an equal copy builds anew."""
    cfg = replace(CFG, uniform_gating=uniform)
    built: list[str] = []
    original = retrieval.layer_representation

    def counted(state, layer, *matrix):
        built.append(layer)
        return original(state, layer, *matrix)

    monkeypatch.setattr(retrieval, "layer_representation", counted)
    session = _session(0, ["alice likes jazz", "bob plays chess"])
    query = make_query("alice", cfg.embedder, 0)
    output = step(initial_state(cfg), session, query, cfg, TemplateResponder())
    assert built == ["w", "e", "s"]
    built.clear()
    answer(query, output.state, cfg)
    answer(make_query("bob chess", cfg.embedder, 0), output.state, cfg)
    assert built == []
    copy, _ = loads_state(dumps_state(output.state, cfg))
    assert state_bytes(copy, cfg) == state_bytes(output.state, cfg) and copy is not output.state
    answer(query, copy, cfg)
    assert built == ["w", "e", "s"]


# A value per EngineConfig field that moves the run fingerprint below.
PERTURBED = {
    "k": 2,
    "C_w": 8,
    "C_e": 1,
    "C_s": 4,
    "alpha": 0.1,
    "beta": 0.5,
    "tau_s": 0.0,
    "epsilon": 3.0,
    "mix": 0.9,
    "top_j": 1,
    "token_budget": 6,
    "summary_m": 1,
    "embedder": EmbedderConfig(seed=5),
    "enabled_layers": ("w", "s"),
    "uniform_gating": True,
}


def _run_fingerprint(cfg: EngineConfig, start_state=None) -> list[tuple]:
    outputs = run(generate_scenario(8, 6, seed=1).sessions, cfg, start_state=start_state)
    return [
        (
            o.response,
            o.fused.vector.tobytes(),
            o.retrieval.weights.as_tuple(),
            o.drift.total,
            o.context_usage,
            tuple(o.state.semantic.nodes),
            o.state.episodic.state.tobytes(),
            tuple(r.text for r in o.state.episodic.log),
        )
        for o in outputs
    ]


_FIELDS = [f.name for f in fields(EngineConfig)]


# Each field changes a run that starts from its own zero state, and one that
# resumes from the default config's: the step reads every bound from its cfg.
@pytest.mark.parametrize(
    "name, from_default_state",
    [pytest.param(name, False, id=name) for name in _FIELDS]
    + [pytest.param(name, True, id=f"{name}-from_default_state") for name in _FIELDS],
)
def test_every_config_field_changes_the_run(name, from_default_state):
    assert name in PERTURBED, f"EngineConfig.{name} has no value that changes a run"
    perturbed = replace(EngineConfig(), **{name: PERTURBED[name]})
    start = initial_state(EngineConfig() if from_default_state else perturbed)
    assert _run_fingerprint(perturbed, start) != _run_fingerprint(EngineConfig())


def test_run_resumed_under_other_bounds_keeps_them():
    cfg = replace(EngineConfig(), C_s=4, k=2)
    outputs = run(generate_scenario(8, 4, seed=1).sessions, cfg, start_state=initial_state(EngineConfig()))
    state = outputs[-1].state
    assert len(state.semantic.nodes) <= 4
    assert len(state.working.entries) <= 2
    dumps_state(state, cfg)


@pytest.mark.parametrize(
    "name, bound, layers",
    [("k", 2, ("s",)), ("C_w", 5, ("e", "s")), ("C_e", 1, ("w", "s")), ("C_s", 1, ("w", "e"))],
)
def test_run_rejects_a_disabled_layer_over_its_bounds(name, bound, layers):
    sessions = generate_scenario(8, 4, seed=1).sessions
    start = run(sessions[:2], EngineConfig())[-1].state
    cfg = replace(EngineConfig(), enabled_layers=layers, **{name: bound})
    with pytest.raises(ValueError, match=f"exceeds the config's {name}={bound}$"):
        run(sessions[2:], cfg, start_state=start)


def test_run_resumed_with_a_disabled_layer_within_bounds_round_trips():
    sessions = generate_scenario(8, 4, seed=1).sessions
    start = run(sessions[:2], EngineConfig())[-1].state
    cfg = replace(EngineConfig(), enabled_layers=("s",))
    state = run(sessions[2:], cfg, start_state=start)[-1].state
    assert state.working is start.working and state.episodic is start.episodic
    loaded, loaded_cfg = loads_state(dumps_state(state, cfg))
    assert state_bytes(loaded, loaded_cfg) == state_bytes(state, cfg)


def test_a_state_built_under_one_embedder_is_neither_stepped_nor_dumped_under_another():
    sessions = generate_scenario(8, 4, seed=1).sessions
    state = run(sessions[:3], EngineConfig())[-1].state
    assert state.embedder == EmbedderConfig()
    other = EngineConfig(embedder=EmbedderConfig(seed=5))
    with pytest.raises(ValueError, match="the state was built under"):
        run(sessions[3:4], other, start_state=state)
    with pytest.raises(ValueError, match="the state was built under"):
        dumps_state(state, other)
    # a loaded state records the snapshot's embedder, so it resumes under that one only
    loaded, loaded_cfg = loads_state(dumps_state(state, EngineConfig()))
    assert loaded.embedder == loaded_cfg.embedder
    assert run(sessions[3:4], loaded_cfg, start_state=loaded)[-1].state.embedder == loaded_cfg.embedder
    with pytest.raises(ValueError, match="the state was built under"):
        run(sessions[3:4], other, start_state=loaded)


def test_the_zero_state_takes_any_embedder_at_its_first_step():
    sessions = generate_scenario(8, 4, seed=1).sessions
    other = EngineConfig(embedder=EmbedderConfig(seed=5))
    zero = initial_state(EngineConfig())
    loaded_zero, _ = loads_state(dumps_state(zero, other))
    expected = state_bytes(run(sessions, other)[-1].state, other)
    for start in (zero, loaded_zero):
        state = run(sessions, other, start_state=start)[-1].state
        assert state.embedder == other.embedder
        assert state_bytes(state, other) == expected
    # its episodic state is a zero vector of its own dim, which no other dim can blend with
    with pytest.raises(ValueError, match="the state was built under"):
        run(sessions, EngineConfig(embedder=EmbedderConfig(dim=8)), start_state=zero)


@pytest.mark.parametrize("layers", [("w", "e", "s"), ("w", "s"), ("s",), ("w",), ("e",)])
def test_step_summarizes_only_when_episodic_is_enabled(monkeypatch, layers):
    calls: list[int] = []
    original = engine.summarize

    def counted(*args):
        calls.append(args[0].index)
        return original(*args)

    monkeypatch.setattr(engine, "summarize", counted)
    sessions = [_session(0, ["alice likes jazz"]), _session(1, ["bob plays chess"])]
    run(sessions, replace(CFG, enabled_layers=layers))
    assert calls == ([0, 1] if "e" in layers else [])


def _tie_heavy_wide_sessions(entities: int = 300, per_session: int = 30) -> list[Session]:
    """Same-shape facts over few values, so many nodes tie exactly; later sessions also update cities.

    A third of the entities state only where they live, so they can merge by
    similarity into an older lives-only node and never become nodes themselves.
    """
    sessions = []
    for index in range(entities // per_session):
        texts = []
        for i in range(index * per_session, (index + 1) * per_session):
            texts.append(f"e{i:03d} lives in city{i % 4}")
            if i % 3:
                texts.append(f"e{i:03d} works as job{i % 3}")
        texts += [f"e{j:03d} lives in city{(j + index) % 4}" for j in range(0, index * per_session, 23)]
        sessions.append(_session(index, texts))
    return sessions


def _run_with_probes(sessions: list[Session], cfg: EngineConfig, probes: tuple[str, ...], resume_at: int = -1):
    """The run's states as ``state_bytes`` and the probes' answers after each step; the session at resume_at
    starts from a snapshot load of the state before it, which has no read index."""
    dumps, answers = [], []
    state = initial_state(cfg)
    for session in sessions:
        if session.index == resume_at:
            state, _ = loads_state(dumps_state(state, cfg))
        query = make_query(session.utterances[-1].text, cfg.embedder, session.index)
        state = step(state, session, query, cfg, TemplateResponder()).state
        dumps.append(state_bytes(state, cfg))
        for text in probes:
            result, fused = answer(make_query(text, cfg.embedder, session.index), state, cfg)
            answers.append((result.items, result.vector.tobytes(), fused.context_text))
    return state, dumps, answers


def _patch_nearest(monkeypatch, scan) -> None:
    """Every scan (summarize, the merge's entity match, each layer's top-j) calls scan in place of nearest."""
    for module in (embedding, memory, retrieval):
        monkeypatch.setattr(module, "nearest", scan)


def _unit_rows_spy(monkeypatch) -> list[tuple[int, int, int]]:
    """Spy on every scan: each row it reads has L2 norm 0 or within UNIT_TOLERANCE of 1, as ``nearest`` needs.

    Returns the (rows, keyed, count) of each scan, keyed being how many rows it called key for, appended as
    scans run.
    """
    calls: list[tuple[int, int, int]] = []
    original = embedding.nearest

    def spy(matrix, query, count, key=int, floor=-1.0, rank=None):
        norms = np.linalg.norm(matrix, axis=1)
        assert np.all((norms == 0.0) | (np.abs(norms - 1.0) <= embedding.UNIT_TOLERANCE)), norms
        keyed: list[int] = []
        hits = original(matrix, query, count, lambda i: keyed.append(i) or key(i), floor, rank)
        calls.append((len(matrix), len(keyed), count))
        return hits

    _patch_nearest(monkeypatch, spy)
    return calls


def test_scans_equal_the_all_rows_reference_sort(monkeypatch):
    cfg = EngineConfig(C_s=96, tau_s=0.7)
    sessions = _tie_heavy_wide_sessions()
    probes = ("e001 lives_in", "e150 works", "city2", "job1 city3", "e299 lives_in city1")
    calls = _unit_rows_spy(monkeypatch)
    state, dumps, answers = _run_with_probes(sessions, cfg, probes)
    # the scans keyed only some rows, keyed ties past count, evicted, and merged subjects away by similarity
    assert any(keyed < rows for rows, keyed, _ in calls)
    assert any(count < keyed < rows for rows, keyed, count in calls)
    assert len(state.semantic.nodes) == cfg.C_s
    named = {node_id for blob in dumps for node_id in re.findall(rb'"entity_id": "(e\d+)"', blob)}
    assert len(named) < 300

    _patch_nearest(monkeypatch, reference_nearest)
    monkeypatch.setattr(memory, "reachable", always_reachable)
    _, reference_dumps, reference_answers = _run_with_probes(sessions, cfg, probes)
    assert dumps == reference_dumps
    assert answers == reference_answers

    nodes = list(state.semantic.nodes.values())
    total = sum(n.importance for n in nodes)
    mean = np.zeros(cfg.embedder.dim)
    for node in nodes:
        mean += (node.importance / total) * node.embedding
    expected = mean / float(np.linalg.norm(mean))
    assert layer_representation(state, "s").tobytes() == expected.tobytes()


def test_scans_of_a_resumed_run_read_unit_or_zero_rows(monkeypatch):
    cfg = EngineConfig(C_s=96, tau_s=0.7)
    sessions = _tie_heavy_wide_sessions()
    # the last session before the checkpoint has no tokens, so the loaded state holds zero working and log vectors
    state = initial_state(cfg)
    for session in sessions[:6] + [_session(6, ["?? !!", "-- .."])]:
        state = step(state, session, make_query(session.utterances[-1].text, cfg.embedder, session.index), cfg,
                     TemplateResponder()).state
    resumed, loaded_cfg = loads_state(dumps_state(state, cfg))
    calls = _unit_rows_spy(monkeypatch)
    probes = ("e001 lives_in", "?? !!", "city2 job1")
    for text in probes:
        answer(make_query(text, cfg.embedder, 6), resumed, loaded_cfg)
    for session in sessions[7:]:
        resumed = step(resumed, session, make_query(session.utterances[-1].text, cfg.embedder, session.index),
                       loaded_cfg, TemplateResponder()).state
        for text in probes:
            answer(make_query(text, cfg.embedder, session.index), resumed, loaded_cfg)
    assert any(rows > 1 for rows, _, _ in calls)


def _zero_token_sessions() -> list[Session]:
    """Facts whose subject, predicate and value hold no [a-z0-9] token, so their candidates and nodes are zero
    vectors, among ordinary lines."""
    blank = (FactTriple("ü", "ö", "ä"), FactTriple("é", "ö", "ä"), FactTriple("?", "!", "-"))
    return [_session(i, [f"p{i} likes jazz", f"p{i + 1} likes jazz", f"q{i} lives in city{i % 2}"],
                     {0: blank[: 1 + i % 3], 2: (FactTriple(f"ß{i}", "ö", "ä"),)}) for i in range(6)]


# Each case: sessions, config, and the session a run resumes at from a snapshot load (-1: none).
_BOUND_CASES = {
    "tie-heavy wide, tau_s 0.7, evicting": (_tie_heavy_wide_sessions, EngineConfig(C_s=96, tau_s=0.7), -1),
    "tie-heavy wide, tau_s 0.3": (_tie_heavy_wide_sessions, EngineConfig(C_s=96, tau_s=0.3), -1),
    "one session into an empty graph": (
        lambda: [_session(0, ["alice lives in paris", "alicia lives in paris", "bob likes jazz", "bobby likes jazz",
                              "alice works as chef", "alicia works as chef"])], EngineConfig(tau_s=0.5), -1),
    "resumed from a load": (_tie_heavy_wide_sessions, EngineConfig(C_s=96, tau_s=0.7), 6),
    "zero-token candidates, tau_s 0": (_zero_token_sessions, EngineConfig(tau_s=0.0), -1),
    "zero-token candidates, tau_s 0.3": (_zero_token_sessions, EngineConfig(tau_s=0.3), -1),
    "evicting every step": (lambda: _tie_heavy_wide_sessions(120, 20), EngineConfig(C_s=8, tau_s=0.7), -1),
}


@pytest.mark.parametrize("case", list(_BOUND_CASES))
def test_the_merge_bound_is_invisible(monkeypatch, case):
    """States and probe answers equal those of a run whose merges scan every candidate in full."""
    make_sessions, cfg, resume_at = _BOUND_CASES[case]
    sessions = make_sessions()
    probes = ("e001 lives_in", "city2", "alicia lives_in", "p1 likes", "ü ö")
    scans = []
    original = memory.nearest
    monkeypatch.setattr(memory, "nearest", lambda *args, **kwargs: scans.append(1) or original(*args, **kwargs))
    bounded = _run_with_probes(sessions, cfg, probes, resume_at)[1:]
    bounded_scans = len(scans)
    monkeypatch.setattr(memory, "reachable", always_reachable)
    assert _run_with_probes(sessions, cfg, probes, resume_at)[1:] == bounded
    # every candidate is scanned in the forced run, and the bound spared some of those scans unless tau_s is 0
    assert len(scans) - bounded_scans > 0 if cfg.tau_s > 0.0 else len(scans) == 2 * bounded_scans


def _wide_state(nodes: int, dim: int = 256):
    """A state of one-attribute nodes and the config it keeps, its read index built."""
    cfg = EngineConfig(C_s=nodes + 8, embedder=EmbedderConfig(dim=dim))
    graph = SemanticGraph({f"n{i}": memory.EntityNode({"likes": Attribute(f"v{i % 97}", 0)},
                                                      embed(f"n{i} likes v{i % 97}", cfg.embedder), 1.0, 0)
                           for i in range(nodes)})
    state = replace(initial_state(cfg), semantic=graph, session_cursor=0)
    retrieval._read_index(state)
    return state, cfg


def test_a_merge_whose_candidates_reach_no_node_scans_and_stacks_nothing(monkeypatch):
    """Against the matrix the read index holds, a steady-state merge of unseen subjects that reach no node calls
    ``nearest`` for none, stacks no node-sized list, and peaks below an eighth of a node matrix."""
    state, cfg = _wide_state(1000)
    node_matrix = len(state.semantic.nodes) * cfg.embedder.dim * 8
    facts = [FactTriple(f"new{i}", "plays", f"game{i}") for i in range(4)] + [FactTriple("n5", "likes", "tea")]
    expected = memory.merge_semantic(state.semantic, facts, 1, cfg.tau_s, cfg.C_s, cfg.embedder)
    held = retrieval.held_node_matrix(state)
    assert held is not None and not held.flags.writeable
    scans, stacks = [], []
    original_stacked = memory.stacked
    monkeypatch.setattr(memory, "nearest", lambda *args, **kwargs: scans.append(1))
    monkeypatch.setattr(memory, "stacked", lambda vectors: stacks.append(len(vectors)) or original_stacked(vectors))
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        merged = memory.merge_semantic(state.semantic, facts, 1, cfg.tau_s, cfg.C_s, cfg.embedder, held)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert scans == [] and max(stacks) < 16, stacks
    assert peak <= node_matrix // 8, (peak, node_matrix)
    assert {nid: (n.attributes, n.embedding.tobytes()) for nid, n in merged.nodes.items()} == {
        nid: (n.attributes, n.embedding.tobytes()) for nid, n in expected.nodes.items()}


def test_a_merge_with_no_unseen_subject_bounds_nothing_and_builds_no_index(monkeypatch):
    state, cfg = _wide_state(50, dim=64)
    retrieval._read_index.cache_clear()
    bounds, views = [], []
    original_reachable, original_view = memory.reachable, retrieval._layer_view
    monkeypatch.setattr(memory, "reachable", lambda *args: bounds.append(1) or original_reachable(*args))
    monkeypatch.setattr(retrieval, "_layer_view", lambda *args: views.append(args[1]) or original_view(*args))
    session = _session(1, ["n3 likes tea", "n7 likes v7", "the ferry horn echoed twice"])
    output = step(state, session, make_query("n3", cfg.embedder, 1), cfg, TemplateResponder())
    assert output.state.semantic.current_value("n3", "likes") == "tea"
    assert bounds == []
    # the one index built is the new state's, for the step's own answer
    assert views == list(LAYERS)
    assert retrieval._read_index.lookup(state) is None


def test_embed_cache_is_invisible(monkeypatch):
    """Every step's state and every probe's answer equal an uncached run's, byte for byte."""
    cfg = EngineConfig(C_s=96, tau_s=0.7)
    sessions = _tie_heavy_wide_sessions()
    probes = ("e001 lives_in", "e150 works", "city2", "job1 city3", "e299 lives_in city1")
    cached = _run_with_probes(sessions, cfg, probes)[1:]
    assert embedding._embed_hash.cache_info().hits > 0
    assert embedding._signed_slot.cache_info().currsize > 0

    # the reference hashes every token of every call: neither the text cache nor the token memo is left
    monkeypatch.setattr(embedding, "_embed_hash", reference_embed)
    monkeypatch.setattr(retrieval, "_read_index", retrieval._read_index.__wrapped__)
    assert _run_with_probes(sessions, cfg, probes)[1:] == cached


def test_embed_cache_keys_on_text_dim_and_seed():
    text = "alice lives in paris"
    base = embed(text, EmbedderConfig())
    for other in (EmbedderConfig(seed=1), EmbedderConfig(dim=128), EmbedderConfig(dim=128, seed=1)):
        vec = embed(text, other)
        assert vec.tobytes() == reference_embed(text, other.dim, other.seed).tobytes()
        assert vec.tobytes() != base.tobytes()
    with pytest.raises(ValueError):
        EmbedderConfig(dim=256.0)


def _answer_bytes(result_and_fused) -> tuple:
    result, fused = result_and_fused
    return result.items, result.vector.tobytes(), result.weights, fused.context_text


@pytest.mark.parametrize("uniform", [False, True])
def test_read_index_is_invisible(monkeypatch, uniform):
    """Retrieves interleaved over states A, B, a loaded copy of A and a state C at A's cursor equal cold builds."""
    cfg = EngineConfig(C_s=96, tau_s=0.7, uniform_gating=uniform)
    outputs = run(_tie_heavy_wide_sessions(), cfg)
    states = {"A": outputs[-1].state, "B": outputs[4].state}
    states["A loaded"], _ = loads_state(dumps_state(states["A"], cfg))
    states["C"] = run(_tie_heavy_wide_sessions(), replace(cfg, C_s=48))[-1].state
    assert states["C"].session_cursor == states["A"].session_cursor
    probes = ("e001 lives_in", "e150 works", "city2", "job1 city3", "e299 lives_in city1")

    def asked(key: str, text: str):
        return answer(make_query(text, cfg.embedder, states[key].session_cursor), states[key], cfg)

    cold = {}
    for key in states:
        for text in probes:
            retrieval._read_index.cache_clear()
            cold[key, text] = _answer_bytes(asked(key, text))
    assert all(cold["A loaded", text] == cold["A", text] for text in probes)
    assert any(cold["B", text] != cold["A", text] for text in probes)
    assert any(cold["C", text] != cold["A", text] for text in probes)

    for key in ("A", "B", "A", "A loaded", "C", "A", "B", "C"):
        for text in probes:
            assert _answer_bytes(asked(key, text)) == cold[key, text]


def _held_matrices(state) -> list[np.ndarray]:
    """The vectors the state's read index holds, one matrix per layer."""
    return [vectors for _, vectors, _ in retrieval._read_index(state)[1]]


def test_read_index_holds_one_state():
    """The index holds at most one state, and never keeps it alive: once the caller drops the last state it asked
    about, that state and every matrix its index held are gone."""
    outputs = run([_session(0, ["alice likes jazz"]), _session(1, ["bob plays chess"])], CFG)
    a, b = outputs[0].state, outputs[1].state
    answer(make_query("alice", CFG.embedder, 0), a, CFG)
    held = [weakref.ref(matrix) for matrix in _held_matrices(a)]
    answer(make_query("bob", CFG.embedder, 1), b, CFG)
    held += [weakref.ref(matrix) for matrix in _held_matrices(b)]
    refs = [weakref.ref(a), weakref.ref(b)]
    del outputs, a, b
    gc.collect()
    assert [ref() is None for ref in refs + held] == [True] * 8


def test_read_index_drops_the_old_index_before_it_builds(monkeypatch):
    """A build for another state starts once the last state's index is gone, though that state lives on."""
    outputs = run([_session(0, ["alice likes jazz"]), _session(1, ["bob plays chess"])], CFG)
    answer(make_query("alice", CFG.embedder, 0), outputs[0].state, CFG)
    held = [weakref.ref(matrix) for matrix in _held_matrices(outputs[0].state)]
    seen = []
    original = retrieval.layer_representation

    def spy(state, layer, *matrix):
        seen.append([ref() is None for ref in held])
        return original(state, layer, *matrix)

    monkeypatch.setattr(retrieval, "layer_representation", spy)
    answer(make_query("bob", CFG.embedder, 1), outputs[1].state, CFG)
    assert seen == [[True] * 3] * 3


def test_second_retrieve_stacks_nothing(monkeypatch):
    """A retrieve against a state whose index is built scans the index's read-only matrices and stacks nothing."""
    state = run([_session(0, ["alice likes jazz", "bob plays chess"])], CFG)[-1].state
    query = make_query("alice", CFG.embedder, 0)
    first = _answer_bytes(answer(query, state, CFG))
    assert [matrix.flags.writeable for matrix in _held_matrices(state)] == [False] * 3
    calls = []
    original = embedding.stacked

    def spy(vectors):
        calls.append(len(vectors))
        return original(vectors)

    for module in (embedding, retrieval):
        monkeypatch.setattr(module, "stacked", spy)
    assert _answer_bytes(answer(query, state, CFG)) == first
    assert calls == []


def test_threads_sharing_the_read_index_get_their_own_states_answers():
    """More threads than cores ask three states in turn, so the one entry is replaced all the time."""
    outputs = run([_session(i, [f"user{i} likes item{i}", f"user{i} lives in city{i % 3}"]) for i in range(6)], CFG)
    states = [outputs[i].state for i in (1, 3, 5)]
    probes = [make_query(text, CFG.embedder, 5) for text in ("user1 likes", "city2", "user5 lives_in")]
    cold = {}
    for s, state in enumerate(states):
        for q, query in enumerate(probes):
            retrieval._read_index.cache_clear()
            cold[s, q] = _answer_bytes(answer(query, state, CFG))
    wrong: list[tuple[int, int]] = []

    def work(offset: int) -> None:
        for i in range(60):
            s, q = (i + offset) % len(states), (i * 2 + offset) % len(probes)
            if _answer_bytes(answer(probes[q], states[s], CFG)) != cold[s, q]:
                wrong.append((s, q))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(offset,)) for offset in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []


# sha256 over every step's outputs (the fields perfbench's digest takes) for generate_scenario(20, 8, seed=0); the
# snapshot format is not among them, so a format change leaves these and a behaviour change moves them.
@pytest.mark.parametrize(
    "cfg, pinned",
    [
        (EngineConfig(), "830db0226803f880c663b61a1f8efa00b2ccbd7c18f1ae3bbd9163975cf5ab19"),
        (EngineConfig(tau_s=0.3), "241583d892736bb847dafd81660000644ed28f1688111a4e79878d374fa5b5bb"),
    ],
    ids=["default", "tau_s=0.3"],
)
def test_step_outputs_match_pinned_digests(cfg, pinned):
    digest = hashlib.sha256()
    for output in run(generate_scenario(20, 8, seed=0).sessions, cfg):
        digest.update(
            f"{output.response}|{output.fused.entropy!r}|{output.retrieval.token_cost}|"
            f"{output.retrieval.weights.as_tuple()!r}|{output.drift.total!r}|{output.context_usage!r}\n".encode()
        )
    assert digest.hexdigest() == pinned


# alice lives in paris, then rome, and works as a chef, both at session 1 (importance 3); bob likes jazz at session 0
_SOUND = run([_session(0, ["alice lives in paris", "bob likes jazz"]),
              _session(1, ["alice lives in rome", "alice works as chef"])], CFG)[-1].state


def _nodes(state, nodes: dict):
    """The state with its graph's nodes replaced by nodes."""
    return replace(state, semantic=SemanticGraph(nodes))


def _node(state, entity_id: str, **changes):
    """The state with the node of entity_id changed, keyed where it was."""
    nodes = state.semantic.nodes
    return _nodes(state, {key: replace(node, **changes) if key == entity_id else node for key, node in nodes.items()})


def _log(state, log: tuple):
    """The state with its episodic log replaced by log."""
    return replace(state, episodic=replace(state.episodic, log=log))


_ALICE = _SOUND.semantic.nodes["alice"]
# One state per rule of check_state, each edited in memory so that it alone breaks, and the message naming it.
_UNSOUND = {
    "field_kind": (replace(_SOUND, session_cursor=1.0), "MemoryState.session_cursor must be int, got float 1.0"),
    "attribute_kind": (_node(_SOUND, "bob", attributes={"likes": Attribute("jazz", True)}),
                       "attribute session must be int, got bool True"),
    "cursor_below_minus_one": (replace(initial_state(CFG), session_cursor=-2), "session_cursor -2 is below -1"),
    "session_past_cursor": (replace(_SOUND, session_cursor=0), "a recorded session lies outside [0, 0]"),
    "working_not_one_session": (replace(_SOUND, working=replace(_SOUND.working, entries=_SOUND.working.entries[::-1])),
                                "turn_index must be strictly increasing"),
    "log_not_increasing": (replace(_SOUND, episodic=replace(_SOUND.episodic, log=_SOUND.episodic.log[::-1])),
                           "episodic log sessions [1, 0] do not strictly increase"),
    "episodic_norm_over_one": (replace(_SOUND, episodic=replace(_SOUND.episodic, state=2.0 * _SOUND.episodic.state)),
                               "the episodic state must have L2 norm at most 1"),
    "node_id_kind": (_nodes(_SOUND, {7: _ALICE}), "node id must be str, got int 7"),
    "entity_id_uncanonical": (_nodes(_SOUND, {"Alice": _ALICE}), "node 'Alice' is not lowercase and stripped"),
    "attribute_uncanonical": (_node(_SOUND, "bob", attributes={"likes": Attribute("Jazz ", 0)}),
                              "node 'bob' has attribute 'likes' = 'Jazz ', not lowercase and stripped"),
    "node_without_attributes": (_node(_SOUND, "bob", attributes={}), "node 'bob' has no attributes"),
    "importance_below_attribute_count": (_node(_SOUND, "alice", importance=1.0),
                                         "node 'alice' has importance 1.0 below its 2 attributes"),
    "fractional_importance": (_node(_SOUND, "alice", importance=3.5),
                              "node 'alice' has importance 3.5, which no count of merged triples is"),
    "older_than_an_attribute": (_node(_SOUND, "alice", last_updated=0),
                                "node 'alice' is older than its attribute 'lives_in' of session 1"),
    "last_updated_past_newest_attribute": (_node(_SOUND, "bob", last_updated=1),
                                           "node 'bob' was updated at session 1, after its newest attribute, of "
                                           "session 0"),
    "blank_entity_id": (_nodes(_SOUND, {"": _ALICE}), "a node has a blank entity_id"),
    "blank_attribute_name": (_node(_SOUND, "bob", attributes={"": Attribute("jazz", 0)}),
                             "node 'bob' has attribute '' = 'jazz', a blank part"),
    "blank_attribute_value": (_node(_SOUND, "bob", attributes={"likes": Attribute("", 0)}),
                              "node 'bob' has attribute 'likes' = '', a blank part"),
    "tokenless_log_text": (_log(_SOUND, (replace(_SOUND.episodic.log[0], text=" "), *_SOUND.episodic.log[1:])),
                           "log record of session 0 has text ' ' with no token"),
    "empty_log_nonzero_state": (_log(_SOUND, ()), "the episodic log is empty beside a nonzero episodic state"),
}


def test_check_state_passes_the_sound_state():
    assert _ALICE.importance == 3.0 and _ALICE.last_updated == 1 and len(_ALICE.attributes) == 2
    check_state(_SOUND, CFG)


@pytest.mark.parametrize("name", sorted(_UNSOUND))
def test_check_state_refuses_each_broken_rule(name):
    state, message = _UNSOUND[name]
    with pytest.raises(ValueError, match=re.escape(message)):
        check_state(state, CFG)


def test_check_state_refuses_layers_over_the_bounds():
    with pytest.raises(ValueError, match=re.escape("layer size 2 exceeds the config's C_s=1")):
        check_state(_SOUND, replace(CFG, C_s=1))


def test_no_step_of_fuzzed_sessions_builds_a_state_check_state_refuses():
    """20 fixed-seed runs of 40 fuzzed sessions each, under random bounds: the state after every step passes."""
    rng = random.Random(3232)
    for _ in range(20):
        cfg = EngineConfig(
            k=rng.randint(1, 6),
            C_w=rng.randint(6, 48),
            C_e=rng.randint(1, 6),
            C_s=rng.randint(2, 8),
            alpha=rng.random(),
            tau_s=rng.uniform(0.3, 0.95),
            summary_m=rng.randint(1, 4),
            embedder=EmbedderConfig(dim=rng.choice((8, 16, 32)), seed=rng.randint(0, 10_000)),
        )
        for output in steps([_fuzz_session(i, rng) for i in range(40)], cfg):
            check_state(output.state, cfg)
