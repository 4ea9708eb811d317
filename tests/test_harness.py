"""Scenario generation, probe scoring, baseline policies, and ablation."""

from __future__ import annotations

from dataclasses import replace

import pytest

from mlmem.embedding import EmbedderConfig
from mlmem.engine import EngineConfig, run
from mlmem.harness import (
    DISTRACTOR_SENTENCES,
    FACT_ATTRIBUTES,
    FACT_VALUES,
    FALSE_VALUES,
    PERSONA_NAMES,
    Probe,
    ablate,
    evaluate,
    generate_scenario,
)
from mlmem.snapshot import report_from_dict, report_to_dict

CFG = EngineConfig(embedder=EmbedderConfig(dim=64, seed=6))


# ----------------------------------------------------------------- vocabulary

def test_false_values_never_substrings_of_any_vocab():
    corpus = list(PERSONA_NAMES) + list(FACT_ATTRIBUTES) + ["day", "began"]
    for values in FACT_VALUES.values():
        corpus.extend(values)
    corpus.extend(DISTRACTOR_SENTENCES)
    haystack = " ".join(corpus)
    for value in FALSE_VALUES:
        assert value not in haystack, value


def test_distractors_never_contain_fact_values():
    haystack = " ".join(DISTRACTOR_SENTENCES)
    for values in FACT_VALUES.values():
        for value in values:
            assert value not in haystack, value


def test_no_probe_value_is_a_substring_of_any_other_vocab_word():
    # a value hiding inside another word would corrupt containment scoring
    values = [v for pool in FACT_VALUES.values() for v in pool]
    corpus = (
        list(PERSONA_NAMES) + list(FACT_ATTRIBUTES) + values
        + " ".join(DISTRACTOR_SENTENCES).split() + ["day", "began"]
    )
    for needle in values + list(FALSE_VALUES):
        for word in corpus:
            assert needle == word or needle not in word, (needle, word)


def test_distractors_never_match_fact_patterns():
    from mlmem.memory import Session, Utterance, extract_facts

    utterances = tuple(
        Utterance.from_text(0, i, "narrator", text) for i, text in enumerate(DISTRACTOR_SENTENCES)
    )
    assert extract_facts(Session(0, utterances)) == []


# ----------------------------------------------------------- generate_scenario

def test_minimal_scenario_shape():
    scenario = generate_scenario(1, 2, facts_per_persona=1, distractors_per_session=0, seed=0)
    assert len(scenario.sessions) == 2
    assert [s.index for s in scenario.sessions] == [0, 1]
    true_probes = [p for p in scenario.probes if p.kind == "true_fact"]
    false_probes = [p for p in scenario.probes if p.kind == "false_fact"]
    assert any(p.period - p.introduced_at == 1 for p in true_probes)
    assert false_probes


def test_scenario_deterministic_per_seed():
    a = generate_scenario(4, 3, seed=42)
    b = generate_scenario(4, 3, seed=42)
    assert a == b
    c = generate_scenario(4, 3, seed=43)
    assert a != c


def test_false_probe_values_absent_from_all_session_text():
    # exhaustive scan oracle
    for seed in (0, 1, 7):
        scenario = generate_scenario(5, 4, seed=seed)
        texts = [u.text for s in scenario.sessions for u in s.utterances]
        for probe in scenario.probes:
            if probe.kind == "false_fact":
                for text in texts:
                    assert probe.gold_value not in text


def test_true_probes_reference_actual_persona_facts():
    scenario = generate_scenario(5, 4, seed=3)
    facts = {(p.name, a, v) for p in scenario.personas for a, v in p.facts}
    for probe in scenario.probes:
        if probe.kind == "true_fact":
            assert (probe.subject, probe.attribute, probe.gold_value) in facts


def test_probe_gaps_cover_every_later_period():
    scenario = generate_scenario(3, 5, seed=1)
    gaps = {p.period - p.introduced_at for p in scenario.probes if p.kind == "true_fact"}
    assert gaps == {1, 2, 3, 4}


def test_scenario_validation():
    with pytest.raises(ValueError):
        generate_scenario(0, 2)
    with pytest.raises(ValueError):
        generate_scenario(1, 1)
    with pytest.raises(ValueError):
        generate_scenario(1, 2, facts_per_persona=9)
    with pytest.raises(ValueError):
        generate_scenario(1, 2, distractors_per_session=-1)
    with pytest.raises(ValueError, match="unknown probe kind"):
        Probe(1, "alice lives_in", "alice", "lives_in", "paris", "rumour", 0)
    with pytest.raises(ValueError, match="after the fact was introduced"):
        Probe(1, "alice lives_in", "alice", "lives_in", "paris", "true_fact", 1)


def test_personas_do_not_share_values_at_default_sizes():
    scenario = generate_scenario(20, 2, seed=5)
    for attribute in FACT_ATTRIBUTES[:3]:
        values = [v for p in scenario.personas for a, v in p.facts if a == attribute]
        assert len(values) == len(set(values))


def test_personas_past_a_value_pool_draw_from_the_whole_vocabulary():
    """21 personas exhaust the 20 lives_in values, so the last draws one already taken."""
    scenario = generate_scenario(21, 2, facts_per_persona=1, seed=5)
    values = [v for p in scenario.personas for _, v in p.facts]
    assert len(values) == 21
    assert set(values) == set(FACT_VALUES["lives_in"])


# ------------------------------------------------------------------- evaluate

def test_full_engine_retains_everything_without_pressure():
    scenario = generate_scenario(3, 2, facts_per_persona=2, distractors_per_session=0, seed=0)
    report = evaluate(scenario, CFG, "mlmf")
    assert report.retention_at[1] == 1.0
    assert report.fmr == 0.0
    assert report.success_rate == 1.0
    assert len(report.drift_curve) == 2


def test_window_only_forgets_at_gap_two():
    # the window holds only the current session, so gap >= 2 probes must fail
    scenario = generate_scenario(2, 3, facts_per_persona=1, distractors_per_session=2, seed=11)
    restated = {
        (f.subject, f.predicate)
        for s in scenario.sessions[1:]
        for u in s.utterances
        for f in u.annotations
    }
    if not restated:  # no lucky restatements with this seed
        small = replace(CFG, k=4)
        report = evaluate(scenario, small, "window_only")
        assert report.retention_at[2] == 0.0


def test_evaluate_is_bit_reproducible():
    scenario = generate_scenario(4, 3, seed=13)
    a = evaluate(scenario, CFG, "mlmf")
    b = evaluate(scenario, CFG, "mlmf")
    assert a == b


def test_retention_keys_are_exactly_all_gaps():
    scenario = generate_scenario(3, 5, seed=2)
    report = evaluate(scenario, CFG, "mlmf")
    assert set(report.retention_at) == {1, 2, 3, 4}
    for value in report.retention_at.values():
        assert 0.0 <= value <= 1.0
    assert 0.0 <= report.fmr <= 1.0
    assert 0.0 <= report.mean_context_usage <= 1.0
    assert 0.0 <= report.success_rate <= 1.0


def test_unknown_policy_rejected():
    scenario = generate_scenario(2, 2, seed=0)
    with pytest.raises(ValueError):
        evaluate(scenario, CFG, "mystery")


def test_policy_dominance_mlmf_over_window_only():
    for seed in (0, 1, 2):
        scenario = generate_scenario(6, 4, seed=seed)
        full = evaluate(scenario, CFG, "mlmf")
        window = evaluate(scenario, CFG, "window_only")
        last_gap = max(full.retention_at)
        assert full.retention_at[last_gap] >= window.retention_at[last_gap]


def test_semantic_eviction_failures_match_replay_oracle():
    # graph-only config: probes can only hit through surviving nodes
    scenario = generate_scenario(3, 2, facts_per_persona=1, distractors_per_session=0, seed=4)
    cfg = replace(CFG, C_s=1, enabled_layers=("s",))
    report_probes = []
    from mlmem.engine import answer
    from mlmem.harness import probe_hit
    from mlmem.retrieval import make_query

    outputs = run(scenario.sessions, None, cfg)
    for probe in scenario.probes:
        if probe.kind != "true_fact":
            continue
        state = outputs[probe.period].state
        hit = probe_hit(probe, state, answer(make_query(probe.question, cfg.embedder, probe.period), state, cfg)[1])
        report_probes.append((probe.subject, probe.period, hit))

    # independent replay of the (importance, last_updated, id) eviction order
    nodes: dict[str, list] = {}
    seen_edges: set = set()
    survivors_by_period: dict[int, set] = {}
    for session in scenario.sessions:
        for utterance in session.utterances:
            for fact in utterance.annotations:
                key = (fact.subject, fact.predicate, fact.object, session.index)
                if key in seen_edges:
                    continue
                seen_edges.add(key)
                entry = nodes.setdefault(fact.subject, [0.0, session.index])
                entry[0] += 1.0
                entry[1] = max(entry[1], session.index)
        while len(nodes) > 1:
            doomed = min(nodes, key=lambda n: (nodes[n][0], nodes[n][1], n))
            del nodes[doomed]
        survivors_by_period[session.index] = set(nodes)

    assert any(not hit for _, _, hit in report_probes)
    for subject, period, hit in report_probes:
        assert hit == (subject in survivors_by_period[period]), (subject, period)


# --------------------------------------------------------------------- ablate

def test_ablate_returns_all_four_variants():
    scenario = generate_scenario(3, 3, seed=1)
    reports = ablate(scenario, CFG)
    assert set(reports) == {"full", "no_semantic", "no_episodic", "no_gating"}


def test_ablate_no_gating_forces_uniform_weights():
    scenario = generate_scenario(2, 2, facts_per_persona=1, seed=0)
    reports = ablate(scenario, CFG)
    cfg = reports["no_gating"].config_echo
    assert cfg.uniform_gating
    outputs = run(scenario.sessions, None, cfg)
    for output in outputs:
        assert output.retrieval.weights.as_tuple() == (1 / 3, 1 / 3, 1 / 3)


def test_ablate_no_semantic_leaves_graph_empty():
    scenario = generate_scenario(2, 2, facts_per_persona=1, seed=0)
    reports = ablate(scenario, CFG)
    cfg = reports["no_semantic"].config_echo
    outputs = run(scenario.sessions, None, cfg)
    assert outputs[-1].state.semantic.nodes == {}


def test_ablate_full_at_least_matches_no_semantic_on_saturating_scenario():
    scenario = generate_scenario(8, 4, facts_per_persona=2, distractors_per_session=4, seed=3)
    reports = ablate(scenario, replace(CFG, C_e=2, k=4))
    max_gap = max(reports["full"].retention_at)
    assert reports["full"].retention_at[max_gap] >= reports["no_semantic"].retention_at[max_gap]


# --------------------------------------------------------------------- report

def test_report_round_trips_through_dict():
    scenario = generate_scenario(3, 3, seed=8)
    report = evaluate(scenario, CFG, "mlmf")
    assert report_from_dict(report_to_dict(report)) == report
