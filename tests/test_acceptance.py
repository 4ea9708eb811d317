"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the criterion lines.
Every tolerance is pinned here; nothing is deferred to later calibration.
"""

from __future__ import annotations

import json
import math
import random
import time
from dataclasses import replace

import numpy as np

from mlmem.embedding import EmbedderConfig
from mlmem.engine import EngineConfig, run
from mlmem.harness import (
    Persona,
    Probe,
    Scenario,
    ablate,
    evaluate,
    generate_scenario,
    objective_handle,
)
from mlmem.memory import (
    Attribute,
    EntityNode,
    EpisodicMemory,
    FactTriple,
    SemanticGraph,
    Session,
    SummaryRecord,
    Utterance,
)
from mlmem.memory import update_episodic
from mlmem.retention import cumulative_retention_loss, drift, tune
from mlmem.retrieval import softmax_weights
from mlmem.snapshot import config_to_dict, dumps_state, loads_state
from state_vectors import state_bytes


def _report(number: int, name: str, ok: bool) -> None:
    print(f"[criterion {number:2d}] {'PASS' if ok else 'FAIL'} - {name}")


def _checked(number: int, name: str):
    class _Ctx:
        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            _report(number, name, exc_type is None)
            return False

    return _Ctx()


# --------------------------------------------------------------- criterion 1

def test_criterion_1_gating_oracle_equivalence():
    with _checked(1, "gating oracle equivalence (1000 cases, 1e-9, <1s)"):
        rng = random.Random(101)
        start = time.perf_counter()
        for _ in range(1000):
            r = tuple(rng.uniform(-1.0, 1.0) for _ in range(3))
            beta = rng.uniform(1e-6, 50.0)
            got = softmax_weights(r, beta)
            exps = [math.exp(beta * x) for x in r]
            total = sum(exps)
            oracle = tuple(e / total for e in exps)
            for g, o in zip(got, oracle):
                assert abs(g - o) <= 1e-9
            shift = rng.uniform(-10.0, 10.0)
            shifted = softmax_weights(tuple(x + shift for x in r), beta)
            for g, s in zip(got, shifted):
                assert abs(g - s) <= 1e-9
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.3f}s"


# --------------------------------------------------------------- criterion 2

def test_criterion_2_episodic_closed_form():
    with _checked(2, "episodic closed form (50 cases, 1e-6 elementwise, <1s)"):
        rng = random.Random(202)
        start = time.perf_counter()
        dim = 8
        for _ in range(50):
            alpha = rng.random()
            steps = rng.randint(1, 20)
            memory = EpisodicMemory.empty(dim)
            summaries = []
            for i in range(steps):
                vec = np.array([rng.uniform(-2.0, 2.0) for _ in range(dim)])
                summaries.append(vec)
                record = SummaryRecord(i, "s", vec)
                memory = update_episodic(memory, record, alpha, 32, renormalize=False)
            expected = np.zeros(dim)
            for i, vec in enumerate(summaries, start=1):
                expected += (1.0 - alpha) * alpha ** (steps - i) * vec
            assert np.max(np.abs(memory.state - expected)) <= 1e-6
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.3f}s"


# --------------------------------------------------------------- criterion 3

def _random_graph(rng: random.Random, entities: list[str], dim: int) -> SemanticGraph:
    nodes = {}
    for name in entities:
        vec = np.array([rng.uniform(-1.0, 1.0) for _ in range(dim)])
        nodes[name] = EntityNode({"a": Attribute("v", 0)}, vec, 1.0, 0)
    return SemanticGraph(nodes)


def test_criterion_3_retention_loss_correctness():
    with _checked(3, "retention loss matches brute force (100 trajectories, 1e-9)"):
        rng = random.Random(303)
        dim = 6
        pool = [f"e{i}" for i in range(10)]
        for _ in range(100):
            steps = rng.randint(2, 8)
            trajectory = []
            for _ in range(steps):
                count = rng.randint(0, 10)
                trajectory.append(_random_graph(rng, rng.sample(pool, count), dim))
            # brute force: plain loops, no library calls
            expected_total = 0.0
            for prev, curr in zip(trajectory, trajectory[1:]):
                pair_total = 0.0
                for name in prev.nodes:
                    if name not in curr.nodes:
                        continue
                    a = prev.nodes[name].embedding
                    b = curr.nodes[name].embedding
                    pair_total += sum((float(x) - float(y)) ** 2 for x, y in zip(a, b))
                report = drift(prev, curr)
                assert abs(report.total - pair_total) <= 1e-9
                expected_total += pair_total
            assert abs(cumulative_retention_loss(trajectory) - expected_total) <= 1e-9
            # identical trajectory costs exactly zero
            assert cumulative_retention_loss([trajectory[0], trajectory[0]]) == 0.0


# --------------------------------------------------------------- criterion 4

_FUZZ_WORDS = (
    "apple river stone cloud music garden winter copper violet ember "
    "lantern meadow harbor signal velvet timber canyon marble anchor prism"
).split()
_FUZZ_NAMES = ("ana", "bo", "cy", "dee", "eli", "fay", "gus", "ida")


def _fuzz_session(index: int, rng: random.Random) -> Session:
    utterances = []
    for turn in range(rng.randint(1, 4)):
        roll = rng.random()
        annotations = ()
        if roll < 0.25:
            text = f"{rng.choice(_FUZZ_NAMES)} likes {rng.choice(_FUZZ_WORDS)}"
        elif roll < 0.45:
            name = rng.choice(_FUZZ_NAMES)
            attr = rng.choice(("lives_in", "works", "plays"))
            value = rng.choice(_FUZZ_WORDS)
            text = f"{name} {attr} {value}"
            annotations = (FactTriple(name, attr, value, rng.random()),)
        else:
            text = " ".join(rng.choice(_FUZZ_WORDS) for _ in range(rng.randint(1, 6)))
        utterances.append(Utterance(index, turn, "spk", text, annotations))
    return Session(index, tuple(utterances))


def test_criterion_4_capacity_invariants_fuzz():
    with _checked(4, "capacity invariants over 10,000 fuzzed sessions (zero violations)"):
        rng = random.Random(404)
        violations = 0
        sessions_seen = 0
        runs = 250
        per_run = 40
        for _ in range(runs):
            cfg = EngineConfig(
                k=rng.randint(1, 6),
                C_w=rng.randint(6, 48),
                C_e=rng.randint(1, 6),
                C_s=rng.randint(2, 8),
                alpha=rng.random(),
                beta=rng.uniform(0.1, 20.0),
                tau_s=rng.uniform(0.3, 0.95),
                epsilon=rng.uniform(0.3, 3.0),
                mix=rng.random(),
                top_j=rng.randint(1, 5),
                token_budget=rng.randint(8, 96),
                summary_m=rng.randint(1, 4),
                embedder=EmbedderConfig(dim=rng.choice((8, 16, 32)), seed=rng.randint(0, 10_000)),
            )
            sessions = [_fuzz_session(i, rng) for i in range(per_run)]
            for output in run(sessions, cfg):
                sessions_seen += 1
                state = output.state
                if len(state.working.entries) > cfg.k:
                    violations += 1
                if state.working.token_count() > cfg.C_w:
                    violations += 1
                if len(state.episodic.log) > cfg.C_e:
                    violations += 1
                if len(state.semantic.nodes) > cfg.C_s:
                    violations += 1
                if output.fused.entropy > cfg.epsilon:
                    violations += 1
                if output.retrieval.token_cost > cfg.token_budget:
                    violations += 1
        assert sessions_seen == runs * per_run == 10_000
        assert violations == 0


# --------------------------------------------------------------- criterion 5

def _run_fingerprint(outputs, cfg) -> list:
    parts = []
    for output in outputs:
        parts.append(state_bytes(output.state, cfg))
        parts.append(output.response)
        parts.append(output.fused.context_text)
        parts.append(repr(output.drift.total))
        parts.append(repr(output.context_usage))
        parts.append(repr(list(map(float, output.fused.vector))))
    return parts


def test_criterion_5_determinism_and_prefix_consistency():
    with _checked(5, "bit-identical replay and prefix consistency (20 scenarios)"):
        rng = random.Random(505)
        for _ in range(20):
            scenario = generate_scenario(
                rng.randint(1, 5),
                rng.randint(2, 6),
                facts_per_persona=rng.randint(1, 3),
                distractors_per_session=rng.randint(0, 4),
                seed=rng.randint(0, 10_000),
            )
            cfg = EngineConfig(embedder=EmbedderConfig(dim=32, seed=rng.randint(0, 100)))
            sessions = list(scenario.sessions)
            first = run(sessions, cfg)
            second = run(sessions, cfg)
            assert _run_fingerprint(first, cfg) == _run_fingerprint(second, cfg)
            cut = rng.randint(1, len(sessions))
            prefix = run(sessions[:cut], cfg)
            assert state_bytes(prefix[-1].state, cfg) == state_bytes(first[cut - 1].state, cfg)


# --------------------------------------------------------------- criterion 6

def test_criterion_6_bounded_state_size():
    with _checked(6, "snapshot size varies <10% over final 100 of 200 sessions"):
        cfg = EngineConfig(
            k=6, C_w=64, C_e=8, C_s=4,
            embedder=EmbedderConfig(dim=64, seed=3),
        )
        scenario = generate_scenario(6, 200, facts_per_persona=3, distractors_per_session=4, seed=606)
        outputs = run(scenario.sessions, cfg)
        sizes = [len(dumps_state(o.state, cfg).encode("utf-8")) for o in outputs]
        final = sizes[100:]
        spread = (max(final) - min(final)) / max(final)
        # capacities saturated well before session 100
        assert len(outputs[-1].state.semantic.nodes) == cfg.C_s
        assert len(outputs[-1].state.episodic.log) == cfg.C_e
        assert spread < 0.10, f"spread {spread:.4f}"


# --------------------------------------------------------------- criterion 7

def test_criterion_7_directional_retention_vs_window_only():
    with _checked(7, "mlmf beats window_only by >=15 points at gap 6 on every seed (<60s)"):
        start = time.perf_counter()
        cfg = EngineConfig()
        for seed in range(5):
            scenario = generate_scenario(20, 8, facts_per_persona=3, distractors_per_session=6, seed=seed)
            full = evaluate(scenario, cfg, "mlmf")
            window = evaluate(scenario, cfg, "window_only")
            gap = full.retention_at[6] - window.retention_at[6]
            assert gap >= 0.15, f"seed {seed}: gap {gap:.3f}"
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


# --------------------------------------------------------------- criterion 8

def test_criterion_8_ablation_ordering():
    with _checked(8, "full >= each reduced variant at max gap on >=4 of 5 seeds"):
        cfg = EngineConfig()
        wins: dict[str, int] = {}
        for seed in range(5):
            scenario = generate_scenario(20, 8, facts_per_persona=3, distractors_per_session=6, seed=seed)
            reports = ablate(scenario, cfg)
            max_gap = max(reports["full"].retention_at)
            full_value = reports["full"].retention_at[max_gap]
            for name, report in reports.items():
                if name == "full":
                    continue
                if full_value >= report.retention_at[max_gap]:
                    wins[name] = wins.get(name, 0) + 1
        for name, count in wins.items():
            assert count >= 4, f"{name}: {count}/5"
        assert set(wins) == {"no_semantic", "no_episodic", "no_gating"}


# --------------------------------------------------------------- criterion 9

def _near_duplicate_scenario() -> Scenario:
    smith = "alice marie smith"
    jones = "alice marie jones"
    s0 = Session(0, (
        Utterance(0, 0, smith, f"{smith} lives_in paris",
                            (FactTriple(smith, "lives_in", "paris", 1.0),)),
    ))
    # the rival value arrives only as an annotation, never in any session text
    s1 = Session(1, (
        Utterance(1, 0, jones, f"{jones} moved somewhere new",
                            (FactTriple(jones, "lives_in", "rome", 1.0),)),
    ))
    s2 = Session(2, (Utterance(2, 0, "narrator", "day 2 began"),))
    probe = Probe(2, f"{smith} lives_in", smith, "lives_in", "rome", "false_fact", 0)
    personas = (Persona(smith, (("lives_in", "paris"),)), Persona(jones, (("lives_in", "rome"),)))
    return Scenario(personas, 3, (s0, s1, s2), (probe,), 0)


def test_criterion_9_fmr_mechanism():
    with _checked(9, "lower tau_s strictly raises fmr; fmr == 0 at 0.90 with disjoint names"):
        scenario = _near_duplicate_scenario()
        base = EngineConfig(top_j=1)
        strict = evaluate(scenario, replace(base, tau_s=0.90), "mlmf")
        loose = evaluate(scenario, replace(base, tau_s=0.50), "mlmf")
        assert loose.fmr > strict.fmr, f"{loose.fmr} vs {strict.fmr}"
        assert strict.fmr == 0.0

        for seed in (0, 1):
            disjoint = generate_scenario(6, 4, seed=seed)
            report = evaluate(disjoint, EngineConfig(tau_s=0.90), "mlmf")
            assert report.fmr == 0.0


# -------------------------------------------------------------- criterion 10

def test_criterion_10_snapshot_round_trip():
    with _checked(10, "serialize -> deserialize -> re-evaluate bit-identical (10 states)"):
        rng = random.Random(1010)
        for _ in range(10):
            scenario = generate_scenario(
                rng.randint(2, 5), rng.randint(2, 5),
                facts_per_persona=rng.randint(1, 3),
                distractors_per_session=rng.randint(0, 3),
                seed=rng.randint(0, 10_000),
            )
            cfg = EngineConfig(embedder=EmbedderConfig(dim=32, seed=rng.randint(0, 100)))
            sessions = list(scenario.sessions)
            cut = rng.randint(1, len(sessions) - 1)
            head = run(sessions[:cut], cfg)
            blob = dumps_state(head[-1].state, cfg)
            loaded_state, loaded_cfg = loads_state(blob)
            # byte-identical round trip, every held vector included
            assert dumps_state(loaded_state, loaded_cfg) == blob
            assert state_bytes(loaded_state, loaded_cfg) == state_bytes(head[-1].state, cfg)
            # resuming from the loaded state reproduces the original run exactly
            history = sum(s.token_count() for s in sessions[:cut])
            original = run(sessions[cut:], cfg, start_state=head[-1].state, history_tokens=history)
            resumed = run(sessions[cut:], loaded_cfg, start_state=loaded_state, history_tokens=history)
            assert _run_fingerprint(original, cfg) == _run_fingerprint(resumed, loaded_cfg)
            # a full re-evaluation under the deserialized config is bit-identical
            before = evaluate(scenario, cfg, "mlmf")
            after = evaluate(scenario, loaded_cfg, "mlmf")
            assert before == after
            assert json.dumps(config_to_dict(before), sort_keys=True) == json.dumps(
                config_to_dict(after), sort_keys=True
            )


# -------------------------------------------------------------- criterion 11

def _drifting_scenario() -> Scenario:
    # a fact that changes value mid-run makes ret_loss nonzero, so lambda matters
    sessions = (
        Session(0, (
            Utterance(0, 0, "alice", "alice lives_in london",
                                (FactTriple("alice", "lives_in", "london", 1.0),)),
            Utterance(0, 1, "bob", "bob likes jazz",
                                (FactTriple("bob", "likes", "jazz", 1.0),)),
        )),
        Session(1, (
            Utterance(1, 0, "alice", "alice lives_in paris",
                                (FactTriple("alice", "lives_in", "paris", 1.0),)),
        )),
        Session(2, (Utterance(2, 0, "narrator", "day 2 began"),)),
    )
    probes = (
        Probe(2, "alice lives_in", "alice", "lives_in", "paris", "true_fact", 1),
        Probe(2, "bob likes", "bob", "likes", "jazz", "true_fact", 0),
    )
    personas = (Persona("alice", (("lives_in", "paris"),)), Persona("bob", (("likes", "jazz"),)))
    return Scenario(personas, 3, sessions, probes, 0)


def test_criterion_11_tuner_argmin_matches_independent_recomputation():
    with _checked(11, "tuner winner equals independent argmin on a 2x2x2 grid (1e-12)"):
        scenario = _drifting_scenario()
        cfg = EngineConfig(embedder=EmbedderConfig(dim=32, seed=7))
        alphas = [0.2, 0.8]
        betas = [1.0, 6.0]
        lambdas = [0.0, 2.0]
        result = tune(objective_handle(scenario, cfg), alphas, betas, lambdas)
        assert len(result.grid) == 8

        # independent recomputation from the raw per-triple losses
        losses = {(p.alpha, p.beta): (p.objective.gen_loss, p.objective.ret_loss) for p in result.grid}
        recomputed = {}
        for a in alphas:
            for b in betas:
                for l in lambdas:
                    gen, ret = losses[(a, b)]
                    recomputed[(a, b, l)] = gen + l * ret
        winner = min(recomputed, key=lambda key: (recomputed[key], key))
        assert result.best == winner
        assert abs(result.objective.total - recomputed[winner]) <= 1e-12
        for point in result.grid:
            assert abs(point.objective.total - recomputed[(point.alpha, point.beta, point.lambda_)]) <= 1e-12
        # the drifting fact guarantees lambda has a real effect
        assert any(p.objective.ret_loss > 0 for p in result.grid)

        # documented tie-break: equal objectives resolve to the smallest triple
        flat = tune(lambda a, b: (0.5, 0.0), [0.9, 0.1], [2.0, 1.0], [1.0])
        assert flat.best == (0.1, 1.0, 1.0)
