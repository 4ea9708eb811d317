"""Synthetic multi-session scenarios and the retention metric suite.

A scenario states each persona's facts in period 0 (as annotated utterances),
fills later periods with distractor chatter and occasional restatements, and
probes period-0 facts at every later period. True probes measure retention;
false probes carry values drawn from a vocabulary disjoint from every session
text. No context and no graph value can then contain a false probe's value,
however entities merge, so the containment false memory rate is 0 by
construction (ROADMAP item 12 measured 0.0 at tau_s 0.9, 0.5, 0.2 and 0.0
over seeds 0-2, and plans an attributed answer that can fail).

Retention is containment-based: a probe counts as recalled when its gold value
appears in the probe's assembled context or in the graph's current value for
(subject, attribute). That removes generation quality from the measurement
entirely; the responder never grades anything.
"""

from __future__ import annotations

import random
from collections import defaultdict
from dataclasses import dataclass, replace

from .embedding import cosine, embed
from .engine import EngineConfig, StepOutput, answer, policy_config, run
from .memory import FactTriple, MemoryState, Session, Utterance
from .retrieval import FusedState, make_query

PERSONA_NAMES = (
    "alice", "bob", "carol", "dave", "erin", "frank", "grace", "heidi",
    "ivan", "judy", "kevin", "laura", "mallory", "nina", "oscar", "peggy",
    "quentin", "rachel", "sybil", "trent", "ursula", "victor", "wendy",
    "xavier", "yolanda", "zach",
)

FACT_ATTRIBUTES = ("lives_in", "works", "likes", "plays", "speaks")

FACT_VALUES = {
    "lives_in": (
        "paris", "london", "tokyo", "madrid", "oslo", "cairo", "lima", "delhi",
        "rome", "quito", "berlin", "dublin", "athens", "vienna", "prague",
        "lisbon", "warsaw", "havana", "seoul", "bogota",
    ),
    "works": (
        "teacher", "engineer", "doctor", "baker", "pilot", "nurse", "chef",
        "farmer", "lawyer", "artist", "plumber", "tailor", "barista", "clerk",
        "guard", "miner", "sailor", "scribe", "smith", "tutor",
    ),
    "likes": (
        "jazz", "chess", "hiking", "painting", "cycling", "poetry", "origami",
        "astronomy", "karate", "surfing", "knitting", "archery", "juggling",
        "calligraphy", "skiing", "pottery", "dancing", "fencing", "rowing",
        "sculpting",
    ),
    "plays": (
        "piano", "violin", "drums", "flute", "cello", "guitar", "harp", "oboe",
        "banjo", "trumpet", "viola", "clarinet", "mandolin", "accordion",
        "bassoon", "ukulele", "organ", "fiddle", "tuba", "sitar",
    ),
    "speaks": (
        "spanish", "hindi", "french", "mandarin", "swahili", "arabic",
        "portuguese", "greek", "turkish", "dutch", "korean", "italian",
        "finnish", "polish", "hebrew", "thai", "bengali", "czech", "danish",
        "nepali",
    ),
}

FALSE_VALUES = (
    "zanzibar", "glassblowing", "falconry", "reykjavik", "beekeeping",
    "locksmithing", "ulaanbaatar", "taxidermy", "cartography", "marrakesh",
    "unicycling", "apothecary", "tbilisi", "spelunking", "haberdashery",
    "windhoek", "yodeling", "chandlery", "asuncion", "quilting",
)

DISTRACTOR_SENTENCES = (
    "the morning train arrived late again",
    "heavy fog settled over the bridge",
    "the market stalls opened at dawn",
    "a gentle breeze crossed the empty square",
    "the lecture ended earlier than planned",
    "new streetlights lined the avenue",
    "the ferry horn echoed twice",
    "fresh snow covered the rooftops",
    "the queue wrapped around the block",
    "bells rang from the tower at noon",
    "the old gate creaked in the wind",
    "distant thunder rolled over the hills",
    "the reading room reopened after repairs",
    "lanterns flickered along the waterfront",
    "wet leaves gathered by the kerb",
    "the last bus left without a sound",
)


@dataclass(frozen=True)
class Persona:
    name: str
    facts: tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class Probe:
    period: int
    question: str
    subject: str
    attribute: str
    gold_value: str
    kind: str
    introduced_at: int

    def __post_init__(self) -> None:
        if self.kind not in ("true_fact", "false_fact"):
            raise ValueError(f"unknown probe kind {self.kind!r}")
        if self.kind == "true_fact" and self.period <= self.introduced_at:
            raise ValueError("retention probes must come after the fact was introduced")


@dataclass(frozen=True)
class Scenario:
    personas: tuple[Persona, ...]
    sessions: tuple[Session, ...]
    probes: tuple[Probe, ...]


@dataclass(frozen=True)
class EvalReport:
    retention_at: dict[int, float]
    fmr: float
    mean_context_usage: float
    success_rate: float
    drift_curve: tuple[float, ...]
    config: EngineConfig


def _fact_utterance(session_index: int, turn: int, name: str, attribute: str, value: str) -> Utterance:
    """The one way a scenario states a fact, introduced or restated: its text annotated with its triple."""
    return Utterance(
        session_index,
        turn,
        name,
        f"{name} {attribute} {value}",
        (FactTriple(name, attribute, value, 1.0),),
    )


def generate_scenario(
    n_personas: int,
    periods: int,
    facts_per_persona: int = 3,
    distractors_per_session: int = 6,
    seed: int = 0,
) -> Scenario:
    """Deterministic scenario family: facts at period 0, probes at every later gap.

    Restatements repeat a persona fact with probability 0.1 per period. Fact
    values are drawn without replacement per attribute while the pools last, so
    personas do not share values at default sizes.
    """
    if n_personas < 1:
        raise ValueError("n_personas must be >= 1")
    if periods < 2:
        raise ValueError("periods must be >= 2")
    if not 1 <= facts_per_persona <= len(FACT_ATTRIBUTES):
        raise ValueError(f"facts_per_persona must lie in [1, {len(FACT_ATTRIBUTES)}]")
    if distractors_per_session < 0:
        raise ValueError("distractors_per_session must be >= 0")

    rng = random.Random(seed)

    pools = {attr: list(values) for attr, values in FACT_VALUES.items()}
    for pool in pools.values():
        rng.shuffle(pool)
    personas = []
    for i in range(n_personas):
        name = PERSONA_NAMES[i] if i < len(PERSONA_NAMES) else f"{PERSONA_NAMES[i % len(PERSONA_NAMES)]}{i}"
        facts = []
        for j in range(facts_per_persona):
            attribute = FACT_ATTRIBUTES[j]
            pool = pools[attribute]
            if pool:
                value = pool.pop()
            else:
                value = rng.choice(FACT_VALUES[attribute])
            facts.append((attribute, value))
        personas.append(Persona(name, tuple(facts)))

    # every (name, attribute, value) a persona states, in persona order; period 0 states each once
    stated = [(persona.name, attribute, value) for persona in personas for attribute, value in persona.facts]
    sessions = [Session(0, tuple(_fact_utterance(0, turn, *fact) for turn, fact in enumerate(stated)))]

    for period in range(1, periods):
        body: list[str | tuple[str, str, str]] = [
            rng.choice(DISTRACTOR_SENTENCES) for _ in range(distractors_per_session)
        ]
        body += [fact for fact in stated if rng.random() < 0.1]
        rng.shuffle(body)
        utterances = [Utterance(period, 0, "narrator", f"day {period} began")]
        for turn, line in enumerate(body, start=1):
            if isinstance(line, str):
                utterances.append(Utterance(period, turn, "narrator", line))
            else:
                utterances.append(_fact_utterance(period, turn, *line))
        sessions.append(Session(period, tuple(utterances)))

    probes = []
    for gap in range(1, periods):
        for pi, persona in enumerate(personas):
            attribute, value = persona.facts[(gap - 1 + pi) % len(persona.facts)]
            probes.append(
                Probe(gap, f"{persona.name} {attribute}", persona.name, attribute, value, "true_fact", 0)
            )
            false_attribute = persona.facts[(gap + pi) % len(persona.facts)][0]
            probes.append(
                Probe(
                    gap,
                    f"{persona.name} {false_attribute}",
                    persona.name,
                    false_attribute,
                    rng.choice(FALSE_VALUES),
                    "false_fact",
                    0,
                )
            )

    return Scenario(tuple(personas), tuple(sessions), tuple(probes))


def probe_hit(probe: Probe, state: MemoryState, fused: FusedState) -> bool:
    """Containment scoring: gold value in the context text or the graph value."""
    if probe.gold_value in fused.context_text:
        return True
    current = state.semantic.current_value(probe.subject, probe.attribute)
    return current is not None and probe.gold_value in current


def _answer_probes(
    scenario: Scenario, cfg: EngineConfig, policy: str, kinds: tuple[str, ...]
) -> tuple[EngineConfig, list[StepOutput], list[tuple[Probe, MemoryState, FusedState]]]:
    """Run the policy over the scenario, then answer each probe of ``kinds`` once.

    A probe is answered against the state right after its period's session,
    in period order and scenario order within a period.
    """
    run_cfg = policy_config(cfg, policy)
    outputs = run(scenario.sessions, run_cfg)
    answered = []
    for probe in sorted(scenario.probes, key=lambda p: p.period):
        if probe.kind in kinds and 0 <= probe.period < len(outputs):
            state = outputs[probe.period].state
            _, fused = answer(make_query(probe.question, run_cfg.embedder, probe.period), state, run_cfg)
            answered.append((probe, state, fused))
    return run_cfg, outputs, answered


def evaluate(scenario: Scenario, cfg: EngineConfig, policy: str = "mlmf") -> EvalReport:
    """Run the engine (or a reduced baseline) over the scenario and score every probe."""
    run_cfg, outputs, answered = _answer_probes(scenario, cfg, policy, ("true_fact", "false_fact"))

    retained: dict[int, int] = defaultdict(int)
    asked: dict[int, int] = defaultdict(int)
    false_hits = 0
    false_total = 0
    for probe, state, fused in answered:
        hit = probe_hit(probe, state, fused)
        if probe.kind == "true_fact":
            gap = probe.period - probe.introduced_at
            asked[gap] += 1
            if hit:
                retained[gap] += 1
        else:
            false_total += 1
            if hit:
                false_hits += 1

    retention_at = {gap: retained[gap] / asked[gap] for gap in sorted(asked)}
    true_total = sum(asked.values())
    return EvalReport(
        retention_at=retention_at,
        fmr=false_hits / false_total if false_total else 0.0,
        mean_context_usage=(
            sum(o.context_usage for o in outputs) / len(outputs) if outputs else 0.0
        ),
        success_rate=sum(retained.values()) / true_total if true_total else 0.0,
        drift_curve=tuple(o.drift.total for o in outputs),
        config=run_cfg,
    )


def ablate(scenario: Scenario, cfg: EngineConfig) -> dict[str, EvalReport]:
    """Four reports: the full engine and one per removed mechanism.

    lambda never reaches the engine; its effect is measured by ``tune`` over
    ``objective_handle`` (``mlmem sweep``), not by an ablation variant.
    """
    return {
        "full": evaluate(scenario, cfg),
        "no_semantic": evaluate(scenario, replace(cfg, enabled_layers=("w", "e"))),
        "no_episodic": evaluate(scenario, replace(cfg, enabled_layers=("w", "s"))),
        "no_gating": evaluate(scenario, replace(cfg, uniform_gating=True)),
    }


def run_losses(scenario: Scenario, cfg: EngineConfig) -> tuple[float, float]:
    """(gen_loss, ret_loss) for one engine run over the scenario.

    gen_loss is the mean over true probes of 1 - cosine(fused vector, embedded
    gold value); ret_loss is the cumulative semantic drift of the run.
    """
    run_cfg, outputs, answered = _answer_probes(scenario, cfg, "mlmf", ("true_fact",))
    ret_loss = float(sum(o.drift.total for o in outputs))
    losses = [
        1.0 - cosine(fused.vector, embed(probe.gold_value, run_cfg.embedder))
        for probe, _, fused in answered
    ]
    gen_loss = sum(losses) / len(losses) if losses else 0.0
    return gen_loss, ret_loss


def objective_handle(scenario: Scenario, cfg: EngineConfig):
    """Evaluation handle for ``tune``: (alpha, beta) -> run_losses under cfg with those values."""

    def evaluate(alpha: float, beta: float) -> tuple[float, float]:
        return run_losses(scenario, replace(cfg, alpha=alpha, beta=beta))

    return evaluate

