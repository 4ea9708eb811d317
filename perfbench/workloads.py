"""Seeded inputs for the benchmark workloads.

The generator owns every choice: the seed picks names, values, chatter and
questions, while the shape of a workload (sessions, utterances per session,
facts, updates, questions) is fixed, so every seed asks the engine for about
the same amount of work. The engine receives only the generated sessions and
question texts.

Session vocabulary never contains the letter ``z``; false-probe gold values
all do, so a false answer can only hit through a wrong merge, never through
an accidental substring of some stated text.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from mlmem import EngineConfig, FactTriple, Session, Utterance

_SYLLABLES = tuple(sorted(c + v for c in "bcdfghklmnprstvw" for v in "aeiou"))
STRIDE = 7919              # prime, so a stride walk over fewer items visits all of them

# Plain-text attributes are mined by extract_facts; annotated ones only reach
# the graph through the utterance's fact annotation.
TEXT_FORMS = {"lives_in": "lives in", "works": "works as", "likes": "likes"}
ANNOTATED = ("plays", "speaks", "owns")

CHATTER = (
    "the morning train arrived late again",
    "heavy fog settled over the bridge",
    "the market stalls opened at dawn",
    "a gentle wind crossed the empty square",
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
class Shape:
    """The seed-independent size of a workload."""

    sessions: int
    intro_entities: int        # entities stated in session 0
    new_entities: int          # never-seen entities per later session
    chatter: int               # chatter lines per later session
    restatements: int          # known facts repeated unchanged per later session
    updates: int               # known facts given a new value per later session
    true_questions: int        # per session
    false_questions: int       # per session
    value_pool: int            # distinct values per attribute (0: a fresh value every time)
    capacity_nodes: int
    checkpoint_every: int


SHAPES = {
    # Write-heavy, repetitive: a small cast, long sessions of recycled chatter.
    "chat_long": Shape(
        sessions=600, intro_entities=26, new_entities=0, chatter=24, restatements=8,
        updates=4, true_questions=2, false_questions=1, value_pool=20,
        capacity_nodes=64, checkpoint_every=50,
    ),
    # Write-heavy, wide: fresh subjects every session fill C_s=1024 by session 20
    # and evict from then on, so most steps, answers and checkpoints, and hence
    # their medians, see a full graph.
    "graph_wide": Shape(
        sessions=48, intro_entities=704, new_entities=16, chatter=2, restatements=0,
        updates=8, true_questions=2, false_questions=1, value_pool=0,
        capacity_nodes=1024, checkpoint_every=6,
    ),
    # Read-heavy: many repeated questions against a graph at C_s=256.
    "answer_heavy": Shape(
        sessions=48, intro_entities=192, new_entities=8, chatter=4, restatements=2,
        updates=4, true_questions=14, false_questions=2, value_pool=0,
        capacity_nodes=256, checkpoint_every=4,
    ),
}


@dataclass(frozen=True)
class Question:
    """One answer operation: a (subject, attribute) question and its gold value."""

    text: str
    subject: str
    attribute: str
    gold: str
    true: bool


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    cfg: EngineConfig
    sessions: tuple[Session, ...]
    questions: tuple[tuple[Question, ...], ...]   # asked after the step of the same index
    checkpoint_every: int
    unseen_triples: tuple[int, ...]               # per session: triples on never-stated subjects


class _Stride:
    """Picks from a growing list at a fixed stride.

    Which facts are restated, updated or asked then follows from the
    workload's shape, not from the seed, so retention and eviction barely
    move with the seed.
    """

    def __init__(self) -> None:
        self._count = 0

    def pick(self, items: list, k: int) -> list:
        if k > len(items):
            raise ValueError(f"cannot pick {k} distinct items from {len(items)}")
        chosen: list = []
        while len(chosen) < k:
            item = items[self._count * STRIDE % len(items)]
            self._count += 1
            if item not in chosen:
                chosen.append(item)
        return chosen


class _Words:
    """Unique six-letter CVCVCV words; a fixed length keeps any two from nesting."""

    def __init__(self, rng: random.Random) -> None:
        self._rng = rng
        self._taken: set[str] = set()

    def _claim(self, word: str) -> bool:
        if word in self._taken or any(word in line for line in CHATTER):
            return False
        self._taken.add(word)
        return True

    def fresh(self, prefix: str = "") -> str:
        while True:
            word = prefix + "".join(self._rng.choice(_SYLLABLES) for _ in range(3))
            if self._claim(word):
                return word

    def ordered(self, index: int) -> str:
        """A fresh word whose first four letters spell ``index``, so these words sort by index.

        Entity names are made this way: eviction breaks ties by entity id, and
        ordered ids make it evict the same entities whatever the seed.
        """
        high, low = divmod(index, len(_SYLLABLES))
        while True:
            word = _SYLLABLES[high] + _SYLLABLES[low] + self._rng.choice(_SYLLABLES)
            if self._claim(word):
                return word


def _fact_utterance(session: int, turn: int, subject: str, attribute: str, value: str) -> Utterance:
    if attribute in TEXT_FORMS:
        return Utterance.from_text(session, turn, subject, f"{subject} {TEXT_FORMS[attribute]} {value}")
    return Utterance.from_text(
        session, turn, subject, f"{subject} {attribute} {value}", (FactTriple(subject, attribute, value, 1.0),)
    )


def generate(name: str, seed: int) -> Workload:
    """Build workload ``name`` from ``seed``; the same pair always gives the same inputs."""
    shape = SHAPES[name]
    rng = random.Random(f"{name}:{seed}")
    words = _Words(rng)
    # Names first, so no value can take a word an entity needs later.
    names = iter([words.ordered(i) for i in range(shape.intro_entities + (shape.sessions - 1) * shape.new_entities)])
    attributes = tuple(TEXT_FORMS) + ANNOTATED
    pools = {a: [words.fresh() for _ in range(shape.value_pool)] for a in attributes}
    false_values = [words.fresh("z") for _ in range(64)]
    chatter = rng.sample(CHATTER, k=min(len(CHATTER), 12))

    def value_for(attribute: str, old: str | None = None) -> str:
        if not pools[attribute]:
            return words.fresh()
        return rng.choice([v for v in pools[attribute] if v != old])

    facts: dict[tuple[str, str], str] = {}       # (subject, attribute) -> current value, in stated order

    def introduce(session: int, count: int, lines: list[Utterance]) -> int:
        """State ``count`` never-seen entities with three facts each; returns the triples added."""
        for _ in range(count):
            entity = next(names)
            # Alternate plain-text and annotated entities.
            for attribute in TEXT_FORMS if len(facts) // 3 % 2 else ANNOTATED:
                facts[(entity, attribute)] = value = value_for(attribute)
                lines.append(_fact_utterance(session, len(lines), entity, attribute, value))
        return 3 * count

    def question(subject: str, attribute: str, true: bool) -> Question:
        gold = facts[(subject, attribute)] if true else rng.choice(false_values)
        return Question(f"{subject} {attribute}", subject, attribute, gold, true)

    sessions: list[Session] = []
    questions: list[tuple[Question, ...]] = []
    unseen_triples: list[int] = []
    touch, ask = _Stride(), _Stride()
    for index in range(shape.sessions):
        lines: list[Utterance] = []
        if index > 0:
            body: list[tuple[str, str, str | None]] = []   # (subject, attribute, value); chatter has no value
            for _ in range(shape.chatter):
                body.append(("narrator", rng.choice(chatter), None))
            # Restated and updated facts are disjoint, so each session states one value per fact.
            touched = touch.pick(list(facts), shape.restatements + shape.updates)
            for subject, attribute in touched[: shape.restatements]:
                body.append((subject, attribute, facts[(subject, attribute)]))
            for subject, attribute in touched[shape.restatements :]:
                facts[(subject, attribute)] = value = value_for(attribute, facts[(subject, attribute)])
                body.append((subject, attribute, value))
            rng.shuffle(body)
            lines.append(Utterance.from_text(index, 0, "narrator", f"day {index} began"))
            for subject, attribute, value in body:
                if value is None:
                    lines.append(Utterance.from_text(index, len(lines), "narrator", attribute))
                else:
                    lines.append(_fact_utterance(index, len(lines), subject, attribute, value))
        unseen_triples.append(introduce(index, shape.intro_entities if index == 0 else shape.new_entities, lines))
        if any("z" in u.text for u in lines):
            raise ValueError("session text must not contain the false-value marker 'z'")
        sessions.append(Session(index, tuple(lines)))

        # Repeats across sessions are allowed: that is how questions come to repeat.
        picked = ask.pick(list(facts), shape.true_questions + shape.false_questions)
        asked = [question(s, a, i < shape.true_questions) for i, (s, a) in enumerate(picked)]
        rng.shuffle(asked)
        questions.append(tuple(asked))

    cfg = EngineConfig(C_s=shape.capacity_nodes)
    return Workload(
        name, seed, cfg, tuple(sessions), tuple(questions), shape.checkpoint_every, tuple(unseen_triples)
    )


def input_properties(workload: Workload) -> dict[str, float]:
    """Measured input shares that later "helps only inputs with X" claims can cite."""
    texts = [u.text for s in workload.sessions for u in s.utterances]
    asked = [q.text for qs in workload.questions for q in qs]
    return {
        "sessions": len(workload.sessions),
        "utterances": len(texts),
        "repeated_text_share": 1.0 - len(set(texts)) / len(texts),
        "repeated_question_share": 1.0 - len(set(asked)) / len(asked),
        "unseen_subject_triples_per_session": sum(workload.unseen_triples) / len(workload.sessions),
        "answers_per_step": len(asked) / len(workload.sessions),
        "false_answer_share": sum(not q.true for qs in workload.questions for q in qs) / len(asked),
    }
