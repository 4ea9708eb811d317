"""Consolidation updates: working window, summaries, episodic decay, graph merge."""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import fields, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlmem import memory
from mlmem.embedding import EmbedderConfig, cosine, embed
from mlmem.engine import EngineConfig, check_state
from mlmem.memory import (
    Attribute,
    EntityNode,
    EpisodicMemory,
    FactTriple,
    MemoryState,
    SemanticGraph,
    Session,
    SummaryRecord,
    Utterance,
    WorkingMemory,
    extract_facts,
    merge_semantic,
    summarize,
    update_episodic,
    update_working,
)
from mlmem.snapshot import dumps_state, loads_state, state_to_dict
from state_vectors import reference_nearest

CFG = EmbedderConfig(dim=64, seed=3)


def _session(index: int, texts: list[str], annotations: dict[int, tuple[FactTriple, ...]] | None = None) -> Session:
    annotations = annotations or {}
    utterances = tuple(
        Utterance(index, turn, "spk", text, annotations.get(turn, ()))
        for turn, text in enumerate(texts)
    )
    return Session(index, utterances)


# ---------------------------------------------------------------- invariants

def test_an_utterance_counts_its_own_tokens():
    """token_count is its text's whitespace tokens, so no caller states another count, and a replaced text is
    counted again."""
    utterance = Utterance(0, 0, "a", "two words")
    assert utterance.token_count == 2
    assert replace(utterance, text="a b c").token_count == 3
    with pytest.raises(TypeError):
        Utterance(0, 0, "a", "two words", token_count=2)
    with pytest.raises(ValueError, match="at least one token"):
        replace(utterance, text=" ")


def test_a_node_holds_no_id_but_its_graph_key():
    assert "entity_id" not in {f.name for f in fields(EntityNode)}
    graph = merge_semantic(SemanticGraph(), [FactTriple("Alice ", "likes", "jazz")], 0, 0.9, 4, CFG)
    assert list(graph.nodes) == ["alice"]


def test_session_must_be_non_empty():
    with pytest.raises(ValueError):
        Session(0, ())


def test_session_turn_indices_strictly_increasing():
    a = Utterance(0, 1, "x", "hello there")
    b = Utterance(0, 1, "x", "hello again")
    with pytest.raises(ValueError):
        Session(0, (a, b))


@pytest.mark.parametrize("parts", [(" ", "lives_in", "paris"), ("alice", "", ""), ("alice", "likes", "\t")])
def test_fact_triple_rejects_a_blank_part(parts):
    with pytest.raises(ValueError, match="must not be blank"):
        FactTriple(*parts)


@pytest.mark.parametrize("confidence", [float("nan"), float("inf"), -float("inf"), True, 10**400, "1.0", None],
                         ids=["nan", "inf", "minus_inf", "bool", "huge_int", "str", "none"])
def test_fact_triple_rejects_a_confidence_a_snapshot_cannot_carry(confidence):
    """Every triple the engine folds is one a session line carries: the confidence passes the kind rule or is refused."""
    with pytest.raises(ValueError, match="FactTriple.confidence must be"):
        FactTriple("alice", "likes", "jazz", confidence)


def test_session_index_mismatch_rejected():
    u = Utterance(1, 0, "x", "hello there")
    with pytest.raises(ValueError):
        Session(0, (u,))


# ------------------------------------------------------------ update_working

def test_working_keeps_all_when_under_window():
    out = update_working(_session(0, ["a b", "c d", "e f"]), 5, 100, CFG)
    assert [u.text for u, _ in out.entries] == ["a b", "c d", "e f"]


def test_working_keeps_last_k_in_order():
    out = update_working(_session(0, ["one a", "two b", "three c", "four d", "five e"]), 2, 100, CFG)
    assert [u.text for u, _ in out.entries] == ["four d", "five e"]


def test_working_trims_oldest_past_token_budget():
    # hand token-count oracle: four 3-token utterances, budget 10 -> drop one, 9 <= 10
    texts = ["a b c", "d e f", "g h i", "j k l"]
    out = update_working(_session(0, texts), 4, 10, CFG)
    assert [u.text for u, _ in out.entries] == ["d e f", "g h i", "j k l"]
    assert out.token_count() == 9

    # four 4-token utterances, budget 10 -> only the last two fit (8 <= 10)
    texts = ["a b c d", "e f g h", "i j k l", "m n o p"]
    out = update_working(_session(0, texts), 4, 10, CFG)
    assert [u.text for u, _ in out.entries] == ["i j k l", "m n o p"]
    assert out.token_count() == 8


def test_working_replaces_prior_session_entirely():
    first = update_working(_session(0, ["old stuff here"]), 5, 100, CFG)
    second = update_working(_session(1, ["new thing now"]), 5, 100, CFG)
    assert [u.text for u, _ in second.entries] == ["new thing now"]


def test_working_entries_carry_matching_embeddings():
    out = update_working(_session(0, ["alice likes jazz"]), 3, 100, CFG)
    (utterance, embedding), = out.entries
    assert np.array_equal(embedding, embed(utterance.text, CFG))


def test_working_bounds_hold_under_random_updates():
    rng = random.Random(11)
    wm = WorkingMemory()
    for index in range(30):
        texts = [
            " ".join(rng.choice("abcdefg") for _ in range(rng.randint(1, 6)))
            for _ in range(rng.randint(1, 6))
        ]
        wm = update_working(_session(index, texts), 3, 12, CFG)
        assert len(wm.entries) <= 3
        assert wm.token_count() <= 12


# ----------------------------------------------------------------- summarize

def test_summary_of_single_utterance_is_itself():
    record = summarize(_session(0, ["alice likes jazz"]), 3, CFG)
    assert record.text == "alice likes jazz"
    assert np.array_equal(record.embedding, embed(record.text, CFG))


def test_summary_m1_picks_max_centroid_cosine():
    texts = ["alice likes jazz", "the weather is fine", "alice plays piano"]
    session = _session(0, texts)
    # independent loop oracle over all candidates
    embeddings = [embed(t, CFG) for t in texts]
    centroid = np.mean(embeddings, axis=0)
    scores = [cosine(e, centroid) for e in embeddings]
    expected = texts[max(range(3), key=lambda i: (scores[i], -i))]
    record = summarize(session, 1, CFG)
    assert record.text == expected


def test_summary_tie_break_prefers_lower_turn_and_keeps_order():
    record = summarize(_session(0, ["same words here", "same words here"]), 2, CFG)
    assert record.text == "same words here same words here"


def test_summary_selection_keeps_original_order():
    texts = ["zebra crossing ahead", "alice likes jazz", "alice likes jazz music"]
    record = summarize(_session(0, texts), 2, CFG)
    chosen = record.text
    # whichever two were picked, they appear in turn order
    positions = [chosen.find(t) for t in texts if t in chosen]
    assert positions == sorted(positions)


# ------------------------------------------------------------ update_episodic

def _summary_with(vec: np.ndarray, session_index: int = 0) -> SummaryRecord:
    return SummaryRecord(session_index, "stub", vec)


def test_episodic_alpha_one_keeps_state_but_appends_log():
    prev = EpisodicMemory(np.array([1.0, 0.0]))
    out = update_episodic(prev, _summary_with(np.array([0.0, 1.0])), 1.0, 4)
    assert np.array_equal(out.state, np.array([1.0, 0.0]))
    assert len(out.log) == 1


def test_episodic_alpha_zero_replaces_state():
    prev = EpisodicMemory(np.array([1.0, 0.0]))
    out = update_episodic(prev, _summary_with(np.array([0.0, 1.0])), 0.0, 4)
    assert np.array_equal(out.state, np.array([0.0, 1.0]))


def test_episodic_blend_stays_unrenormalized_below_unit_norm():
    # alpha=0.5, [1,0] blended with [0,1] -> [0.5,0.5]; norm 0.707 <= 1, untouched
    prev = EpisodicMemory(np.array([1.0, 0.0]))
    out = update_episodic(prev, _summary_with(np.array([0.0, 1.0])), 0.5, 4)
    assert out.state == pytest.approx([0.5, 0.5], abs=1e-12)


def test_episodic_renormalizes_only_past_unit_norm():
    prev = EpisodicMemory(np.array([2.0, 0.0]))
    out = update_episodic(prev, _summary_with(np.array([0.0, 3.0])), 1.0, 4)
    assert np.linalg.norm(out.state) == pytest.approx(1.0, abs=1e-12)
    raw = update_episodic(prev, _summary_with(np.array([0.0, 3.0])), 1.0, 4, renormalize=False)
    assert np.array_equal(raw.state, np.array([2.0, 0.0]))


def test_episodic_log_is_a_ring_buffer():
    mem = EpisodicMemory.empty(2)
    for i in range(4):
        mem = update_episodic(mem, _summary_with(np.array([1.0, 0.0]), i), 0.5, 2)
    assert [r.session_index for r in mem.log] == [2, 3]


def test_episodic_closed_form_without_renormalization():
    rng = random.Random(7)
    for _ in range(10):
        alpha = rng.random()
        steps = rng.randint(1, 8)
        mem = EpisodicMemory.empty(3)
        vectors = []
        for i in range(steps):
            vec = np.array([rng.uniform(-1, 1) for _ in range(3)])
            vectors.append(vec)
            mem = update_episodic(mem, _summary_with(vec, i), alpha, 8, renormalize=False)
        expected = np.zeros(3)
        for i, vec in enumerate(vectors, start=1):
            expected += (1 - alpha) * alpha ** (steps - i) * vec
        assert np.allclose(mem.state, expected, atol=1e-6)


def test_episodic_alpha_validated_at_construction():
    with pytest.raises(ValueError):
        update_episodic(EpisodicMemory.empty(2), _summary_with(np.array([1.0, 0.0])), 1.5, 4)


@pytest.mark.parametrize(
    "update",
    [
        # k=0 must not slip through as utterances[-0:], the whole session
        lambda: update_working(_session(0, ["a b"]), 0, 10, CFG),
        lambda: update_working(_session(0, ["a b"]), 2, 0, CFG),
        lambda: update_episodic(EpisodicMemory.empty(2), _summary_with(np.array([1.0, 0.0])), -0.1, 4),
        lambda: update_episodic(EpisodicMemory.empty(2), _summary_with(np.array([1.0, 0.0])), 0.5, 0),
        lambda: merge_semantic(SemanticGraph(), [FactTriple("alice", "likes", "jazz")], 0, 0.9, 0, CFG),
        lambda: summarize(_session(0, ["a b"]), 0, CFG),
    ],
    ids=["k", "C_w", "alpha", "C_e", "C_s", "summary_m"],
)
def test_updates_reject_out_of_range_bounds(update):
    with pytest.raises(ValueError):
        update()


# -------------------------------------------------------------- extract_facts

def test_extract_simple_patterns():
    session = _session(0, ["Alice likes jazz"])
    assert extract_facts(session) == [FactTriple("alice", "likes", "jazz", 1.0)]


def test_extract_copula_lives_works_patterns():
    session = _session(0, ["weather is fine", "bob lives in paris", "carol works as a baker"])
    triples = extract_facts(session)
    assert FactTriple("weather", "is", "fine", 1.0) in triples
    assert FactTriple("bob", "lives_in", "paris", 1.0) in triples
    assert FactTriple("carol", "works", "a baker", 1.0) in triples


def test_extract_no_pattern_yields_nothing():
    session = _session(0, ["It rained all day"])
    assert extract_facts(session) == []


def test_extract_annotation_passthrough_regardless_of_text():
    fact = FactTriple("bob", "lives_in", "paris", 0.9)
    session = _session(0, ["totally unrelated chatter"], {0: (fact,)})
    assert extract_facts(session) == [fact]


def test_extract_strips_trailing_punctuation():
    session = _session(0, ["alice loves poetry."])
    assert extract_facts(session) == [FactTriple("alice", "loves", "poetry", 1.0)]


# A plain-loop reference: four patterns tried in turn, the first match winning. extract_facts's one pattern and verb
# table must give the same triples on every line.
_REFERENCE_PATTERNS = (
    (re.compile(r"^([a-z0-9_]+)\s+lives\s+in\s+(.+)$"), "lives_in"),
    (re.compile(r"^([a-z0-9_]+)\s+works\s+(?:as|at)\s+(.+)$"), "works"),
    (re.compile(r"^([a-z0-9_]+)\s+(likes|loves|hates)\s+(.+)$"), None),
    (re.compile(r"^([a-z0-9_]+)\s+is\s+(.+)$"), "is"),
)


def _reference_facts(text: str) -> list[FactTriple]:
    text = re.sub(r"[\s.,;:!?]+$", "", text.lower().strip())
    for pattern, relation in _REFERENCE_PATTERNS:
        match = pattern.match(text)
        if match is None:
            continue
        if relation is None:
            subject, relation, value = match.groups()
        else:
            subject, value = match.groups()
        return [FactTriple(subject, relation, value.strip(), 1.0)]
    return []


def _alternating_case(text: str) -> str:
    return "".join(c.upper() if i % 2 else c for i, c in enumerate(text))


@st.composite
def _fact_line(draw, verb: str) -> str:
    """A line that is, or nearly is, a fact line: a subject, the verb, a value with inner punctuation, then
    trailing punctuation and spaces; the verb in mixed case, and the words joined by whitespace runs or, as a near
    miss, by nothing."""
    subject = draw(st.text("abzXZ09_-", min_size=1, max_size=6))
    case = draw(st.sampled_from([str.lower, str.upper, str.title, _alternating_case]))
    spaces = st.sampled_from(["", " ", "  ", "\t", " \t "])
    value = draw(st.text("abXY z0.,;:!?'-", min_size=1, max_size=10))
    return (draw(spaces).join([subject, *case(verb).split()]) + draw(spaces) + value
            + draw(st.text(".,;:!? ", max_size=4)))


# every verb form the reader knows, then near misses of them
_VERB_FORMS = ("lives in", "works as", "works at", "likes", "loves", "hates", "is",
               "lives on", "works", "isnt", "moved to", "likes is")
_CHATTER = st.one_of(st.sampled_from(["It rained all day", "the ferry horn echoed twice", "day 3 began"]),
                     st.text("abc IS.,!", min_size=1, max_size=12).filter(str.strip))


# See test_embedding.py: keeps a reported failure from becoming an INTERNALERROR.
@pytest.mark.filterwarnings("ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")
@settings(deadline=None, database=None)
@given(st.lists(st.one_of(*map(_fact_line, _VERB_FORMS), _CHATTER), min_size=1, max_size=8))
def test_extract_facts_equals_the_four_pattern_reference(lines):
    expected = [triple for line in lines for triple in _reference_facts(line)]
    assert extract_facts(_session(0, lines)) == expected


# ------------------------------------------------------------- merge_semantic

def _merge(graph, facts, session_index, tau=0.9, C_s=8):
    return merge_semantic(graph, facts, session_index, tau, C_s, CFG)


def _history(graph):
    """(node, predicate, value, session) of each attribute, in node and attribute order."""
    return [(nid, name, a.value, a.session) for nid, node in graph.nodes.items() for name, a in node.attributes.items()]


def _assert_attribute_sessions(graph, latest):
    """Each attribute's session is at most its node's last_updated, which is at most the latest merge session."""
    for node in graph.nodes.values():
        assert all(a.session <= node.last_updated for a in node.attributes.values())
        assert node.last_updated <= latest


def test_merge_inserts_node_and_edge():
    graph = _merge(SemanticGraph(), [FactTriple("alice", "likes", "jazz", 0.75)], 0)
    assert set(graph.nodes) == {"alice"}
    assert graph.nodes["alice"].attributes == {"likes": Attribute("jazz", 0)}
    # the derived edge view holds the one attribute as its edge
    assert graph.edges == {("alice", "likes", "jazz"): 0}
    assert graph.current_value("alice", "likes") == "jazz"
    graph = _merge(graph, [FactTriple("Alice", "Lives_In", "Paris")], 1)
    assert graph.current_value("Alice", "Lives_In") == graph.current_value("alice", "lives_in") == "paris"


def test_merge_recency_wins_and_supersedes():
    graph = _merge(SemanticGraph(), [FactTriple("alice", "lives_in", "london")], 1)
    graph = _merge(graph, [FactTriple("alice", "lives_in", "paris")], 4)
    assert graph.nodes["alice"].attributes["lives_in"] == Attribute("paris", 4)
    assert _history(graph) == [("alice", "lives_in", "paris", 4)]


def test_merge_out_of_order_write_goes_to_superseded():
    """An older triple is superseded as it arrives: it changes no attribute, and adds importance."""
    graph = _merge(SemanticGraph(), [FactTriple("alice", "lives_in", "paris")], 4)
    older = _merge(graph, [FactTriple("alice", "lives_in", "london", 0.5)], 1)
    assert older.nodes["alice"].attributes == {"lives_in": Attribute("paris", 4)}
    assert older.nodes["alice"].attributes == graph.nodes["alice"].attributes
    assert older.nodes["alice"].embedding is graph.nodes["alice"].embedding
    assert (older.nodes["alice"].importance, older.nodes["alice"].last_updated) == (2.0, 4)


def test_merge_same_session_conflict_goes_to_the_later_triple():
    london, paris = FactTriple("alice", "lives_in", "london"), FactTriple("alice", "lives_in", "paris")
    bob = FactTriple("bob", "likes", "jazz")
    graph = _merge(SemanticGraph(), [london, bob, paris], 3)
    assert graph.current_value("alice", "lives_in") == "paris"
    assert _history(graph) == [("alice", "lives_in", "paris", 3), ("bob", "likes", "jazz", 3)]
    graph = _merge(graph, [FactTriple("alice", "lives_in", "rome")], 3)
    assert graph.current_value("alice", "lives_in") == "rome"
    # the last statement of a session wins, a flip back to a value displaced in it too
    graph = _merge(graph, [paris], 3)
    assert graph.current_value("alice", "lives_in") == "paris"
    assert graph.nodes["alice"].importance == 4.0
    assert _history(graph) == [("alice", "lives_in", "paris", 3), ("bob", "likes", "jazz", 3)]
    # restating the current value in its session is skipped, in one call or another
    for restated in ([paris], [paris, paris]):
        assert _merge(graph, restated, 3).nodes["alice"].importance == 4.0


def test_merge_eviction_drops_lowest_importance():
    # brute-force eviction oracle: entity with the fewest writes goes first
    graph = SemanticGraph()
    graph = _merge(graph, [FactTriple("aaa", "likes", "jazz")], 0, C_s=2)
    graph = _merge(graph, [FactTriple("aaa", "plays", "piano")], 1, C_s=2)
    graph = _merge(graph, [FactTriple("aaa", "works", "chef")], 2, C_s=2)   # importance 3
    graph = _merge(graph, [FactTriple("bbb", "likes", "rain")], 3, C_s=2)   # importance 1
    graph = _merge(graph, [FactTriple("ccc", "likes", "snow")], 4, C_s=2)
    graph = _merge(graph, [FactTriple("ccc", "plays", "drums")], 5, C_s=2)  # importance 2
    scores = {"aaa": (3.0, 2), "bbb": (1.0, 3), "ccc": (2.0, 5)}
    expected_evicted = min(scores, key=lambda k: scores[k])
    assert expected_evicted == "bbb"
    assert set(graph.nodes) == {"aaa", "ccc"}
    assert len(graph.nodes) <= 2


@pytest.mark.parametrize("batches, kept", [
    # equal importance: the least recently updated goes first, not the first inserted or the smallest id
    ([(5, [FactTriple("aaa", "likes", "jazz")]), (1, [FactTriple("ccc", "likes", "snow")]),
      (3, [FactTriple("bbb", "likes", "rain")])], {"aaa", "bbb"}),
    # equal importance and recency: the smaller id goes first, not the first inserted
    ([(0, [FactTriple("ccc", "likes", "snow"), FactTriple("bbb", "likes", "rain"),
           FactTriple("aaa", "likes", "jazz")])], {"bbb", "ccc"}),
])
def test_merge_eviction_breaks_importance_ties_by_recency_then_id(batches, kept):
    graph = SemanticGraph()
    for session_index, facts in batches:
        graph = _merge(graph, facts, session_index, C_s=2)
    assert {n.importance for n in graph.nodes.values()} == {1.0}
    assert set(graph.nodes) == kept


def test_merge_idempotent_for_identical_triple_same_session():
    triple = FactTriple("alice", "likes", "jazz")
    once = _merge(SemanticGraph(), [triple], 2)
    twice = _merge(once, [triple], 2)
    assert twice.nodes["alice"].importance == once.nodes["alice"].importance
    assert twice.nodes["alice"].attributes == once.nodes["alice"].attributes


def test_merge_restatement_at_later_session_refreshes_recency():
    triple = FactTriple("alice", "likes", "jazz")
    graph = _merge(SemanticGraph(), [triple, FactTriple("bob", "likes", "tea")], 0)
    graph = _merge(graph, [triple], 5)
    # the restated attribute takes the session in place, so the attribute order is kept
    assert _history(graph) == [("alice", "likes", "jazz", 5), ("bob", "likes", "tea", 0)]
    assert graph.nodes["alice"].last_updated == 5
    assert graph.nodes["alice"].importance == 2.0
    # a restatement takes its session, whatever its confidence, which no attribute stores
    restated = _merge(graph, [FactTriple("alice", "likes", "jazz", 0.5)], 6).nodes["alice"]
    assert restated.attributes == {"likes": Attribute("jazz", 6)}
    assert restated.embedding is graph.nodes["alice"].embedding


def test_merge_similarity_match_absorbs_near_duplicate_entities():
    base = _merge(SemanticGraph(), [FactTriple("alice marie smith", "lives_in", "paris")], 0)
    candidate = FactTriple("alice marie jones", "lives_in", "rome")
    merged_low = merge_semantic(base, [candidate], 1, 0.5, 8, CFG)
    assert set(merged_low.nodes) == {"alice marie smith"}
    assert merged_low.current_value("alice marie smith", "lives_in") == "rome"
    kept_high = merge_semantic(base, [candidate], 1, 0.9, 8, CFG)
    assert set(kept_high.nodes) == {"alice marie smith", "alice marie jones"}


def test_merge_tie_breaks_to_lexicographically_smaller_id():
    cfg = EmbedderConfig(dim=64, seed=3)
    base = SemanticGraph()
    base = merge_semantic(base, [FactTriple("bob", "likes", "jazz")], 0, 0.9, 8, cfg)
    node = base.nodes["bob"]
    clone = dict(base.nodes)
    clone["abe"] = node  # a node holds no id, so one node can sit under two keys
    tied = SemanticGraph(clone)
    merged = merge_semantic(tied, [FactTriple("zed", "likes", "jazz")], 1, 0.2, 8, cfg)
    # equal cosine to both tied nodes: the lexicographically smaller id wins
    assert "zed" not in merged.nodes
    assert merged.nodes["abe"].importance == node.importance + 1


def _seed_2_graph():
    """The seed-2, tau_s 0.3 graph when "heidi works clerk" is merged: each persona's "lives_in" merged into alice."""
    personas = [("alice", "london", "sailor", "jazz"), ("bob", "tokyo", "tailor", "poetry"),
                ("carol", "seoul", "scribe", "knitting"), ("dave", "dublin", "guard", "rowing"),
                ("erin", "cairo", "lawyer", "cycling"), ("frank", "warsaw", "tutor", "karate"),
                ("grace", "athens", "teacher", "skiing")]
    facts = [FactTriple(name, predicate, value) for name, city, job, hobby in personas
             for predicate, value in (("lives_in", city), ("works", job), ("likes", hobby))]
    graph = merge_semantic(SemanticGraph(), facts, 0, 0.3, 64, EmbedderConfig())
    assert sorted(graph.nodes) == [name for name, *_ in personas]
    return graph


def test_merge_tie_of_mathematically_equal_cosines_goes_to_the_smaller_id():
    cfg = EmbedderConfig()
    graph = _seed_2_graph()
    triple = FactTriple("heidi", "works", "clerk")
    candidate = embed("heidi works clerk", cfg)
    # bob..grace are each 1/sqrt(15) from it, which per-row arithmetic splits by an ulp in grace's favour
    assert cosine(graph.nodes["grace"].embedding, candidate) > cosine(graph.nodes["bob"].embedding, candidate)
    assert "heidi" in merge_semantic(graph, [triple], 1, 0.3, 64, cfg).nodes  # 1/sqrt(15) < 0.3
    merged = merge_semantic(graph, [triple], 1, 0.25, 64, cfg)
    assert "heidi" not in merged.nodes
    assert merged.current_value("bob", "works") == "clerk"
    assert merged.current_value("grace", "works") == "teacher"


def test_merge_threshold_holds_the_attained_grid_score_and_nothing_above_it():
    cfg = EmbedderConfig()
    graph = _seed_2_graph()
    triple = FactTriple("heidi", "works", "clerk")
    tau_s = round(1 / math.sqrt(15), 12)  # the grid score of bob..grace against the candidate
    merged = merge_semantic(graph, [triple], 1, tau_s, 64, cfg)
    assert "heidi" not in merged.nodes
    assert merged.current_value("bob", "works") == "clerk"
    above = merge_semantic(graph, [triple], 1, float(np.nextafter(tau_s, 2.0)), 64, cfg)
    assert set(above.nodes) == set(graph.nodes) | {"heidi"}
    assert above.current_value("bob", "works") == "tailor"


def test_merge_node_embedding_tracks_attribute_changes():
    graph = _merge(SemanticGraph(), [FactTriple("alice", "lives_in", "london")], 0)
    before = graph.nodes["alice"].embedding.copy()
    graph = _merge(graph, [FactTriple("alice", "lives_in", "paris")], 1)
    after = graph.nodes["alice"].embedding
    assert not np.array_equal(before, after)
    assert np.array_equal(after, embed("alice lives_in paris", CFG))


def test_merge_importance_at_least_distinct_attributes():
    graph = SemanticGraph()
    for i, (attr, val) in enumerate([("likes", "jazz"), ("plays", "piano"), ("works", "chef")]):
        graph = _merge(graph, [FactTriple("alice", attr, val)], i)
    node = graph.nodes["alice"]
    assert node.importance >= len(node.attributes)


def test_merge_replay_is_bit_identical():
    facts = [
        [FactTriple("alice", "likes", "jazz")],
        [FactTriple("bob", "lives_in", "paris")],
        [FactTriple("alice", "likes", "blues")],
    ]
    def build():
        graph = SemanticGraph()
        for i, batch in enumerate(facts):
            graph = _merge(graph, batch, i, C_s=4)
        return graph
    a, b = build(), build()
    assert list(a.nodes) == list(b.nodes)
    for key in a.nodes:
        assert a.nodes[key].attributes == b.nodes[key].attributes
        assert np.array_equal(a.nodes[key].embedding, b.nodes[key].embedding)


# Sessions of triples over few subjects, predicates and values, so that
# conflicts, restatements, out-of-order sessions and similarity merges are common.
_TRIPLE = st.builds(
    FactTriple,
    st.sampled_from(["alice", "alice smith", "bob", "carol", "dave"]),
    st.sampled_from(["likes", "lives_in"]),
    st.sampled_from(["jazz", "paris", "rome", "tea"]),
)
_STREAM = st.lists(st.tuples(st.integers(0, 6), st.lists(_TRIPLE, max_size=4)), max_size=8)


def _graph_state(graph: SemanticGraph) -> MemoryState:
    """The graph as the semantic layer of a state at cursor 6, the latest session a _STREAM merge takes."""
    return MemoryState(WorkingMemory(), EpisodicMemory.empty(CFG.dim), graph, 6, CFG)


# See test_embedding.py: keeps a reported failure from becoming an INTERNALERROR.
@pytest.mark.filterwarnings("ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")
@settings(deadline=None, database=None)
@given(_STREAM, st.sampled_from([0.0, 0.3, 0.6, 1.0]), st.integers(1, 4))
def test_merge_keeps_capacity_and_builds_graphs_that_check_and_load(stream, tau_s, C_s):
    cfg = EngineConfig(C_s=C_s, embedder=CFG)
    graph = SemanticGraph()
    latest = 0
    for session_index, facts in stream:
        graph = merge_semantic(graph, facts, session_index, tau_s, C_s, CFG)
        latest = max(latest, session_index)
        assert len(graph.nodes) <= C_s
        # every graph a merge builds passes check_state, and so loads
        state = _graph_state(graph)
        check_state(state, cfg)
        loads_state(dumps_state(state, cfg))
        _assert_attribute_sessions(graph, latest)


# See test_embedding.py: keeps a reported failure from becoming an INTERNALERROR.
@pytest.mark.filterwarnings("ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")
@settings(deadline=None, database=None)
@given(_STREAM, st.sampled_from([0.0, 0.3, 0.6, 0.9, 1.0]), st.integers(1, 4))
def test_merges_equal_merges_through_the_all_rows_reference_scan(stream, tau_s, C_s):
    cfg = EngineConfig(C_s=C_s, embedder=CFG)

    def merged():
        graph = SemanticGraph()
        latest = 0
        for session_index, facts in stream:
            graph = merge_semantic(graph, facts, session_index, tau_s, C_s, CFG)
            latest = max(latest, session_index)
            _assert_attribute_sessions(graph, latest)
            check_state(_graph_state(graph), cfg)
            yield _graph_rows(graph)

    fast = list(merged())
    with mock.patch.object(memory, "nearest", reference_nearest):
        assert list(merged()) == fast


# Subjects that differ in one token and share predicates and values, so that
# candidates often tie with, or merge by similarity into, nodes made in the same call.
_TIE_TRIPLE = st.builds(
    FactTriple,
    st.sampled_from(["e0", "e1", "e2", "e3", "e4 x", "e5 x"]),
    st.sampled_from(["likes", "lives_in", "works"]),
    st.sampled_from(["city0", "city1", "job0"]),
    st.sampled_from([0.5, 1.0]),
)


def _graph_rows(graph):
    return [(nid, n.attributes, n.embedding.tobytes(), n.importance, n.last_updated) for nid, n in graph.nodes.items()]


# See test_embedding.py: keeps a reported failure from becoming an INTERNALERROR.
@pytest.mark.filterwarnings("ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")
@settings(deadline=None, database=None)
@given(st.lists(_TIE_TRIPLE, max_size=6), st.lists(_TIE_TRIPLE, max_size=10), st.sampled_from([0.5, 0.7, 0.9]))
def test_one_merge_equals_folding_its_triples_one_call_at_a_time(earlier, facts, tau_s):
    C_s = 64  # above any node count here, so nothing is evicted
    graph = merge_semantic(SemanticGraph(), earlier, 0, tau_s, C_s, CFG)
    folded = graph
    for triple in facts:
        folded = merge_semantic(folded, [triple], 1, tau_s, C_s, CFG)
        _assert_attribute_sessions(folded, 1)
    assert _graph_rows(merge_semantic(graph, facts, 1, tau_s, C_s, CFG)) == _graph_rows(folded)


def test_a_new_subject_stated_three_times_in_one_merge_costs_one_node_embed(monkeypatch):
    graph = _merge(SemanticGraph(), [FactTriple("bob", "likes", "tea")], 0)
    texts: list[str] = []

    def spy(text, cfg):
        texts.append(text)
        return embed(text, cfg)

    monkeypatch.setattr(memory, "embed", spy)
    facts = [FactTriple("zed", "lives_in", "mars"), FactTriple("zed", "works", "pilot"),
             FactTriple("zed", "likes", "jazz")]
    merged = _merge(graph, facts, 1)
    # the unseen subject's candidate, then the node once, from its final attributes
    assert texts == ["zed lives_in mars", "zed likes jazz lives_in mars works pilot"]
    assert merged.nodes["zed"].embedding.tobytes() == embed(texts[-1], CFG).tobytes()
    assert merged.nodes["bob"].embedding is graph.nodes["bob"].embedding


def test_alternating_attribute_keeps_the_serialized_graph_flat():
    def semantic_size(graph):
        state = MemoryState(WorkingMemory(), EpisodicMemory.empty(CFG.dim), graph, 0, CFG)
        return len(json.dumps(state_to_dict(state, EngineConfig(embedder=CFG))["state"]["semantic"]))

    graph = _merge(SemanticGraph(), [FactTriple("bob", "likes", "tea")], 0)
    sizes = {}
    for session_index in range(1, 301):
        value = "jazz" if session_index % 2 == 0 else "blues"
        graph = _merge(graph, [FactTriple("alice", "likes", value)], session_index)
        sizes[session_index] = semantic_size(graph)
    assert set(graph.nodes) == {"alice", "bob"}
    assert [len(node.attributes) for node in graph.nodes.values()] == [1, 1]
    # both ends of the second half state the same value with 3-digit sessions
    assert sizes[150] == sizes[300]
