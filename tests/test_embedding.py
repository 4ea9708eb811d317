"""Text embedding determinism, normalization, cosine math, and the remote protocol."""

from __future__ import annotations

import functools
import json
import math
import subprocess
import sys
import threading
from fractions import Fraction
from unittest import mock
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mlmem import embedding
from mlmem.embedding import (
    EMBED_BLOCK_ROWS,
    EMBED_CACHE_ENTRIES,
    TOKEN_MEMO_ENTRIES,
    EmbedderConfig,
    EmbeddingServiceError,
    REMOTE_ENDPOINT_ENV,
    UNIT_TOLERANCE,
    cosine,
    embed,
    embed_all,
    frozen,
    nearest,
    reachable,
    stacked,
    tokenize,
    unit,
)
from mlmem.engine import EngineConfig, run
from mlmem.memory import Attribute, Session, Utterance, node_text
from mlmem.snapshot import dumps_state, loads_state
from state_vectors import grid_scores, hash_counts, reference_embed, reference_nearest, state_bytes


def _scalar_loop_cosine(a: list[float], b: list[float]) -> float:
    # independent oracle: no numpy, plain loops
    dot = sum(x * y for x, y in zip(a, b))
    na = sum(x * x for x in a) ** 0.5
    nb = sum(y * y for y in b) ** 0.5
    if na == 0.0 or nb == 0.0:
        return 0.0
    return dot / (na * nb)


def test_empty_text_gives_zero_vector():
    cfg = EmbedderConfig(dim=8)
    vec = embed("", cfg)
    assert vec.shape == (8,)
    assert not vec.any()
    assert list(vec) == [0.0] * 8


def test_degenerate_text_without_alnum_tokens_gives_zero_vector():
    cfg = EmbedderConfig(dim=16)
    assert not embed("!!! ... ---", cfg).any()


def test_embed_is_deterministic_and_unit_norm():
    cfg = EmbedderConfig(dim=256, seed=7)
    a = embed("alice", cfg)
    b = embed("alice", cfg)
    assert np.array_equal(a, b)
    assert abs(np.linalg.norm(a) - 1.0) <= 1e-9


def test_embed_bit_equal_across_processes():
    cfg = EmbedderConfig(dim=64, seed=123)
    local = embed("the quick brown fox", cfg).tobytes().hex()
    script = (
        "from mlmem.embedding import EmbedderConfig, embed;"
        "print(embed('the quick brown fox', EmbedderConfig(dim=64, seed=123)).tobytes().hex())"
    )
    remote = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True
    ).stdout.strip()
    assert local == remote


def test_related_texts_are_closer_than_unrelated():
    cfg = EmbedderConfig(dim=256)
    base = embed("alice likes jazz", cfg)
    near = embed("alice likes jazz music", cfg)
    far = embed("bob hates rain", cfg)
    sim_near = _scalar_loop_cosine(list(base), list(near))
    sim_far = _scalar_loop_cosine(list(base), list(far))
    assert sim_near > sim_far
    assert cosine(base, near) == pytest.approx(sim_near, abs=1e-12)
    assert cosine(base, far) == pytest.approx(sim_far, abs=1e-12)


def test_seed_changes_the_vector():
    a = embed("alice", EmbedderConfig(dim=64, seed=1))
    b = embed("alice", EmbedderConfig(dim=64, seed=2))
    assert not np.array_equal(a, b)


def test_embed_cache_holds_at_most_its_bound():
    cfg = EmbedderConfig(dim=8)
    for i in range(EMBED_CACHE_ENTRIES + 1):
        embed(f"text {i}", cfg)
    info = embedding._embed_hash.cache_info()
    assert (info.misses, info.currsize) == (EMBED_CACHE_ENTRIES + 1, EMBED_CACHE_ENTRIES)


def test_token_memo_holds_at_most_its_bound_and_an_eviction_changes_no_bit():
    cfg = EmbedderConfig(dim=100, seed=-7)
    first = "alice lives in paris and alice stays"
    before = embed(first, cfg)
    distinct = len(set(tokenize(first)))
    assert embedding._signed_slot.cache_info().currsize == distinct
    # TOKEN_MEMO_ENTRIES + 1 fresh tokens, 1,000 to a text: the memo fills and evicts first's tokens
    tokens = [f"t{i}" for i in range(TOKEN_MEMO_ENTRIES + 1)]
    for start in range(0, len(tokens), 1000):
        text = " ".join(tokens[start:start + 1000])
        assert embed(text, cfg).tobytes() == reference_embed(text, cfg.dim, cfg.seed).tobytes()
        assert embedding._signed_slot.cache_info().currsize <= TOKEN_MEMO_ENTRIES
    info = embedding._signed_slot.cache_info()
    assert (info.misses, info.currsize) == (distinct + TOKEN_MEMO_ENTRIES + 1, TOKEN_MEMO_ENTRIES)
    embedding._embed_hash.cache_clear()
    again = embed(first, cfg)
    assert again is not before
    assert embedding._signed_slot.cache_info().misses == info.misses + distinct  # first's slots were evicted
    assert again.tobytes() == before.tobytes() == reference_embed(first, cfg.dim, cfg.seed).tobytes()


# Pairs that share a dim or a seed, a negative seed, the seed range's ends and dims that are no power of two:
# a memo keyed without dim or without seed would hand one pair's slots to another.
_MEMO_KEYS = [(256, 0), (100, 0), (256, -7), (8, 2**63 - 1), (100, -(2**63))]
_MEMO_WORDS = ["alice", "bob", "paris", "lives", "in", "jazz", "7", "x1", "zz"]


def _bounded_signed_slot(bound: int):
    """A fresh ``_signed_slot`` memo of bound entries: ``lru_cache`` fixes its bound when it wraps the function."""
    return functools.lru_cache(maxsize=bound)(embedding._signed_slot.__wrapped__)


@pytest.mark.filterwarnings("ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")
@settings(deadline=None, database=None)
@given(
    st.lists(
        st.tuples(st.sampled_from(_MEMO_KEYS), st.lists(st.sampled_from(_MEMO_WORDS), max_size=6).map(" ".join)),
        min_size=1,
        max_size=30,
    ),
    st.sampled_from([2, 5, TOKEN_MEMO_ENTRIES]),
)
def test_embed_equals_the_uncached_reference_over_interleaved_embedders(calls, bound):
    """Each call, from cold caches, over several (dim, seed) and, under a small bound, across evictions."""
    embedding._embed_hash.cache_clear()
    with mock.patch.object(embedding, "_signed_slot", _bounded_signed_slot(bound)):
        for (dim, seed), text in calls:
            vec = embed(text, EmbedderConfig(dim=dim, seed=seed))
            assert vec.tobytes() == reference_embed(text, dim, seed).tobytes(), (dim, seed, text)


def test_threads_sharing_the_token_memo_get_the_uncached_vectors():
    """More threads than cores race on two (dim, seed) through a memo small enough to evict all the time."""
    keys = [(100, 0), (256, -7)]
    texts = [" ".join(_MEMO_WORDS[(i + j) % len(_MEMO_WORDS)] for j in range(i % 5 + 1)) + f" t{i}" for i in range(200)]
    expected = {(key, text): reference_embed(text, *key).tobytes() for key in keys for text in texts}
    slots = _bounded_signed_slot(3)
    wrong: list[tuple] = []

    def work(offset: int) -> None:
        for i in range(len(texts)):
            key, text = keys[(i + offset) % 2], texts[(i * 7 + offset) % len(texts)]
            if embed(text, EmbedderConfig(dim=key[0], seed=key[1])).tobytes() != expected[key, text]:
                wrong.append((key, text))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with mock.patch.object(embedding, "_signed_slot", slots):
            threads = [threading.Thread(target=work, args=(offset,)) for offset in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []
    distinct = {(token, *key) for key in keys for text in texts for token in tokenize(text)}
    assert slots.cache_info().misses > len(distinct)  # evicted slots were hashed again, so the race was run


_TEXTS = st.lists(st.sampled_from([*_MEMO_WORDS, "", "!?"]), max_size=6).map(" ".join)


@settings(deadline=None, database=None)
@given(
    st.sampled_from(_MEMO_KEYS),
    st.lists(_TEXTS, max_size=40),
    st.sampled_from([1, 3, EMBED_BLOCK_ROWS]),
    st.sampled_from([0, 5, EMBED_CACHE_ENTRIES]),
)
@example((8, 0), ["", "!? !?"], 1, 0)  # a block in which no text has a token
@example((100, 0), ["alice", "!?", "alice", ""], 3, 0)  # a repeated text, and a last block of one token-free text
@example((8, 0), ["w10", "w34 w10"], 1, 0)  # slot 0 (bucket 0, sign +1) and slot -8 (bucket 0, sign -1)
def test_embed_all_equals_the_reference_bit_for_bit_across_blocks(key, texts, rows, cached):
    """Empty and token-free texts, repeats, no text at all, blocks of one row or that split the texts, and batches
    on either side of the text cache's size (patched to ``cached``)."""
    dim, seed = key
    with mock.patch.multiple(embedding, EMBED_BLOCK_ROWS=rows, EMBED_CACHE_ENTRIES=cached):
        vectors = embed_all(texts, EmbedderConfig(dim=dim, seed=seed))
    assert len(vectors) == len(texts)
    for text, vec in zip(texts, vectors):
        assert (vec.dtype, vec.shape) == (np.float64, (dim,))
        assert vec.tobytes() == reference_embed(text, dim, seed).tobytes(), (dim, seed, text)


def test_embed_all_goes_through_the_text_cache_up_to_its_size():
    cfg = EmbedderConfig(dim=16)
    texts = [f"alice t{i}" for i in range(EMBED_CACHE_ENTRIES)]
    first = [embed(text, cfg) for text in texts]
    info = embedding._embed_hash.cache_info()
    assert all(vec is old for vec, old in zip(embed_all(texts, cfg), first, strict=True))  # every one a hit
    assert embedding._embed_hash.cache_info().hits == info.hits + len(texts)
    info = embedding._embed_hash.cache_info()
    assert len(embed_all([*texts, "bob"], cfg)) == len(texts) + 1
    assert embedding._embed_hash.cache_info() == info  # one more text than it holds: a batch, which reads none


def test_embed_all_gives_each_text_its_own_read_only_array_and_leaves_the_text_cache_alone():
    cfg = EmbedderConfig(dim=16)
    texts = [f"alice t{i % (EMBED_BLOCK_ROWS + 3)}" for i in range(EMBED_CACHE_ENTRIES + 1)]
    info = embedding._embed_hash.cache_info()
    vectors = embed_all(texts, cfg)
    assert embedding._embed_hash.cache_info() == info  # neither read nor filled
    for vec in vectors:
        assert vec.flags.owndata and not vec.flags.writeable  # no vector is a view that keeps its block alive
        with pytest.raises(ValueError):
            vec[0] = 1.0
    assert not any(np.shares_memory(a, b) for i, a in enumerate(vectors) for b in vectors[i + 1:])


def test_embed_returns_a_read_only_array_even_when_cached():
    cfg = EmbedderConfig(dim=8)
    first = embed("alice likes jazz", cfg)
    again = embed("alice likes jazz", cfg)
    assert again is first
    assert not again.flags.writeable
    with pytest.raises(ValueError):
        again[0] = 1.0


@pytest.mark.parametrize("rows", [1, 2, 1024])
def test_stacked_is_a_new_writable_copy_of_np_stack(rows):
    """``merge_semantic`` writes its row buffer in place, so the result must own its bytes."""
    rng = np.random.default_rng(rows)
    vectors = [frozen(rng.standard_normal(256)) for _ in range(rows)]
    matrix = stacked(vectors)
    expected = np.stack(vectors)
    assert (matrix.shape, matrix.dtype) == (expected.shape, expected.dtype)
    assert matrix.tobytes() == expected.tobytes()
    assert matrix.flags.writeable
    assert not any(np.shares_memory(matrix, vec) for vec in vectors)


def test_tokenize_is_lowercase_alnum():
    assert tokenize("Alice likes Jazz-Funk 23!") == ["alice", "likes", "jazz", "funk", "23"]


def test_norm_property_over_sample_texts():
    cfg = EmbedderConfig(dim=32, seed=5)
    texts = ["", "a", "a b c", "repeated repeated repeated", "Mixed CASE text", "42 7 13", "?!"]
    for text in texts:
        norm = np.linalg.norm(embed(text, cfg))
        assert norm == 0.0 or abs(norm - 1.0) <= 1e-9


def test_cosine_self_similarity():
    v = embed("alice plays piano", EmbedderConfig(dim=128))
    assert cosine(v, v) == pytest.approx(1.0, abs=1e-12)


def test_cosine_orthogonal_basis_vectors():
    e1 = np.array([1.0, 0.0, 0.0, 0.0])
    e2 = np.array([0.0, 1.0, 0.0, 0.0])
    assert cosine(e1, e2) == 0.0


def test_cosine_hand_value():
    a = np.array([0.6, 0.8])
    b = np.array([1.0, 0.0])
    assert cosine(a, b) == pytest.approx(0.6, abs=1e-12)


def test_cosine_zero_vector_returns_zero():
    z = np.zeros(4)
    v = np.array([1.0, 0.0, 0.0, 0.0])
    assert cosine(z, v) == 0.0
    assert cosine(v, z) == 0.0


def test_cosine_symmetry():
    cfg = EmbedderConfig(dim=64)
    a = embed("alice likes jazz", cfg)
    b = embed("bob plays chess", cfg)
    assert abs(cosine(a, b) - cosine(b, a)) <= 1e-12


def test_cosine_dimension_mismatch_raises():
    a = np.zeros(4)
    b = np.zeros(8)
    with pytest.raises(ValueError):
        cosine(a, b)


def _linalg_cosine(a: np.ndarray, b: np.ndarray) -> float:
    # reference: cosine with its norms taken by np.linalg.norm
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return max(-1.0, min(1.0, float(np.dot(a, b)) / (na * nb)))


def test_cosine_norms_are_bit_identical_to_linalg_norm():
    cfg = EmbedderConfig(dim=256)
    vectors = [embed(f"e{i} lives in city{i % 7} works as job{i % 5} e{i // 3}", cfg) for i in range(120)]
    vectors.append(np.zeros(256))
    rng = np.random.default_rng(11)
    for scale in (1e-150, 1e-30, 1.0, 1e30, 1e150):
        vectors.append(rng.standard_normal(256) * scale)
    for v in vectors:
        assert math.sqrt(float(v.dot(v))) == float(np.linalg.norm(v))
    for a in vectors:
        for b in vectors[::5]:
            assert cosine(a, b) == _linalg_cosine(a, b)


# Elements with many exact ties: small integers, plus floats away from the subnormal range.
_ELEMENT = st.one_of(
    st.integers(-3, 3).map(float),
    st.floats(-100.0, 100.0).filter(lambda x: x == 0.0 or abs(x) > 1e-6),
)


@st.composite
def _scan_cases(draw):
    """Rows as ``nearest`` takes them, unit or zero, some off unit by UNIT_TOLERANCE; any query; a floor."""
    dim = draw(st.integers(1, 6))
    vector = st.lists(_ELEMENT, min_size=dim, max_size=dim)
    distinct = [unit(np.array(v, dtype=np.float64)) for v in draw(st.lists(vector, min_size=1, max_size=5))]
    # -1 picks a zero row; repeated picks are duplicate rows, exact ties unless one is scaled
    picks = draw(st.lists(st.integers(-1, len(distinct) - 1), min_size=1, max_size=12))
    scales = st.sampled_from([1.0, 1.0 + UNIT_TOLERANCE, 1.0 - UNIT_TOLERANCE])
    rows = [np.zeros(dim) if p < 0 else distinct[p] * draw(scales) for p in picks]
    matrix = np.array(rows, dtype=np.float64).reshape(-1, dim)
    query = np.array(draw(st.one_of(st.just([0.0] * dim), vector)), dtype=np.float64)
    count = draw(st.integers(1, len(picks) + 1))
    # the default floor, any floor, or one at an attained grid score or just either side of it
    attained = st.sampled_from(grid_scores(matrix, query))
    near = st.tuples(attained, st.sampled_from([0.0, 1e-13, -1e-13, 1e-12, -1e-12])).map(sum)
    floor = draw(st.one_of(st.just(-1.0), st.floats(-1.0, 1.0), near))
    return matrix, query, count, floor, draw(st.permutations(range(len(picks))))


# On a failure, hypothesis's pytest plugin imports libcst to write a patch, and
# libcst's import warns through mypy_extensions; under filterwarnings=error that
# warning would turn the reported failure into an INTERNALERROR.
@pytest.mark.filterwarnings("ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")
@settings(deadline=None, database=None)
@given(_scan_cases())
# a row whose product 0.5 - 3e-13 rounds up to the grid point 0.5, with floor 0.5: a floor applied to the raw
# product, not the grid score, would drop it
@example((np.array([[0.5 - 3e-13, math.sqrt(1.0 - (0.5 - 3e-13) ** 2)]]), np.array([1.0, 0.0]), 1, 0.5, [0]))
def test_nearest_is_one_stable_sort_of_every_row_by_grid_score_and_key(case):
    matrix, query, count, floor, permutation = case
    scores = grid_scores(matrix, query)
    # the grid score is the cosine, to within the grid and the rows' distance from unit
    assert all(abs(score - cosine(row, query)) <= 2e-12 for row, score in zip(matrix, scores))
    assert nearest(matrix, query, count) == reference_nearest(matrix, query, count)
    assert nearest(matrix, query, count, floor=floor) == reference_nearest(matrix, query, count, floor=floor)
    keyed: list[int] = []
    permuted = nearest(matrix, query, count, lambda i: keyed.append(i) or permutation[i], floor)
    assert permuted == reference_nearest(matrix, query, count, permutation.__getitem__, floor)
    # key is called once for each row at or above both the cut and the floor, in row order, and for no other row
    cut = max(floor, sorted(scores, reverse=True)[min(count, len(matrix)) - 1])
    assert keyed == [i for i, score in enumerate(scores) if score >= cut]


# See above: keeps a reported failure from becoming an INTERNALERROR.
@pytest.mark.filterwarnings("ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")
@settings(deadline=None, database=None)
@given(_scan_cases())
# a row whose product 0.5 - 3e-13 rounds up to the grid point 0.5, with floor 0.5: a bound without the grid's
# slack would call it unreachable
@example((np.array([[0.5 - 3e-13, math.sqrt(1.0 - (0.5 - 3e-13) ** 2)]]), np.array([1.0, 0.0]), 1, 0.5, [0]))
def test_reachable_calls_no_query_unreachable_that_a_row_scores_at_the_floor(case):
    matrix, query, _, floor, _ = case
    # queries unit or zero, as embed makes them: the case's own, its negation, zero, and each row made unit
    queries = np.array([unit(query), -unit(query), np.zeros(len(query)), *map(unit, matrix)])
    # the same rows repeated past GATHER_ROWS, so the product runs over the queries' columns only
    tiled = np.tile(matrix, (-(-embedding.GATHER_ROWS // len(matrix)), 1))
    assert len(tiled) >= embedding.GATHER_ROWS
    bounds = [reachable(rows, queries, floor) for rows in (matrix, tiled)]
    for column, q in enumerate(queries):
        scores = grid_scores(matrix, q)
        found = bool(nearest(matrix, q, 1, floor=floor))
        assert all(bound[column] for bound in bounds) or (max(scores) < floor and not found), (column, scores)
        for row, score in enumerate(scores):
            assert reachable(matrix[row : row + 1], q[None], floor)[0] or score < floor, (row, column, score)


def test_reachable_over_no_rows_reaches_nothing():
    assert reachable(np.zeros((0, 4)), np.eye(4)[:2], -1.0) == [False, False]


def test_nearest_without_ties_keys_only_the_best_row():
    cfg = EmbedderConfig(dim=256)
    matrix = np.stack([embed(f"alpha{i} beta{i} gamma{i % 3}", cfg) for i in range(50)])
    keyed: list[int] = []
    assert nearest(matrix, embed("alpha7 beta7 gamma1", cfg), 1, lambda i: keyed.append(i) or i)[0][0] == 7
    assert keyed == [7]


@pytest.mark.parametrize("rows", [np.eye(4), np.zeros((0, 4))])
@pytest.mark.parametrize("count", [0, -1])
def test_nearest_refuses_a_count_below_one(rows, count):
    with pytest.raises(ValueError, match=rf"^count must be >= 1, got {count}$"):
        nearest(rows, np.eye(4)[0], count)


# Coarse ranks of a row's key: rank(i) < rank(j) only where key(i) < key(j).
_COARSE_RANKS = {"the key": lambda key: key, "key // 3": lambda key: key // 3, "a constant": lambda key: 0}


# See above: keeps a reported failure from becoming an INTERNALERROR.
@pytest.mark.filterwarnings("ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")
@settings(deadline=None, database=None)
@given(_scan_cases())
# every row ties: six equal rows, two slots
@example((np.tile(np.eye(3)[0], (6, 1)), np.array([1.0, 0.0, 0.0]), 2, -1.0, [4, 2, 5, 0, 3, 1]))
def test_a_coarse_rank_keys_only_the_tied_rows_it_cannot_settle(case):
    matrix, query, count, floor, permutation = case
    scores = grid_scores(matrix, query)
    expected = reference_nearest(matrix, query, count, permutation.__getitem__, floor)
    cut = sorted(scores, reverse=True)[count - 1] if count < len(matrix) else -1.0
    kept = [i for i, score in enumerate(scores) if score >= max(cut, floor)]
    for name, coarse in _COARSE_RANKS.items():
        keyed: list[int] = []
        rank_calls: list[int] = []
        ranked = nearest(matrix, query, count, lambda i: keyed.append(i) or permutation[i], floor,
                         lambda i: rank_calls.append(i) or coarse(permutation[i]))
        assert ranked == expected, name
        # rank is called once per row tied at the cut, and only when more rows reach the cut than count
        assert rank_calls == ([i for i in kept if scores[i] == cut] if len(kept) > count else []), name
        # past count, a tied row is keyed only when its rank is at most the largest rank the result holds at the cut
        boundary = max((coarse(key) for key, score in expected if score == cut), default=None)
        assert keyed == [i for i in kept if len(kept) <= count or scores[i] > cut
                         or coarse(permutation[i]) <= boundary], name


_PREDICATES = st.sampled_from(["lives_in", "works", "likes"])
_VALUES = st.sampled_from(["paris", "tokyo", "chef", "tailor", "jazz", "chess"])

# The graph at the seed-2, tau_s 0.3 merge of "heidi works clerk": the candidate's cosine to each of bob..grace
# is 1/sqrt(15), which per-row arithmetic gives as 0.25819888974716115 for bob and 0.2581988897471612 for grace.
_SEED_2_NODES = [("alice", {"lives_in": "athens", "works": "sailor", "likes": "jazz"}),
                 ("bob", {"works": "tailor", "likes": "poetry"}), ("carol", {"works": "scribe", "likes": "knitting"}),
                 ("dave", {"works": "guard", "likes": "rowing"}), ("erin", {"works": "lawyer", "likes": "cycling"}),
                 ("frank", {"works": "tutor", "likes": "karate"}), ("grace", {"works": "teacher", "likes": "skiing"})]


def _node_text(entity_id: str, values: dict[str, str]) -> str:
    """``node_text`` of a node whose attributes hold these values."""
    return node_text(entity_id, {name: Attribute(value, 0) for name, value in values.items()})


@st.composite
def _equal_cosine_cases(draw):
    """Node texts and a merge candidate over few words, so that many rows' cosines to it are mathematically
    equal, and a permutation that moves rows only within their class of equal cosine (exact, from the counts)."""
    seed = draw(st.integers(0, 3))
    keys = [f"p{n}" for n in draw(st.lists(st.integers(0, 99), min_size=2, max_size=16, unique=True))]
    texts = [_node_text(key, draw(st.dictionaries(_PREDICATES, _VALUES, min_size=1))) for key in keys]
    query = _node_text(f"q{draw(st.integers(0, 9))}", {draw(_PREDICATES): draw(_VALUES)})
    q = hash_counts(query, 256, seed)
    classes: dict[Fraction, list[int]] = {}
    for row, text in enumerate(texts):
        counts = hash_counts(text, 256, seed)
        dot = int(counts @ q)
        classes.setdefault(Fraction(dot * abs(dot), int(counts @ counts)), []).append(row)
    permutation = list(range(len(texts)))
    for rows in classes.values():
        for row, moved in zip(rows, draw(st.permutations(rows))):
            permutation[row] = moved
    return seed, keys, texts, query, draw(st.integers(1, len(texts))), permutation


@pytest.mark.filterwarnings("ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")
@settings(deadline=None, database=None)
@given(_equal_cosine_cases())
@example((0, [key for key, _ in _SEED_2_NODES], [_node_text(*node) for node in _SEED_2_NODES],
          "heidi works clerk", 1, [0, 6, 2, 3, 4, 5, 1]))
def test_permuting_rows_of_equal_cosine_never_changes_a_pick(case):
    seed, keys, texts, query_text, count, permutation = case
    cfg = EmbedderConfig(seed=seed)
    matrix = np.stack([embed(text, cfg) for text in texts])
    query = embed(query_text, cfg)
    picks = nearest(matrix, query, count, keys.__getitem__)
    # each key keeps its row's cosine, only the vector's rounding moves, so the picks stay
    assert nearest(matrix[permutation], query, count, keys.__getitem__) == picks


def test_config_validation():
    with pytest.raises(ValueError):
        EmbedderConfig(dim=4)
    with pytest.raises(ValueError):
        EmbedderConfig(mode="magic")
    with pytest.raises(ValueError):
        EmbedderConfig(remote_endpoint="http://x")  # deterministic mode
    with pytest.raises(ValueError):
        EmbedderConfig(mode="remote")  # no endpoint, no env
    with pytest.raises(ValueError):
        EmbedderConfig(seed=2**63)
    with pytest.raises(ValueError):
        EmbedderConfig(seed=-(2**63) - 1)
    for bad in ({"dim": 256.0}, {"seed": True}, {"mode": "remote", "remote_endpoint": 5}, {"mode": 1}):
        with pytest.raises(ValueError):
            EmbedderConfig(**bad)


class _EmbedHandler(BaseHTTPRequestHandler):
    response_body: bytes = b"{}"
    status: int = 200
    raw_reply: bytes | None = None  # when set, the bytes sent in place of a well-formed HTTP reply
    requests: list[dict] = []

    def do_POST(self):  # noqa: N802 (http.server API)
        length = int(self.headers.get("Content-Length", "0"))
        payload = json.loads(self.rfile.read(length))
        type(self).requests.append(payload)
        if self.raw_reply is not None:
            self.wfile.write(self.raw_reply)
            return
        self.send_response(self.status)
        self.send_header("Content-Type", "application/json")
        self.end_headers()
        self.wfile.write(self.response_body)

    def log_message(self, *args):  # silence test output
        pass


@pytest.fixture()
def embed_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _EmbedHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    _EmbedHandler.requests = []
    _EmbedHandler.status = 200
    _EmbedHandler.raw_reply = None
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


def _endpoint(server) -> str:
    host, port = server.server_address
    return f"http://{host}:{port}/embed"


def test_remote_embedding_normalized_on_receipt(embed_server):
    _EmbedHandler.response_body = json.dumps({"vectors": [[3.0, 4.0] + [0.0] * 6]}).encode()
    cfg = EmbedderConfig(dim=8, mode="remote", remote_endpoint=_endpoint(embed_server))
    vec = embed("hello", cfg)
    assert abs(np.linalg.norm(vec) - 1.0) <= 1e-9
    assert vec[0] == pytest.approx(0.6)
    assert vec[1] == pytest.approx(0.8)
    assert _EmbedHandler.requests == [{"texts": ["hello"]}]


def test_remote_embedding_is_never_cached(embed_server):
    _EmbedHandler.response_body = json.dumps({"vectors": [[1.0] + [0.0] * 7]}).encode()
    cfg = EmbedderConfig(dim=8, mode="remote", remote_endpoint=_endpoint(embed_server))
    embed("hello", cfg)
    _EmbedHandler.status = 500
    with pytest.raises(EmbeddingServiceError):
        embed("hello", cfg)
    assert _EmbedHandler.requests == [{"texts": ["hello"]}] * 2


def test_remote_malformed_response_raises(embed_server):
    _EmbedHandler.response_body = b"not json at all"
    cfg = EmbedderConfig(dim=8, mode="remote", remote_endpoint=_endpoint(embed_server))
    with pytest.raises(EmbeddingServiceError):
        embed("hello", cfg)


def test_remote_wrong_dimension_raises(embed_server):
    _EmbedHandler.response_body = json.dumps({"vectors": [[1.0, 2.0]]}).encode()
    cfg = EmbedderConfig(dim=8, mode="remote", remote_endpoint=_endpoint(embed_server))
    with pytest.raises(EmbeddingServiceError):
        embed("hello", cfg)


@pytest.mark.parametrize(
    "body",
    [
        '{"vectors": [[NaN, 1, 0, 0, 0, 0, 0, 0]]}',
        '{"vectors": [[Infinity, 1, 0, 0, 0, 0, 0, 0]]}',
        '{"vectors": [[true, 1, 0, 0, 0, 0, 0, 0]]}',
        '{"vectors": [["0.5", 1, 0, 0, 0, 0, 0, 0]]}',
        '{"vectors": [[1, 0, 0, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0, 0, 0]]}',
    ],
    ids=["nan", "infinity", "bool", "str", "two_vectors"],
)
def test_remote_vector_is_read_as_a_snapshot_vector_is(embed_server, body):
    """A response vector is exactly one list of dim finite JSON numbers; anything else is a typed error."""
    _EmbedHandler.response_body = body.encode()
    cfg = EmbedderConfig(dim=8, mode="remote", remote_endpoint=_endpoint(embed_server))
    with pytest.raises(EmbeddingServiceError, match="malformed embedding response"):
        embed("hello", cfg)


def test_loading_a_remote_snapshot_sends_no_request(embed_server):
    """A remote snapshot carries every vector, so loading it reads them and asks the service nothing."""
    _EmbedHandler.response_body = json.dumps({"vectors": [[3.0, 4.0] + [0.0] * 6]}).encode()
    cfg = EngineConfig(embedder=EmbedderConfig(dim=8, mode="remote", remote_endpoint=_endpoint(embed_server)))
    sessions = [
        Session(i, (Utterance(i, 0, "alice", f"alice lives in {city}"), Utterance(i, 1, "bob", "?? !!")))
        for i, city in enumerate(["paris", "rome"])
    ]
    state = run(sessions, cfg)[-1].state
    asked = len(_EmbedHandler.requests)
    assert asked > 0
    blob = dumps_state(state, cfg)
    document = json.loads(blob)["state"]
    assert json.loads(blob)["format_version"] == 4
    for records in (document["working"]["entries"], document["episodic"]["log"], document["semantic"]["nodes"]):
        assert records and all(record["embedding"] == [0.6, 0.8] + [0.0] * 6 for record in records)
    loaded, loaded_cfg = loads_state(blob)
    assert state_bytes(loaded, loaded_cfg) == state_bytes(state, cfg)
    assert len(_EmbedHandler.requests) == asked


def test_embed_all_in_remote_mode_asks_the_service_once_per_text(embed_server):
    _EmbedHandler.response_body = json.dumps({"vectors": [[3.0, 4.0] + [0.0] * 6]}).encode()
    cfg = EmbedderConfig(dim=8, mode="remote", remote_endpoint=_endpoint(embed_server))
    vectors = embed_all(["alice", "bob", "alice"], cfg)
    assert _EmbedHandler.requests == [{"texts": ["alice"]}, {"texts": ["bob"]}, {"texts": ["alice"]}]
    assert [vec.tolist() for vec in vectors] == [[0.6, 0.8] + [0.0] * 6] * 3


def test_remote_http_error_raises(embed_server):
    _EmbedHandler.status = 500
    _EmbedHandler.response_body = b"{}"
    cfg = EmbedderConfig(dim=8, mode="remote", remote_endpoint=_endpoint(embed_server))
    with pytest.raises(EmbeddingServiceError):
        embed("hello", cfg)


def test_remote_reply_that_is_not_http_raises(embed_server):
    _EmbedHandler.raw_reply = b"hello, this is no HTTP status line\r\n\r\n"
    cfg = EmbedderConfig(dim=8, mode="remote", remote_endpoint=_endpoint(embed_server))
    with pytest.raises(EmbeddingServiceError, match=f"request to {_endpoint(embed_server)} failed"):
        embed("hello", cfg)


def test_remote_body_shorter_than_its_content_length_raises(embed_server):
    _EmbedHandler.raw_reply = b"HTTP/1.0 200 OK\r\nContent-Length: 100\r\n\r\n{\"vectors\": "
    cfg = EmbedderConfig(dim=8, mode="remote", remote_endpoint=_endpoint(embed_server))
    with pytest.raises(EmbeddingServiceError, match=f"request to {_endpoint(embed_server)} failed"):
        embed("hello", cfg)


def test_remote_connection_refused_raises():
    cfg = EmbedderConfig(dim=8, mode="remote", remote_endpoint="http://127.0.0.1:9/none")
    with pytest.raises(EmbeddingServiceError):
        embed("hello", cfg)


def test_env_var_overrides_endpoint(embed_server, monkeypatch):
    _EmbedHandler.response_body = json.dumps({"vectors": [[1.0] + [0.0] * 7]}).encode()
    monkeypatch.setenv(REMOTE_ENDPOINT_ENV, _endpoint(embed_server))
    cfg = EmbedderConfig(dim=8, mode="remote", remote_endpoint="http://127.0.0.1:9/dead")
    vec = embed("hello", cfg)
    assert vec[0] == pytest.approx(1.0)


@pytest.mark.parametrize("field, env", [("", None), ("   ", None), (None, ""), (None, " \t"), ("\n", "  ")])
def test_a_blank_endpoint_counts_as_unset(monkeypatch, field, env):
    """A blank or whitespace-only remote_endpoint or $MLMEM_EMBED_ENDPOINT is no endpoint, so with no other one
    remote mode is refused at construction."""
    if env is None:
        monkeypatch.delenv(REMOTE_ENDPOINT_ENV, raising=False)
    else:
        monkeypatch.setenv(REMOTE_ENDPOINT_ENV, env)
    with pytest.raises(ValueError, match="remote mode needs a non-blank remote_endpoint"):
        EmbedderConfig(dim=8, mode="remote", remote_endpoint=field)


def test_a_blank_env_var_leaves_the_configured_endpoint(monkeypatch):
    monkeypatch.setenv(REMOTE_ENDPOINT_ENV, "  ")
    cfg = EmbedderConfig(dim=8, mode="remote", remote_endpoint="http://127.0.0.1:9/none")
    assert cfg.resolved_endpoint() == "http://127.0.0.1:9/none"


@pytest.mark.parametrize("where", ["field", "env"])
def test_an_endpoint_urllib_cannot_parse_raises_the_service_error(monkeypatch, where):
    """urllib refuses "not a url" before any connection; the error is the typed one and names the endpoint."""
    monkeypatch.delenv(REMOTE_ENDPOINT_ENV, raising=False)
    if where == "env":
        monkeypatch.setenv(REMOTE_ENDPOINT_ENV, "not a url")
    cfg = EmbedderConfig(dim=8, mode="remote", remote_endpoint="not a url" if where == "field" else None)
    with pytest.raises(EmbeddingServiceError, match="embedding request to not a url failed"):
        embed("hello", cfg)


def test_env_var_allows_remote_config_without_endpoint(monkeypatch):
    monkeypatch.setenv(REMOTE_ENDPOINT_ENV, "http://127.0.0.1:9/unused")
    cfg = EmbedderConfig(dim=8, mode="remote")
    assert cfg.resolved_endpoint() == "http://127.0.0.1:9/unused"
