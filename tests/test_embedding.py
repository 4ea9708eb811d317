"""Text embedding determinism, normalization, cosine math, and the remote protocol."""

from __future__ import annotations

import json
import math
import subprocess
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlmem import embedding
from mlmem.embedding import (
    EMBED_CACHE_ENTRIES,
    EmbedderConfig,
    EmbeddingServiceError,
    REMOTE_ENDPOINT_ENV,
    UNIT_TOLERANCE,
    cosine,
    embed,
    nearest,
    shortlist,
    tokenize,
    unit,
)


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


def test_embed_returns_a_read_only_array_even_when_cached():
    cfg = EmbedderConfig(dim=8)
    first = embed("alice likes jazz", cfg)
    again = embed("alice likes jazz", cfg)
    assert again is first
    assert not again.flags.writeable
    with pytest.raises(ValueError):
        again[0] = 1.0


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
def _shortlist_cases(draw):
    """Rows as ``shortlist`` takes them, unit or zero, some off unit by UNIT_TOLERANCE; any query."""
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
    return matrix, query, count, draw(st.permutations(range(len(picks))))


# On a failure, hypothesis's pytest plugin imports libcst to write a patch, and
# libcst's import warns through mypy_extensions; under filterwarnings=error that
# warning would turn the reported failure into an INTERNALERROR.
@pytest.mark.filterwarnings("ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")
@settings(deadline=None, database=None)
@given(_shortlist_cases())
def test_shortlist_keeps_every_row_reaching_the_exact_top_count(case):
    matrix, query, count, permutation = case
    exact = [cosine(row, query) for row in matrix]
    picked = shortlist(matrix, query, count).tolist()
    assert picked == sorted(set(picked))
    assert all(0 <= i < len(matrix) for i in picked)

    def reference(key):
        """One stable sort of every row by (-cosine, key), cut at count."""
        return sorted(((key(i), exact[i]) for i in range(len(matrix))), key=lambda hit: (-hit[1], hit[0]))[:count]

    assert nearest(matrix, query, count) == reference(int)
    keyed: list[int] = []
    permuted = nearest(matrix, query, count, lambda i: keyed.append(i) or permutation[i])
    assert permuted == reference(permutation.__getitem__)
    assert keyed == picked  # key is called once per shortlisted row
    if count >= len(matrix):
        assert picked == list(range(len(matrix)))
        return
    cut = sorted(exact, reverse=True)[count - 1]
    assert {i for i, score in enumerate(exact) if score >= cut} <= set(picked)


def test_shortlist_without_ties_keeps_only_the_best_row():
    cfg = EmbedderConfig(dim=256)
    matrix = np.stack([embed(f"alpha{i} beta{i} gamma{i % 3}", cfg) for i in range(50)])
    assert shortlist(matrix, embed("alpha7 beta7 gamma1", cfg), 1).tolist() == [7]


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


def test_env_var_allows_remote_config_without_endpoint(monkeypatch):
    monkeypatch.setenv(REMOTE_ENDPOINT_ENV, "http://127.0.0.1:9/unused")
    cfg = EmbedderConfig(dim=8, mode="remote")
    assert cfg.resolved_endpoint() == "http://127.0.0.1:9/unused"
