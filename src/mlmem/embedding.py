"""Text embeddings (seeded feature hashing or a remote service) and the rules every vector follows.

An embedding is a read-only (``frozen``) 1-d float64 array of length dim. The
deterministic mode hashes tokens into dim buckets with a seeded keyed hash and
a +/-1 sign, so equal (text, dim, seed) give bit-equal vectors in any process.
It is memoized on two levels. ``functools.lru_cache`` keeps the arrays of the
``EMBED_CACHE_ENTRIES`` most recently used (text, dim, seed) keys, so a text
repeated while it is cached is embedded once and every caller shares its
read-only array. Under it, a second ``functools.lru_cache`` keeps the signed
slot (the bucket for +1, bucket - dim for -1) of the ``TOKEN_MEMO_ENTRIES``
most recently used (token, dim, seed), so the keyed hash runs once per distinct
token, not once per token of every uncached text. Neither level can change a
bit: a slot is a pure function of (token, dim, seed), a bucket's count is a sum
of +/-1.0 that float64 holds exactly in any order, and ``unit`` then divides by
the norm. ``embed_all`` embeds many texts at once (a snapshot load does). More
texts than the text cache holds it embeds as a batch, with the same bits as
``embed``: it looks each distinct token's slot up once and counts
``EMBED_BLOCK_ROWS`` texts in one matrix, bypassing the text cache.
Remote mode is never cached, since the service may change
and its errors must surface on every call. It POSTs ``{"texts": [str]}`` to
the configured endpoint (the ``MLMEM_EMBED_ENDPOINT`` environment variable
overrides it; a blank one, in either place, counts as unset) and expects
``{"vectors": [[float]]}`` holding one vector; any other answer, an endpoint
urllib cannot parse, and any transport failure raise ``EmbeddingServiceError``.
``FIELD_KINDS`` is the one kind rule, the exact types a field of each
annotation holds (a bool is no int, a float is ``finite``); ``check_field_kinds``
applies it, with ValueError, in both configs' constructors and in every
``snapshot`` reader. ``RANGES`` is the one range rule, each knob's legal values;
``check_ranges`` applies it in ``EngineConfig`` and every function taking a knob.
Three rules hold for every vector, here only:

- ``vector_from_json`` reads each outside vector (remote responses and
  snapshots): dim finite JSON numbers, where a bool or a string is no number,
  and an ``embedded`` one unit (within ``UNIT_TOLERANCE``) or zero.
- ``unit`` is the one L2 normalization (the zero vector stays zero); ``stacked`` the one row stacking.
- ``nearest`` is the one scan, with one score: over rows that are unit or
  zero, as ``embed`` and ``embedded`` reads give, a row's score is its inner
  product with the unit query from one matrix-vector product, clamped and
  rounded to the ``SCORE_DECIMALS`` grid, so mathematically equal cosines
  score equal. It ranks best first, ties by the key each caller passes and
  then by row, so no caller re-ranks its result. A caller's floor only drops
  the rows scoring below it. A caller's rank, a coarse key, settles ties at
  the count-th best score before the key is called: of the tied rows, only
  those the rank cannot rule out are keyed, and the result is the same.
  ``reachable`` is the one bound ahead of a scan:
  one product says for many queries at once which may have a row scoring at
  least a floor, and its slack, dim * eps plus one grid step, covers the
  rounding of both products and of the grid, so it calls no query unreachable
  that a scan would give a row. ``cosine``
  answers every other similarity question, over any two vectors.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import re
from dataclasses import dataclass, fields
from itertools import chain
from operator import attrgetter, itemgetter
from typing import Any, Callable, Iterable, Sequence

import numpy as np

REMOTE_ENDPOINT_ENV = "MLMEM_EMBED_ENDPOINT"
REMOTE_TIMEOUT_SECONDS = 10.0

_TOKEN_RE = re.compile(r"[a-z0-9]+")

UNIT_TOLERANCE = 1e-12  # |L2 norm - 1| of a loaded embedded vector: ``unit`` rounds by ~1e-16

# ``nearest`` rounds each score to this grid, 1e-12 = UNIT_TOLERANCE. A row that ``unit`` made has its inner
# product with the unit query within ~1e-15 of its cosine at dim 256, and mathematically equal cosines split by
# an ulp or so of summation order and row norm; rounding puts them on one grid point, so the key decides between
# them. A split that straddles a rounding edge (a chance of ~1e-4 per equal pair) still orders them by score.
SCORE_DECIMALS = 12

EMBED_CACHE_ENTRIES = 256  # under the token memo, 64 slows chat_long steps ~5%; 1024 speeds no step, costs +1 MB RSS
TOKEN_MEMO_ENTRIES = 2**14  # (token, dim, seed) slots kept; graph_wide, the widest benchmark workload, has 6,314 tokens
# Texts ``embed_all`` counts in one matrix, 64 KB at dim 256. With blocks this small and one array per vector, as
# ``embed`` makes it, graph_wide peak RSS read +1.1% over per-text embedding (10 pairs); one matrix of every row,
# with row views as vectors, read +2.4% to +4.0% (9 pairs).
EMBED_BLOCK_ROWS = 32
# Rows from which ``reachable`` gathers the queries' columns before its product. timeit at dim 256, with queries of
# three tokens: over 16 rows the full product takes 3.4 us for one query against 7.0 us gathered; over 1,080 rows,
# 65 us against 21 us for one query, and 380 us against 255 us for 31.
GATHER_ROWS = 128


class EmbeddingServiceError(RuntimeError):
    """The remote embedding endpoint failed or returned a malformed response."""


def tokenize(text: str) -> list[str]:
    """Lowercase alphanumeric word split."""
    return _TOKEN_RE.findall(text.lower())


def frozen(vec: np.ndarray) -> np.ndarray:
    """The vector itself, made read-only so that no holder can change it in place."""
    vec.setflags(write=False)
    return vec


@dataclass(frozen=True)
class EmbedderConfig:
    """How text becomes vectors: dimension, mode, and the hashing seed."""

    dim: int = 256
    mode: str = "deterministic"
    remote_endpoint: str | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        check_field_kinds(self)
        if self.dim < 8:
            raise ValueError(f"dim must be >= 8, got {self.dim!r}")
        if self.mode not in ("deterministic", "remote"):
            raise ValueError(f"unknown embedder mode {self.mode!r}")
        if not -(2**63) <= self.seed < 2**63:
            raise ValueError(f"seed must be an int that fits in a signed 64-bit integer, got {self.seed!r}")
        if self.mode == "deterministic" and self.remote_endpoint is not None:
            raise ValueError("remote_endpoint is only valid in remote mode")
        if self.mode == "remote" and _given(os.environ.get(REMOTE_ENDPOINT_ENV), self.remote_endpoint) is None:
            raise ValueError(f"remote mode needs a non-blank remote_endpoint or ${REMOTE_ENDPOINT_ENV}")

    def resolved_endpoint(self) -> str:
        """The environment variable's endpoint, else the field's; a blank one counts as unset."""
        endpoint = _given(os.environ.get(REMOTE_ENDPOINT_ENV), self.remote_endpoint)
        if endpoint is None:
            raise EmbeddingServiceError("no remote endpoint configured")
        return endpoint


def _given(*endpoints: str | None) -> str | None:
    """The first endpoint that is set and not blank, else None."""
    return next((e for e in endpoints if e is not None and e.strip()), None)


# The exact types a field of each annotation holds, built in Python or read from JSON: a bool is no int.
FIELD_KINDS = {"int": (int,), "float": (int, float), "str": (str,), "bool": (bool,), "str | None": (str, type(None)),
               "tuple[str, ...]": (tuple,), "EmbedderConfig": (EmbedderConfig,)}


def finite(*values: Any) -> bool:
    """True when every value is a finite number; an int too large for a float is not finite."""
    try:
        return all(map(math.isfinite, values))
    except OverflowError:
        return False


def check_kinds(name: str, annotation: str, values: Iterable[Any]) -> None:
    """ValueError unless each value's exact type is one ``FIELD_KINDS[annotation]`` allows and, for "float", is finite."""
    values = tuple(values)
    odd = set(map(type, values)).difference(FIELD_KINDS[annotation])
    if odd:
        value = next(v for v in values if type(v) in odd)
        raise ValueError(f"{name} must be {annotation}, got {type(value).__name__} {value!r}")
    if annotation == "float" and not finite(*values):
        raise ValueError(f"{name} must be finite")


# Each knob's legal range by name: the rule as a refusal states it, and its test, which NaN fails.
RANGES: dict[str, tuple[str, Callable[[Any], bool]]] = {
    **dict.fromkeys(("k", "C_w", "C_e", "C_s", "top_j", "token_budget", "summary_m"), (">= 1", lambda v: v >= 1)),
    **dict.fromkeys(("alpha", "tau_s", "mix"), ("in [0, 1]", lambda v: 0 <= v <= 1)),
    **dict.fromkeys(("beta", "epsilon"), ("finite and > 0", lambda v: v > 0 and finite(v))),
    **dict.fromkeys(("lambda", "gen_loss", "ret_loss"), ("finite and >= 0", lambda v: v >= 0 and finite(v))),
}


def check_ranges(**values: Any) -> None:
    """ValueError naming the first value, in the order given, that breaks its ``RANGES`` rule."""
    for name, value in values.items():
        rule, holds = RANGES[name]
        if not holds(value):
            raise ValueError(f"{name} must be {rule}, got {value!r}")


def check_field_kinds(*records: Any) -> None:
    """check_kinds over each field ``FIELD_KINDS`` names, one column across records of one dataclass."""
    for f in fields(records[0]) if records else ():
        if f.type in FIELD_KINDS:
            check_kinds(f"{type(records[0]).__name__}.{f.name}", f.type, map(attrgetter(f.name), records))


def embed(text: str, cfg: EmbedderConfig) -> np.ndarray:
    """Map text to a unit vector (or the zero vector when no tokens survive).

    In deterministic mode equal (text, dim, seed) may return the very same
    read-only array an earlier call returned; remote mode asks the service on
    every call.
    """
    if cfg.mode == "remote":
        return _embed_remote(text, cfg)
    return _embed_hash(text, cfg.dim, cfg.seed)


def embed_all(texts: Sequence[str], cfg: EmbedderConfig) -> list[np.ndarray]:
    """``[embed(text, cfg) for text in texts]``, bit for bit, for a caller that needs many texts at once (a load).

    No more texts than the text cache holds go through ``embed``, since each may be a cache hit, far cheaper than
    any batch (all 50 texts of a chat_long load are). More cannot all be hits, and in deterministic mode they are
    embedded as a batch that neither reads nor fills the text cache: each distinct token's signed slot is looked up
    once, the slots of ``EMBED_BLOCK_ROWS`` texts at a time fill a count matrix, and each row is normalized as
    ``unit`` does it. A count is a sum of +/-1.0 and a squared norm a sum of squared integers, both exact in float64
    in any order, and the division is the same one. Each vector is a read-only copy of its row, so no vector keeps
    a block alive.
    """
    if cfg.mode == "remote" or len(texts) <= EMBED_CACHE_ENTRIES:
        return [embed(text, cfg) for text in texts]
    dim, seed = cfg.dim, cfg.seed
    tokens = [tokenize(text) for text in texts]
    slot = {token: _signed_slot(token, dim, seed) for token in dict.fromkeys(chain.from_iterable(tokens))}
    vectors: list[np.ndarray] = []
    for start in range(0, len(texts), EMBED_BLOCK_ROWS):
        block = tokens[start:start + EMBED_BLOCK_ROWS]
        flat = np.fromiter(map(slot.__getitem__, chain.from_iterable(block)), np.int64)
        cells = np.repeat(np.arange(len(block)) * dim, list(map(len, block))) + flat % dim
        counts = np.bincount(cells, np.where(flat >= 0, 1.0, -1.0), len(block) * dim).reshape(len(block), dim)
        counts = counts.astype(np.float64, copy=False)  # bincount counts in int64 when no text has a token
        norms = np.sqrt(np.einsum("ij,ij->i", counts, counts))
        counts /= np.where(norms > 0.0, norms, 1.0)[:, None]  # a zero row stays zero
        vectors += (frozen(row.copy()) for row in counts)
    return vectors


@functools.lru_cache(maxsize=TOKEN_MEMO_ENTRIES)
def _signed_slot(token: str, dim: int, seed: int) -> int:
    """The token's bucket when its hash signs it +1, else bucket - dim: ``vec[slot]`` is the bucket either way."""
    key = seed.to_bytes(8, "little", signed=True)
    digest = hashlib.blake2b(token.encode("utf-8"), key=key, digest_size=8).digest()
    h = int.from_bytes(digest, "little")
    return h % dim if h & (1 << 63) else h % dim - dim


@functools.lru_cache(maxsize=EMBED_CACHE_ENTRIES)
def _embed_hash(text: str, dim: int, seed: int) -> np.ndarray:
    vec = np.zeros(dim)
    for token in tokenize(text):
        slot = _signed_slot(token, dim, seed)
        vec[slot] += 1.0 if slot >= 0 else -1.0
    return unit(vec)


def _embed_remote(text: str, cfg: EmbedderConfig) -> np.ndarray:
    # imported here, as only remote mode sends requests: a deterministic CLI call skips http.client's import
    import http.client
    import urllib.error
    import urllib.request

    endpoint = cfg.resolved_endpoint()
    payload = json.dumps({"texts": [text]}).encode("utf-8")
    try:
        # built in here, as the Request refuses an endpoint it cannot parse with ValueError ("not a url", say)
        request = urllib.request.Request(
            endpoint, data=payload, headers={"Content-Type": "application/json"}, method="POST"
        )
        with urllib.request.urlopen(request, timeout=REMOTE_TIMEOUT_SECONDS) as response:
            body = response.read()
    except (ValueError, urllib.error.URLError, OSError, http.client.HTTPException) as exc:
        raise EmbeddingServiceError(f"embedding request to {endpoint} failed: {exc}") from exc
    try:
        (raw,) = json.loads(body.decode("utf-8"))["vectors"]
        return unit(vector_from_json(raw, cfg.dim))
    except (ValueError, KeyError, TypeError, OverflowError) as exc:
        raise EmbeddingServiceError(f"malformed embedding response from {endpoint}: {exc}") from exc


def vector_from_json(values: list[float], dim: int, *, embedded: bool = False) -> np.ndarray:
    """The read-only vector; TypeError unless values holds JSON numbers only, ValueError unless dim finite ones
    and, when embedded (``embed`` made it), unless its L2 norm is exactly 0 or within UNIT_TOLERANCE of 1."""
    odd = set(map(type, values)).difference(FIELD_KINDS["float"])
    if odd:
        raise TypeError(f"vector coordinate must be float, got {odd.pop().__name__}")
    vector = np.asarray(values, dtype=np.float64)
    if vector.shape != (dim,) or not np.isfinite(vector).all():
        raise ValueError(f"vector must hold {dim} finite coordinates, got shape {vector.shape}")
    norm = math.sqrt(float(vector.dot(vector))) if embedded else 0.0
    if norm != 0.0 and abs(norm - 1.0) > UNIT_TOLERANCE:
        raise ValueError(f"an embedded vector must have L2 norm 0 or 1, got {norm!r}")
    return frozen(vector)


def unit(vec: np.ndarray) -> np.ndarray:
    """vec scaled to L2 norm 1 as a read-only array; a zero vec is returned as it is, made read-only."""
    norm = math.sqrt(float(vec.dot(vec)))  # np.linalg.norm's own arithmetic for a 1-d float64 vec, without its wrapper
    return frozen(vec / norm if norm > 0.0 else vec)


def stacked(vectors: Sequence[np.ndarray]) -> np.ndarray:
    """The vectors as the rows of a new writable matrix: the bytes of ``np.stack``, at less cost for many rows."""
    return np.concatenate(vectors).reshape(len(vectors), -1)


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity in [-1, 1]; 0 when either vector is zero; ValueError when the shapes differ."""
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    na = math.sqrt(float(a.dot(a)))
    nb = math.sqrt(float(b.dot(b)))
    if na == 0.0 or nb == 0.0:
        return 0.0
    value = float(np.dot(a, b)) / (na * nb)
    return max(-1.0, min(1.0, value))


def nearest(
    matrix: np.ndarray,
    query: np.ndarray,
    count: int,
    key: Callable[[int], Any] = int,
    floor: float = -1.0,
    rank: Callable[[int], Any] | None = None,
) -> list[tuple[Any, float]]:
    """(key(row), score) for the count best rows scoring at least floor, best first; rows unit or zero, any query.

    A row's score is its inner product with the unit query, clamped to [-1, 1]
    and rounded to ``SCORE_DECIMALS`` (0 for a zero row or a zero query;
    ``fmin``/``fmax`` map NaN to 1.0 as Python's ``min``/``max`` do in
    ``cosine``), so cosines that are mathematically equal score equal. Equal
    scores go by ascending key, equal keys by row order. ValueError unless
    count >= 1. The default floor, -1, is below no score; a floor only filters,
    and every row is scored in full. A caller that scans often with a high floor
    bounds its queries first with ``reachable``.

    Without rank, key is called once per row scoring at least both floor and the
    count-th best (the cut), and for no other row. rank is a coarse key: a
    caller passes it only where rank(i) < rank(j) implies key(i) < key(j). When
    more rows reach the cut than count, the rows above it, a < count of them,
    are all kept, and of the rows tied at the cut only those whose rank is at
    most the m-th smallest tied rank, m = count - a, are keyed; rank is called
    once per tied row, key once per kept row. The result is the same: a tied row
    of larger rank has at least m tied rows whose keys are strictly smaller, so
    with the a rows above the cut at least count rows sort before it, and
    dropping rows that sort after the count-th moves no other row.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count!r}")
    rows = len(matrix)
    norm = math.sqrt(float(query.dot(query)))
    raw = np.fmax(-1.0, np.fmin(1.0, matrix @ (query / norm))) if norm > 0.0 else np.zeros(rows)
    scores = np.round(raw, SCORE_DECIMALS)
    cut = float(np.partition(scores, rows - count)[rows - count]) if count < rows else -1.0  # no score is below -1
    kept = np.flatnonzero(scores >= max(cut, floor))
    pairs = zip(kept.tolist(), scores[kept].tolist())
    if rank is not None and len(kept) > count:  # so the cut is at least floor, and more than m rows tie at it
        pairs = list(pairs)
        ranks = {i: rank(i) for i, score in pairs if score == cut}
        boundary = sorted(ranks.values())[count - (len(pairs) - len(ranks)) - 1]
        pairs = [(i, score) for i, score in pairs if score > cut or ranks[i] <= boundary]
    hits = [(key(i), score) for i, score in pairs]
    hits.sort(key=itemgetter(0))
    hits.sort(key=itemgetter(1), reverse=True)  # stable, so equal scores stay in key order, then row order
    return hits[:count]


def reachable(matrix: np.ndarray, queries: np.ndarray, floor: float) -> list[bool]:
    """For each query (a row of queries), whether a row of matrix may score at least floor in ``nearest``.

    Rows and queries are unit or zero, as ``embed`` makes them. False is a proof: ``nearest(matrix, query, count,
    floor=floor)`` returns [] for that query. One product bounds every (row, query) pair, over the union of the
    queries' nonzero columns once the matrix has ``GATHER_ROWS`` rows, else over all columns. The bound is exact.
    A pair's product here and the full one in ``nearest`` sum the same nonzero terms r[j] * q[j] of a row r and the
    query q (a column outside q's own adds an exact 0), in whatever order BLAS takes. Each sum is within
    gamma(dim) * |r| * |q| of the exact inner product (Higham, Accuracy and Stability of Numerical Algorithms, 3.1),
    where gamma(dim) = u * dim / (1 - u * dim), u = eps / 2, and |r| * |q| is 1 within UNIT_TOLERANCE and q's
    rounding, so the two differ by at most dim * eps to first order. Rounding to the grid moves a score by at most
    half a step, 10**-SCORE_DECIMALS / 2, and the clamp lowers no score above -1. The other half step covers the
    second-order terms, an ulp of np.round's own error, and ``nearest``'s division of q by its computed norm, which
    is 1 within dim * eps / 2, so that it moves the product by about dim * eps / 4 at most. So a row whose grid
    score is at least floor has a product here of at least floor - (dim * eps + 10**-SCORE_DECIMALS), and a query
    that no row brings to that bound gets no row from the scan. A zero query's product is 0 with every row, as its
    scores are. An empty matrix reaches nothing.
    """
    rows, dim = matrix.shape
    if not rows:
        return [False] * len(queries)
    if rows < GATHER_ROWS:
        products = queries @ matrix.T
    else:
        cols = np.flatnonzero(queries.any(axis=0))
        products = queries[:, cols] @ matrix.take(cols, axis=1).T
    return (products.max(axis=1) >= floor - (dim * math.ulp(1.0) + 10.0**-SCORE_DECIMALS)).tolist()
