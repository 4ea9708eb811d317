"""Text embeddings (seeded feature hashing or a remote service) and the rules every vector follows.

An embedding is a read-only (``frozen``) 1-d float64 array of length dim. The
deterministic mode hashes tokens into dim buckets with a seeded keyed hash and
a +/-1 sign, so equal (text, dim, seed) give bit-equal vectors in any process.
It is memoized: ``functools.lru_cache`` keeps the arrays of the
``EMBED_CACHE_ENTRIES`` most recently used (text, dim, seed) keys, so a text
repeated while it is cached is hashed once and every caller shares its
read-only array. Remote mode is never cached, since the service may change
and its errors must surface on every call. It POSTs ``{"texts": [str]}`` to
the configured endpoint (the ``MLMEM_EMBED_ENDPOINT`` environment variable
overrides it) and expects ``{"vectors": [[float]]}`` holding one vector; any
other answer, and any transport failure, raises ``EmbeddingServiceError``.
``FIELD_KINDS`` is the one kind rule, the exact types a field of each
annotation holds (a bool is no int, a float is ``finite``); ``check_field_kinds``
applies it, with ValueError, in both configs' constructors and in every
``snapshot`` reader. Three rules hold for every vector, here only:

- ``vector_from_json`` reads each outside vector (remote responses and
  snapshots): dim finite JSON numbers, where a bool or a string is no number,
  and an ``embedded`` one unit (within ``UNIT_TOLERANCE``) or zero.
- ``unit`` is the one L2 normalization (the zero vector stays zero); ``stacked`` the one row stacking.
- ``cosine`` decides every similarity question, and ``nearest`` is the one
  scan over rows that are unit or zero, as ``embed`` and ``embedded`` reads give:
  ``shortlist``'s one matrix-vector product with the unit query keeps every
  row within ``SHORTLIST_SLACK`` of the cut and only those are scored, so a
  scan decides exactly as scoring every row would. It also ranks, best first
  with ties by the key each caller passes, so no caller re-ranks its result.
"""

from __future__ import annotations

import functools
import hashlib
import http.client
import json
import math
import os
import re
import urllib.error
import urllib.request
from dataclasses import dataclass, fields
from operator import attrgetter, itemgetter
from typing import Any, Callable, Iterable, Sequence

import numpy as np

REMOTE_ENDPOINT_ENV = "MLMEM_EMBED_ENDPOINT"
REMOTE_TIMEOUT_SECONDS = 10.0

_TOKEN_RE = re.compile(r"[a-z0-9]+")

# How far below the count-th best approximate cosine ``shortlist`` still keeps
# a row. A unit-or-zero row's inner product with the unit query is its cosine
# to within UNIT_TOLERANCE (1e-12) plus ~1e-14 of rounding at dim 256; a slack
# of at least twice that keeps every row whose exact cosine reaches the exact
# count-th best, ties included. The margin only costs a few extra ``cosine`` calls.
SHORTLIST_SLACK = 1e-9

UNIT_TOLERANCE = 1e-12  # |L2 norm - 1| of a loaded embedded vector: ``unit`` rounds by ~1e-16; far below SHORTLIST_SLACK

EMBED_CACHE_ENTRIES = 256  # chat_long step time stops falling past 128-256; 4096 cost +9 MB peak RSS


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
        if self.mode == "remote" and self.remote_endpoint is None and not os.environ.get(REMOTE_ENDPOINT_ENV):
            raise ValueError(f"remote mode needs remote_endpoint or ${REMOTE_ENDPOINT_ENV}")

    def resolved_endpoint(self) -> str:
        env = os.environ.get(REMOTE_ENDPOINT_ENV)
        if env:
            return env
        if self.remote_endpoint is None:
            raise EmbeddingServiceError("no remote endpoint configured")
        return self.remote_endpoint


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


def _seed_key(seed: int) -> bytes:
    return seed.to_bytes(8, "little", signed=True)


@functools.lru_cache(maxsize=EMBED_CACHE_ENTRIES)
def _embed_hash(text: str, dim: int, seed: int) -> np.ndarray:
    vec = np.zeros(dim)
    key = _seed_key(seed)
    for token in tokenize(text):
        digest = hashlib.blake2b(token.encode("utf-8"), key=key, digest_size=8).digest()
        h = int.from_bytes(digest, "little")
        sign = 1.0 if h & (1 << 63) else -1.0
        vec[h % dim] += sign
    return unit(vec)


def _embed_remote(text: str, cfg: EmbedderConfig) -> np.ndarray:
    endpoint = cfg.resolved_endpoint()
    payload = json.dumps({"texts": [text]}).encode("utf-8")
    request = urllib.request.Request(
        endpoint, data=payload, headers={"Content-Type": "application/json"}, method="POST"
    )
    try:
        with urllib.request.urlopen(request, timeout=REMOTE_TIMEOUT_SECONDS) as response:
            body = response.read()
    except (urllib.error.URLError, OSError, http.client.HTTPException) as exc:
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
    norm = float(np.linalg.norm(vec))
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


def shortlist(matrix: np.ndarray, query: np.ndarray, count: int) -> np.ndarray:
    """Row indices, ascending, that hold every row whose cosine to query ranks in the top count.

    Each row must be unit (L2 norm within ``UNIT_TOLERANCE`` of 1) or zero,
    else the best row may be dropped; the query may be any vector. One matvec
    with the unit query gives each row's approximate cosine, 0 for a zero row
    or a zero query and clamped to [-1, 1] as in ``cosine`` (``fmin``/``fmax``
    map NaN to 1.0 as Python's ``min``/``max`` do there). Every row within
    ``SHORTLIST_SLACK`` of the count-th best is kept, so rows tied with the
    count-th best exact cosine are kept too; ``nearest`` scores the kept rows
    by ``cosine``. With count >= the row count, every row is kept.
    """
    rows = matrix.shape[0]
    if count >= rows:
        return np.arange(rows)
    norm = math.sqrt(float(query.dot(query)))
    approx = np.fmax(-1.0, np.fmin(1.0, matrix @ (query / norm))) if norm > 0.0 else np.zeros(rows)
    cut = np.partition(approx, rows - count)[rows - count]
    return np.flatnonzero(approx >= cut - SHORTLIST_SLACK)


def nearest(
    matrix: np.ndarray, query: np.ndarray, count: int, key: Callable[[int], Any] = int
) -> list[tuple[Any, float]]:
    """(key(row), cosine(matrix[row], query)) for the count best rows, best first; rows unit or zero, any query.

    Equal cosines go by ascending key, equal keys by row order; key is called once per row ``shortlist`` keeps."""
    hits = [(key(i), cosine(matrix[i], query)) for i in shortlist(matrix, query, count).tolist()]
    hits.sort(key=itemgetter(0))
    hits.sort(key=itemgetter(1), reverse=True)  # stable, so equal cosines stay in key order
    return hits[:count]
