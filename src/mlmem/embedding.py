"""Deterministic text embeddings via feature hashing, plus a remote HTTP client.

All similarity math in the engine consumes the unit vectors produced here.
The deterministic mode needs no model weights: tokens are hashed into d
buckets with a seeded keyed hash and a +/-1 sign, then L2-normalized, so two
processes with the same (text, dim, seed) produce bit-equal vectors.

Remote mode POSTs ``{"texts": [str]}`` and expects ``{"vectors": [[float]]}``;
vectors are L2-normalized on receipt. The ``MLMEM_EMBED_ENDPOINT`` environment
variable overrides the configured endpoint.

``cosine`` decides every similarity question: a match against ``tau_s``, a
top-j ranking, a tie-break. A scan over many vectors first narrows them with
``shortlist``, one matrix-vector product whose approximate cosines keep every
row within ``SHORTLIST_SLACK`` of the cut, and then scores only the kept rows
with ``cosine``, so it decides exactly as scoring every row would.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import urllib.error
import urllib.request
from dataclasses import dataclass

import numpy as np

REMOTE_ENDPOINT_ENV = "MLMEM_EMBED_ENDPOINT"
REMOTE_TIMEOUT_SECONDS = 10.0

_TOKEN_RE = re.compile(r"[a-z0-9]+")

# How far below the count-th best approximate cosine ``shortlist`` still keeps
# a row. The matvec and ``cosine`` round differently, by ~1e-14 on unit
# vectors of dim 256; a slack of at least twice the largest such difference
# keeps every row whose exact cosine reaches the exact count-th best, ties
# included. The margin past that only costs a few extra ``cosine`` calls.
SHORTLIST_SLACK = 1e-9


class EmbeddingServiceError(RuntimeError):
    """The remote embedding endpoint failed or returned a malformed response."""


def tokenize(text: str) -> list[str]:
    """Lowercase alphanumeric word split."""
    return _TOKEN_RE.findall(text.lower())


@dataclass(frozen=True, eq=False)
class Embedding:
    """Fixed-dimension real vector; unit norm for non-degenerate text, else zero."""

    values: np.ndarray
    dim: int

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError("embedding values must be a 1-d vector")
        if arr.shape[0] != self.dim:
            raise ValueError(f"embedding has {arr.shape[0]} values, declared dim {self.dim}")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @classmethod
    def zeros(cls, dim: int) -> "Embedding":
        return cls(np.zeros(dim), dim)

    def is_zero(self) -> bool:
        return not np.any(self.values)

    def norm(self) -> float:
        return float(np.linalg.norm(self.values))


@dataclass(frozen=True)
class EmbedderConfig:
    """How text becomes vectors: dimension, mode, and the hashing seed."""

    dim: int = 256
    mode: str = "deterministic"
    remote_endpoint: str | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.dim < 8:
            raise ValueError(f"dim must be >= 8, got {self.dim}")
        if self.mode not in ("deterministic", "remote"):
            raise ValueError(f"unknown embedder mode {self.mode!r}")
        if not -(2**63) <= self.seed < 2**63:
            raise ValueError("seed must fit in a signed 64-bit integer")
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


def embed(text: str, cfg: EmbedderConfig) -> Embedding:
    """Map text to a unit vector (or the zero vector when no tokens survive)."""
    if cfg.mode == "remote":
        return _embed_remote(text, cfg)
    return _embed_hash(text, cfg)


def _seed_key(seed: int) -> bytes:
    return seed.to_bytes(8, "little", signed=True)


def _embed_hash(text: str, cfg: EmbedderConfig) -> Embedding:
    vec = np.zeros(cfg.dim)
    key = _seed_key(cfg.seed)
    for token in tokenize(text):
        digest = hashlib.blake2b(token.encode("utf-8"), key=key, digest_size=8).digest()
        h = int.from_bytes(digest, "little")
        sign = 1.0 if h & (1 << 63) else -1.0
        vec[h % cfg.dim] += sign
    norm = float(np.linalg.norm(vec))
    if norm > 0.0:
        vec /= norm
    return Embedding(vec, cfg.dim)


def _embed_remote(text: str, cfg: EmbedderConfig) -> Embedding:
    endpoint = cfg.resolved_endpoint()
    payload = json.dumps({"texts": [text]}).encode("utf-8")
    request = urllib.request.Request(
        endpoint, data=payload, headers={"Content-Type": "application/json"}, method="POST"
    )
    try:
        with urllib.request.urlopen(request, timeout=REMOTE_TIMEOUT_SECONDS) as response:
            body = response.read()
    except (urllib.error.URLError, OSError) as exc:
        raise EmbeddingServiceError(f"embedding request to {endpoint} failed: {exc}") from exc
    try:
        parsed = json.loads(body.decode("utf-8"))
        vectors = parsed["vectors"]
        raw = vectors[0]
        vec = np.asarray(raw, dtype=np.float64)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        raise EmbeddingServiceError(f"malformed embedding response from {endpoint}") from exc
    if vec.ndim != 1 or vec.shape[0] != cfg.dim:
        raise EmbeddingServiceError(
            f"embedding response has shape {vec.shape}, expected ({cfg.dim},)"
        )
    norm = float(np.linalg.norm(vec))
    if norm > 0.0:
        vec = vec / norm
    return Embedding(vec, cfg.dim)


def cosine(a: Embedding, b: Embedding) -> float:
    """Cosine similarity in [-1, 1]; 0 when either vector is zero."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    na = math.sqrt(float(a.values.dot(a.values)))
    nb = math.sqrt(float(b.values.dot(b.values)))
    if na == 0.0 or nb == 0.0:
        return 0.0
    value = float(np.dot(a.values, b.values)) / (na * nb)
    return max(-1.0, min(1.0, value))


def shortlist(matrix: np.ndarray, query: np.ndarray, count: int) -> np.ndarray:
    """Row indices, ascending, that hold every row whose cosine to query ranks in the top count.

    One matvec gives each row's approximate cosine, 0 for a zero row or a zero
    query and clamped to [-1, 1] as in ``cosine`` (``fmin``/``fmax`` map NaN to
    1.0 as Python's ``min``/``max`` do there). Every row within
    ``SHORTLIST_SLACK`` of the count-th best is kept, so rows tied with the
    count-th best exact cosine are kept too; the caller ranks the kept rows by
    ``cosine``. With count >= the row count, every row is kept.
    """
    rows = matrix.shape[0]
    if count >= rows:
        return np.arange(rows)
    norms = np.sqrt(np.einsum("ij,ij->i", matrix, matrix)) * math.sqrt(float(query.dot(query)))
    approx = np.divide(matrix @ query, norms, out=np.zeros(rows), where=norms != 0.0)
    approx = np.fmax(-1.0, np.fmin(1.0, approx))
    cut = np.partition(approx, rows - count)[rows - count]
    return np.flatnonzero(approx >= cut - SHORTLIST_SLACK)
