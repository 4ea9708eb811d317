"""Retention drift between semantic graphs, the combined objective, and a grid tuner.

Drift is the summed squared displacement of entity embeddings shared by two
consecutive graphs, read from their nodes directly; births and deaths
contribute zero. The tuner evaluates each (alpha, beta) pair once through a
caller-supplied handle, scores every lambda from that result, and returns the
argmin of gen_loss + lambda * ret_loss.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .embedding import finite
from .memory import SemanticGraph


class TuneError(RuntimeError):
    """A grid point's engine evaluation failed; the triple is in the message."""


@dataclass(frozen=True)
class DriftReport:
    per_entity: dict[str, float]
    total: float
    born: frozenset[str]
    died: frozenset[str]


@dataclass(frozen=True)
class ObjectiveValue:
    gen_loss: float
    ret_loss: float
    total: float


@dataclass(frozen=True)
class GridPoint:
    alpha: float
    beta: float
    lambda_: float
    objective: ObjectiveValue


@dataclass(frozen=True)
class TuneResult:
    best: tuple[float, float, float]
    objective: ObjectiveValue
    grid: tuple[GridPoint, ...]


def drift(prev: SemanticGraph, curr: SemanticGraph) -> DriftReport:
    """Squared embedding displacement per shared entity; born/died tracked separately."""
    per_entity: dict[str, float] = {}
    for entity_id, node in prev.nodes.items():
        after = curr.nodes.get(entity_id)
        if after is None:
            continue
        a, b = node.embedding, after.embedding
        if a is b:  # a node the merge left alone keeps its (read-only) array
            per_entity[entity_id] = 0.0
            continue
        if a.shape != b.shape:
            raise ValueError(f"embedding shape mismatch for {entity_id!r}: {a.shape} vs {b.shape}")
        delta = a - b
        per_entity[entity_id] = float(delta @ delta)
    born = frozenset(curr.nodes.keys() - prev.nodes.keys())
    died = frozenset(prev.nodes.keys() - curr.nodes.keys())
    return DriftReport(per_entity, float(sum(per_entity.values())), born, died)


def cumulative_retention_loss(trajectory: Sequence[SemanticGraph]) -> float:
    """Sum of drift totals over consecutive graph pairs; a single graph costs 0."""
    if len(trajectory) < 1:
        raise ValueError("trajectory must contain at least one graph")
    return float(sum(drift(a, b).total for a, b in zip(trajectory, trajectory[1:])))


def objective(gen_loss: float, ret_loss: float, lambda_: float) -> ObjectiveValue:
    """gen_loss + lambda * ret_loss with all inputs finite and non-negative."""
    for name, value in (("gen_loss", gen_loss), ("ret_loss", ret_loss), ("lambda", lambda_)):
        if not (value >= 0.0 and finite(value)):
            raise ValueError(f"{name} must be finite and non-negative, got {value}")
    return ObjectiveValue(gen_loss, ret_loss, gen_loss + lambda_ * ret_loss)


def tune(
    evaluate: Callable[[float, float], tuple[float, float]],
    alphas: Sequence[float],
    betas: Sequence[float],
    lambdas: Sequence[float],
) -> TuneResult:
    """Exhaustive sweep over the (alpha, beta, lambda) grid.

    ``evaluate`` runs the full engine once per (alpha, beta) and returns (gen_loss,
    ret_loss), which every lambda reuses; a failure names the pair's first triple.
    The winner is the minimal objective total; exact ties go to the
    lexicographically smallest triple. The grid is preserved in evaluation order
    (alphas outermost, lambdas innermost).
    """
    if 0 in map(len, (alphas, betas, lambdas)):  # len, since a numpy array has no one truth value
        raise ValueError("all grid axes must be non-empty")
    for alpha in alphas:
        if not 0.0 <= alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    for beta in betas:
        if not (beta > 0.0 and finite(beta)):
            raise ValueError(f"beta must be finite and > 0, got {beta}")
    for lambda_ in lambdas:
        if not (lambda_ >= 0.0 and finite(lambda_)):
            raise ValueError(f"lambda must be finite and >= 0, got {lambda_}")

    grid: list[GridPoint] = []
    for alpha, beta in itertools.product(alphas, betas):
        try:
            gen_loss, ret_loss = evaluate(alpha, beta)
        except Exception as exc:
            raise TuneError(f"engine failed for (alpha={alpha}, beta={beta}, lambda={lambdas[0]}): {exc}") from exc
        grid.extend(GridPoint(alpha, beta, lambda_, objective(gen_loss, ret_loss, lambda_)) for lambda_ in lambdas)

    best = min(grid, key=lambda p: (p.objective.total, (p.alpha, p.beta, p.lambda_)))
    return TuneResult((best.alpha, best.beta, best.lambda_), best.objective, tuple(grid))


def grid_csv(result: TuneResult) -> str:
    """CSV of the sweep: alpha,beta,lambda,gen_loss,ret_loss,total with header; a numpy scalar as its Python number."""
    lines = ["alpha,beta,lambda,gen_loss,ret_loss,total"]
    for point in result.grid:
        obj = point.objective
        values = (point.alpha, point.beta, point.lambda_, obj.gen_loss, obj.ret_loss, obj.total)
        lines.append(",".join(repr(v.item() if isinstance(v, np.generic) else v) for v in values))
    return "\n".join(lines) + "\n"
