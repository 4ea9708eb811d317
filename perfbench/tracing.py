"""Span tracing from outside the engine: wrap each layer's public functions.

Every module of the package that holds a reference to a wrapped function gets
the wrapper, so calls between modules (``engine.step`` calling
``memory.merge_semantic``, ``memory`` calling ``embedding.embed``) are seen
too. Spans stay in memory and are written out once, after the run.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable

from stats import self_times

# Layer module -> public functions wrapped in spans.
LAYERS = {
    "embedding": ("embed", "cosine"),
    "memory": ("update_working", "summarize", "update_episodic", "extract_facts", "merge_semantic"),
    "retrieval": ("gate", "layer_representation", "retrieve", "fuse", "make_query"),
    "retention": ("drift",),
    "engine": ("step",),
    "snapshot": ("dumps_state", "loads_state"),
}

# Called millions of times on graph_wide: counted, never given a span.
COUNT_ONLY = {"embedding.cosine"}


class TraceError(RuntimeError):
    """A public name to wrap is missing, or a layer that should run recorded no calls."""


@dataclass(slots=True)
class Span:
    name: str
    start: int
    end: int
    parent: int
    op: int
    cosines: int               # cosine calls inside the span, children included
    embeds: int                # embed calls inside the span, children included
    counts: dict[str, int] | None


def _canonical(text: str) -> str:
    return text.lower().strip()


def _observe_merge(bound: inspect.BoundArguments, result: Any) -> dict[str, int]:
    before = bound.arguments["graph"].nodes
    subjects = {_canonical(t.subject) for t in bound.arguments["facts"]}
    return {
        "triples": len(bound.arguments["facts"]),
        "unseen_subjects": len({s for s in subjects if s and s not in before}),
        "evicted": sum(1 for node_id in before if node_id not in result.nodes),
    }


def _observe_extract(bound: inspect.BoundArguments, result: Any) -> dict[str, int]:
    return {"triples": len(result)}


def _observe_retrieve(bound: inspect.BoundArguments, result: Any) -> dict[str, int]:
    state = bound.arguments["state"]
    top_j = bound.arguments["top_j"]
    sizes = (len(state.working.entries), len(state.episodic.log), len(state.semantic.nodes))
    return {
        "candidates": sum(min(top_j, size) for size in sizes),
        "admitted": len(result.all_items()),
        "tokens_spent": result.token_cost,
    }


def _observe_drift(bound: inspect.BoundArguments, result: Any) -> dict[str, int]:
    return {"entities_compared": len(result.per_entity)}


def _observe_dumps(bound: inspect.BoundArguments, result: Any) -> dict[str, int]:
    return {"bytes": len(result.encode("utf-8"))}


# Counts summed over a pass beside each layer's calls and self time.
COUNTS = (
    "memory.merge_semantic.triples",
    "memory.merge_semantic.unseen_subjects",
    "memory.merge_semantic.evicted",
    "memory.merge_semantic.embed_calls",
    "memory.merge_semantic.cosine_calls",
    "memory.extract_facts.triples",
    "retrieval.retrieve.candidates",
    "retrieval.retrieve.admitted",
    "retrieval.retrieve.tokens_spent",
    "retrieval.retrieve.cosine_calls",
    "retention.drift.entities_compared",
    "snapshot.dumps_state.bytes",
)

# Per-call counts, read from the arguments and result after the span closes.
OBSERVERS: dict[str, Callable[[inspect.BoundArguments, Any], dict[str, int]]] = {
    "memory.merge_semantic": _observe_merge,
    "memory.extract_facts": _observe_extract,
    "retrieval.retrieve": _observe_retrieve,
    "retention.drift": _observe_drift,
    "snapshot.dumps_state": _observe_dumps,
}


class Tracer:
    """Records spans while installed; ``op`` tags them with the benchmark operation."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []   # None only while the span is open
        self.stack: list[int] = []
        self.texts: set[str] = set()
        self.cosines = 0
        self.embeds = 0
        self.op = -1
        self._restore: list[tuple[Any, str, Any]] = []

    def install(self) -> None:
        """Wrap every layer function at every site in the package that imports it."""
        modules = [m for n, m in sorted(sys.modules.items()) if n == "mlmem" or n.startswith("mlmem.")]
        for layer, names in LAYERS.items():
            module = sys.modules.get(f"mlmem.{layer}")
            if module is None:
                raise TraceError(f"module mlmem.{layer} is not imported")
            for name in names:
                original = getattr(module, name, None)
                if not callable(original):
                    raise TraceError(f"mlmem.{layer}.{name} is missing")
                qualname = f"{layer}.{name}"
                wrapper = self._counter(original) if qualname in COUNT_ONLY else self._span(qualname, original)
                for site in modules:
                    for attr, value in list(vars(site).items()):
                        if value is original:
                            self._restore.append((site, attr, original))
                            setattr(site, attr, wrapper)

    def uninstall(self) -> None:
        for site, attr, original in reversed(self._restore):
            setattr(site, attr, original)
        self._restore.clear()

    def reset(self) -> None:
        self.spans.clear()
        self.texts.clear()
        self.cosines = 0
        self.embeds = 0

    def _counter(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        def counted(*args: Any, **kwargs: Any) -> Any:
            self.cosines += 1
            return fn(*args, **kwargs)

        return counted

    def _span(self, qualname: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        observe = OBSERVERS.get(qualname)
        signature = inspect.signature(fn)
        is_embed = qualname == "embedding.embed"
        clock = time.perf_counter_ns

        def traced(*args: Any, **kwargs: Any) -> Any:
            if is_embed:
                self.embeds += 1
                self.texts.add(args[0] if args else kwargs["text"])
            parent = self.stack[-1] if self.stack else -1
            index = len(self.spans)
            self.spans.append(None)
            self.stack.append(index)
            cosines, embeds = self.cosines, self.embeds
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self.stack.pop()
                span = Span(qualname, start, end, parent, self.op, self.cosines - cosines, self.embeds - embeds, None)
                self.spans[index] = span
            if observe is not None:
                span.counts = observe(signature.bind(*args, **kwargs), result)
            return result

        return traced

    def aggregate(self, scale: Callable[[int], float] | None = None) -> dict[str, float]:
        """Per-layer totals over the recorded spans, in the benchmark's metric names.

        ``scale(start)`` converts a span's self time to reference speed.
        """
        spans = self.spans
        selfs = self_times([(s.start, s.end, s.parent) for s in spans])
        if scale is not None:
            selfs = [own * scale(span.start) for span, own in zip(spans, selfs)]
        calls: dict[str, int] = defaultdict(int)
        self_ns: dict[str, int] = defaultdict(int)
        counts = dict.fromkeys(COUNTS, 0)
        for span, own in zip(spans, selfs):
            calls[span.name] += 1
            self_ns[span.name] += own
            for key, value in (span.counts or {}).items():
                counts[f"{span.name}.{key}"] += value
            if span.name in ("memory.merge_semantic", "retrieval.retrieve"):
                counts[f"{span.name}.cosine_calls"] += span.cosines
            if span.name == "memory.merge_semantic":
                counts[f"{span.name}.embed_calls"] += span.embeds
        out: dict[str, float] = {}
        for layer, names in LAYERS.items():
            for name in names:
                qualname = f"{layer}.{name}"
                if qualname in COUNT_ONLY:
                    out[f"{qualname}.calls"] = self.cosines
                    continue
                out[f"{qualname}.calls"] = calls[qualname]
                out[f"{qualname}.self_ms"] = self_ns[qualname] / 1e6
        out.update(counts)
        out["embedding.embed.distinct"] = len(self.texts)
        out["embedding.embed.repeat_ratio"] = calls["embedding.embed"] / max(1, len(self.texts))
        candidates = counts["retrieval.retrieve.candidates"]
        out["retrieval.retrieve.admit_ratio"] = counts["retrieval.retrieve.admitted"] / max(1, candidates)
        return out

    def write(self, path: str) -> None:
        """One JSON line per span: name, start and end in ns, parent span index, operation id."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(
                    json.dumps(
                        {"name": span.name, "start": span.start, "end": span.end, "parent": span.parent, "op": span.op}
                    )
                    + "\n"
                )
