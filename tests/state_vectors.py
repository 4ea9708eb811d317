"""Test helpers for the vectors a state holds, which a deterministic snapshot does not write.

``state_bytes`` is what tests compare states by: the snapshot plus every held
vector's bytes. ``v1_document`` writes the snapshot format that carried every
vector, as its writer did, so the v1 reader stays tested.
"""

from __future__ import annotations

import json
from typing import Iterator

import numpy as np

from mlmem.engine import EngineConfig
from mlmem.memory import MemoryState, node_text
from mlmem.snapshot import dumps_state


def held_vectors(state: MemoryState) -> Iterator[tuple[str, np.ndarray]]:
    """(text, vector) of every working entry, log record and node, in snapshot order; the vector embeds the text."""
    yield from ((u.text, vector) for u, vector in state.working.entries)
    yield from ((record.text, record.embedding) for record in state.episodic.log)
    yield from ((node_text(n.entity_id, n.attributes), n.embedding) for n in state.semantic.nodes.values())


def state_bytes(state: MemoryState, cfg: EngineConfig) -> bytes:
    """The state's snapshot, then the bytes of the episodic state and of every held vector."""
    vectors = [state.episodic.state, *(vector for _, vector in held_vectors(state))]
    return dumps_state(state, cfg).encode() + b"".join(vector.tobytes() for vector in vectors)


def v1_document(state: MemoryState, cfg: EngineConfig) -> str:
    """The version 1 snapshot of the state: no "format_version", each working entry an [utterance, vector] pair,
    and every log record and node with its "embedding", each vector the one the state holds."""
    data = json.loads(dumps_state(state, cfg))
    del data["format_version"]
    raw = data["state"]
    raw["working"]["entries"] = [
        [{key: value for key, value in entry.items() if key != "embedding"}, vector.tolist()]
        for entry, (_, vector) in zip(raw["working"]["entries"], state.working.entries)
    ]
    for record, summary in zip(raw["episodic"]["log"], state.episodic.log):
        record["embedding"] = summary.embedding.tolist()
    for record, node in zip(raw["semantic"]["nodes"], state.semantic.nodes.values()):
        record["embedding"] = node.embedding.tolist()
    return json.dumps(data, sort_keys=True)
