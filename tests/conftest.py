"""Each test starts from cold process-global caches, so none passes only because an earlier one warmed them."""

from __future__ import annotations

import sys

import pytest

import mlmem  # noqa: F401  (the package imports its modules, so each memo below is loaded before the first test)

# The package's memos today. The fixture finds every memo in the loaded modules, so one added later is cleared too.
_KNOWN_MEMOS = {"mlmem.embedding._embed_hash", "mlmem.embedding._signed_slot", "mlmem.retrieval._read_index"}


@pytest.fixture(autouse=True)
def cold_caches():
    cleared = set()
    for name, module in list(sys.modules.items()):
        if name.startswith("mlmem."):
            for attr, value in list(vars(module).items()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()
                    cleared.add(f"{name}.{attr}")
    assert _KNOWN_MEMOS <= cleared, f"memos not found: {sorted(_KNOWN_MEMOS - cleared)}"
