"""Each test starts from cold process-global caches, so none passes only because an earlier one warmed them."""

from __future__ import annotations

import pytest

from mlmem import embedding, retrieval


@pytest.fixture(autouse=True)
def cold_caches():
    embedding._embed_hash.cache_clear()
    embedding._token_memo.cache_clear()
    retrieval._read_index.cache_clear()
