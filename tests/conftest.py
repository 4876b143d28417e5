"""Fixtures shared by the test modules."""

import pytest


@pytest.fixture
def clean_symbol_cache():
    """Empty the kept symbol walk (``rscells.tableaux._symbols``) before and
    after a test that patches the bump it is computed by: before, so the test
    walks under its patch, and after, so no poisoned walk reaches a later
    test."""
    from rscells.tableaux import _symbols

    _symbols.cache_clear()
    yield
    _symbols.cache_clear()
