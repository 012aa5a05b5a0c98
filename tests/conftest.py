import pytest

from gompkit import rip


@pytest.fixture(autouse=True)
def cold_enumeration_caches():
    """Start every test with empty support-table and index caches, so no test
    passes only because an earlier one warmed them."""
    for cache in (rip._small_support_tables, rip._large_support_tables, rip._lower_pairs, rip._trace_weights):
        cache.cache_clear()
