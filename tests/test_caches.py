"""The test fixture ``cold_caches`` against the package's own caches."""

from conftest import clear_caches, package_caches
from gompkit import harness, rip


def test_cold_caches_empties_them():
    found = package_caches()
    assert {"gompkit.rip._layout", "gompkit.harness._seed_words",
            "gompkit.rip._small_support_tables", "gompkit.rip._large_support_tables"} <= found.keys()
    rip._cached_support_table(8, 2)
    rip._layout(2)
    harness._generators(range(4))
    assert all(cache.cache_info().currsize for cache in
               (rip._small_support_tables, rip._layout, harness._seed_words))
    clear_caches()
    assert [name for name, cache in found.items() if cache.cache_info().currsize] == []
