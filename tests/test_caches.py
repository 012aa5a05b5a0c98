"""The test fixture ``cold_caches`` against the package's own caches."""

import functools
import importlib
import pkgutil

import gompkit
from conftest import CACHES, clear_caches
from gompkit import harness, rip


def package_caches() -> dict:
    """Each ``functools.lru_cache`` defined at the top level of a gompkit
    module, by qualified name (``__main__`` would run the CLI)."""
    found = {}
    for info in pkgutil.iter_modules(gompkit.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"gompkit.{info.name}")
        for name, value in vars(module).items():
            if isinstance(value, functools._lru_cache_wrapper) and value.__module__ == module.__name__:
                found[f"{module.__name__}.{name}"] = value
    return found


def test_cold_caches_lists_every_package_cache():
    found = package_caches()
    assert {"gompkit.rip._layout", "gompkit.harness._seed_words"} <= found.keys()
    assert [name for name, cache in found.items() if not any(cache is c for c in CACHES)] == []


def test_cold_caches_empties_them():
    rip._cached_support_table(8, 2)
    rip._layout(2)
    harness._generators(range(4))
    assert all(cache.cache_info().currsize for cache in
               (rip._small_support_tables, rip._layout, harness._seed_words))
    clear_caches()
    assert [name for name, cache in package_caches().items() if cache.cache_info().currsize] == []
