import functools
import importlib
import os
import pkgutil
from pathlib import Path

import pytest

import gompkit

# pyproject.toml puts src/ on this process's path; the CLI tests' subprocesses
# (python -m gompkit) get it through PYTHONPATH, so a checkout runs uninstalled.
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")])
)


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


CACHES = tuple(package_caches().values())


def clear_caches():
    for cache in CACHES:
        cache.cache_clear()


@pytest.fixture(autouse=True)
def cold_caches():
    """Start every test with empty support-table, index and seed-word caches,
    so no test passes only because an earlier one warmed them."""
    clear_caches()
