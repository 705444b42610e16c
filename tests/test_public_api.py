"""What tools outside the package rely on in its public surface."""

import importlib
import inspect
import pkgutil

import pytest

import edanet

MODULES = [module for module in (importlib.import_module(f"edanet.{info.name}")
                                 for info in pkgutil.iter_modules(edanet.__path__))
           if hasattr(module, "__all__")]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_public_callables_are_plain_functions(module):
    """Span tracing (bench/spans.py) wraps only objects that pass
    ``inspect.isfunction``: a public function memoized in place with
    ``functools.lru_cache`` would silently lose its spans, and
    ``expand_layer`` its per-layer marks.  Memoize a private helper."""
    for name in module.__all__:
        obj = getattr(module, name)
        if callable(obj) and not inspect.isclass(obj):
            assert inspect.isfunction(obj), f"{module.__name__}.{name}"
