"""Properties of the package as a whole."""

import importlib
import pkgutil

import stellar


def test_every_cache_is_bounded():
    caches = []
    for info in pkgutil.iter_modules(stellar.__path__):
        module = importlib.import_module(f"stellar.{info.name}")
        for name, obj in vars(module).items():
            if callable(getattr(obj, "cache_parameters", None)):
                caches.append((f"{info.name}.{name}", obj.cache_parameters()["maxsize"]))
    assert caches
    unbounded = [name for name, maxsize in caches if maxsize is None]
    assert unbounded == []
