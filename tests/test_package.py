"""Properties of the package as a whole."""

import dataclasses
import importlib
import pkgutil

import numpy as np
import pytest

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


# Two independently built instances of every dataclass the package exports.
# Classes holding arrays compare and hash by identity; the pure-value ones
# (SpinLabel, Multiplet, MultiplicityTable) by value.
_ROWS = np.array([[1.0, 0.5j, 0.0, 0.25], [0.0, 1.0, -0.5, 0.3j]])


def _state():
    return stellar.SpinState(stellar.SpinLabel(3), [0.5, 0.5j, -0.5, 0.5])


def _frame():
    return stellar.KFrame(stellar.SpinLabel(3), 2, _ROWS)


INSTANCE_BUILDERS = {
    "SpinLabel": lambda: stellar.SpinLabel(3),
    "SpinState": _state,
    "RotationSpec": lambda: stellar.RotationSpec(np.array([0.0, 0.0, 1.0]), 0.5),
    "ComplexPolynomial": lambda: stellar.ComplexPolynomial(np.array([1.0, 2.0, 3.0]), 2),
    "Star": lambda: stellar.Star(np.array([0.0, 0.0, 1.0]), 1),
    "Constellation": lambda: stellar.constellation_of_state(_state()),
    "KFrame": _frame,
    "KPlane": lambda: stellar.standard_form(_frame()),
    "PluckerVector": lambda: stellar.plucker(_frame()),
    "Multiplet": lambda: stellar.Multiplet(4, 0, (0, 5)),
    "MultiplicityTable": lambda: stellar.multiplicities_genfun(stellar.SpinLabel(3), 2),
    "BDBasis": lambda: stellar.bd_basis.__wrapped__(stellar.SpinLabel(3), 2),
    "ComponentState": lambda: stellar.decompose_plane(_frame())[0],
    "GaugeFixed": lambda: stellar.gauge_fix_component(_state()),
    "ComponentReport": lambda: stellar.multiconstellation(_frame()).components[0],
    "Multiconstellation": lambda: stellar.multiconstellation(_frame()),
    "PrincipalResult": lambda: stellar.principal(_frame()),
}
VALUE_CLASSES = {"SpinLabel", "Multiplet", "MultiplicityTable"}


def test_equality_cases_cover_every_exported_dataclass():
    exported = {
        name
        for name in stellar.__all__
        if dataclasses.is_dataclass(getattr(stellar, name))
    }
    assert exported == set(INSTANCE_BUILDERS)


@pytest.mark.parametrize("name", sorted(INSTANCE_BUILDERS))
def test_dataclass_equality_is_a_bool_and_instances_hash(name):
    a, b = INSTANCE_BUILDERS[name](), INSTANCE_BUILDERS[name]()
    assert type(a).__name__ == name
    assert a is not b
    assert isinstance(a == b, bool)
    assert a == a
    pair = {a, b}
    if name in VALUE_CLASSES:
        assert a == b and len(pair) == 1
    else:
        assert a != b and len(pair) == 2
