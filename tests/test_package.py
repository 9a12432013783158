"""Properties of the package as a whole."""

import dataclasses
import importlib
import pkgutil
import subprocess
import sys

import numpy as np
import pytest

import stellar


def _fresh(code: str) -> str:
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_import_loads_neither_numpy_nor_a_submodule():
    code = "import sys, stellar; print(sorted(m for m in sys.modules if m == 'numpy' or m.startswith('stellar.')))"
    assert _fresh(code) == "[]"


def test_every_exported_name_is_its_module_object():
    for name in stellar.__all__:
        obj = getattr(stellar, name)
        assert obj is getattr(sys.modules[obj.__module__], name), name
    assert len(set(stellar.__all__)) == len(stellar.__all__) == 57


def test_the_exact_names_load_no_numpy():
    code = (
        "import sys, stellar\n"
        "table = stellar.multiplicities_genfun(stellar.SpinLabel(7), 4)\n"
        "count = stellar.schubert_count(stellar.SpinLabel(8), 4)\n"
        "print(table.total_dimension(), count, 'numpy' in sys.modules)"
    )
    assert _fresh(code) == "70 1662804 False"


def test_the_exact_names_resolve_in_the_modules_that_use_them():
    # `from stellar import principal` would give the function of that name
    _exact, decomp, principal, spin_rep = (
        importlib.import_module(f"stellar.{m}") for m in ("_exact", "decomp", "principal", "spin_rep")
    )
    assert spin_rep.SpinLabel is decomp.SpinLabel is _exact.SpinLabel
    assert decomp.multiplicities_genfun is _exact.multiplicities_genfun
    assert decomp.MultiplicityTable is _exact.MultiplicityTable
    assert decomp.two_s_max is principal.two_s_max is _exact.two_s_max
    assert principal.schubert_count is _exact.schubert_count


def test_dir_lists_every_exported_name():
    assert set(stellar.__all__) <= set(dir(stellar))


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        stellar.no_such_name


@pytest.mark.parametrize("how", ["import stellar.cli", "importlib.import_module('stellar.principal')"])
def test_importing_the_principal_module_keeps_the_principal_function(how):
    # the import system binds a loaded submodule onto its package by name
    code = f"import importlib, stellar; {how}; print(callable(stellar.principal), stellar.principal.__name__)"
    assert _fresh(code) == "True principal"
    importlib.import_module("stellar.principal")
    assert stellar.principal is sys.modules["stellar.principal"].principal


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
    "GaugeFixed": lambda: stellar.multiconstellation(_frame()).components[0].gauge,
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
