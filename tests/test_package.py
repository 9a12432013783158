"""Properties of the package as a whole."""

import collections
import dataclasses
import importlib
import pkgutil
import re
import subprocess
import sys
import threading
import weakref
from pathlib import Path

import numpy as np
import pytest

import stellar
from stellar import _cache

from conftest import random_frame, same_bits


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
    assert len(set(stellar.__all__)) == len(stellar.__all__) == 53


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


#: Every cached table, by module, with arguments to build a small one.
TABLES = {
    "grassmann._multi_index_array": (7, 3),
    "majorana._sqrt_binomials": (6,),
    "spin_rep._ladder": (5,),
    "spin_rep._sy_eigenbasis": (5,),
    "spin_rep._wigner_stack": ((1, 4), 5),
    "multicon._polarization_diagonals": (4, 1),
    "multicon._multicon_plan": (stellar.SpinLabel(5), 3),
    "decomp.bd_basis": (stellar.SpinLabel(5), 3),
    "principal._wronskian_plan": (stellar.SpinLabel(7), 4),
    "principal._sampled_plan": (stellar.SpinLabel(7), 4),
    "principal._top_plan": (stellar.SpinLabel(7), 4),
    "principal._principal_plan": (stellar.SpinLabel(7), 4, ("wronskian", "sampled", "top")),
}


def _table(name: str):
    module, attr = name.split(".")
    return getattr(importlib.import_module(f"stellar.{module}"), attr)


def _arrays_of(value) -> list:
    """Every numpy array reachable from a table through tuples and dataclasses."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, tuple):
        return [a for item in value for a in _arrays_of(item)]
    if dataclasses.is_dataclass(value):
        return [a for f in dataclasses.fields(value) for a in _arrays_of(getattr(value, f.name))]
    return []


def test_every_table_goes_through_the_one_cache():
    package = Path(stellar.__file__).parent
    for path in package.glob("*.py"):
        assert not re.search(r"lru_cache|functools\.cache\b|import .*\bcache\b", path.read_text()), path.name
    wrapped = set()
    for info in pkgutil.iter_modules(stellar.__path__):
        module = importlib.import_module(f"stellar.{info.name}")
        for name, obj in vars(module).items():
            if hasattr(obj, "__wrapped__") and obj.__module__ == module.__name__:
                assert obj.__code__ is _cache.cached(len).__code__, name
                wrapped.add(f"{info.name}.{name}")
    assert wrapped == set(TABLES)


@pytest.mark.parametrize("name", sorted(TABLES))
def test_every_table_is_kept_with_every_array_read_only(name):
    table = _table(name)
    first = table(*TABLES[name])
    assert table(*TABLES[name]) is first
    arrays = _arrays_of(first)
    assert arrays
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[(0,) * a.ndim] = 1


@pytest.fixture
def empty_cache(monkeypatch):
    """An empty table cache for one test; the package's own comes back after."""
    monkeypatch.setattr(_cache, "_entries", collections.OrderedDict())
    monkeypatch.setattr(_cache, "_held", 0)


def _assert_held_bytes_exact() -> None:
    kept = sum(a.nbytes for table, _ in _cache._entries.values() for a in _arrays_of(table))
    assert _cache._held == kept
    assert kept <= _cache.CACHE_BYTES or len(_cache._entries) == 1


def _assert_same_basis(a, b) -> None:
    for field in ("level_cols", "row_level", "coefs"):
        assert same_bits(getattr(a, field), getattr(b, field)), field
    assert (a.layout, a.degenerate_two_j) == (b.layout, b.degenerate_two_j)


def test_the_cache_is_bounded_in_bytes(empty_cache, monkeypatch):
    # the (11, 5) basis holds 0.6 MB and the (13, 6) one 7.3 MB: with 2 MiB
    # the third build leaves only itself
    monkeypatch.setattr(_cache, "CACHE_BYTES", 2 << 20)
    built = {}
    for two_s, k in ((9, 4), (11, 5), (13, 6)):
        s = stellar.SpinLabel(two_s)
        built[s, k] = stellar.bd_basis(s, k)
        _assert_held_bytes_exact()
        assert stellar.bd_basis(s, k) is built[s, k]
    evicted = [key for key in built if (stellar.bd_basis.__wrapped__, key) not in _cache._entries]
    assert len(evicted) == 2
    for key in evicted:
        again = stellar.bd_basis(*key)
        assert again is not built[key]
        _assert_same_basis(again, built[key])
        _assert_held_bytes_exact()


def test_a_plan_keeps_no_evicted_table_alive(empty_cache, monkeypatch):
    # a warm multiconstellation looks up its plan and its basis; the (11, 5)
    # basis and plan hold 0.64 and 0.44 MB, so with 1.25 MiB they evict the
    # earlier shapes' tables, and no plan may keep an evicted basis alive
    monkeypatch.setattr(_cache, "CACHE_BYTES", 5 << 18)
    bases = {}
    for two_s, k in ((7, 4), (9, 4), (11, 5)):
        frame = random_frame(np.random.default_rng(two_s), two_s, k)
        bases[frame.s, k] = weakref.ref(stellar.bd_basis(frame.s, k))
        for _ in range(2):  # the plan's build, then a warm call
            stellar.multiconstellation(frame)
            _assert_held_bytes_exact()
    # every basis still alive is the cache's own: an evicted one was freed
    alive = {key: basis() for key, basis in bases.items() if basis() is not None}
    assert len(alive) < len(bases)
    for key, basis in alive.items():
        assert _cache._entries.get((stellar.bd_basis.__wrapped__, key), (None,))[0] is basis


def test_a_hit_makes_a_table_the_newest(empty_cache, monkeypatch):
    # index tables of n one-element subsets hold 8 n bytes: room for two
    monkeypatch.setattr(_cache, "CACHE_BYTES", 2000)
    index = _table("grassmann._multi_index_array")
    a, b = index(100, 1), index(101, 1)
    assert index(100, 1) is a
    index(102, 1)  # evicts the least recently used: b, not a
    assert [args for _, args in _cache._entries] == [(100, 1), (102, 1)]
    assert index(100, 1) is a and index(101, 1) is not b
    _assert_held_bytes_exact()


def test_threads_building_the_same_tables_keep_the_bytes_exact(empty_cache, monkeypatch):
    # every thread asks for the same shapes in the same order, so builds of
    # one table overlap; the bound makes the (11, 5) basis evict the rest
    monkeypatch.setattr(_cache, "CACHE_BYTES", 512 << 10)
    shapes = [(stellar.SpinLabel(two_s), k) for two_s, k in ((5, 3), (7, 3), (9, 4), (11, 5))]
    want = {key: stellar.bd_basis.__wrapped__(*key) for key in shapes}
    start, got, errors = threading.Barrier(4), [], []

    def work():
        try:
            start.wait(timeout=60)
            for _ in range(2):
                got.extend((key, stellar.bd_basis(*key)) for key in shapes)
        except Exception as e:  # reported below: a thread's exception is otherwise lost
            errors.append(e)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(got) == 4 * 2 * len(shapes)
    for key, basis in got:
        _assert_same_basis(basis, want[key])
    _assert_held_bytes_exact()


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
