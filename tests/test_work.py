"""Work counts of a plane operation: table lookups and calls into the
package, counted under sys.setprofile.  Both repeat exactly from process to
process, where wall time does not; only frames of `src/stellar` count, so
the numbers do not depend on numpy's own Python code."""

import collections
import sys
from pathlib import Path

import numpy as np
import pytest

import stellar
from stellar import _cache, multiconstellation, principal, principal_all

from conftest import random_frame

PACKAGE = str(Path(stellar.__file__).parent)

#: Calls into the package of one `principal_all` and `multiconstellation`
#: at each shape, warm: 114 and 233 before their tables were planned per shape.
CALLS = {(5, 3): 64, (9, 4): 129}


def _work(fn) -> tuple:
    """(package calls, table lookups by table name) of fn()."""
    calls, lookups = [0], collections.Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(PACKAGE):
            calls[0] += 1
            if frame.f_code is _cache.cached(len).__code__:
                lookups[frame.f_locals["fn"].__name__] += 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls[0], lookups


@pytest.mark.parametrize("shape", sorted(CALLS))
def test_a_plane_operation_makes_few_lookups_and_calls(shape):
    frame = random_frame(np.random.default_rng(1000 * shape[0] + shape[1]), *shape)

    def op():
        principal_all(frame)
        multiconstellation(frame)

    op()  # the tables are built once per shape
    calls, lookups = _work(op)
    # one lookup for the principal routes, and the multiconstellation's plan
    # and basis, whatever the number of spins: 17 at (5, 3) and 31 at (9, 4) before
    assert lookups == {"_principal_plan": 1, "_multicon_plan": 1, "bd_basis": 1}
    assert calls <= CALLS[shape]


@pytest.fixture
def empty_cache(monkeypatch):
    """An empty table cache for one test; the package's own comes back after."""
    monkeypatch.setattr(_cache, "_entries", collections.OrderedDict())
    monkeypatch.setattr(_cache, "_held", 0)


def test_the_default_route_builds_no_basis(empty_cache):
    frame = random_frame(np.random.default_rng(5), 5, 3)
    for _ in range(2):  # cold, then warm
        _, lookups = _work(lambda: principal(frame))
        assert "bd_basis" not in lookups
