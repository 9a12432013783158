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
from stellar import (
    _cache, decompose_plane, multiconstellation, principal, principal_all, standard_form,
)

from conftest import random_frame

PACKAGE = str(Path(stellar.__file__).parent)

#: Calls into the package of one `principal_all` and `multiconstellation`
#: at each shape, warm: 114 and 233 before their tables were planned per
#: shape, 64 and 129 before the frame kept its ray.
CALLS = {(5, 3): 62, (9, 4): 127}

#: The same on a frame that has not been read yet, the tables warm: its ray
#: costs the frame one index lookup and the `_ray` and `_minors` calls.
FRESH_CALLS = {(5, 3): 66, (9, 4): 131}


def _work(fn) -> tuple:
    """(package calls, table lookups, each by function name) of fn()."""
    calls, lookups = collections.Counter(), collections.Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(PACKAGE):
            calls[frame.f_code.co_name] += 1
            if frame.f_code is _cache.cached(len).__code__:
                lookups[frame.f_locals["fn"].__name__] += 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls, lookups


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
    assert calls.total() <= CALLS[shape]


@pytest.mark.parametrize("shape", sorted(FRESH_CALLS))
def test_a_fresh_frame_adds_one_index_lookup(shape):
    rng = np.random.default_rng(1000 * shape[0] + shape[1] + 1)
    warm, fresh = (random_frame(rng, *shape) for _ in range(2))

    def op(frame):
        principal_all(frame)
        multiconstellation(frame)

    op(warm)  # the tables are built once per shape
    calls, lookups = _work(lambda: op(fresh))
    # the frame's minor index, looked up once for all consumers of its ray
    assert lookups == {
        "_principal_plan": 1, "_multi_index_array": 1, "_multicon_plan": 1, "bd_basis": 1
    }
    assert calls.total() <= FRESH_CALLS[shape]


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


@pytest.mark.parametrize("two_s, k", [(3, 2), (5, 3), (9, 4)])
def test_a_frames_ray_is_taken_once(two_s, k):
    rng = np.random.default_rng(20 * two_s + k)
    frame = random_frame(rng, two_s, k)
    ops = (principal_all, multiconstellation, decompose_plane, standard_form)
    calls, _ = _work(lambda: [op(frame) for op in ops])
    assert calls["_minors"] == 1
    # the sampled route reads the polar factor alone: no minors are taken
    frame = random_frame(rng, two_s, k)
    calls, _ = _work(lambda: principal(frame, "sampled"))
    assert calls["_minors"] == 0 and "_ray" not in vars(frame)
