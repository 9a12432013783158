"""Tests of the benchmark itself: its checkers reject corrupted results, and
the command prints exactly the metrics that BENCHMARK.json declares.

    PYTHONPATH=src python -m pytest -q bench
"""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from bench import checks, workloads
from bench.worker import END_TO_END, per_layer_units

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _moved(stars, i=0):
    """The stars with star i rotated away from where it was."""
    m, d = stars[i]
    x, y, z = d
    r = math.hypot(x, y)
    moved = (z * x / r, z * y / r, -r) if r > 1e-6 else (1.0, 0.0, 0.0)
    return stars[:i] + [(m, moved)] + stars[i + 1:]


@pytest.fixture(scope="module")
def state():
    from stellar import SpinLabel, SpinState, constellation_of_state

    coeffs = workloads._complex_gaussian(np.random.default_rng(3), 13)
    return coeffs, workloads._stars(constellation_of_state(SpinState(SpinLabel(12), coeffs)))


def test_state_checker_accepts_and_rejects(state):
    coeffs, stars = state
    assert checks.check_state(coeffs, stars) is None
    assert "backward error" in checks.check_state(coeffs, _moved(stars))
    m, d = stars[0]
    assert "sum to" in checks.check_state(coeffs, [(m + 1, d)] + stars[1:])
    nan = [(m, (math.nan, 0.0, 0.0))] + stars[1:]
    assert "finite" in checks.check_state(coeffs, nan)


def test_coherent_state_needs_one_star_of_full_multiplicity():
    zeta = workloads.COHERENT_ZETA
    coeffs = workloads.coherent_coeffs(6, zeta)
    where = workloads._sphere(zeta)
    assert checks.check_state(coeffs, [(6, where)], where) is None
    split = [(1, where)] * 6
    assert "6 stars" in checks.check_state(coeffs, split, where)
    anti = tuple(-x for x in where)
    assert checks.check_state(coeffs, [(6, anti)], where) is not None


@pytest.fixture(scope="module")
def plane():
    from stellar import KFrame, SpinLabel, multiconstellation, principal_all

    rows = workloads._complex_gaussian(np.random.default_rng(4), (3, 6))
    frame = KFrame(SpinLabel(5), 3, rows)
    return rows, workloads._principal_digest(principal_all(frame)), workloads._multicon_digest(
        multiconstellation(frame)
    )


def test_principal_checker_accepts_and_rejects(plane):
    rows, routes, _ = plane
    assert checks.check_principal(rows, routes) is None
    coeffs, stars = routes["sampled"]
    moved = dict(routes, sampled=(coeffs, _moved(stars, 2)))
    assert "transversality" in checks.check_principal(rows, moved)
    m, d = stars[0]
    wrong = dict(routes, top=(coeffs, [(m + 1, d)] + stars[1:]))
    assert "sum to" in checks.check_principal(rows, wrong)
    bent = list(coeffs)
    bent[0] += 1e-3 * max(abs(c) for c in coeffs)
    assert "disagree" in checks.check_principal(rows, dict(routes, wronskian=(bent, stars)))


def test_coherent_plane_rows_agree_across_the_chart_boundary():
    zeta = 0.6 + 0.0j
    rows = checks.coherent_plane_rows(4, 2, (2 * zeta.real / 1.36, 0.0, 0.64 / 1.36))
    assert abs(rows[0, 1] - 2 * zeta) < 1e-12  # sqrt(C(4, 1)) zeta
    # just north and just south of the equator the two charts give one plane
    v = checks._orthonormal_rows(checks.coherent_plane_rows(4, 2, (1.0, 0.0, 1e-12)))
    w = checks._orthonormal_rows(checks.coherent_plane_rows(4, 2, (1.0, 0.0, -1e-12)))
    assert abs(abs(np.linalg.det(v.conj() @ w.T)) - 1) < 1e-9


def test_multicon_checker_rejects_wrong_norms_and_withheld_z(plane):
    _, _, (comps, z) = plane
    assert checks.check_multicon(comps, z) is None
    assert "withheld" in checks.check_multicon(comps, None)
    two_j, a, stars = comps[0]
    scaled = [(two_j, 1.01 * a, stars)] + comps[1:]
    assert "sum to" in checks.check_multicon(scaled, [c[1] for c in scaled])


def test_table_checker_rejects_an_entry_off_by_one():
    from stellar import SpinLabel, multiplicities_genfun

    entries = list(multiplicities_genfun(SpinLabel(9), 4).entries)
    assert checks.check_table(10, 4, entries) is None
    m = dict(entries)
    tj = next(tj for tj in sorted(m, reverse=True) if m[tj] and tj > 0)
    assert "dimension" in checks.check_table(10, 4, list({**m, tj: m[tj] + 1}.items()))
    # one fewer spin-j block and 2j + 1 more singlets: the dimension still fits
    moved = {**m, tj: m[tj] - 1, 0: m[0] + tj + 1}
    assert "Gaussian-binomial" in checks.check_table(10, 4, list(moved.items()))


def test_table_checker_compares_complements():
    ref = checks.reference_table(9, 3)
    assert ref == [(tj, m) for tj, m in checks.reference_table(9, 6) if tj <= 18]
    assert checks.check_table(9, 3, ref, ref) is None
    other = [(tj, m + (tj == 18)) for tj, m in ref]
    assert "differ" in checks.check_table(9, 3, ref, other)


def test_reference_tables_fill_the_wedge_space():
    for n in range(1, 14):
        for k in range(1, n + 1):
            table = checks.reference_table(n, k)
            assert sum((tj + 1) * m for tj, m in table) == math.comb(n, k)
            assert min(m for _, m in table) >= 0


def test_schubert_checker_rejects_a_wrong_count():
    assert checks.hook_length_degree(4, 2) == 2  # lines meeting four lines
    assert checks.hook_length_degree(9, 4) == 1662804  # README: stellar schubert 8 4
    assert checks.check_schubert(8, 4, 1662804) is None
    assert checks.check_schubert(8, 4, 1662805) is not None


def test_benchmark_json_names_exactly_the_printed_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == ["states", "planes", "tables", "cli"]


def test_command_prints_the_declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        out = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "states", "--seed", "1",
             "--seconds", "0.1", "--trace", str(trace)],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, check=True,
        )
        last = json.loads(out.stdout.strip().splitlines()[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] is True
        assert {k: v["unit"] for k, v in last["metrics"].items()} == {
            m["name"]: m["unit"] for m in spec[key]
        }
