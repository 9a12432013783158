"""CLI outputs on the bundled fixtures, compared with recorded golden documents.

Each file under tests/golden/ holds the argv of one `stellar` run (file names
relative to the fixtures directory), its exit code and its parsed stdout.
Exit codes, strings and integers must match exactly.  Polynomials are
compared after projective normalization and every other float to 1e-12.
Stars are matched by unit direction to 1e-8 rad rather than by (theta, phi):
multiple roots are only sqrt(eps)-conditioned, so a double star may move by
far more than 1e-12 under a change of rounding.

Regenerate the golden files with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

import stellar
from stellar.cli import main

FIXTURES = Path(stellar.__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"

NUM_TOL = 1e-12
STAR_TOL = 1e-8

PLANE_FIXTURES = ("wtetra_32", "vw_22", "s1k2", "sigma12_32")

CASES = {
    "constellation-tetra_s2": ["constellation", "tetra_s2.json"],
    **{
        f"{cmd}-{name}": [cmd, f"{name}.json", *extra]
        for name in PLANE_FIXTURES
        for cmd, extra in (
            ("principal", ["--route", "all"]),
            ("decompose", []),
            ("multicon", []),
            ("verify", ["--seed", "3"]),
        )
    },
    **{
        f"multiplicities-7-4-{m}": ["multiplicities", "7", "4", "--method", m]
        for m in ("genfun", "char", "basis")
    },
    "multiplicities-29-7-genfun": ["multiplicities", "29", "7"],
}


def _run(argv) -> tuple[int, dict]:
    buf = io.StringIO()
    cwd = os.getcwd()
    os.chdir(FIXTURES)
    try:
        with contextlib.redirect_stdout(buf):
            code = main(argv)
    finally:
        os.chdir(cwd)
    return code, json.loads(buf.getvalue())


def _angle(u, v) -> float:
    u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
    return float(math.atan2(np.linalg.norm(np.cross(u, v)), np.dot(u, v)))


def _compare_stars(got: list, want: list, where: str) -> None:
    assert len(got) == len(want), where
    unused = list(got)
    for w in want:
        match = next(
            (
                g for g in unused
                if g["multiplicity"] == w["multiplicity"]
                and _angle(g["direction"], w["direction"]) <= STAR_TOL
            ),
            None,
        )
        assert match is not None, f"{where}: no star near {w['direction']}"
        unused.remove(match)


def _compare_polynomial(got: dict, want: dict, where: str) -> None:
    assert got["d_nom"] == want["d_nom"], where
    a = np.array([complex(*z) for z in got["coefficients"]])
    b = np.array([complex(*z) for z in want["coefficients"]])
    # normalize both at the recorded argmax, so a near-tie cannot pick
    # different pivots on the two sides
    i = int(np.argmax(np.abs(b)))
    err = float(np.max(np.abs(a / a[i] - b / b[i])))
    assert err <= NUM_TOL, f"{where}: normalized coefficients differ by {err:.3g}"


def _compare(got, want, where: str) -> None:
    if isinstance(want, dict):
        assert isinstance(got, dict) and set(got) == set(want), where
        if "coefficients" in want and "d_nom" in want:
            _compare_polynomial(got, want, where)
            return
        for key in want:
            if key == "stars":
                _compare_stars(got[key], want[key], f"{where}.stars")
            else:
                _compare(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _compare(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        assert isinstance(got, (int, float)) and not isinstance(got, bool), where
        assert abs(got - want) <= NUM_TOL * max(1.0, abs(want)), (
            f"{where}: {got!r} != {want!r}"
        )
    else:
        assert type(got) is type(want) and got == want, f"{where}: {got!r} != {want!r}"


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name):
    want = json.loads((GOLDEN / f"{name}.json").read_text())
    assert want["argv"] == CASES[name]
    code, doc = _run(want["argv"])
    assert code == want["exit_code"]
    _compare(doc, want["stdout"], name)


def _record() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in sorted(CASES.items()):
        code, doc = _run(argv)
        record = {"argv": argv, "exit_code": code, "stdout": doc}
        text = json.dumps(record, sort_keys=True, indent=1)
        (GOLDEN / f"{name}.json").write_text(text + "\n")
        print(f"{name}: exit {code}")


if __name__ == "__main__":
    _record()
