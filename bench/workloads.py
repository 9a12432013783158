"""Seeded inputs and operations of the four workloads.

An operation is a call into `stellar` (or one `stellar` CLI process) whose
result is reduced to plain data and checked by `bench.checks`.  Operations
in a named-fault slice are expected to fail on the program as it stands;
they use fixed inputs, so that every pass fails on exactly the same ones.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from bench import checks

#: Fixed seed of the named-fault slices, which must not depend on --seed.
FAULT_SEED = 1909

#: Generic direction of the coherent states, as a stereographic coordinate.
COHERENT_ZETA = 0.7 * complex(math.cos(1.3), math.sin(1.3))

FAULT_ABERTH = "majorana._aberth returns unconverged roots unchecked"
FAULT_CLUSTER = "coherent states come back as 2s separate stars"
FAULT_INT64 = "multiplicities_char overflows int64 from n = 76"

PLANE_SHAPES = ((3, 2), (4, 2), (5, 3), (7, 4), (9, 4))


@dataclass
class Op:
    """`call` runs the operation (the timed part), `digest` reduces its
    output to plain data, and `check` returns a reason when that data is
    wrong.  `fault` names the program fault expected to make it fail."""

    label: str
    call: Callable[[], object]
    digest: Callable[[object], object]
    check: Callable[[object, dict], "str | None"]
    fault: str | None = None


@dataclass
class Workload:
    name: str
    ops: list
    warmup: list = field(default_factory=list)
    #: Operations run in child processes, whose CPU and memory count.
    children: bool = False


def _complex_gaussian(rng, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _sphere(zeta: complex) -> tuple:
    d = 1.0 + abs(zeta) ** 2
    return (2 * zeta.real / d, 2 * zeta.imag / d, (1.0 - abs(zeta) ** 2) / d)


def coherent_coeffs(two_s: int, zeta: complex) -> np.ndarray:
    """Normalized coherent state sqrt(C(2s, i)) zeta^i, i = s - m."""
    c = np.array([math.sqrt(math.comb(two_s, i)) * zeta**i for i in range(two_s + 1)])
    return c / np.linalg.norm(c)


def _stars(constellation) -> list:
    return [(st.multiplicity, tuple(float(x) for x in st.direction)) for st in constellation.stars]


def _shuffled(rng, ops: list) -> list:
    return [ops[i] for i in rng.permutation(len(ops))]


# ---------------------------------------------------------------------------
# states: Majorana constellations


def states(seed: int) -> Workload:
    from stellar import SpinLabel, SpinState, constellation_of_state

    def op(label, coeffs, fault=None, direction=None):
        psi = SpinState(SpinLabel(len(coeffs) - 1), coeffs)
        return Op(
            label,
            lambda: constellation_of_state(psi),
            _stars,
            lambda stars, _: checks.check_state(coeffs, stars, direction),
            fault,
        )

    rng = np.random.default_rng(seed)
    ops = [
        op(f"random 2s={n} #{r}", _complex_gaussian(rng, n + 1))
        for n in range(2, 29)
        for r in range(4)
    ]
    frng = np.random.default_rng(FAULT_SEED)
    ops += [op(f"random 2s={n}", _complex_gaussian(frng, n + 1), FAULT_ABERTH) for n in (40, 48)]
    ops += [
        op(f"coherent 2s={n}", coherent_coeffs(n, COHERENT_ZETA), FAULT_CLUSTER, _sphere(COHERENT_ZETA))
        for n in range(4, 17)
    ]
    warmup = [o for o in ops if o.fault is None][:: 12]
    return Workload("states", _shuffled(rng, ops), warmup)


# ---------------------------------------------------------------------------
# planes: three principal routes and the multiconstellation of a frame


def _principal_digest(results) -> dict:
    return {
        name: ([complex(c) for c in r.polynomial.coeffs], _stars(r.constellation))
        for name, r in results.items()
    }


def _multicon_digest(mc) -> tuple:
    comps = [
        (
            c.two_j,
            None if c.amplitude is None else complex(c.amplitude),
            None if c.constellation is None else _stars(c.constellation),
        )
        for c in mc.components
    ]
    z = None if mc.z_values is None else [complex(v) for v in mc.z_values]
    return comps, z


def _check_plane(rows, digest) -> str | None:
    routes, (comps, z) = digest
    return checks.check_principal(rows, routes) or checks.check_multicon(comps, z)


def planes(seed: int) -> Workload:
    from stellar import KFrame, SpinLabel, multiconstellation, principal_all

    def op(label, frame):
        return Op(
            label,
            lambda: (principal_all(frame), multiconstellation(frame)),
            lambda out: (_principal_digest(out[0]), _multicon_digest(out[1])),
            lambda d, _: _check_plane(frame.rows, d),
        )

    rng = np.random.default_rng(seed)
    ops = [
        op(f"plane ({two_s},{k}) #{r}", KFrame(SpinLabel(two_s), k, _complex_gaussian(rng, (k, two_s + 1))))
        for two_s, k in PLANE_SHAPES
        for r in range(8)
    ]
    warmup = ops[::8]
    return Workload("planes", _shuffled(rng, ops), warmup)


# ---------------------------------------------------------------------------
# tables: multiplicity tables and Schubert counts

#: n = 2s + 1 at which both integer routes build the table for every k.
SWEEP_N = (8, 16, 24, 28)
#: Larger n, with k <= n/2 and its complement n - k.  There are enough of
#: these heavy tables that the tail percentile falls among them.
LARGE_N_K = ((40, 10), (40, 20), (40, 30), (48, 12), (48, 36), (60, 15), (60, 45))
#: Runs per pass of every tables operation outside the named-fault slice.
TABLE_REPEATS = 2
#: Small shapes (2s, k) counted off the explicit block basis.
BASIS_SHAPES = ((3, 2), (4, 2), (5, 2), (5, 3), (6, 3), (7, 3))


def _table_op(fn, method: str, n: int, k: int, fault=None) -> Op:
    from stellar import SpinLabel

    dual = f"{method} n={n} k={n - k}"

    def check(entries, outs):
        return checks.check_table(n, k, entries, outs.get(dual))

    return Op(f"{method} n={n} k={k}", lambda: fn(SpinLabel(n - 1), k), lambda t: list(t.entries), check, fault)


def tables(seed: int) -> Workload:
    from stellar import (
        SpinLabel,
        multiplicities_char,
        multiplicities_from_basis,
        multiplicities_genfun,
        schubert_count,
    )

    routes = (("genfun", multiplicities_genfun), ("char", multiplicities_char))
    ops = [_table_op(fn, m, n, k) for n in SWEEP_N for k in range(1, n) for m, fn in routes]
    ops += [_table_op(fn, m, n, k) for n, k in LARGE_N_K for m, fn in routes]
    ops += [_table_op(multiplicities_from_basis, "basis", two_s + 1, k) for two_s, k in BASIS_SHAPES]

    rng = np.random.default_rng(seed)
    for two_s in rng.choice(np.arange(2, 25), size=12, replace=False):
        two_s = int(two_s)
        k = int(rng.integers(1, two_s + 2))
        ops.append(
            Op(
                f"schubert 2s={two_s} k={k}",
                lambda t=two_s, k=k: schubert_count(SpinLabel(t), k),
                int,
                lambda v, _, t=two_s, k=k: checks.check_schubert(t, k, v),
            )
        )
    warmup = [o for o in ops if o.label.startswith("basis")]
    # The two overflowing tables take two thirds of a pass; every other
    # operation runs TABLE_REPEATS times per pass, so that its least time
    # rests on as many samples as the run length allows.
    ops = ops * TABLE_REPEATS
    ops += [_table_op(multiplicities_char, "char", n, n // 2, FAULT_INT64) for n in (76, 80)]
    return Workload("tables", _shuffled(rng, ops), warmup)


# ---------------------------------------------------------------------------
# cli: one fresh `stellar` process per operation


def _c(pair) -> complex:
    return complex(pair[0], pair[1])


def _doc_stars(con: dict) -> list:
    return [(s["multiplicity"], tuple(s["direction"])) for s in con["stars"]]


def _doc_routes(doc: dict) -> dict:
    return {
        name: ([_c(z) for z in r["polynomial"]["coefficients"]], _doc_stars(r["constellation"]))
        for name, r in doc["routes"].items()
    }


def _doc_multicon(doc: dict) -> tuple:
    comps = [
        (
            c["two_j"],
            None if c["amplitude"] is None else _c(c["amplitude"]),
            None if c["constellation"] is None else _doc_stars(c["constellation"]),
        )
        for c in doc["components"]
    ]
    z = None if doc["z_values"] is None else [_c(v) for v in doc["z_values"]]
    return comps, z


def _plane_doc(rows: np.ndarray) -> dict:
    return {
        "schema": "stellar/1",
        "kind": "plane",
        "two_s": rows.shape[1] - 1,
        "k": rows.shape[0],
        "rows": [[[z.real, z.imag] for z in row] for row in rows],
    }


def _cli_result(proc: subprocess.CompletedProcess):
    """(exit code, parsed stdout): JSON, an integer, or None."""
    out = proc.stdout.strip()
    try:
        return proc.returncode, json.loads(out)
    except ValueError:
        return proc.returncode, None


def _expect(kind: str, check):
    """Checker for a CLI result: exit 0, schema and kind, then `check`."""

    def run(result, _):
        code, doc = result
        if code != 0:
            return f"exit code {code}"
        if not isinstance(doc, dict) or doc.get("schema") != "stellar/1" or doc.get("kind") != kind:
            return f"expected a stellar/1 document of kind {kind!r}"
        return check(doc)

    return run


def _check_principal_doc(rows):
    return lambda doc: checks.check_principal(rows, _doc_routes(doc))


def _check_decomposition(doc) -> str | None:
    for c in doc["components"]:
        if len(c["coeffs"]) != c["two_j"] + 1:
            return f"spin-{c['two_j']}/2 block has {len(c['coeffs'])} coefficients"
        if abs(float(np.linalg.norm([_c(z) for z in c["coeffs"]])) - c["norm"]) > 1e-12:
            return "a block's norm does not match its coefficients"
    return checks.check_block_norms(c["norm"] for c in doc["components"])


def _check_verify(doc) -> str | None:
    if doc["passed"] is not True:
        return "verify reported a failed self-check"
    return checks.check_multicon(*_doc_multicon(doc["multiconstellation"]))


def cli(seed: int, workdir: str, command: list) -> Workload:
    """`command` is the argv prefix that starts `stellar`'s CLI."""
    import stellar.cli  # noqa: F401  (part of the set-up a CLI user pays)

    rng = np.random.default_rng(seed)
    os.makedirs(workdir, exist_ok=True)

    def write(name: str, doc: dict) -> str:
        path = os.path.join(workdir, name)
        with open(path, "w") as fh:
            json.dump(doc, fh)
        return path

    def frame(two_s: int, k: int) -> np.ndarray:
        return _complex_gaussian(rng, (k, two_s + 1))

    def op(label, args, check):
        argv = command + [str(a) for a in args]

        def call():
            return subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)

        return Op(label, call, _cli_result, check)

    ops = []
    two_s = int(rng.integers(6, 15))
    k = int(rng.integers(2, two_s))

    def check_schubert(result, _, two_s=two_s, k=k):
        code, value = result
        if code != 0 or not isinstance(value, int):
            return f"exit code {code}, output {value!r}"
        return checks.check_schubert(two_s, k, value)

    ops.append(op("schubert", ["schubert", two_s, k], check_schubert))

    n = int(rng.integers(8, 17))
    coeffs = _complex_gaussian(rng, n + 1)
    state = write("state.json", {
        "schema": "stellar/1", "kind": "state", "two_s": n,
        "coeffs": [[z.real, z.imag] for z in coeffs],
    })
    ops.append(op("constellation", ["constellation", state], _expect(
        "constellation", lambda doc: checks.check_state(coeffs, _doc_stars(doc)))))

    rows = frame(5, 3)
    path = write("principal.json", _plane_doc(rows))
    ops.append(op("principal", ["principal", path, "--route", "all"],
                  _expect("principal", _check_principal_doc(rows))))

    path = write("decompose.json", _plane_doc(frame(7, 4)))
    ops.append(op("decompose", ["decompose", path], _expect("decomposition", _check_decomposition)))

    path = write("multicon.json", _plane_doc(frame(9, 4)))
    ops.append(op("multicon", ["multicon", path], _expect(
        "multiconstellation", lambda doc: checks.check_multicon(*_doc_multicon(doc)))))

    n = int(rng.integers(20, 41))
    kt = int(rng.integers(1, n))
    ops.append(op("multiplicities", ["multiplicities", n - 1, kt], _expect(
        "multiplicities", lambda doc: checks.check_table(n, kt, doc["nonzero"]))))

    path = write("verify.json", _plane_doc(frame(7, 4)))
    ops.append(op("verify", ["verify", path, "--seed", int(rng.integers(0, 2**31))],
                  _expect("verify_report", _check_verify)))

    batch = {}
    for i, (two_s_b, k_b) in enumerate(((4, 2), (5, 3), (7, 4), (7, 3))):
        rows_b = frame(two_s_b, k_b)
        batch[write(f"batch{i}.json", _plane_doc(rows_b))] = rows_b

    def check_batch(doc):
        if set(doc["results"]) != set(batch):
            return "batch results do not cover the input planes"
        for path, sub in doc["results"].items():
            reason = _expect("principal", _check_principal_doc(batch[path]))((0, sub), None)
            if reason:
                return f"{os.path.basename(path)}: {reason}"
        return None

    for jobs in (1, 2):
        ops.append(op(f"principal_batch_jobs{jobs}",
                      ["principal", *batch, "--route", "all", "--jobs", jobs],
                      _expect("principal_batch", check_batch)))
    return Workload("cli", _shuffled(rng, ops), [], children=True)


def cli_command(trace_file: str | None) -> list:
    """argv prefix of a `stellar` process, through the launcher if traced."""
    if trace_file is not None:
        return [sys.executable, "-m", "bench.launcher", trace_file]
    return [sys.executable, "-m", "stellar.cli"]
