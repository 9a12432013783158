"""Command-line interface.

All documents are JSON with a "schema": "stellar/1" marker and complex
numbers encoded as [re, im] pairs.  Input kinds: "state" (two_s, coeffs)
and "plane" (two_s, k, rows); "plane_pair" (two planes of the same shape)
is a fixture format the tests read, and every command rejects it.
Exit codes: 0 success, 2 parse error or an unwritable output path, 3
numeric failure, 4 a result was produced but a not-applicable flag is
present.  Each command returns its document and exit code; `main` alone
writes the document, to --out when given, else to stdout, and an error
document always to stdout.

Importing this module loads neither numpy nor another `stellar` module:
each command imports what it calls, so `schubert` and `multiplicities
--method genfun` never load numpy, and the rest load only their own modules.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from itertools import combinations

# One process handles one small plane or state: OpenBLAS worker threads cost
# start-up time and gain nothing.  Set before numpy loads; a user setting wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

SCHEMA = "stellar/1"
EXIT_OK = 0
EXIT_PARSE = 2
EXIT_NUMERIC = 3
EXIT_FLAGGED = 4

_PALETTE = (
    "#e41a1c", "#377eb8", "#4daf4a", "#984ea3",
    "#ff7f00", "#a65628", "#f781bf", "#777777",
)


class CLIError(Exception):
    def __init__(self, code: int, slug: str, message: str):
        super().__init__(message)
        self.code = code
        self.slug = slug


#: The exceptions a command or a batch entry reports as an error document.
_FAILURES = (CLIError, ArithmeticError, MemoryError, ValueError)


# ---------------------------------------------------------------------------
# JSON helpers


def _clean_float(x) -> float:
    x = float(x)
    if not math.isfinite(x):
        raise CLIError(EXIT_NUMERIC, "non-finite", "non-finite number in output")
    return 0.0 if x == 0.0 else x  # normalizes -0.0


def _c2j(z: complex) -> list:
    z = complex(z)
    return [_clean_float(z.real), _clean_float(z.imag)]


def _dump(doc: dict | int) -> str:
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False)


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    except OSError as e:
        raise CLIError(EXIT_PARSE, "unwritable", f"{path}: {e}")


def _emit(doc: dict | int, out_path: str | None) -> None:
    text = _dump(doc)
    if out_path:
        _write(out_path, text)
    else:
        print(text)


def _failure(exc: Exception) -> tuple[dict, int]:
    """The error document and exit code of one of the _FAILURES."""
    if isinstance(exc, CLIError):
        code, slug = exc.code, exc.slug
    elif isinstance(exc, ArithmeticError):
        code, slug = EXIT_NUMERIC, "numeric"
    elif isinstance(exc, MemoryError):
        code, slug = EXIT_NUMERIC, "out-of-memory"
    else:
        code, slug = EXIT_PARSE, "invalid-value"
    return {
        "schema": SCHEMA,
        "kind": "error",
        "code": code,
        "error": slug,
        "message": str(exc),
    }, code


def _load(path: str, kind: str) -> tuple[dict, int]:
    """The document at path, checked to be of this kind, and its two_s."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as e:
        raise CLIError(EXIT_PARSE, "unreadable", f"{path}: {e}")
    except json.JSONDecodeError as e:
        raise CLIError(EXIT_PARSE, "malformed-json", f"{path}: {e}")
    if not isinstance(doc, dict):
        raise CLIError(EXIT_PARSE, "schema-mismatch", f"{path}: not an object")
    if doc.get("schema") != SCHEMA:
        raise CLIError(
            EXIT_PARSE, "schema-mismatch",
            f"{path}: expected schema {SCHEMA!r}, got {doc.get('schema')!r}",
        )
    if doc.get("kind") != kind:
        raise CLIError(
            EXIT_PARSE, "kind-mismatch",
            f"{path}: expected kind {kind!r}, got {doc.get('kind')!r}",
        )
    two_s = doc.get("two_s")
    if not isinstance(two_s, int) or isinstance(two_s, bool) or two_s < 0:
        raise CLIError(
            EXIT_PARSE, "shape-mismatch", f"{path}: two_s must be a non-negative integer"
        )
    return doc, two_s


def _parse_complex(v, where: str) -> complex:
    if isinstance(v, (int, float)) and not isinstance(v, bool):
        return complex(v)
    if (
        isinstance(v, list)
        and len(v) == 2
        and all(isinstance(t, (int, float)) and not isinstance(t, bool) for t in v)
    ):
        return complex(v[0], v[1])
    raise CLIError(
        EXIT_PARSE, "shape-mismatch",
        f"{where}: expected a number or [re, im] pair, got {v!r}",
    )


def _load_plane(path: str) -> KFrame:
    import numpy as np

    from ._exact import SpinLabel
    from .grassmann import KFrame

    doc, two_s = _load(path, "plane")
    k, rows = doc.get("k"), doc.get("rows")
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise CLIError(EXIT_PARSE, "shape-mismatch", f"{path}: k must be a positive integer")
    dim = two_s + 1
    if not isinstance(rows, list) or len(rows) != k:
        raise CLIError(EXIT_PARSE, "shape-mismatch", f"{path}: expected {k} rows")
    mat = np.zeros((k, dim), dtype=complex)
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != dim:
            raise CLIError(
                EXIT_PARSE, "shape-mismatch",
                f"{path}: row {i} must have {dim} entries",
            )
        for jcol, v in enumerate(row):
            mat[i, jcol] = _parse_complex(v, f"{path}: row {i} entry {jcol}")
    try:
        return KFrame(SpinLabel(two_s), k, mat)
    except ValueError as e:
        if "rank deficient" in str(e):
            raise CLIError(EXIT_NUMERIC, "rank-deficient", f"{path}: {e}")
        raise CLIError(EXIT_PARSE, "shape-mismatch", f"{path}: {e}")


def _load_state(path: str) -> SpinState:
    import numpy as np

    from ._exact import SpinLabel
    from .spin_rep import SpinState

    doc, two_s = _load(path, "state")
    coeffs = doc.get("coeffs")
    if not isinstance(coeffs, list) or len(coeffs) != two_s + 1:
        raise CLIError(
            EXIT_PARSE, "shape-mismatch", f"{path}: expected {two_s + 1} coefficients"
        )
    c = np.array(
        [_parse_complex(v, f"{path}: coeff {i}") for i, v in enumerate(coeffs)]
    )
    if not np.any(c):
        raise CLIError(EXIT_NUMERIC, "zero-state", f"{path}: state is identically zero")
    return SpinState(SpinLabel(two_s), c)


# ---------------------------------------------------------------------------
# document builders


def _constellation_doc(c: Constellation) -> dict:
    stars = []
    for st in c.stars:
        theta, phi = st.angles()
        stars.append(
            {
                "theta": _clean_float(theta),
                "phi": _clean_float(phi),
                "multiplicity": st.multiplicity,
                "direction": [_clean_float(x) for x in st.direction],
            }
        )
    return {"total": c.total, "stars": stars}


def _poly_doc(p) -> dict:
    return {
        "d_nom": p.d_nom,
        "coefficients": [_c2j(z) for z in p.coeffs],
    }


def _multicon_doc(mc) -> dict:
    comps = []
    for r in mc.components:
        entry = {
            "two_j": r.two_j,
            "copy_index": r.copy_index,
            "absent": r.absent,
            "amplitude": None if r.amplitude is None else _c2j(r.amplitude),
            "flags": list(r.flags),
            "constellation": None
            if r.constellation is None
            else _constellation_doc(r.constellation),
        }
        if r.gauge is not None:
            g = r.gauge
            entry["spin_expectation"] = [_clean_float(x) for x in g.sev]
            entry["selected_lm"] = None if g.selected_lm is None else list(g.selected_lm)
            entry["alpha"] = None if g.alpha is None else _clean_float(g.alpha)
            entry["beta"] = None if g.beta is None else _clean_float(g.beta)
        comps.append(entry)
    return {
        "schema": SCHEMA,
        "kind": "multiconstellation",
        "two_s": mc.s.two_s,
        "k": mc.k,
        "components": comps,
        "z_values": None if mc.z_values is None else [_c2j(z) for z in mc.z_values],
        "spectator": None if mc.spectator is None else _constellation_doc(mc.spectator),
        "flags": list(mc.flags),
    }


# ---------------------------------------------------------------------------
# SVG rendering


def _svg_for_groups(groups) -> str:
    R = 190.0
    centers = ((230.0, 230.0), (650.0, 230.0))
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="880" height="500" '
        'viewBox="0 0 880 500" font-family="sans-serif">',
        '<rect width="880" height="500" fill="#ffffff"/>',
    ]
    for (cx, cy), label in zip(centers, ("z &#8805; 0", "z &lt; 0")):
        parts.append(
            f'<circle cx="{cx}" cy="{cy}" r="{R}" fill="#f7f7f7" stroke="#555"/>'
        )
        parts.append(
            f'<text x="{cx}" y="{cy + R + 28}" text-anchor="middle" '
            f'font-size="15" fill="#333">{label}</text>'
        )
    legend_y = 470
    legend_x = 40.0
    for gi, (label, constellation) in enumerate(groups):
        color = _PALETTE[gi % len(_PALETTE)]
        for st in constellation.stars:
            x, y, z = st.direction
            if z >= 0:
                cx, cy = centers[0]
                px, py = cx + R * x, cy - R * y
            else:
                cx, cy = centers[1]
                px, py = cx - R * x, cy - R * y
            r_dot = 4.0 + 2.0 * math.sqrt(st.multiplicity)
            theta, phi = st.angles()
            parts.append(
                f'<circle cx="{px:.2f}" cy="{py:.2f}" r="{r_dot:.2f}" '
                f'fill="{color}" fill-opacity="0.8" stroke="#222">'
                f"<title>{label}: multiplicity {st.multiplicity}, "
                f"theta {theta:.4f}, phi {phi:.4f}</title></circle>"
            )
        parts.append(
            f'<circle cx="{legend_x:.1f}" cy="{legend_y}" r="6" fill="{color}"/>'
        )
        parts.append(
            f'<text x="{legend_x + 12:.1f}" y="{legend_y + 5}" font-size="14" '
            f'fill="#333">{label}</text>'
        )
        legend_x += 14 * len(label) + 44
    parts.append("</svg>")
    return "\n".join(parts)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_constellation(args) -> tuple[dict, int]:
    from .majorana import constellation_of_state

    psi = _load_state(args.state_file)
    c = constellation_of_state(psi)
    return {
        "schema": SCHEMA,
        "kind": "constellation",
        "two_s": psi.s.two_s,
        **_constellation_doc(c),
    }, EXIT_OK


def _route_agreement(results: dict) -> float:
    """Largest distance between two routes' polynomials in the SU(2)-invariant norm:
    coefficient j over sqrt(C(d, j)), unit rows, |a - e^(i phi) b| at the best phase."""
    import numpy as np

    from .majorana import _sqrt_binomials

    polys = [r.polynomial for r in results.values()]
    rows = np.array([p.coeffs / _sqrt_binomials(p.d_nom)[0] for p in polys])
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    return max(
        float(np.linalg.norm(a - b * np.exp(1j * np.angle(np.vdot(b, a)))))
        for a, b in combinations(rows, 2)
    )


def _principal_doc_for(path: str, route: str) -> tuple[dict, int]:
    from .principal import principal, principal_all

    frame = _load_plane(path)
    doc = {
        "schema": SCHEMA,
        "kind": "principal",
        "two_s": frame.s.two_s,
        "k": frame.k,
        "routes": {},
    }
    code = EXIT_OK
    if route == "all":
        results = principal_all(frame)
        agreement = _route_agreement(results)
        doc["route_agreement"] = _clean_float(agreement)
        if agreement > 1e-6:
            code = EXIT_NUMERIC
    else:
        results = {route: principal(frame, route)}
    for name, res in results.items():
        doc["routes"][name] = {
            "polynomial": _poly_doc(res.polynomial),
            "constellation": _constellation_doc(res.constellation),
        }
    return doc, code


def _cmd_principal(args) -> tuple[dict, int]:
    if len(args.plane_files) == 1:
        return _principal_doc_for(args.plane_files[0], args.route)
    # one failed plane gives its own error entry and leaves the others be
    results, code = {}, EXIT_OK
    for path in args.plane_files:
        try:
            results[path], c = _principal_doc_for(path, args.route)
        except _FAILURES as e:
            results[path], c = _failure(e)
        code = max(code, c)
    return {"schema": SCHEMA, "kind": "principal_batch", "results": results}, code


def _cmd_decompose(args) -> tuple[dict, int]:
    from .decomp import decompose_plane

    frame = _load_plane(args.plane_file)
    comps = decompose_plane(frame)
    return {
        "schema": SCHEMA,
        "kind": "decomposition",
        "two_s": frame.s.two_s,
        "k": frame.k,
        "components": [
            {
                "two_j": c.two_j,
                "copy_index": c.copy_index,
                "norm": _clean_float(c.state.norm),
                "coeffs": [_c2j(z) for z in c.state.coeffs],
            }
            for c in comps
        ],
    }, EXIT_OK


def _cmd_multicon(args) -> tuple[dict, int]:
    from .multicon import multiconstellation

    frame = _load_plane(args.plane_file)
    mc = multiconstellation(frame)
    doc = _multicon_doc(mc)
    if args.svg:
        groups = []
        for r in mc.components:
            if r.constellation is not None and r.constellation.total > 0:
                groups.append(
                    (f"j={r.two_j / 2:g} copy {r.copy_index}", r.constellation)
                )
        if mc.spectator is not None and mc.spectator.total > 0:
            groups.append(("spectator", mc.spectator))
        _write(args.svg, _svg_for_groups(groups))
    return doc, EXIT_FLAGGED if mc.z_values is None else EXIT_OK


#: The multiplicity methods' `--method` names; only genfun runs without numpy.
_METHODS = ("genfun", "char", "basis")


def _cmd_multiplicities(args) -> tuple[dict, int]:
    from ._exact import SpinLabel, multiplicities_genfun

    if args.method == "genfun":
        method = multiplicities_genfun
    else:
        from .decomp import multiplicities_char, multiplicities_from_basis

        method = multiplicities_char if args.method == "char" else multiplicities_from_basis
    table = method(SpinLabel(args.two_s), args.k)
    return {
        "schema": SCHEMA,
        "kind": "multiplicities",
        "two_s": args.two_s,
        "k": args.k,
        "method": args.method,
        "nonzero": [[tj, m] for tj, m in table.entries],
        "total_dimension": table.total_dimension(),
        "wedge_dimension": math.comb(args.two_s + 1, args.k),
    }, EXIT_OK


def _cmd_schubert(args) -> tuple[int, int]:
    from ._exact import SpinLabel, schubert_count

    return schubert_count(SpinLabel(args.two_s), args.k), EXIT_OK


def _cmd_verify(args) -> tuple[dict, int]:
    import numpy as np

    from .grassmann import (
        KFrame,
        frame_inner,
        orthogonal_complement,
        plucker,
        plucker_residual,
        rotate_frame,
        standard_form,
    )
    from .majorana import antipodal_constellation, constellation_match_angle, rotate_constellation
    from .multicon import multiconstellation
    from .principal import principal, principal_all
    from .spin_rep import RotationSpec

    frame = _load_plane(args.plane_file)
    rng = np.random.default_rng(args.seed)
    checks = []

    def check(name, value, tol):
        checks.append(
            {
                "name": name,
                "value": _clean_float(value),
                "tolerance": tol,
                "passed": bool(value <= tol),
            }
        )

    results = principal_all(frame)
    check("route-agreement", _route_agreement(results), 1e-7)

    plane = standard_form(frame)
    minors = plucker(plane)
    check("plucker-residual", plucker_residual(minors), 1e-10)

    other = KFrame(
        frame.s,
        frame.k,
        rng.standard_normal((frame.k, frame.s.dim))
        + 1j * rng.standard_normal((frame.k, frame.s.dim)),
    )
    lhs = frame_inner(plane, other)
    rhs = complex(np.vdot(minors.comps, plucker(other).comps))
    scale = max(1.0, abs(lhs))
    check("cauchy-binet", abs(lhs - rhs) / scale, 1e-9)

    axis = rng.standard_normal(3)
    axis /= np.linalg.norm(axis)
    rot = RotationSpec(axis, float(rng.uniform(0, 2 * np.pi)))
    rotated = principal(rotate_frame(frame, rot)).constellation
    expected = rotate_constellation(results["wronskian"].constellation, rot)
    check(
        "rotation-covariance",
        constellation_match_angle(rotated, expected),
        1e-7,
    )

    if frame.k == frame.s.dim:
        # the complement of the full space is the zero plane, and a full
        # plane has no stars: nothing to pair
        check("complement-antipodality", 0.0, 1e-7)
    else:
        comp = principal(orthogonal_complement(plane)).constellation
        anti = antipodal_constellation(results["wronskian"].constellation)
        check("complement-antipodality", constellation_match_angle(comp, anti), 1e-7)

    mc = multiconstellation(frame)
    doc = {
        "schema": SCHEMA,
        "kind": "verify_report",
        "two_s": frame.s.two_s,
        "k": frame.k,
        "seed": args.seed,
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
        "multiconstellation": _multicon_doc(mc),
    }
    if not doc["passed"]:
        return doc, EXIT_NUMERIC
    return doc, EXIT_FLAGGED if mc.z_values is None else EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="stellar",
        description="Stellar representations of spin-s k-planes.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("constellation", help="Majorana constellation of a state")
    c.add_argument("state_file")
    c.set_defaults(func=_cmd_constellation)

    c = sub.add_parser("principal", help="principal polynomial/constellation")
    c.add_argument("plane_files", nargs="+")
    c.add_argument(
        "--route",
        choices=["wronskian", "sampled", "top", "all"],
        default="wronskian",
    )
    c.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="accepted for compatibility; it has no effect",
    )
    c.set_defaults(func=_cmd_principal)

    c = sub.add_parser("decompose", help="spin-block components of a plane")
    c.add_argument("plane_file")
    c.set_defaults(func=_cmd_decompose)

    c = sub.add_parser("multicon", help="multiconstellation of a plane")
    c.add_argument("plane_file")
    c.add_argument("--svg", default=None, help="also render an SVG sky map")
    c.set_defaults(func=_cmd_multicon)

    c = sub.add_parser("multiplicities", help="spin-block multiplicity table")
    c.add_argument("two_s", type=int)
    c.add_argument("k", type=int)
    c.add_argument("--method", choices=_METHODS, default="genfun")
    c.set_defaults(func=_cmd_multiplicities)

    c = sub.add_parser("schubert", help="planes sharing a generic principal constellation")
    c.add_argument("two_s", type=int)
    c.add_argument("k", type=int)
    c.set_defaults(func=_cmd_schubert)

    c = sub.add_parser("verify", help="self-checks on a plane document")
    c.add_argument("plane_file")
    c.add_argument("--seed", type=int, default=0)
    c.set_defaults(func=_cmd_verify)

    # every command but schubert, whose document is a plain integer, can
    # write its document to a file
    for name, c in sub.choices.items():
        if name != "schubert":
            c.add_argument("--out", default=None)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        doc, code = args.func(args)
        _emit(doc, getattr(args, "out", None))
    except _FAILURES as e:
        # an error document always goes to stdout
        doc, code = _failure(e)
        _emit(doc, None)
    return code


if __name__ == "__main__":
    sys.exit(main())
