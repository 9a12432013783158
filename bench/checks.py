"""Output checkers that compute their references apart from `stellar`.

Every checker takes plain data (lists, tuples, complex numbers) so that the
same code checks results of the library API and of the CLI's JSON output.
Each returns None when the result is right and a one-line reason when it
is not.  Nothing here imports `stellar`.
"""

from __future__ import annotations

import math
from functools import lru_cache

import mpmath
import numpy as np

#: Largest relative backward error a Majorana star may have.
STAR_BACKWARD_TOL = 1e-8
#: Largest |det| of the overlap between a plane and the coherent plane
#: antipodal to one of its principal stars (both with orthonormal rows).
TRANSVERSAL_TOL = 1e-7
#: Largest coefficient difference between projectively normalized routes.
ROUTE_AGREEMENT_TOL = 1e-6
#: Largest deviation of the summed squared block norms from 1.
NORM_TOL = 1e-9
#: Chordal distance within which a star must sit at its known direction.
DIRECTION_TOL = 1e-6


# ---------------------------------------------------------------------------
# stereographic charts (zeta = 0 at the north pole, infinity at the south)


def _chart(direction):
    """(w, flipped): w = zeta on the northern hemisphere, else w = 1/zeta."""
    x, y, z = (float(t) for t in direction)
    if z >= 0:
        return complex(x, y) / (1.0 + z), False
    return complex(x, -y) / (1.0 - z), True


def _bad_direction(direction) -> str | None:
    v = np.asarray(direction, dtype=float)
    if v.shape != (3,) or not np.all(np.isfinite(v)):
        return f"direction {direction!r} is not a finite 3-vector"
    if abs(float(np.linalg.norm(v)) - 1.0) > 1e-9:
        return f"direction {direction!r} is not a unit vector"
    return None


# ---------------------------------------------------------------------------
# Majorana constellations of states


def majorana_coeffs(coeffs) -> list:
    """Ascending-degree coefficients of the Majorana polynomial in mpmath.

    The paper's binomial formula: c_m (m = s, ..., -s) contributes
    (-1)^(s-m) sqrt(C(2s, s-m)) c_m on zeta^(s+m).
    """
    n = len(coeffs) - 1
    out = [mpmath.mpc(0)] * (n + 1)
    for i, c in enumerate(coeffs):
        c = complex(c)
        out[n - i] = (-1) ** i * mpmath.sqrt(math.comb(n, i)) * mpmath.mpc(c.real, c.imag)
    return out


def star_backward_error(poly: list, direction) -> float:
    """|P(zeta)| / sum |a_j| |zeta|^j at the star, evaluated in mpmath.

    Stars on the southern hemisphere are evaluated through the reversed
    polynomial in 1/zeta, which has the same relative backward error.
    """
    w, flipped = _chart(direction)
    a = list(reversed(poly)) if flipped else poly
    with mpmath.workdps(40):
        w = mpmath.mpc(w.real, w.imag)
        val = mpmath.mpc(0)
        scale = mpmath.mpf(0)
        for c in reversed(a):
            val = val * w + c
        aw = abs(w)
        for c in reversed(a):
            scale = scale * aw + abs(c)
        if scale == 0:
            return math.inf
        return float(abs(val) / scale)


def check_state(coeffs, stars, expected_direction=None) -> str | None:
    """Stars (multiplicity, direction) of the state with these coefficients.

    With expected_direction the state is coherent: it must come back as one
    star of multiplicity 2s at that direction.
    """
    n = len(coeffs) - 1
    total = 0
    for mult, d in stars:
        bad = _bad_direction(d)
        if bad:
            return bad
        if int(mult) != mult or mult < 1:
            return f"multiplicity {mult!r} is not a positive integer"
        total += mult
    if total != n:
        return f"multiplicities sum to {total}, expected 2s = {n}"
    if expected_direction is not None:
        if len(stars) != 1:
            return f"coherent state came back as {len(stars)} stars, expected 1 of multiplicity {n}"
        gap = float(np.linalg.norm(np.asarray(stars[0][1]) - np.asarray(expected_direction)))
        if gap > DIRECTION_TOL:
            return f"coherent star is {gap:.3g} away from its direction"
    poly = majorana_coeffs(coeffs)
    for mult, d in stars:
        err = star_backward_error(poly, d)
        if not err <= STAR_BACKWARD_TOL:
            return f"star at {list(d)} has relative backward error {err:.3g}"
    return None


# ---------------------------------------------------------------------------
# principal constellations of planes


def _orthonormal_rows(rows: np.ndarray) -> np.ndarray:
    q, _ = np.linalg.qr(np.asarray(rows, dtype=complex).T)
    return q.T


def coherent_plane_rows(two_s: int, k: int, direction) -> np.ndarray:
    """Coherent k-plane along a direction, from the closed-form coherent state.

    Rows are the coherent state sqrt(C(2s, i)) zeta^i (i = s - m) and its
    first k - 1 zeta-derivatives; on the southern hemisphere the chart
    w = 1/zeta is used, with the state sqrt(C(2s, i)) w^(2s - i).
    """
    w, flipped = _chart(direction)
    rows = np.zeros((k, two_s + 1), dtype=complex)
    for r in range(k):
        for i in range(two_s + 1):
            e = two_s - i if flipped else i
            if e >= r:
                falling = math.factorial(e) // math.factorial(e - r)
                rows[r, i] = math.sqrt(math.comb(two_s, i)) * falling * w ** (e - r)
    return rows


def transversality_defect(plane_rows, direction) -> float:
    """|det <V|W>| for the coherent plane V antipodal to the direction."""
    W = _orthonormal_rows(plane_rows)
    two_s = W.shape[1] - 1
    V = _orthonormal_rows(coherent_plane_rows(two_s, W.shape[0], -np.asarray(direction, dtype=float)))
    return float(abs(np.linalg.det(V.conj() @ W.T)))


def _projective(coeffs) -> np.ndarray:
    c = np.asarray(coeffs, dtype=complex)
    return c / c[int(np.argmax(np.abs(c)))]


def check_principal(plane_rows, routes: dict) -> str | None:
    """Routes map a name to (polynomial coefficients, stars) of one plane."""
    rows = np.asarray(plane_rows, dtype=complex)
    k, dim = rows.shape
    d_nom = k * (dim - k)
    if set(routes) != {"wronskian", "sampled", "top"}:
        return f"routes {sorted(routes)} are not the three principal routes"
    ref = None
    for name, (coeffs, stars) in sorted(routes.items()):
        if len(coeffs) != d_nom + 1:
            return f"{name}: {len(coeffs)} coefficients, expected {d_nom + 1}"
        total = 0
        for mult, d in stars:
            bad = _bad_direction(d)
            if bad:
                return f"{name}: {bad}"
            total += mult
            defect = transversality_defect(rows, d)
            if not defect <= TRANSVERSAL_TOL:
                return (
                    f"{name}: star at {list(d)} is not a transversality failure "
                    f"(|det| = {defect:.3g})"
                )
        if total != d_nom:
            return f"{name}: multiplicities sum to {total}, expected {d_nom}"
        p = _projective(coeffs)
        if ref is None:
            ref = p
        else:
            gap = float(np.max(np.abs(p - ref)))
            if not gap <= ROUTE_AGREEMENT_TOL:
                return f"routes disagree projectively by {gap:.3g}"
    return None


def check_block_norms(norms) -> str | None:
    """The spin blocks of a normalized Pluecker vector have unit total norm."""
    total = sum(float(x) ** 2 for x in norms)
    if not abs(total - 1.0) <= NORM_TOL:
        return f"squared block norms sum to {total!r}, expected 1"
    return None


def check_multicon(components, z_values) -> str | None:
    """Components are (two_j, amplitude or None, stars or None) triples."""
    if z_values is None:
        return "multiconstellation withheld Z"
    amps = [a for _, a, _ in components]
    if any(a is None for a in amps):
        return "a component has no amplitude"
    if len(z_values) != len(amps) or any(
        abs(complex(z) - complex(a)) > 1e-12 for z, a in zip(z_values, amps)
    ):
        return "Z differs from the component amplitudes"
    for two_j, a, stars in components:
        if stars is None or abs(complex(a)) <= 1e-9:
            continue
        total = sum(m for m, _ in stars)
        if total != two_j:
            return f"spin-{two_j}/2 block has {total} stars"
    return check_block_norms(abs(complex(a)) for a in amps)


# ---------------------------------------------------------------------------
# multiplicity tables and Schubert counts


@lru_cache(maxsize=8)
def subset_sum_counts(n: int) -> tuple:
    """counts[k][t]: number of k-subsets of range(n) whose elements sum to t.

    These are the coefficients of the Gaussian binomial [n choose k]_q
    (shifted by q^(k(k-1)/2)), built element by element in Python integers.
    """
    counts = [[1]] + [[] for _ in range(n)]
    for i in range(n):
        for k in range(min(i + 1, n), 0, -1):
            prev = counts[k - 1]
            if not prev:
                continue
            cur = counts[k]
            need = i + len(prev)
            if len(cur) < need:
                cur.extend([0] * (need - len(cur)))
            for t, c in enumerate(prev):
                if c:
                    cur[t + i] += c
    return tuple(tuple(c) for c in counts)


def reference_table(n: int, k: int) -> list:
    """[(two_j, m_j)] for two_j = k(n-k), ..., 0 from weight counts.

    A k-subset I of the m-ladder of spin s = (n-1)/2 has weight
    2M = sum_{i in I} (2s - 2i); m_j is the number of weights 2j minus the
    number of weights 2j + 2.
    """
    counts = subset_sum_counts(n)[k]
    two_s = n - 1

    def weights(two_m: int) -> int:
        twice_t = k * two_s - two_m
        if twice_t % 2:
            return 0
        t = twice_t // 2
        return counts[t] if 0 <= t < len(counts) else 0

    tsm = k * (n - k)
    return [(tj, weights(tj) - weights(tj + 2)) for tj in range(tsm, -1, -1)]


def _nonzero(entries) -> dict:
    return {int(tj): int(m) for tj, m in entries if m}


def check_table(n: int, k: int, entries, dual_entries=None) -> str | None:
    """entries: [(two_j, m_j)], all of them or only the nonzero ones.

    dual_entries, when given, is the same route's table for n - k, which
    must be identical (Lambda^k and Lambda^(n-k) are equivalent).
    """
    got = _nonzero(entries)
    if any(m < 0 for m in got.values()):
        return f"negative multiplicity in table ({n}, {k})"
    if sum((tj + 1) * m for tj, m in got.items()) != math.comb(n, k):
        return f"table ({n}, {k}) does not fill the wedge dimension C({n}, {k})"
    if got != _nonzero(reference_table(n, k)):
        return f"table ({n}, {k}) differs from the Gaussian-binomial weight counts"
    if dual_entries is not None and got != _nonzero(dual_entries):
        return f"tables ({n}, {k}) and ({n}, {n - k}) differ"
    return None


def hook_length_degree(n: int, k: int) -> int:
    """Degree of Gr(k, n): (k(n-k))! over the hook lengths of a k x (n-k) box."""
    m = n - k
    hooks = 1
    for i in range(k):
        for j in range(m):
            hooks *= (k - 1 - i) + (m - 1 - j) + 1
    num = math.factorial(k * m)
    if num % hooks:
        raise ArithmeticError("hook-length quotient is not an integer")
    return num // hooks


def check_schubert(two_s: int, k: int, value) -> str | None:
    want = hook_length_degree(two_s + 1, k)
    if value != want:
        return f"schubert({two_s}, {k}) = {value!r}, hook-length formula gives {want}"
    return None
