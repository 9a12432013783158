"""Principal polynomial and principal constellation of a spin-s k-plane.

Three routes compute the same degree-k(2s+1-k) polynomial (up to scale).
`wronskian` is the closed form: the rows' Wronskian as an exact sum over the
Pluecker minors.  `top`, the Majorana polynomial of the top spin block, is
the same map of the minors read through `bd_basis`, so it checks that basis.
`sampled` alone evaluates the polynomial without the minors: coherent-state
overlaps at unit-circle nodes (`_circle_nodes`) go to coefficients by one
scaled DFT (`_circle_coeffs`), whose equal absolute error in every
coefficient costs accuracy at high degree.  It reads the frame's polar
factor, the others its unit ray, so all depend on the plane alone.  The roots
on the sphere are the plane's principal constellation: exactly the directions
n whose antipodal coherent plane fails to be transversal.  The tables of a
set of routes are one plan per (2s, k), holding nothing another route needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._cache import cached
from ._exact import schubert_count, two_s_max  # schubert_count stays importable from here
from .grassmann import KFrame, KPlane, _multi_index_array, standard_form
from .majorana import (
    ComplexPolynomial,
    Constellation,
    _constellations,
    _degrees,
    _roots,
    _sqrt_binomials,
    stereo_to_sphere,
)
from .spin_rep import SpinLabel, _geodesic_quaternions, _wigner_columns, _wigner_stack


@dataclass(frozen=True)
class PrincipalResult:
    """Principal polynomial and its constellation, tagged with the route."""

    route: str
    polynomial: ComplexPolynomial
    constellation: Constellation


#: The sampled route's nodes sit half a step off the roots of unity.
_SAMPLE_OFFSET = 0.5


def _circle_nodes(n: int, offset: float) -> np.ndarray:
    """The n unit-circle points exp(2 pi i (a + offset) / n), a = 0..n-1."""
    return np.exp(2j * np.pi * (np.arange(n) + offset) / n)


def _circle_coeffs(vals: np.ndarray, offset: float) -> np.ndarray:
    """Coefficients of the degree < n polynomial taking vals at
    _circle_nodes(n, offset): a scaled DFT, of the same absolute error in each."""
    n = len(vals)
    return np.fft.fft(vals) / n * np.exp(-2j * np.pi * offset * np.arange(n) / n)


#: log2 bounds on the Wronskian weights: a shape whose largest weight stays
#: below 2^_WEIGHT_LOG2_LIMIT (up to (26, 24), at 2^968.2) uses them as they
#: are, and the unit minors, |P_J| <= 1, keep every term below its weight.
#: Beyond it, from (24, 25) at 2^988, the weights are scaled by the power of
#: two that brings the largest to 2^_WEIGHT_LOG2_TOP; a weight of 1 then
#: stays a normal double up to a largest of 2^1534.
_WEIGHT_LOG2_LIMIT, _WEIGHT_LOG2_TOP = 970, 512


@cached
def _wronskian_plan(s: SpinLabel, k: int) -> tuple:
    """(d_nom, e_J, 2^-t prod_{a<b} (J_a - J_b), prod_{t in J} (-1)^t sqrt(C(2s, t)))
    over the minors J of the (s, k) Wronskian sum, the arrays read-only.

    Row i of a frame is the polynomial P_i with rows[i, t] (-1)^t sqrt(C(2s, t))
    at zeta^(2s-t), and the monomials zeta^(2s-t), t in J, have the Wronskian
    prod_{a<b} (J_a - J_b) zeta^(e_J); so by Cauchy-Binet the zeta^e coefficient
    of the Wronskian det [ d^r P_i / d zeta^r ] sums the minors P_J times the
    last two factors over e_J = e, which fill exactly 0..d_nom: nothing is
    interpolated.  The scale 2^-t is exactly 1 unless the weights would leave
    the minors no room; the polynomial is projective, so it changes no root.
    """
    J = _multi_index_array(s.dim, k)
    signprod = np.prod(_sqrt_binomials(s.two_s)[1][J], axis=1)
    # a running product in floats, held as mantissa and exponent so that it
    # cannot overflow: in integers it overflows int64 from k = 9, and as one
    # double from k = 28
    mantissa, exponent = np.ones(len(J)), np.zeros(len(J), dtype=np.intc)
    for a, b in zip(*np.triu_indices(k, 1)):
        mantissa, step = np.frexp(mantissa * (J[:, a] - J[:, b]))
        exponent += step
    log2_top = np.max(exponent + np.log2(np.abs(mantissa)) + np.log2(np.abs(signprod)))
    t = math.ceil(log2_top) - _WEIGHT_LOG2_TOP if log2_top > _WEIGHT_LOG2_LIMIT else 0
    vandermonde = np.ldexp(mantissa, exponent - t)
    e = s.two_s * k - k * (k - 1) // 2 - J.sum(axis=1)
    return two_s_max(s, k), e, vandermonde, signprod


def _wronskian_polynomial(frame: KFrame, plan: tuple) -> ComplexPolynomial:
    d_nom, e, vandermonde, signprod = plan
    terms = frame._ray * vandermonde * signprod
    coeffs = np.bincount(e, terms.real, d_nom + 1)
    coeffs = coeffs + 1j * np.bincount(e, terms.imag, d_nom + 1)
    # written so that NaN, infinite or all-zero coefficients fail it too
    if not 0 < np.maximum.reduce(np.abs(coeffs)) < math.inf:
        raise ArithmeticError("Wronskian coefficients overflow or underflow")
    return ComplexPolynomial(coeffs, d_nom)


@cached
def _top_plan(s: SpinLabel, k: int) -> tuple:
    """((-1)^t sqrt(C(d_nom, t)), copies of the top multiplet's `bd_basis` rows
    (a plan keeps no basis alive), the wedge positions of their entries)."""
    from .decomp import bd_basis  # the one route plan that reads the basis

    basis = bd_basis(s, k)
    top = slice(*basis.layout[0].row_range)
    if basis.layout[0].two_j != two_s_max(s, k):
        raise ArithmeticError("block layout is missing the top spin sector")
    sign = _sqrt_binomials(basis.layout[0].two_j)[1]
    return sign, basis.coefs[top].copy(), basis.level_cols[basis.row_level[top]]


def _top_polynomial(frame: KFrame, plan: tuple) -> ComplexPolynomial:
    sign, coefs, cols = plan
    top = np.einsum("rc,rc->r", coefs, frame._ray[cols])  # as `_decompose_minors` forms it
    if np.linalg.norm(top) <= 1e-12:
        raise ArithmeticError(
            "top spin component vanishes; principal polynomial undefined "
            "through this route"
        )
    return ComplexPolynomial((sign * top)[::-1], len(top) - 1)


@cached
def _sampled_plan(s: SpinLabel, k: int) -> tuple | None:
    """(nodes**d_nom, conj(V)) at the (s, k) sampled route's nodes, read-only,
    V the first-columns chart representatives of the antipodal coherent
    planes, whose zeta^{k k'} det( conj(V) W^T ) is the principal polynomial;
    None where the chart is singular.  The chart block at a node on the unit
    circle differs from another's only by row and column phases, so its
    determinant depends on (2s, k) alone: where it falls below 1e-10 (first
    at (16, 7)) no choice of nodes helps."""
    d_nom = two_s_max(s, k)
    nodes = _circle_nodes(d_nom + 1, _SAMPLE_OFFSET)
    q = _geodesic_quaternions(-stereo_to_sphere(nodes))
    stack = _wigner_stack((s.two_s,), s.dim)
    rows = _wigner_columns(stack, np.full(len(q), s.two_s), q, k).transpose(0, 2, 1)
    A = rows[:, :, :k]
    if np.abs(np.linalg.det(A)).min() < 1e-10:
        return None
    return nodes**d_nom, np.linalg.solve(A, rows).conj()


def _sampled_polynomial(frame: KFrame, plan: tuple | None) -> ComplexPolynomial:
    if plan is None:
        raise ArithmeticError("could not find nonsingular sampling nodes")
    power, chart = plan
    vals = power * np.linalg.det(chart @ frame._polar.T)
    if not (np.logical_and.reduce(np.isfinite(vals)) and np.logical_or.reduce(vals)):
        raise ArithmeticError("overlaps at the sampling nodes overflow or underflow")
    return ComplexPolynomial(_circle_coeffs(vals, _SAMPLE_OFFSET), len(vals) - 1)


#: Each route's plan and its polynomial from frame and plan, in `principal_all` order.
_ROUTES = {
    "wronskian": (_wronskian_plan, _wronskian_polynomial),
    "sampled": (_sampled_plan, _sampled_polynomial),
    "top": (_top_plan, _top_polynomial),
}


@cached
def _principal_plan(s: SpinLabel, k: int, routes: tuple) -> tuple:
    """(sqrt(C(d_nom, j)), routes' plans)."""
    plans = tuple(_ROUTES[name][0](s, k) for name in routes)
    return _sqrt_binomials(two_s_max(s, k))[0], plans


def _principal(frame: KFrame, routes: tuple) -> dict:
    """The named routes' results: one plan lookup, the ray the frame keeps,
    and all the polynomials' roots and stars found in one pass."""
    binomials, plans = _principal_plan(frame.s, frame.k, routes)
    polys = [_ROUTES[name][1](frame, plan) for name, plan in zip(routes, plans)]
    coeffs = np.array([p.coeffs for p in polys])
    degrees = _degrees(coeffs, binomials).tolist()
    stars = _constellations(_roots(coeffs, degrees, [p.d_nom for p in polys]))
    return {name: PrincipalResult(name, p, c) for name, p, c in zip(routes, polys, stars)}


def principal(frame: KFrame, route: str = "wronskian") -> PrincipalResult:
    """Principal polynomial/constellation by the requested route."""
    if route not in _ROUTES:
        raise ValueError(f"unknown route {route!r}; choose from {sorted(_ROUTES)}")
    return _principal(frame, (route,))[route]


def principal_all(frame: KFrame) -> dict:
    """All three routes at once, keyed by route name: one pass over the
    three polynomials' roots and stars."""
    return _principal(frame, tuple(_ROUTES))


def planes_from_quartic_32(p: ComplexPolynomial) -> list[KPlane]:
    """Both spin-3/2 2-planes with the given monic quartic as principal
    polynomial (closed form; the generic count here is 2).

    With the plane in standard form rows (1, 0, m11, m12), (0, 1, m21, m22),
    the principal polynomial is

        zeta^4 - 2 m21 zeta^3 + sqrt(3) (m22 - m11) zeta^2
              + 2 m12 zeta + det m,

    which inverts by a single quadratic.  A vanishing discriminant returns
    the same plane twice.
    """
    if p.d_nom != 4:
        raise ValueError("expected a quartic (d_nom = 4)")
    c = p.coeffs
    if abs(c[4]) <= 1e-12 * float(np.max(np.abs(c))):
        raise ValueError("quartic must have a nonzero leading coefficient")
    a0, a1, a2, a3 = (c[:4] / c[4]).tolist()
    m21 = -a3 / 2
    m12 = a1 / 2
    delta = a2 / math.sqrt(3)
    gamma = a0 - a3 * a1 / 4
    disc = delta * delta + 4 * gamma
    sq = np.sqrt(complex(disc))
    s = SpinLabel(3)
    out = []
    for m11 in ((-delta + sq) / 2, (-delta - sq) / 2):
        m22 = m11 + delta
        rows = np.array([[1, 0, m11, m12], [0, 1, m21, m22]], dtype=complex)
        out.append(standard_form(KFrame(s, 2, rows)))
    return out
