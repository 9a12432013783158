"""Majorana polynomial of a spin state, root finding, stars on the sphere.

A spin-s ket with coefficients c_m (m = s, ..., -s) maps to the polynomial

    P(zeta) = sum_m (-1)^(s-m) sqrt(C(2s, s-m)) c_m zeta^(s+m),

whose 2s roots (counting roots at infinity when the leading coefficients
vanish) stereographically project to the state's constellation of 2s stars.
The stereographic convention places zeta = 0 at the north pole and
zeta = infinity at the south pole, with antipodes at -1/conj(zeta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spin_rep import INF, RotationSpec, SpinState, so3_matrix

#: Relative magnitude below which a coefficient counts as zero.
COEFF_TOL = 1e-12

#: Chordal distance below which numerically split roots merge into one star.
CLUSTER_TOL = 1e-6


@dataclass(frozen=True)
class ComplexPolynomial:
    """Dense complex coefficients in ascending degree, length d_nom + 1.

    Trailing (high-degree) zeros are kept: d_nom is the nominal degree fixed
    by the construction (2s for a state, k * (2s + 1 - k) for a plane), and a
    deficit in the actual degree encodes roots at infinity.
    """

    coeffs: np.ndarray
    d_nom: int

    def __post_init__(self) -> None:
        c = np.array(self.coeffs, dtype=complex)
        if c.ndim != 1 or len(c) != self.d_nom + 1:
            raise ValueError(f"expected {self.d_nom + 1} coefficients, got {c.shape}")
        if not np.all(np.isfinite(c)):
            raise ValueError("coefficients must be finite")
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    def __call__(self, zeta: complex) -> complex:
        out = 0j
        for c in self.coeffs[::-1]:
            out = out * zeta + c
        return out

    def degree(self) -> int:
        """Actual degree, treating relatively tiny leading coefficients as 0."""
        mags = np.abs(self.coeffs)
        top = mags.max()
        if top == 0.0:
            raise ValueError("zero polynomial has no degree")
        nz = np.nonzero(mags > COEFF_TOL * top)[0]
        return int(nz[-1])


def projective_normalize(p: ComplexPolynomial) -> ComplexPolynomial:
    """Scale so the largest-magnitude coefficient is exactly 1 (zero phase)."""
    c = p.coeffs
    i = int(np.argmax(np.abs(c)))
    if c[i] == 0:
        raise ValueError("cannot normalize the zero polynomial")
    return ComplexPolynomial(c / c[i], p.d_nom)


def projective_distance(p: ComplexPolynomial, q: ComplexPolynomial) -> float:
    """Max coefficient difference after normalizing both polynomials."""
    if p.d_nom != q.d_nom:
        raise ValueError("polynomials have different nominal degrees")
    a = projective_normalize(p).coeffs
    b = projective_normalize(q).coeffs
    return float(np.max(np.abs(a - b)))


@dataclass(frozen=True)
class Star:
    """A point on the unit sphere carrying an integer multiplicity."""

    direction: np.ndarray
    multiplicity: int

    def __post_init__(self) -> None:
        v = np.array(self.direction, dtype=float)
        if v.shape != (3,):
            raise ValueError("direction must be a 3-vector")
        v /= np.linalg.norm(v)
        v.setflags(write=False)
        object.__setattr__(self, "direction", v)
        if self.multiplicity < 1:
            raise ValueError("multiplicity must be positive")

    def angles(self) -> tuple[float, float]:
        """(theta, phi) with theta in [0, pi], phi in [0, 2*pi).

        phi is 0 within CLUSTER_TOL of a pole, where atan2 would only read
        the rounding noise of x and y.
        """
        x, y, z = self.direction
        theta = math.acos(min(1.0, max(-1.0, z)))
        if math.hypot(x, y) <= CLUSTER_TOL:
            return theta, 0.0
        phi = math.atan2(y, x) % (2 * math.pi)
        return theta, phi


@dataclass(frozen=True)
class Constellation:
    """Stars with multiplicities; total counts multiplicity."""

    stars: tuple[Star, ...]
    total: int

    def __post_init__(self) -> None:
        if sum(st.multiplicity for st in self.stars) != self.total:
            raise ValueError("multiplicities must sum to total")

    def directions(self) -> np.ndarray:
        """All star directions expanded with multiplicity, shape (total, 3)."""
        if self.total == 0:
            return np.zeros((0, 3))
        return np.concatenate(
            [np.tile(st.direction, (st.multiplicity, 1)) for st in self.stars]
        )


def majorana_polynomial(psi: SpinState) -> ComplexPolynomial:
    """Polynomial whose roots stereographically project to the state's stars."""
    c = psi.coeffs
    if not np.any(c):
        raise ValueError("zero state has no Majorana polynomial")
    n = psi.s.two_s
    out = np.zeros(n + 1, dtype=complex)
    for i in range(n + 1):
        # coefficient index i runs over m = s - i; degree is n - i
        out[n - i] = (-1) ** i * math.sqrt(math.comb(n, i)) * c[i]
    return ComplexPolynomial(out, n)


def _horner_many(c: np.ndarray, z: np.ndarray) -> np.ndarray:
    out = np.zeros_like(z)
    for ck in c[::-1]:
        out = out * z + ck
    return out


def _aberth(c: np.ndarray) -> np.ndarray:
    """All roots of the ascending-coefficient polynomial c (c[-1] != 0)."""
    d = len(c) - 1
    lead = c[-1]
    radius = 1.0 + float(np.max(np.abs(c[:-1] / lead))) if d > 0 else 1.0
    rng = np.random.default_rng(0)
    k = np.arange(d)
    ang = 2 * np.pi * k / d + 0.4 + 0.01 * rng.standard_normal(d)
    z = radius * (1 + 0.01 * rng.standard_normal(d)) * np.exp(1j * ang)
    dc = c[1:] * np.arange(1, d + 1)
    for _ in range(200):
        pv = _horner_many(c, z)
        dv = _horner_many(dc, z)
        dv = np.where(dv == 0, 1e-300, dv)
        ratio = pv / dv
        diff = z[:, None] - z[None, :]
        np.fill_diagonal(diff, np.inf)
        diff[diff == 0] = 1e-300
        S = (1.0 / diff).sum(axis=1)
        denom = 1.0 - ratio * S
        denom = np.where(denom == 0, 1e-300, denom)
        step = ratio / denom
        z = z - step
        if np.max(np.abs(step)) <= 1e-12 * (1.0 + np.max(np.abs(z))):
            break
    return z


def poly_roots(p: ComplexPolynomial) -> list:
    """All d_nom roots; degree deficits come back as the tagged INF value."""
    c = p.coeffs
    top = float(np.max(np.abs(c)))
    if top == 0.0:
        raise ValueError("zero polynomial has no roots")
    nz = np.nonzero(np.abs(c) > COEFF_TOL * top)[0]
    deg = int(nz[-1])
    n_inf = p.d_nom - deg
    roots: list = [INF] * n_inf
    if deg > 0:
        roots.extend(complex(z) for z in _aberth(c[: deg + 1]))
    return roots


def stereo_to_sphere(zeta) -> np.ndarray:
    """Inverse stereographic projection; zeta = 0 -> north pole, INF -> south."""
    if zeta is INF:
        return np.array([0.0, 0.0, -1.0])
    z = complex(zeta)
    a = abs(z)
    if a > 1e150:  # numerically indistinguishable from the south pole
        return np.array([0.0, 0.0, -1.0])
    d = 1.0 + a * a
    return np.array([2 * z.real / d, 2 * z.imag / d, (1.0 - a * a) / d])


def stereo_from_sphere(n):
    """Stereographic coordinate of a unit vector; south pole maps to INF."""
    v = np.asarray(n, dtype=float)
    if abs(np.linalg.norm(v) - 1.0) > 1e-9:
        raise ValueError("n must be a unit vector")
    if v[2] < -1.0 + 1e-14:
        return INF
    return complex(v[0], v[1]) / (1.0 + v[2])


def antipode(zeta):
    """The stereographic coordinate of the antipodal point, -1/conj(zeta)."""
    if zeta is INF:
        return 0j
    z = complex(zeta)
    if z == 0:
        return INF
    return -1.0 / z.conjugate()


def _star_order(st: Star) -> tuple:
    """Sort key (theta, phi) with theta on a CLUSTER_TOL grid.

    Polar angles equal in exact arithmetic differ in their last bits, and
    must not decide the order of stars that share a circle of latitude.
    """
    theta, phi = st.angles()
    return round(theta / CLUSTER_TOL), phi


def constellation_from_roots(roots, total: int | None = None) -> Constellation:
    """Cluster projected roots into stars (chordal tolerance CLUSTER_TOL)."""
    pts = [stereo_to_sphere(r) for r in roots]
    if total is None:
        total = len(pts)
    used = [False] * len(pts)
    stars = []
    # deterministic O(n^2) greedy clustering; n = 2s stays small
    for i in range(len(pts)):
        if used[i]:
            continue
        members = [i]
        used[i] = True
        for j in range(i + 1, len(pts)):
            if not used[j] and np.linalg.norm(pts[i] - pts[j]) <= CLUSTER_TOL:
                members.append(j)
                used[j] = True
        mean = np.mean([pts[m] for m in members], axis=0)
        stars.append(Star(mean, len(members)))
    stars.sort(key=_star_order)
    return Constellation(tuple(stars), total)


def constellation_of_state(psi: SpinState) -> Constellation:
    """The 2s Majorana stars of a spin state."""
    return constellation_from_roots(poly_roots(majorana_polynomial(psi)))


def constellation_of_polynomial(p: ComplexPolynomial) -> Constellation:
    return constellation_from_roots(poly_roots(p))


def rotate_constellation(c: Constellation, r: RotationSpec) -> Constellation:
    R = so3_matrix(r)
    stars = tuple(Star(R @ st.direction, st.multiplicity) for st in c.stars)
    stars = tuple(sorted(stars, key=_star_order))
    return Constellation(stars, c.total)


def antipodal_constellation(c: Constellation) -> Constellation:
    stars = tuple(Star(-st.direction, st.multiplicity) for st in c.stars)
    stars = tuple(sorted(stars, key=_star_order))
    return Constellation(stars, c.total)


def constellation_match_angle(a: Constellation, b: Constellation) -> float:
    """Largest angle (radians) between paired stars.

    Stars, expanded by multiplicity, are paired so that the total angle is
    least; the largest single angle of that pairing is returned.
    """
    from scipy.optimize import linear_sum_assignment

    if a.total != b.total:
        raise ValueError("constellations have different sizes")
    if a.total == 0:
        return 0.0
    va = a.directions()
    vb = b.directions()
    dots = np.clip(va @ vb.T, -1.0, 1.0)
    cost = np.arccos(dots)
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())
