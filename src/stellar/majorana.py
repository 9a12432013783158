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
from functools import lru_cache

import numpy as np

from .spin_rep import INF, RotationSpec, SpinState, so3_matrix

#: Relative magnitude, after binomial weighting, below which a coefficient
#: counts as zero (see ComplexPolynomial.degree).
COEFF_TOL = 1e-12

#: Largest normwise backward error |P(w)| / sum |a_j| a root may have.
ROOT_TOL = 1e-10

#: Chordal distance below which numerically split roots merge into one star.
CLUSTER_TOL = 1e-6


@lru_cache(maxsize=64)
def _sqrt_binomials(n: int) -> np.ndarray:
    """The read-only row sqrt(C(n, j)), j = 0, ..., n."""
    row = np.array([math.sqrt(math.comb(n, j)) for j in range(n + 1)])
    row.setflags(write=False)
    return row


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

    def degree(self) -> int:
        """Actual degree, treating relatively tiny leading coefficients as 0.

        Each |a_j| is divided by sqrt(C(d_nom, j)) before the COEFF_TOL cut,
        so a Majorana polynomial is judged by the state's own coefficients,
        a rotation-invariant comparison.  Unweighted, the binomial factors
        alone span sqrt(C(80, 40)) ~ 1e11.5 at 2s = 80.
        """
        mags = np.abs(self.coeffs) / _sqrt_binomials(self.d_nom)
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
        v = np.asarray(self.direction, dtype=float)
        if v.shape != (3,):
            raise ValueError("direction must be a 3-vector")
        norm = math.sqrt(v.dot(v))
        if not 0.0 < norm < math.inf:
            raise ValueError("direction must be finite and nonzero")
        v = v / norm
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
    # coefficient index i runs over m = s - i; degree is n - i
    signs = (-1.0) ** np.arange(n + 1)
    return ComplexPolynomial((signs * _sqrt_binomials(n) * c)[::-1], n)


def poly_roots(p: ComplexPolynomial) -> list:
    """All d_nom roots; degree deficits come back as the tagged INF value.

    The finite roots are the eigenvalues of the companion matrix, which
    LAPACK balances before its QR iteration (backward stable: Edelman and
    Murakami, Math. Comp. 64 (1995)).  Each root z is then checked on the
    disc: w = z, or w = 1/z on the reversed coefficients when |z| > 1, must
    give |P(w)| <= ROOT_TOL * sum |a_j|, or ArithmeticError is raised.
    """
    deg = p.degree()
    roots: list = [INF] * (p.d_nom - deg)
    if deg == 0:
        return roots
    c = p.coeffs[: deg + 1]
    companion = np.eye(deg, k=-1, dtype=complex)
    companion[:, -1] = -c[:-1] / c[-1]
    z = np.linalg.eigvals(companion)
    inside = np.abs(z) <= 1.0
    w = np.divide(1.0, z, out=z.copy(), where=~inside)
    powers = np.vander(w, deg + 1, increasing=True)
    residual = np.abs(np.where(inside, powers @ c, powers @ c[::-1]))
    err = residual / np.abs(c).sum()
    worst = float(err.max())  # NaN if any root is NaN
    if not worst <= ROOT_TOL:
        raise ArithmeticError(
            f"root backward error {worst:.3g} exceeds ROOT_TOL = {ROOT_TOL:g}"
        )
    roots.extend(z.tolist())
    return roots


def stereo_to_sphere(zeta) -> np.ndarray:
    """Inverse stereographic projection; zeta = 0 -> north pole, INF -> south.

    A scalar gives a 3-vector, a sequence of roots an (n, 3) array.
    """
    if zeta is INF or np.ndim(zeta) == 0:
        return stereo_to_sphere([zeta])[0]
    z = np.array([math.inf if r is INF else r for r in zeta], dtype=complex)
    # hypot, as Python's abs(complex); np.abs can differ in the last bit
    a = np.hypot(z.real, z.imag)
    south = a > 1e150  # numerically indistinguishable from the south pole
    z[south] = 0.0
    a[south] = 0.0
    a2 = a * a
    d = 1.0 + a2
    pts = np.stack([2 * z.real / d, 2 * z.imag / d, (1.0 - a2) / d], axis=-1)
    pts[south] = (0.0, 0.0, -1.0)
    return pts


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


def _in_star_order(stars) -> tuple[Star, ...]:
    """Stars sorted by (theta on a CLUSTER_TOL grid, phi).

    Polar angles equal in exact arithmetic differ in their last bits, and
    must not decide the order of stars that share a circle of latitude.
    """
    stars = list(stars)
    if not stars:
        return ()
    # Star.angles over all stars at once
    x, y, z = np.array([st.direction for st in stars]).T
    theta = np.arccos(np.clip(z, -1.0, 1.0))
    phi = np.arctan2(y, x) % (2 * math.pi)
    phi[np.hypot(x, y) <= CLUSTER_TOL] = 0.0
    order = np.lexsort((phi, np.round(theta / CLUSTER_TOL)))
    return tuple(stars[i] for i in order)


def _cluster_labels(pts: np.ndarray) -> np.ndarray:
    """Greedy chordal clustering: the index of each point's star.

    In point order, the first point not yet taken opens the next star and
    takes every later free point within CLUSTER_TOL of it.
    """
    n = len(pts)
    d2 = np.zeros((n, n))
    for x in pts.T:  # n x n temporaries, no n x n x 3 difference tensor
        d2 += (x[:, None] - x[None, :]) ** 2
    close = np.sqrt(d2) <= CLUSTER_TOL
    labels = np.arange(n)
    shared = np.flatnonzero(close.sum(axis=1) > 1)
    if not len(shared):
        return labels
    for i in shared:
        if labels[i] == i:
            later = i + 1 + np.flatnonzero(close[i, i + 1 :])
            free = later[labels[later] == later]
            labels[free] = i
    opens = labels == np.arange(n)
    return (np.cumsum(opens) - 1)[labels]


def constellation_from_roots(roots, total: int | None = None) -> Constellation:
    """Cluster projected roots into stars (chordal tolerance CLUSTER_TOL).

    The clustering is greedy in root order (see _cluster_labels); a star
    sits at the normalized mean direction of its roots.
    """
    pts = stereo_to_sphere(list(roots))
    if total is None:
        total = len(pts)
    labels = _cluster_labels(pts)
    counts = np.bincount(labels)
    sums = np.zeros((len(counts), 3))
    np.add.at(sums, labels, pts)
    means = sums / counts[:, None]
    stars = (Star(v, m) for v, m in zip(means, counts.tolist()))
    return Constellation(_in_star_order(stars), total)


def constellation_of_state(psi: SpinState) -> Constellation:
    """The 2s Majorana stars of a spin state."""
    return constellation_from_roots(poly_roots(majorana_polynomial(psi)))


def constellation_of_polynomial(p: ComplexPolynomial) -> Constellation:
    return constellation_from_roots(poly_roots(p))


def rotate_constellation(c: Constellation, r: RotationSpec) -> Constellation:
    R = so3_matrix(r)
    stars = (Star(R @ st.direction, st.multiplicity) for st in c.stars)
    return Constellation(_in_star_order(stars), c.total)


def antipodal_constellation(c: Constellation) -> Constellation:
    stars = (Star(-st.direction, st.multiplicity) for st in c.stars)
    return Constellation(_in_star_order(stars), c.total)


def _assignment(cost: np.ndarray) -> np.ndarray:
    """Column of each row in a pairing of least total cost (square cost).

    The Hungarian method in its shortest-augmenting-path form (Kuhn 1955;
    Jonker & Volgenant 1987): row and column potentials keep every reduced
    cost nonnegative, and each row joins the matching along one
    Dijkstra-style path, each step of which is one pass over the columns.
    O(n^3). Column n is a sentinel that holds the row being added.
    """
    n = cost.shape[0]
    u = np.zeros(n)
    v = np.zeros(n + 1)
    row_of = np.full(n + 1, -1)
    for i in range(n):
        row_of[n] = i
        j = n
        dist = np.full(n, np.inf)
        prev = np.full(n, n)
        done = np.zeros(n + 1, dtype=bool)
        while row_of[j] != -1:
            done[j] = True
            r = row_of[j]
            unseen = ~done[:n]
            reduced = cost[r] - u[r] - v[:n]
            closer = unseen & (reduced < dist)
            dist[closer] = reduced[closer]
            prev[closer] = j
            j = int(np.argmin(np.where(unseen, dist, np.inf)))
            delta = dist[j]
            u[row_of[done]] += delta
            v[done] -= delta
            dist[unseen] -= delta
        while j != n:
            row_of[j] = row_of[prev[j]]
            j = prev[j]
    col_of_row = np.empty(n, dtype=int)
    col_of_row[row_of[:n]] = np.arange(n)
    return col_of_row


def constellation_match_angle(a: Constellation, b: Constellation) -> float:
    """Largest angle (radians) between paired stars.

    Stars, expanded by multiplicity, are paired by a least-total-angle
    assignment (`_assignment`, a Hungarian solver in numpy); the largest
    single angle of that pairing is returned.
    """
    if a.total != b.total:
        raise ValueError("constellations have different sizes")
    if a.total == 0:
        return 0.0
    va = a.directions()
    vb = b.directions()
    # 2 arcsin(chord / 2) resolves small angles, which arccos of a dot
    # product cannot: it reads 2^-26 for identical directions
    chord = np.linalg.norm(va[:, None, :] - vb[None, :, :], axis=2)
    cost = 2.0 * np.arcsin(np.minimum(chord / 2.0, 1.0))
    return float(cost[np.arange(a.total), _assignment(cost)].max())
