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
from functools import cached_property, lru_cache

import numpy as np

from .spin_rep import RotationSpec, SpinState, so3_matrix

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


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
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

    @classmethod
    def _of_row(cls, row: np.ndarray, multiplicity: int) -> Star:
        """A star on a validated read-only unit row, which it keeps bit for bit."""
        star = object.__new__(cls)
        object.__setattr__(star, "direction", row)
        object.__setattr__(star, "multiplicity", multiplicity)
        return star

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


@dataclass(frozen=True, eq=False)
class Constellation:
    """Stars as arrays: one unit row of `directions` and one entry of
    `multiplicities` per star; `total` counts multiplicity.

    Both arrays are copied, validated (rows finite and nonzero, each
    multiplicity at least 1, their sum equal to total) and made read-only;
    rows are kept as given, not renormalized.
    """

    directions: np.ndarray
    multiplicities: np.ndarray
    total: int

    def __post_init__(self) -> None:
        d = np.array(self.directions, dtype=float)
        m = np.array(self.multiplicities)
        if d.ndim != 2 or d.shape[1] != 3 or m.shape != (len(d),):
            raise ValueError(f"need (n, 3) directions, (n,) multiplicities: {d.shape}, {m.shape}")
        if len(m) and m.dtype.kind not in "iu":
            raise ValueError("multiplicities must be integers")
        m = m.astype(np.intp, copy=False)
        if not (np.isfinite(d).all() and d.any(axis=1).all()):
            raise ValueError("directions must be finite and nonzero")
        counts = m.tolist()  # Python reductions beat numpy's on a few entries
        if counts and min(counts) < 1:
            raise ValueError("multiplicity must be positive")
        if sum(counts) != self.total:
            raise ValueError("multiplicities must sum to total")
        d.setflags(write=False)
        m.setflags(write=False)
        object.__setattr__(self, "directions", d)
        object.__setattr__(self, "multiplicities", m)

    @cached_property
    def stars(self) -> tuple[Star, ...]:
        """The stars in order, each on its row of `directions`."""
        return tuple(map(Star._of_row, self.directions, self.multiplicities.tolist()))


def majorana_polynomial(psi: SpinState) -> ComplexPolynomial:
    """Polynomial whose roots stereographically project to the state's stars."""
    c = psi.coeffs
    if not np.any(c):
        raise ValueError("zero state has no Majorana polynomial")
    n = psi.s.two_s
    # coefficient index i runs over m = s - i; degree is n - i
    signs = (-1.0) ** np.arange(n + 1)
    return ComplexPolynomial((signs * _sqrt_binomials(n) * c)[::-1], n)


def poly_roots(p: ComplexPolynomial) -> np.ndarray:
    """All d_nom roots as a complex array; the d_nom - degree roots lost with
    the leading coefficients come first, as complex(inf).

    The finite roots are the eigenvalues of the companion matrix, which
    LAPACK balances before its QR iteration (backward stable: Edelman and
    Murakami, Math. Comp. 64 (1995)).  Each root z is then checked on the
    disc: w = z, or w = 1/z on the reversed coefficients when |z| > 1, must
    give |P(w)| <= ROOT_TOL * sum |a_j|, or ArithmeticError is raised.
    """
    deg = p.degree()
    at_inf = np.full(p.d_nom - deg, math.inf, dtype=complex)
    if deg == 0:
        return at_inf
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
    return np.concatenate((at_inf, z)) if len(at_inf) else z


def stereo_to_sphere(zeta) -> np.ndarray:
    """Inverse stereographic projection; zeta = 0 -> north pole, infinity -> south.

    A complex scalar gives a 3-vector; a sequence or array of n points, with
    infinity as complex(inf) as `poly_roots` returns it, gives an (n, 3)
    array in one pass.
    """
    z = np.asarray(zeta, dtype=complex)
    if z.ndim == 0:
        return stereo_to_sphere(z[None])[0]
    x, y = z.real, z.imag
    # hypot, as Python's abs(complex); np.abs can differ in the last bit
    a = np.hypot(x, y)
    south = a > 1e150  # numerically indistinguishable from the south pole
    any_south = south.any()
    if any_south:
        x, y, a = (np.where(south, 0.0, v) for v in (x, y, a))
    a2 = a * a
    d = 1.0 + a2
    pts = np.empty((len(a), 3))
    np.divide(2 * x, d, out=pts[:, 0])
    np.divide(2 * y, d, out=pts[:, 1])
    np.divide(1.0 - a2, d, out=pts[:, 2])
    if any_south:
        pts[south] = (0.0, 0.0, -1.0)
    return pts


def _unit_rows(v: np.ndarray) -> np.ndarray:
    """Each row divided by its norm, squared by the dot kernel of `Star`'s
    v.dot(v), so that a row gets the bits `Star` would give it."""
    return v / np.sqrt(v[:, None, :] @ v[:, :, None])[:, 0]


def _in_star_order(directions: np.ndarray) -> np.ndarray:
    """The permutation that lists rows by (theta on a CLUSTER_TOL grid, phi).

    Polar angles equal in exact arithmetic differ in their last bits, and
    must not decide the order of stars that share a circle of latitude.
    phi is 0 within CLUSTER_TOL of a pole, as in Star.angles.
    """
    x, y, z = directions.T
    theta = np.arccos(np.minimum(np.maximum(z, -1.0), 1.0))
    phi = np.arctan2(y, x) % (2 * math.pi)
    phi[np.hypot(x, y) <= CLUSTER_TOL] = 0.0
    return np.lexsort((phi, np.round(theta / CLUSTER_TOL)))


def _cluster_labels(pts: np.ndarray) -> np.ndarray:
    """Greedy chordal clustering: the index of each point's star.

    In point order, the first point not yet taken opens the next star and
    takes every later free point within CLUSTER_TOL of it.
    """
    n = len(pts)
    z = np.sort(pts[:, 2])
    if not (z[1:] - z[:-1] <= 2 * CLUSTER_TOL).any():
        return np.arange(n)  # a chord is at least its z gap: no two points are close
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


def _ordered(directions: np.ndarray, multiplicities: np.ndarray, total: int) -> Constellation:
    order = _in_star_order(directions)
    return Constellation(directions[order], multiplicities[order], total)


def constellation_from_roots(roots, total: int | None = None) -> Constellation:
    """Cluster projected roots into stars (chordal tolerance CLUSTER_TOL).

    The roots are a complex array as `poly_roots` returns, or any iterable
    of complex roots, infinity as complex(inf).  They are projected in one
    array pass and clustered greedily in root order (see _cluster_labels);
    a star sits at the mean of its roots' points, normalized once, and
    stars are listed in the order of _in_star_order.
    """
    pts = stereo_to_sphere(roots if isinstance(roots, np.ndarray) else list(roots))
    n = len(pts)
    total = n if total is None else total
    labels = _cluster_labels(pts)
    if n and labels.max() < n - 1:
        counts = np.bincount(labels)
        sums = np.zeros((len(counts), 3))
        np.add.at(sums, labels, pts)
        pts = sums / counts[:, None]
    else:
        counts = np.ones(n, dtype=np.intp)
    return _ordered(_unit_rows(pts), counts, total)


def constellation_of_state(psi: SpinState) -> Constellation:
    """The 2s Majorana stars of a spin state."""
    return constellation_from_roots(poly_roots(majorana_polynomial(psi)))


def constellation_of_polynomial(p: ComplexPolynomial) -> Constellation:
    return constellation_from_roots(poly_roots(p))


def rotate_constellation(c: Constellation, r: RotationSpec) -> Constellation:
    """Every star rotated by r and normalized, in one array pass.

    Each row is R @ d, as a matrix-vector product per row rather than one
    matrix product, so that a rotated star keeps the bits of Star(R @ d).
    """
    R = so3_matrix(r)
    moved = np.matmul(R, c.directions[:, :, None])[:, :, 0]
    return _ordered(_unit_rows(moved), c.multiplicities, c.total)


def antipodal_constellation(c: Constellation) -> Constellation:
    return _ordered(_unit_rows(-c.directions), c.multiplicities, c.total)


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
    va = np.repeat(a.directions, a.multiplicities, axis=0)
    vb = np.repeat(b.directions, b.multiplicities, axis=0)
    # 2 arcsin(chord / 2) resolves small angles, which arccos of a dot
    # product cannot: it reads 2^-26 for identical directions
    chord = np.linalg.norm(va[:, None, :] - vb[None, :, :], axis=2)
    cost = 2.0 * np.arcsin(np.minimum(chord / 2.0, 1.0))
    return float(cost[np.arange(a.total), _assignment(cost)].max())
