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
from functools import cached_property
from itertools import accumulate

import numpy as np

from ._cache import cached
from .spin_rep import _PRODUCT_CHUNK, RotationSpec, SpinState, so3_matrix

#: Relative magnitude, after binomial weighting, below which a coefficient
#: counts as zero (see ComplexPolynomial.degree).
COEFF_TOL = 1e-12

#: Largest normwise backward error |P(w)| / sum |a_j| a root may have.
ROOT_TOL = 1e-10

#: Chordal distance below which numerically split roots merge into one star.
CLUSTER_TOL = 1e-6

#: Largest companion order `_roots` pads to: ZHSEQR's NMIN crossover to ZLAHQR.
_PAD_ORDER = 75


@cached
def _sqrt_binomials(n: int) -> tuple:
    """The read-only rows sqrt(C(n, j)) and (-1)^j sqrt(C(n, j)), j = 0, ..., n."""
    row = np.array([math.sqrt(math.comb(n, j)) for j in range(n + 1)])
    return row, (-1.0) ** np.arange(n + 1) * row


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
        if not np.isfinite(c).all():
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
        d = int(_degrees(self.coeffs[None], _sqrt_binomials(self.d_nom)[0])[0])
        # the coefficient at the degree found is 0 only if every one is
        if self.coeffs[d] == 0:
            raise ValueError("zero polynomial has no degree")
        return d


def _degrees(coeffs: np.ndarray, binomials: np.ndarray) -> np.ndarray:
    """`ComplexPolynomial.degree` of each row of coeffs, binomials holding
    its sqrt(C(d_nom, j)), padded with any positive number; a zero row gives
    its last index."""
    mags = np.abs(coeffs) / binomials
    above = mags > COEFF_TOL * np.maximum.reduce(mags, axis=1, keepdims=True)
    return above.shape[1] - 1 - above[:, ::-1].argmax(1)


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

    @classmethod
    def _of_rows(cls, directions, multiplicities, total: int) -> Constellation:
        """A constellation on validated read-only arrays, which it keeps as they are."""
        c = object.__new__(cls)
        object.__setattr__(c, "directions", directions)
        object.__setattr__(c, "multiplicities", multiplicities)
        object.__setattr__(c, "total", total)
        return c

    @cached_property
    def stars(self) -> tuple[Star, ...]:
        """The stars in order, each on its row of `directions`."""
        return tuple(map(Star._of_row, self.directions, self.multiplicities.tolist()))


def majorana_polynomial(psi: SpinState) -> ComplexPolynomial:
    """Polynomial whose roots stereographically project to the state's stars."""
    c = psi.coeffs
    if not c.any():
        raise ValueError("zero state has no Majorana polynomial")
    n = psi.s.two_s
    # coefficient index i runs over m = s - i; degree is n - i
    return ComplexPolynomial((_sqrt_binomials(n)[1] * c)[::-1], n)


def poly_roots(p: ComplexPolynomial) -> np.ndarray:
    """All d_nom roots as a complex array; the d_nom - degree roots lost with
    the leading coefficients come first, as complex(inf).

    The one-polynomial case of `_roots`, which documents the method.
    """
    return _roots(p.coeffs[None], [p.degree()], [p.d_nom])[0]


def _roots(coeffs: np.ndarray, degrees: list, d_noms: list) -> list[np.ndarray]:
    """`poly_roots` of the polynomials whose ascending coefficients are the
    rows of coeffs up to degrees[i], of nominal degree d_noms[i]: a fixed
    number of array calls and one LAPACK `eigvals` per chunk.

    The finite roots are the eigenvalues of the companion matrix, which
    LAPACK balances before its QR iteration (backward stable: Edelman and
    Murakami, Math. Comp. 64 (1995)).  Companions are stacked by ascending
    degree, each chunk zero-padded to its largest: balancing isolates the
    padding and, up to order _PAD_ORDER, ZLAHQR runs on the rest, so no root
    changes a bit; a larger order shares a chunk only with its own.  Each
    root z is then checked on the disc: w = z, or w = 1/z on the reversed
    coefficients when |z| > 1, must give |P(w)| <= ROOT_TOL * sum |a_j|, or
    ArithmeticError names the batch's largest error.  The powers of w are
    one running product, as `np.vander` forms them.
    """
    out = [None] * len(degrees)
    chunks: list = []  # indices, in ascending degree
    for i in sorted(range(len(degrees)), key=degrees.__getitem__):
        d = degrees[i]
        if not d:  # every root lost
            out[i] = np.full(d_noms[i], math.inf, dtype=complex)
        elif chunks and (len(chunks[-1]) + 1) * d * d <= _PRODUCT_CHUNK and (
            d <= _PAD_ORDER or d == degrees[chunks[-1][0]]
        ):
            chunks[-1].append(i)
        else:
            chunks.append([i])
    worst = []  # each chunk's largest backward error
    for idx in chunks:
        n, D = len(idx), degrees[idx[-1]]
        one = degrees[idx[0]] == D  # one degree: nothing is padded
        c = coeffs.take(idx, 0)[:, : D + 1]
        companion = np.zeros((n, D, D), dtype=complex)
        if one:
            companion.reshape(n, -1)[:, D :: D + 1] = 1.0  # the subdiagonal
            np.divide(c[:, :-1], -c[:, -1:], out=companion[:, :, -1])
            back = c[:, ::-1]
        else:  # companion i in the top left, its last column -a_t / a_d in column d_i - 1
            rows, cols, deg = np.arange(n)[:, None], np.arange(D + 1), np.array(degrees)[idx, None]
            inside = cols[:D] < deg
            companion.reshape(n, -1)[:, D :: D + 1] = cols[: D - 1] < deg - 1
            companion[rows, cols[:D], deg - 1] = np.where(inside, c[:, :D] / -c[rows, deg], 0.0)
            c[cols > deg] = 0.0
            back = c[rows, (deg - cols) % (D + 1)]  # each row reversed
        z = np.linalg.eigvals(companion)
        outside = np.abs(z) > 1.0
        powers = np.empty((n, D, D + 1), dtype=complex)
        powers[..., 0] = 1.0
        powers[..., 1:] = np.divide(1.0, z, out=z.copy(), where=outside)[..., None]
        np.multiply.accumulate(powers[..., 1:], axis=-1, out=powers[..., 1:])
        at_w = np.where(outside[..., None], powers @ back[..., None], powers @ c[..., None])
        ratio = np.abs(at_w[..., 0]) / np.add.reduce(np.abs(c), 1)[:, None]
        worst.append(np.maximum.reduce(ratio if one else ratio[inside], None))  # NaN if a root is
        for i, roots in zip(idx, z):
            lost, roots = d_noms[i] - degrees[i], roots[: degrees[i]]
            out[i] = np.concatenate((np.full(lost, math.inf), roots)) if lost else roots
    worst = max(worst, default=0.0, key=lambda w: math.inf if math.isnan(w) else w)
    if not worst <= ROOT_TOL:
        raise ArithmeticError(f"root backward error {worst:.3g} exceeds ROOT_TOL = {ROOT_TOL:g}")
    return out


def stereo_to_sphere(zeta) -> np.ndarray:
    """Inverse stereographic projection; zeta = 0 -> north pole, infinity -> south.

    A complex scalar gives a 3-vector; a sequence or array of n points, with
    infinity as complex(inf) as `poly_roots` returns it, gives an (n, 3)
    array in one pass.  A NaN point raises ValueError, unless its other part
    is infinite: that point is infinity, as `cmath.isinf` reads it.
    """
    z = np.asarray(zeta, dtype=complex)
    if z.ndim == 0:
        return stereo_to_sphere(z[None])[0]
    x, y = z.real, z.imag
    # hypot, as Python's abs(complex); np.abs can differ in the last bit.
    # hypot(inf, nan) is inf, so only a NaN point off infinity gives NaN.
    a = np.hypot(x, y)
    # past 1e150 a point is numerically the south pole; NaN fails this too
    far = None if np.maximum.reduce(a, initial=0.0) <= 1e150 else a > 1e150
    if far is not None:
        if np.isnan(a).any():
            raise ValueError("stereographic points must not be NaN")
        x, y, a = (np.where(far, 0.0, v) for v in (x, y, a))
    pts = np.empty((len(a), 3))
    np.multiply(2.0, x, out=pts[:, 0])
    np.multiply(2.0, y, out=pts[:, 1])
    a2 = np.multiply(a, a, out=pts[:, 2])
    d = 1.0 + a2
    np.subtract(1.0, a2, out=a2)
    pts /= d[:, None]
    if far is not None:
        pts[far] = (0.0, 0.0, -1.0)
    return pts


def _unit_rows(v: np.ndarray) -> np.ndarray:
    """Each row divided by its norm, squared by the dot kernel of `Star`'s
    v.dot(v), so that a row gets the bits `Star` would give it."""
    return v / np.sqrt(v[:, None, :] @ v[:, :, None])[:, 0]


def _in_star_order(directions: np.ndarray, *sets: np.ndarray) -> np.ndarray:
    """The permutation that lists rows by (theta on a CLUSTER_TOL grid, phi),
    within each set when `sets` gives the (ascending) set of each row.

    Polar angles equal in exact arithmetic differ in their last bits, and
    must not decide the order of stars that share a circle of latitude.
    phi is 0 within CLUSTER_TOL of a pole, as in Star.angles.
    """
    x, y, z = directions.T
    theta = np.arccos(np.minimum(np.maximum(z, -1.0), 1.0))
    phi = np.arctan2(y, x) % (2 * math.pi)
    phi[np.hypot(x, y) <= CLUSTER_TOL] = 0.0
    return np.lexsort((phi, np.rint(theta / CLUSTER_TOL), *sets))


def _clustered(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Greedy chordal clustering: the stars, each at the mean of its points,
    and their multiplicities.

    In point order, the first point not yet taken opens the next star and
    takes every later free point within CLUSTER_TOL of it.
    """
    n = len(pts)
    d2 = np.zeros((n, n))
    for x in pts.T:  # n x n temporaries, no n x n x 3 difference tensor
        d2 += (x[:, None] - x[None, :]) ** 2
    close = np.sqrt(d2) <= CLUSTER_TOL
    labels = np.arange(n)
    for i in np.flatnonzero(close.sum(axis=1) > 1):
        if labels[i] == i:
            later = i + 1 + np.flatnonzero(close[i, i + 1 :])
            free = later[labels[later] == later]
            labels[free] = i
    opens = labels == np.arange(n)
    if opens.all():
        return pts, np.ones(n, dtype=np.intp)
    labels = (np.cumsum(opens) - 1)[labels]
    counts = np.bincount(labels)
    sums = np.zeros((len(counts), 3))
    np.add.at(sums, labels, pts)
    return sums / counts[:, None], counts


def _ordered(directions: np.ndarray, multiplicities: np.ndarray, total: int) -> Constellation:
    order = _in_star_order(directions)
    return Constellation(directions[order], multiplicities[order], total)


def constellation_from_roots(roots) -> Constellation:
    """Cluster projected roots into stars (chordal tolerance CLUSTER_TOL).

    The roots are a complex array as `poly_roots` returns, or any iterable
    of complex roots, infinity as complex(inf).  The one-set case of
    `_constellations`, which documents the method.
    """
    roots = roots if isinstance(roots, np.ndarray) else list(roots)
    return _constellations([roots])[0]


def _constellations(root_sets) -> list[Constellation]:
    """`constellation_from_roots` of each root set: a fixed number of numpy
    calls for the whole batch, however many sets it holds, and one
    `_clustered` pass for each set two of whose points lie within
    2 CLUSTER_TOL in z (a chord is at least its z gap).

    All roots are projected at once and every row is normalized once and
    validated (finite, nonzero) by one sum; one sort keyed on the set lists
    each set's stars in the order of `_in_star_order`.  A crowded set is
    clustered greedily in root order, each star at the mean of its points.
    """
    totals = [len(r) for r in root_sets]
    one = len(totals) == 1  # a lone set needs no concatenation, set offsets or split
    pts = stereo_to_sphere(root_sets[0] if one else np.concatenate(root_sets))
    # set i adds 4 i to z, so one sort keeps each set's points together
    key = np.zeros(len(pts)) if one else np.arange(0.0, 4 * len(totals), 4.0).repeat(totals)
    z = pts[:, 2] + key
    z.sort()
    gaps = z[1:] - z[:-1] <= 2 * CLUSTER_TOL
    sizes, counts = totals, None
    if np.logical_or.reduce(gaps):
        crowded = {int(k) // 4 for k in key[1:][gaps].tolist()}
        bounds = list(accumulate(totals, initial=0))
        parts = [
            _clustered(pts[a:b]) if i in crowded else (pts[a:b], np.ones(b - a, np.intp))
            for i, (a, b) in enumerate(zip(bounds, bounds[1:]))
        ]
        pts, counts = (np.concatenate(v) for v in zip(*parts))
        sizes = [len(m) for _, m in parts]
        key = np.arange(0.0, 4 * len(sizes), 4.0).repeat(sizes)
    rows = _unit_rows(pts)
    if not math.isfinite(np.add.reduce(rows, None)):  # a row that was zero or not finite is NaN now
        raise ValueError("directions must be finite and nonzero")
    order = _in_star_order(rows, key)
    rows = rows.take(order, 0)
    counts = np.ones(len(rows), np.intp) if counts is None else counts[order]
    rows.setflags(write=False)
    counts.setflags(write=False)
    if one:
        return [Constellation._of_rows(rows, counts, totals[0])]
    bounds = list(accumulate(sizes, initial=0))
    return [
        Constellation._of_rows(rows[a:b], counts[a:b], total)
        for a, b, total in zip(bounds, bounds[1:], totals)
    ]


def constellation_of_state(psi: SpinState) -> Constellation:
    """The 2s Majorana stars of a spin state."""
    return constellation_from_roots(poly_roots(majorana_polynomial(psi)))


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
