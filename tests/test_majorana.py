import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import linear_sum_assignment

from stellar import (
    ComplexPolynomial,
    RotationSpec,
    SpinLabel,
    SpinState,
    antipodal_constellation,
    coherent_state,
    constellation_match_angle,
    constellation_of_state,
    majorana_polynomial,
    poly_roots,
    projective_distance,
    projective_normalize,
    rotate_constellation,
    wigner_d,
)
from stellar.majorana import (
    CLUSTER_TOL,
    ROOT_TOL,
    Constellation,
    Star,
    _assignment,
    _constellations,
    _degrees,
    _roots,
    _sqrt_binomials,
    constellation_from_roots,
    stereo_to_sphere,
)
from stellar.spin_rep import so3_matrix

from conftest import INF, random_rotation, random_state, same_bits, stereo_from_sphere


def test_majorana_polynomial_spin1_oracle():
    # For coefficients (a, b, c) in the m = (1, 0, -1) basis the polynomial
    # is a z^2 - sqrt(2) b z + c; stored ascending.
    psi = SpinState(SpinLabel(2), np.array([1.0, 2.0, 3.0]))
    p = majorana_polynomial(psi)
    assert p.d_nom == 2
    assert np.allclose(p.coeffs, [3.0, -2.0 * math.sqrt(2.0), 1.0])


def test_majorana_polynomial_rejects_zero_state():
    with pytest.raises(ValueError):
        majorana_polynomial(SpinState(SpinLabel(2), np.zeros(3)))


def test_tetrahedron_constellation_exact():
    psi = SpinState(
        SpinLabel(4), np.array([1.0, 0.0, 0.0, math.sqrt(2.0), 0.0]) / math.sqrt(3.0)
    )
    p = majorana_polynomial(psi)
    # z^4 - 2 sqrt(2) z, up to the overall 1/sqrt(3)
    assert np.allclose(
        p.coeffs * math.sqrt(3.0), [0.0, -2.0 * math.sqrt(2.0), 0.0, 0.0, 1.0]
    )
    c = constellation_of_state(psi)
    assert c.total == 4
    want = {
        (0.0, 0.0, 1.0),
        (2.0 * math.sqrt(2.0) / 3.0, 0.0, -1.0 / 3.0),
        (-math.sqrt(2.0) / 3.0, math.sqrt(2.0 / 3.0), -1.0 / 3.0),
        (-math.sqrt(2.0) / 3.0, -math.sqrt(2.0 / 3.0), -1.0 / 3.0),
    }
    got = sorted(tuple(s.direction) for s in c.stars)
    for g, w in zip(got, sorted(want)):
        assert np.abs(np.array(g) - np.array(w)).max() < 1e-9


def test_poly_roots_against_numpy():
    rng = np.random.default_rng(21)
    c = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    p = ComplexPolynomial(c, 8)
    roots = poly_roots(p)
    assert not np.isinf(roots).any()
    got = sorted(roots, key=lambda z: (z.real, z.imag))
    want = sorted(np.roots(c[::-1]), key=lambda z: (z.real, z.imag))
    assert np.abs(np.array(got) - np.array(want)).max() < 1e-8


def test_leading_zero_coefficients_give_infinite_roots():
    # nominal degree 3, actual degree 1: two stars at the south pole
    p = ComplexPolynomial(np.array([1.0, 1.0, 0.0, 0.0]), 3)
    roots = poly_roots(p)
    assert np.isinf(roots).tolist() == [True, True, False]
    finite = roots[~np.isinf(roots)]
    assert len(finite) == 1
    assert abs(finite[0] - (-1.0)) < 1e-12
    c = constellation_from_roots(poly_roots(p))
    assert c.total == 3
    south = [s for s in c.stars if s.direction[2] < -0.99]
    assert south and south[0].multiplicity == 2


@pytest.mark.parametrize("d_nom", [0, 1, 2, 5, 12])
def test_poly_roots_is_a_complex_array_of_length_d_nom(d_nom):
    rng = np.random.default_rng(74 + d_nom)
    for lost in range(d_nom + 1):
        c = rng.standard_normal(d_nom + 1) + 1j * rng.standard_normal(d_nom + 1)
        c[d_nom + 1 - lost :] = 0.0
        if not c.any():
            c[0] = 1.0
        roots = poly_roots(ComplexPolynomial(c, d_nom))
        assert isinstance(roots, np.ndarray)
        assert roots.shape == (d_nom,) and roots.dtype == complex
        # the lost leading degrees come first, as complex(inf)
        assert np.isinf(roots).tolist() == [True] * lost + [False] * (d_nom - lost)
        assert roots[:lost].tolist() == [complex(math.inf)] * lost


def antipode(zeta):
    """The stereographic coordinate of the antipodal point, -1/conj(zeta) (oracle)."""
    z = complex(zeta)
    if cmath.isinf(z):
        return 0j
    if z == 0:
        return INF
    return -1.0 / z.conjugate()


def test_stereo_round_trip():
    rng = np.random.default_rng(22)
    for _ in range(20):
        n = rng.standard_normal(3)
        n /= np.linalg.norm(n)
        back = stereo_to_sphere(stereo_from_sphere(n))
        assert np.abs(back - n).max() < 1e-12
    assert np.allclose(stereo_to_sphere(0.0), [0.0, 0.0, 1.0])
    assert np.allclose(stereo_to_sphere(INF), [0.0, 0.0, -1.0])
    assert cmath.isinf(stereo_from_sphere(np.array([0.0, 0.0, -1.0])))


def test_antipode():
    rng = np.random.default_rng(23)
    for _ in range(10):
        z = complex(rng.standard_normal(), rng.standard_normal())
        assert np.abs(stereo_to_sphere(antipode(z)) + stereo_to_sphere(z)).max() < 1e-12
    assert cmath.isinf(antipode(0.0))
    assert antipode(INF) == 0.0


def test_coherent_state_stars_sit_at_its_direction():
    rng = np.random.default_rng(24)
    s = SpinLabel(5)
    z = complex(rng.standard_normal(), rng.standard_normal())
    c = constellation_of_state(coherent_state(s, z))
    n = stereo_to_sphere(z)
    assert c.total == 5
    # a quintuple root splits by roughly eps^(1/5) ~ 1e-3, so only a loose
    # per-star bound is meaningful; their mean is much better
    mean = np.zeros(3)
    for star in c.stars:
        assert np.abs(star.direction - n).max() < 1e-2
        mean += star.multiplicity * star.direction
    mean /= c.total
    assert np.abs(mean / np.linalg.norm(mean) - n).max() < 1e-4


def test_rotation_covariance_of_state_constellation():
    rng = np.random.default_rng(25)
    for two_s in (2, 3, 5):
        psi = random_state(rng, two_s)
        r = random_rotation(rng)
        rotated = SpinState(
            psi.s, wigner_d(psi.s, r) @ psi.coeffs
        )
        got = constellation_of_state(rotated)
        want = rotate_constellation(constellation_of_state(psi), r)
        assert constellation_match_angle(got, want) < 1e-12


def test_antipodal_constellation_negates_directions():
    rng = np.random.default_rng(26)
    psi = random_state(rng, 4)
    c = constellation_of_state(psi)
    anti = antipodal_constellation(c)
    assert anti.total == c.total
    got = sorted(map(tuple, -np.array([s.direction for s in c.stars]).round(9)))
    want = sorted(map(tuple, np.array([s.direction for s in anti.stars]).round(9)))
    assert np.abs(np.array(got) - np.array(want)).max() < 1e-9
    twice = antipodal_constellation(anti)
    assert constellation_match_angle(twice, c) < 1e-12


def test_projective_normalize_and_distance():
    rng = np.random.default_rng(27)
    c = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    p = ComplexPolynomial(c, 4)
    q = ComplexPolynomial(c * (2.3 - 0.7j), 4)
    assert projective_distance(p, q) < 1e-12
    top = projective_normalize(p).coeffs
    assert abs(np.abs(top).max() - 1.0) < 1e-12
    other = ComplexPolynomial(c + 0.5, 4)
    assert projective_distance(p, other) > 1e-3


def test_double_root_clustering():
    # (z - 1)^2 (z + 2) = z^3 - 3 z + 2
    p = ComplexPolynomial(np.array([2.0, -3.0, 0.0, 1.0]), 3)
    c = constellation_from_roots(poly_roots(p))
    mults = sorted(s.multiplicity for s in c.stars)
    assert mults == [1, 2]
    doubled = [s for s in c.stars if s.multiplicity == 2][0]
    assert np.abs(doubled.direction - stereo_to_sphere(1.0)).max() < 1e-6


def test_constellation_match_angle_detects_rotation():
    rng = np.random.default_rng(28)
    psi = random_state(rng, 3)
    c = constellation_of_state(psi)
    r = random_rotation(rng)
    rotated = rotate_constellation(c, r)
    assert constellation_match_angle(c, c) < 1e-12
    # mismatched constellations are flagged by a sizable angle
    if constellation_match_angle(c, rotated) < 1e-7:
        # the rotation happened to be a symmetry; extremely unlikely
        assert False, "random rotation should move a generic constellation"


def test_star_angles_ranges():
    rng = np.random.default_rng(29)
    c = constellation_of_state(random_state(rng, 6))
    for star in c.stars:
        theta, phi = star.angles()
        assert 0.0 <= theta <= math.pi
        assert 0.0 <= phi < 2.0 * math.pi


def test_stars_at_the_poles_report_zero_phi():
    # roots near 0 and near infinity: one star within ~1e-9 of each pole
    c = constellation_of_state(
        SpinState(SpinLabel(2), np.array([1e-9 * np.exp(0.7j), 1.0, 1e-9 * np.exp(-1.9j)]))
    )
    assert len(c.stars) == 2
    for star in c.stars:
        theta, phi = star.angles()
        assert min(theta, math.pi - theta) < 1e-8
        assert phi == 0.0


def test_constellation_from_roots_puts_a_root_at_infinity_at_the_south_pole():
    c = constellation_from_roots([0.0, INF])
    assert c.total == 2
    zs = sorted(s.direction[2] for s in c.stars)
    assert zs == pytest.approx([-1.0, 1.0])


def _mp_backward_error(coeffs, direction) -> float:
    """|P(w)| / sum |a_j| |w|^j of the exact binomial Majorana polynomial.

    Evaluated in 40-digit mpmath at the star's chart point: w = zeta on the
    northern hemisphere, else w = 1/zeta on the reversed polynomial.
    """
    n = len(coeffs) - 1
    with mpmath.workdps(40):
        a = [mpmath.mpc(0)] * (n + 1)
        for i, c in enumerate(coeffs):
            c = complex(c)
            a[n - i] = (-1) ** i * mpmath.sqrt(math.comb(n, i)) * mpmath.mpc(c.real, c.imag)
        x, y, z = (float(t) for t in direction)
        if z >= 0:
            w = complex(x, y) / (1.0 + z)
        else:
            w, a = complex(x, -y) / (1.0 - z), a[::-1]
        w = mpmath.mpc(w.real, w.imag)
        val = mpmath.mpc(0)
        scale = mpmath.mpf(0)
        for c in reversed(a):
            val = val * w + c
            scale = scale * abs(w) + abs(c)
        return float(abs(val) / scale)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(two_s=st.integers(2, 120), seed=st.integers(0, 2**32 - 1))
@example(two_s=36, seed=0)
@example(two_s=120, seed=0)
def test_random_state_stars_pass_the_mpmath_oracle(two_s, seed):
    psi = random_state(np.random.default_rng(seed), two_s)
    c = constellation_of_state(psi)
    assert c.total == two_s
    for star in c.stars:
        assert np.all(np.isfinite(star.direction))
        assert abs(np.linalg.norm(star.direction) - 1.0) < 1e-12
        assert _mp_backward_error(psi.coeffs, star.direction) <= 1e-8


def test_poly_roots_raises_when_a_root_fails_the_backward_error_check():
    # coefficients spread over 20 decades: the eigenvalue roots of this
    # polynomial miss ROOT_TOL by about two orders of magnitude
    rng = np.random.default_rng(61)
    c = (rng.standard_normal(41) + 1j * rng.standard_normal(41)) * 10.0 ** rng.uniform(
        -10, 10, 41
    )
    with pytest.raises(ArithmeticError, match="backward error"):
        poly_roots(ComplexPolynomial(c, 40))


def test_degree_compares_binomially_weighted_coefficients():
    # a_j = sqrt(C(n, j)) is the Majorana polynomial of a state with equal
    # coefficients up to signs: its ends are 1e-14.5 of its middle, yet count
    n = 100
    a = np.array([math.sqrt(math.comb(n, j)) for j in range(n + 1)])
    assert ComplexPolynomial(a, n).degree() == n
    a[-1] = 1e-13
    assert ComplexPolynomial(a, n).degree() == n - 1


def test_constellation_match_angle_resolves_small_angles():
    rng = np.random.default_rng(31)
    delta = 1e-9
    for two_s in (3, 6, 9):
        c = constellation_of_state(random_state(rng, two_s))
        assert constellation_match_angle(c, c) < 1e-14
        # an axis perpendicular to the first star moves it by exactly delta
        # and every other star by at most delta
        axis = np.cross(c.stars[0].direction, rng.standard_normal(3))
        axis /= np.linalg.norm(axis)
        moved = rotate_constellation(c, RotationSpec(axis, delta))
        assert constellation_match_angle(c, moved) == pytest.approx(delta, rel=1e-3)


def _majorana_polynomial_loop(psi: SpinState) -> np.ndarray:
    """The Majorana coefficients one term at a time (oracle)."""
    n = psi.s.two_s
    out = np.zeros(n + 1, dtype=complex)
    for i in range(n + 1):
        out[n - i] = (-1) ** i * math.sqrt(math.comb(n, i)) * psi.coeffs[i]
    return out


def test_majorana_polynomial_matches_the_loop_bit_for_bit():
    rng = np.random.default_rng(71)
    states = [random_state(rng, two_s) for two_s in range(1, 61)]
    states += [coherent_state(SpinLabel(two_s), 0.0) for two_s in (1, 4, 9)]
    states += [SpinState(SpinLabel(4), np.array([0.0, -1.0, 0.0, 1j, -0.0]))]
    for psi in states:
        got = majorana_polynomial(psi).coeffs
        assert got.tobytes() == _majorana_polynomial_loop(psi).tobytes()


@pytest.mark.parametrize(
    "direction",
    [np.zeros(3), [np.nan, 0.0, 1.0], [0.0, np.inf, 0.0], [0.0, -np.inf, np.inf]],
)
def test_star_rejects_directions_that_are_not_finite_and_nonzero(direction):
    with pytest.raises(ValueError, match="finite and nonzero"):
        Star(np.array(direction), 1)


@pytest.mark.parametrize("root", [complex("nan"), complex(1.0, math.nan)])
def test_constellation_from_roots_rejects_nan_roots(root):
    with pytest.raises(ValueError, match="must not be NaN"):
        constellation_from_roots([0.5j, root])


@pytest.mark.parametrize(
    "zeta", [complex("nan"), complex(1.0, math.nan), [0.5j, 2.0, complex("nan"), INF]]
)
def test_stereo_to_sphere_rejects_nan_points(zeta):
    with pytest.raises(ValueError, match="must not be NaN"):
        stereo_to_sphere(zeta)


def test_stereo_to_sphere_reads_an_infinite_part_as_infinity():
    # cmath.isinf(complex(inf, nan)) holds: the point is infinity, not NaN
    for z in (complex(math.inf, math.nan), complex(math.nan, -math.inf)):
        assert stereo_to_sphere(z).tolist() == [0.0, 0.0, -1.0]


def _stereo_scalar(r) -> np.ndarray:
    """Inverse stereographic projection in Python complex arithmetic (oracle)."""
    z = complex(r)
    a = abs(z)
    if a > 1e150:
        return np.array([0.0, 0.0, -1.0])
    d = 1.0 + a * a
    return np.array([2 * z.real / d, 2 * z.imag / d, (1.0 - a * a) / d])


def test_stereo_to_sphere_of_a_sequence_matches_the_scalar_formula():
    rng = np.random.default_rng(73)
    roots = [0.0, INF, 1e200 * np.exp(0.3j), 1e-9 * np.exp(2.1j), 0.7 - 1.2j, 40.0j]
    scale = 10.0 ** rng.uniform(-4, 4, 200)
    roots += list((rng.standard_normal(200) + 1j * rng.standard_normal(200)) * scale)
    pts = stereo_to_sphere(roots)
    assert pts.shape == (len(roots), 3)
    for r, pt in zip(roots, pts):
        assert pt.tobytes() == _stereo_scalar(r).tobytes()
        assert stereo_to_sphere(r).tobytes() == pt.tobytes()
    assert pts[1].tolist() == pts[2].tolist() == [0.0, 0.0, -1.0]
    assert stereo_to_sphere([]).shape == (0, 3)


def _greedy_clusters(roots) -> list:
    """Stars of the roots, one pair of roots at a time (oracle).

    The first free root opens a star and takes every later free root within CLUSTER_TOL; stars
    sort by (theta on a CLUSTER_TOL grid, phi).
    """
    pts = [_stereo_scalar(r) for r in roots]
    used = [False] * len(pts)
    stars = []
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
    return sorted(stars, key=_star_key)


def _star_key(star: Star) -> tuple:
    theta, phi = star.angles()
    return round(theta / CLUSTER_TOL), phi


def _unit(rng) -> np.ndarray:
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


def _along(v, rng, chords) -> list:
    """Points on one great circle through v, at the given chords from v."""
    t = np.cross(v, rng.standard_normal(3))
    t /= np.linalg.norm(t)
    angles = [2.0 * math.asin(c / 2.0) for c in chords]
    return [math.cos(a) * v + math.sin(a) * t for a in angles]


@st.composite
def _root_lists(draw) -> list:
    """Roots with planted clusters, a greedy chain and the poles, shuffled."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pts = [_unit(rng) for _ in range(draw(st.integers(0, 6)))]
    # pairs and triples 1e-8 apart merge; 1e-5 apart they stay separate
    for spacing in draw(st.lists(st.sampled_from([1e-8, 1e-5]), max_size=3)):
        centre = _unit(rng)
        size = draw(st.integers(2, 3))
        pts += [centre] + [_along(centre, rng, [spacing])[0] for _ in range(size - 1)]
    if draw(st.booleans()):
        # a - b and b - c are within CLUSTER_TOL, a - c is not: which star
        # b joins depends on which of the three comes first
        pts += _along(_unit(rng), rng, [0.0, 0.7e-6, 1.4e-6])
    roots = [stereo_from_sphere(p / np.linalg.norm(p)) for p in pts]
    phase = np.exp(2j * math.pi * rng.uniform())
    roots += draw(
        st.lists(st.sampled_from([0.0, INF, 1e200 * phase, 1e-9 * phase]), max_size=4)
    )
    return draw(st.permutations(roots))


def _as(kind: str, roots: list):
    """The roots as a list, a generator, or a complex array."""
    if kind == "generator":
        return (r for r in roots)
    if kind == "array":
        return np.array(roots, dtype=complex)
    return roots


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    roots=_root_lists(),
    kind=st.sampled_from(["list", "generator", "array"]),
    seed=st.integers(0, 2**32 - 1),
)
@example(roots=[], kind="list", seed=0)
@example(roots=[], kind="generator", seed=0)
@example(roots=[], kind="array", seed=0)
def test_constellation_from_roots_matches_the_greedy_oracle(roots, kind, seed):
    got = constellation_from_roots(_as(kind, roots))
    want = _greedy_clusters(roots)
    assert got.total == len(roots)
    assert got.multiplicities.tolist() == [s.multiplicity for s in want]
    want_directions = np.array([s.direction for s in want]).reshape(-1, 3)
    assert got.directions.tobytes() == want_directions.tobytes()
    # rotated and antipodal constellations list their stars in the same order
    r = random_rotation(np.random.default_rng(seed))
    for moved in (rotate_constellation(got, r), antipodal_constellation(got)):
        keys = [_star_key(s) for s in moved.stars]
        assert keys == sorted(keys)


def test_greedy_order_decides_a_chain():
    rng = np.random.default_rng(72)
    a, b, c = (stereo_from_sphere(p) for p in _along(_unit(rng), rng, [0.0, 0.7e-6, 1.4e-6]))
    assert sorted(s.multiplicity for s in constellation_from_roots([a, b, c]).stars) == [1, 2]
    assert [s.multiplicity for s in constellation_from_roots([b, a, c]).stars] == [3]


def _cost_matrix(rng, n: int, kind: str) -> np.ndarray:
    """A square cost: continuous, integer-rounded (ties) or with repeated
    rows and columns (stars of multiplicity > 1 on both sides)."""
    cost = rng.standard_normal((n, n))
    if kind == "ties":
        return np.round(2.0 * cost)
    if kind == "repeats":
        return cost[rng.integers(0, n, n)][:, rng.integers(0, n, n)]
    return cost


def _check_assignment(cost: np.ndarray, tie_free: bool) -> None:
    n = len(cost)
    col = _assignment(cost)
    assert sorted(col.tolist()) == list(range(n))
    rows, cols = linear_sum_assignment(cost)
    best = cost[rows, cols].sum()
    assert abs(cost[np.arange(n), col].sum() - best) <= 1e-12 * max(1.0, abs(best))
    if tie_free:
        assert col.tolist() == cols.tolist()


@settings(max_examples=30, deadline=None, derandomize=True)
@given(kind=st.sampled_from(["continuous", "ties", "repeats"]), seed=st.integers(0, 2**32 - 1))
def test_assignment_matches_the_scipy_optimum(kind, seed):
    rng = np.random.default_rng(seed)
    for n in [*range(1, 41), 80]:
        _check_assignment(_cost_matrix(rng, n, kind), kind == "continuous")


def _random_constellation(rng, mults) -> Constellation:
    directions = np.array([Star(_unit(rng), m).direction for m in mults]).reshape(-1, 3)
    return Constellation(directions, np.array(mults, dtype=int), sum(mults))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    mults=st.lists(st.integers(1, 4), min_size=1, max_size=12),
    nearby=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_constellation_match_angle_equals_the_scipy_pairing(mults, nearby, seed):
    rng = np.random.default_rng(seed)
    a = _random_constellation(rng, mults)
    if nearby:
        b = rotate_constellation(a, RotationSpec(_unit(rng), 1e-6 * rng.uniform()))
    else:
        b = _random_constellation(rng, rng.permutation(mults).tolist())
    va = np.array([st.direction for st in a.stars for _ in range(st.multiplicity)])
    vb = np.array([st.direction for st in b.stars for _ in range(st.multiplicity)])
    chord = np.linalg.norm(va[:, None, :] - vb[None, :, :], axis=2)
    cost = 2.0 * np.arcsin(np.minimum(chord / 2.0, 1.0))
    rows, cols = linear_sum_assignment(cost)
    assert constellation_match_angle(a, b) == cost[rows, cols].max()


def _moved_oracle(c: Constellation, move) -> list:
    """Stars of c moved one at a time, Star(move(d), m), sorted in Python (oracle)."""
    return sorted((Star(move(st.direction), st.multiplicity) for st in c.stars), key=_star_key)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    mults=st.lists(st.integers(1, 4), max_size=12),
    poles=st.lists(st.sampled_from([1.0, -1.0]), max_size=2),
    seed=st.integers(0, 2**32 - 1),
)
@example(mults=[], poles=[], seed=0)
def test_rotated_and_antipodal_constellations_match_the_per_star_oracle(mults, poles, seed):
    rng = np.random.default_rng(seed)
    directions = [_unit(rng) for _ in mults] + [np.array([0.0, 0.0, z]) for z in poles]
    counts = list(mults) + [1] * len(poles)
    c = constellation_from_roots(
        [stereo_from_sphere(d) for d, m in zip(directions, counts) for _ in range(m)]
    )
    r = random_rotation(rng)
    R = so3_matrix(r)
    for got, want in (
        (rotate_constellation(c, r), _moved_oracle(c, lambda d: R @ d)),
        (antipodal_constellation(c), _moved_oracle(c, lambda d: -d)),
    ):
        assert got.total == c.total
        assert got.multiplicities.tolist() == [s.multiplicity for s in want]
        want_directions = np.array([s.direction for s in want]).reshape(-1, 3)
        assert np.abs(got.directions - want_directions).max(initial=0.0) <= 1e-15
        # each row is normalized as Star normalizes it, so the bits agree too
        assert got.directions.tobytes() == want_directions.tobytes()


def _unit_rows_of(rng, n: int) -> np.ndarray:
    v = rng.standard_normal((n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


@pytest.mark.parametrize(
    "row", [[np.nan, 0.0, 1.0], [0.0, np.inf, 0.0], [0.0, 0.0, -np.inf], [0.0, 0.0, 0.0]]
)
def test_constellation_rejects_rows_that_are_not_finite_and_nonzero(row):
    directions = _unit_rows_of(np.random.default_rng(75), 3)
    directions[1] = row
    with pytest.raises(ValueError, match="finite and nonzero"):
        Constellation(directions, np.array([1, 2, 1]), 4)


@pytest.mark.parametrize(
    "directions, multiplicities, total, message",
    [
        (np.ones((2, 3)), [1, 0], 1, "positive"),
        (np.ones((2, 3)), [2, -1], 1, "positive"),
        (np.ones((2, 3)), [1, 2], 4, "sum to total"),
        (np.ones((2, 3)), [1, 1.5], 2, "integers"),
        (np.ones((2, 2)), [1, 1], 2, "need"),
        (np.ones(3), [1], 1, "need"),
        (np.ones((2, 3)), [1, 1, 1], 3, "need"),
        (np.ones((2, 3)), [[1, 1]], 2, "need"),
    ],
)
def test_constellation_rejects_bad_multiplicities_and_shapes(
    directions, multiplicities, total, message
):
    with pytest.raises(ValueError, match=message):
        Constellation(directions, np.array(multiplicities), total)


def test_constellation_arrays_are_read_only_copies_and_stars_share_their_bits():
    rng = np.random.default_rng(76)
    directions, mults = _unit_rows_of(rng, 5), np.array([1, 3, 1, 2, 1])
    c = Constellation(directions, mults, 8)
    directions[0] = 0.0
    mults[0] = 7
    assert c.directions[0].any() and c.multiplicities[0] == 1
    for a in (c.directions, c.multiplicities):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 2
    for built in (c, constellation_of_state(random_state(rng, 9))):
        assert len(built.stars) == len(built.directions)
        for i, star in enumerate(built.stars):
            assert star.direction.tobytes() == built.directions[i].tobytes()
            assert type(star.multiplicity) is int
            assert star.multiplicity == built.multiplicities[i]
            assert not star.direction.flags.writeable
    assert Constellation(np.zeros((0, 3)), np.zeros(0, dtype=int), 0).stars == ()


def _mixed_polynomials(rng) -> list:
    """Majorana polynomials of several degrees, repeated degrees, lost leading
    coefficients (roots at infinity) and a constant."""
    polys = []
    for two_s in (3, 1, 6, 3, 12, 6, 2, 5, 3):
        c = rng.standard_normal(two_s + 1) + 1j * rng.standard_normal(two_s + 1)
        polys.append(majorana_polynomial(SpinState(SpinLabel(two_s), c)))
    for lost in (1, 2, 4):
        c = rng.standard_normal(7) + 1j * rng.standard_normal(7)
        c[:lost] = 0.0  # m = 3, 2, ...: the top coefficients of the polynomial
        polys.append(majorana_polynomial(SpinState(SpinLabel(6), c)))
    polys.append(ComplexPolynomial(np.array([2.0 - 1j, 0.0, 0.0]), 2))
    return polys


def roots_of(polys) -> list:
    """`_roots` of ComplexPolynomials of any nominal degrees, their
    coefficients zero-padded to the widest."""
    coeffs = np.zeros((len(polys), max(p.d_nom for p in polys) + 1), dtype=complex)
    for row, p in zip(coeffs, polys):
        row[: p.d_nom + 1] = p.coeffs
    return _roots(coeffs, [p.degree() for p in polys], [p.d_nom for p in polys])


def test_batched_roots_equal_poly_roots_bit_for_bit():
    polys = _mixed_polynomials(np.random.default_rng(73))
    batched = roots_of(polys)
    assert len(batched) == len(polys)
    for p, roots in zip(polys, batched):
        assert same_bits(roots, poly_roots(p))
    assert [int(np.isinf(r).sum()) for r in batched[-4:]] == [1, 2, 4, 2]


def _roots_oracle(c: np.ndarray, lost: int) -> np.ndarray:
    """`poly_roots` of coefficients c whose top `lost` entries are zero, one
    polynomial at a time: the column companion filled entry by entry, its
    eigenvalues, and complex(inf) once per lost root (oracle)."""
    deg = len(c) - 1 - lost
    companion = np.zeros((deg, deg), dtype=complex)
    for i in range(deg):
        if i:
            companion[i, i - 1] = 1.0
        companion[i, deg - 1] = c[i] / -c[deg]
    finite = np.linalg.eigvals(companion) if deg else np.zeros(0, dtype=complex)
    return np.array([INF] * lost + finite.tolist(), dtype=complex)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(d_nom=st.integers(0, 48), lost=st.integers(0, 3), seed=st.integers(0, 2**32 - 1))
@example(d_nom=0, lost=0, seed=0)
@example(d_nom=3, lost=3, seed=0)
@example(d_nom=48, lost=0, seed=0)
@example(d_nom=48, lost=3, seed=0)
def test_poly_roots_equal_the_per_polynomial_eigvals_bit_for_bit(d_nom, lost, seed):
    lost = min(lost, d_nom)
    rng = np.random.default_rng(seed)
    c = (rng.standard_normal(d_nom + 1) + 1j * rng.standard_normal(d_nom + 1)) * 10.0 ** rng.uniform(-100, 100)
    c[d_nom + 1 - lost :] = 0.0
    assert same_bits(poly_roots(ComplexPolynomial(c, d_nom)), _roots_oracle(c, lost))


def test_batched_roots_raise_when_any_polynomial_fails_its_check():
    rng = np.random.default_rng(61)
    c = (rng.standard_normal(41) + 1j * rng.standard_normal(41)) * 10.0 ** rng.uniform(
        -10, 10, 41
    )
    good = _mixed_polynomials(np.random.default_rng(74))
    with pytest.raises(ArithmeticError, match="backward error"):
        roots_of(good[:3] + [ComplexPolynomial(c, 40)] + good[3:])


def _per_degree_roots(polys) -> list:
    """`poly_roots` of each polynomial, one `eigvals` per actual degree over
    that degree's unpadded companions (the root pass before companions of
    several degrees shared a stack: oracle).  Its verdict names the largest
    backward error of the batch, not of the first group that fails, which
    would depend on the order in which a set lists the degrees."""
    degrees = [p.degree() for p in polys]
    out = [None if d else np.full(p.d_nom, math.inf, dtype=complex) for p, d in zip(polys, degrees)]
    errors = [0.0]
    for deg in set(degrees) - {0}:
        idx = [i for i, d in enumerate(degrees) if d == deg]
        c = np.array([polys[i].coeffs[: deg + 1] for i in idx])
        companion = np.zeros((len(idx), deg, deg), dtype=complex)
        companion.reshape(len(idx), -1)[:, deg :: deg + 1] = 1.0
        np.divide(c[:, :-1], -c[:, -1:], out=companion[:, :, -1])
        z = np.linalg.eigvals(companion)
        outside = np.abs(z) > 1.0
        powers = np.empty((*z.shape, deg + 1), dtype=complex)
        powers[..., 0] = 1.0
        powers[..., 1:] = np.divide(1.0, z, out=z.copy(), where=outside)[..., None]
        np.multiply.accumulate(powers[..., 1:], axis=-1, out=powers[..., 1:])
        at_w = np.where(outside[..., None], powers @ c[:, ::-1, None], powers @ c[..., None])
        errors.append((np.abs(at_w[..., 0]) / np.abs(c).sum(1)[:, None]).max())
        for i, roots in zip(idx, z):
            lost = polys[i].d_nom - deg
            out[i] = roots if not lost else np.concatenate((np.full(lost, math.inf), roots))
    worst = float(np.max(errors))
    if not worst <= ROOT_TOL:
        raise ArithmeticError(f"root backward error {worst:.3g} exceeds ROOT_TOL = {ROOT_TOL:g}")
    return out


def _outcome(find, polys):
    """The roots `find` gives, or the message of the ArithmeticError it raises."""
    try:
        return find(polys)
    except ArithmeticError as e:
        return str(e)


def _assert_same_outcome(polys):
    got, want = _outcome(roots_of, polys), _outcome(_per_degree_roots, polys)
    assert type(got) is type(want), (got, want)
    if isinstance(want, str):
        assert got == want
        return
    for a, b in zip(got, want):
        assert same_bits(a, b)


def _spread_polynomial(rng, degree: int, lost: int, zero_root: bool) -> ComplexPolynomial:
    """Coefficients spread over +-8 decades, an exact zero root if asked, and
    `lost` zero leading coefficients past the actual degree."""
    c = (rng.standard_normal(degree + lost + 1) + 1j * rng.standard_normal(degree + lost + 1)) * (
        10.0 ** rng.uniform(-8, 8, degree + lost + 1)
    )
    c[degree + 1 :] = 0.0
    if zero_root:
        c[0] = 0.0
    return ComplexPolynomial(c, degree + lost)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    batch=st.lists(
        st.tuples(st.integers(1, 40), st.integers(0, 3), st.booleans()), min_size=1, max_size=20
    ),
    seed=st.integers(0, 2**32 - 1),
)
@example(batch=[(40, 0, False), (1, 0, False), (17, 2, True), (17, 0, False), (3, 3, True)], seed=0)
def test_padded_root_pass_equals_the_per_degree_oracle(batch, seed):
    # companions of every degree, in any degree order, zero-padded to the
    # largest of their chunk: the same roots, bit for bit, as unpadded
    # one-degree stacks, and the same verdict
    rng = np.random.default_rng(seed)
    _assert_same_outcome([_spread_polynomial(rng, *entry) for entry in batch])


def test_a_companion_past_the_padding_bound_keeps_its_own_stack():
    # order 80 is past the bound; the rest share one stack padded to 75
    rng = np.random.default_rng(76)
    polys = [_spread_polynomial(rng, d, lost, False) for d, lost in ((80, 0), (75, 0), (74, 1), (3, 0), (40, 2))]
    polys = [ComplexPolynomial(p.coeffs / np.abs(p.coeffs).max(), p.d_nom) for p in polys]
    _assert_same_outcome(polys)
    assert not isinstance(_outcome(roots_of, polys), str)


def test_the_batched_degree_cut_equals_degree():
    rng = np.random.default_rng(77)
    polys = [_spread_polynomial(rng, int(d), int(d) % 3, bool(d % 2)) for d in rng.integers(1, 30, 40)]
    polys += [majorana_polynomial(random_state(rng, n)) for n in range(1, 12)]
    coeffs = np.zeros((len(polys), 33), dtype=complex)
    binomials = np.ones(coeffs.shape)
    for row, weights, p in zip(coeffs, binomials, polys):
        row[: p.d_nom + 1], weights[: p.d_nom + 1] = p.coeffs, _sqrt_binomials(p.d_nom)[0]
    assert _degrees(coeffs, binomials).tolist() == [p.degree() for p in polys]


def test_batched_constellations_equal_the_one_set_path_bit_for_bit():
    rng = np.random.default_rng(75)
    sets = [poly_roots(p) for p in _mixed_polynomials(rng)]
    a, b = complex(rng.standard_normal(), rng.standard_normal()), 0.4 - 0.2j
    sets += [
        np.array([a, b, a, a + 1e-9, INF, INF]),  # clustered, at infinity too
        np.array([], dtype=complex),
        np.array([b]),
        np.array([a, -1.0 / np.conj(a), b, b]),  # an antipodal pair, a double star
    ]
    rng.shuffle(sets)
    batched = _constellations(sets)
    assert len(batched) == len(sets)
    assert sum(int((c.multiplicities > 1).any()) for c in batched) >= 3
    for roots, got in zip(sets, batched):
        want = constellation_from_roots(roots)
        assert same_bits(got.directions, want.directions)
        assert same_bits(got.multiplicities, want.multiplicities)
        assert got.total == want.total == len(roots)
        assert not got.directions.flags.writeable and not got.multiplicities.flags.writeable
