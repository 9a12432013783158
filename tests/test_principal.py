import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from stellar import (
    ComplexPolynomial,
    KFrame,
    SpinLabel,
    constellation_match_angle,
    decompose_plane,
    multiconstellation,
    planes_from_quartic_32,
    principal,
    principal_all,
    projective_distance,
    rotate_constellation,
    rotate_frame,
    schubert_count,
    standard_form,
)
from stellar.decomp import two_s_max
from stellar.grassmann import _multi_index_array
from stellar.majorana import stereo_to_sphere
from stellar.spin_rep import (
    _geodesic_quaternions,
    _wigner_columns,
    _wigner_stack,
    geodesic_rotation,
    wigner_d,
)
from stellar.principal import (
    _circle_coeffs,
    _circle_nodes,
    _sampled_plan,
    _wronskian_plan,
)

from conftest import random_frame, random_rotation, same_bits


def test_closed_form_spin_three_halves_k2():
    # rows [[1,0,m11,m12],[0,1,m21,m22]] give, in ascending order,
    # det(m) + 2 m12 z + sqrt(3)(m22 - m11) z^2 - 2 m21 z^3 + z^4
    rng = np.random.default_rng(51)
    for _ in range(6):
        m11, m12, m21, m22 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        frame = KFrame(
            SpinLabel(3), 2,
            np.array([[1, 0, m11, m12], [0, 1, m21, m22]]),
        )
        res = principal(frame, "wronskian")
        want = np.array(
            [
                m11 * m22 - m12 * m21,
                2.0 * m12,
                math.sqrt(3.0) * (m22 - m11),
                -2.0 * m21,
                1.0,
            ]
        )
        got = res.polynomial.coeffs
        got = got / got[-1]
        assert np.abs(got - want).max() < 1e-9


def test_tetrahedral_plane_all_routes():
    frame = KFrame(
        SpinLabel(3), 2,
        np.array([[1, 0, 0, math.sqrt(2.0)], [0, 1, 0, 0]], dtype=complex),
    )
    results = principal_all(frame)
    assert set(results) == {"wronskian", "sampled", "top"}
    want = ComplexPolynomial(
        np.array([0.0, 2.0 * math.sqrt(2.0), 0.0, 0.0, 1.0]), 4
    )
    for res in results.values():
        assert projective_distance(res.polynomial, want) < 1e-9
    # stars: north pole plus the tetrahedral triple at z = -1/3 containing
    # the direction (-2 sqrt(2)/3, 0, -1/3)
    stars = sorted(
        tuple(s.direction.round(9)) for s in results["wronskian"].constellation.stars
    )
    tips = [stereo_to_sphere(-math.sqrt(2.0) * np.exp(2j * math.pi * k / 3.0)) for k in range(3)]
    want_stars = sorted(
        tuple(v.round(9)) for v in ([np.array([0.0, 0.0, 1.0])] + tips)
    )
    for g, w in zip(stars, want_stars):
        assert np.abs(np.array(g) - np.array(w)).max() < 1e-9


def test_route_agreement_random_planes():
    rng = np.random.default_rng(52)
    for two_s, k in ((2, 2), (3, 2), (4, 2), (4, 3), (5, 2)):
        for _ in range(4):
            frame = random_frame(rng, two_s, k)
            results = principal_all(frame)
            polys = list(results.values())
            for i in range(len(polys)):
                for j in range(i + 1, len(polys)):
                    d = projective_distance(polys[i].polynomial, polys[j].polynomial)
                    assert d < 1e-12


def test_principal_accepts_plane_and_frame():
    rng = np.random.default_rng(53)
    frame = random_frame(rng, 3, 2)
    a = principal(frame).polynomial
    b = principal(standard_form(frame)).polynomial
    assert projective_distance(a, b) < 1e-12


@pytest.mark.parametrize("scale", [1e300, 1e-300])
def test_scaled_planes_give_the_unscaled_results(scale):
    # the raw minors of the scaled rows overflow or underflow, but every
    # route reads the frame's polar factor; the scale rounds each entry once
    for two_s, k in ((3, 2), (5, 3), (7, 3)):
        f = random_frame(np.random.default_rng(54), two_s, k)
        g = KFrame(f.s, f.k, scale * f.rows)
        want, got = principal_all(f), principal_all(g)
        for route in want:
            assert constellation_match_angle(got[route].constellation, want[route].constellation) < 1e-10
        for a, b in zip(decompose_plane(g), decompose_plane(f)):
            assert np.abs(a.state.coeffs - b.state.coeffs).max() < 1e-13
        za, zb = multiconstellation(g).z_values, multiconstellation(f).z_values
        assert np.abs(np.subtract(za, zb)).max() < 1e-12


def test_power_of_two_row_scales_give_bit_identical_results():
    # the polar factor is taken of the rows each scaled by a power of two,
    # which undoes any power-of-two scale of a row exactly
    for two_s, k in ((3, 2), (5, 3), (7, 3), (9, 4)):
        f = random_frame(np.random.default_rng(55), two_s, k)
        want = principal_all(f), decompose_plane(f), multiconstellation(f)
        for exponents in (np.where(np.arange(k) % 2, 500, -500), np.eye(k, dtype=int)[0] * 40):
            g = KFrame(f.s, f.k, np.ldexp(1.0, exponents)[:, None] * f.rows)
            res, comps, mc = principal_all(g), decompose_plane(g), multiconstellation(g)
            for route, r in want[0].items():
                assert same_bits(res[route].polynomial.coeffs, r.polynomial.coeffs)
            for a, b in zip(comps, want[1]):
                assert same_bits(a.state.coeffs, b.state.coeffs)
            assert same_bits(np.array(mc.z_values), np.array(want[2].z_values))


@pytest.mark.parametrize("two_s, k", [(7, 3), (9, 4)])
def test_sampled_stars_of_an_ill_conditioned_frame_match_the_wronskian_stars(two_s, k):
    # rows i >= 1 replaced by row 0 + eps row i of an orthonormal frame: the
    # same plane, from a frame of condition number about 1/eps
    q = np.linalg.qr(random_frame(np.random.default_rng(56), two_s, k).rows.T)[0].T
    for eps in (1e-7, 1e-9):
        mix = np.vstack([q[:1], q[0] + eps * q[1:]])
        res = principal_all(KFrame(SpinLabel(two_s), k, mix))
        angle = constellation_match_angle(res["sampled"].constellation, res["wronskian"].constellation)
        assert angle < 1e-6


# every (2s, k) with 1 <= k <= 2s and d_nom = k (2s + 1 - k) <= 35 (k = 2s + 1
# is the whole space, whose every result is empty)
_GL_SHAPES = [(t, k) for t in range(1, 36) for k in range(1, t + 1) if k * (t + 1 - k) <= 35]


def _at_every_gl_shape(test):
    """test, with one explicit example at each of _GL_SHAPES."""
    for shape in _GL_SHAPES:
        test = example(case=(shape, 0))(test)
    return test


def _plane_results(frame: KFrame) -> list:
    """Every route's coefficients and stars, every block's coefficients, and
    the multiconstellation's block stars and Z, as arrays."""
    routes = principal_all(frame).values()
    mc = multiconstellation(frame)
    stars = [r.constellation for r in routes]
    stars += [c.constellation for c in mc.components if c.constellation is not None]
    return [
        *(r.polynomial.coeffs for r in routes),
        *(c.state.coeffs for c in decompose_plane(frame)),
        *(a for c in stars for a in (c.directions, c.multiplicities)),
        np.array(mc.z_values or (), dtype=complex),
    ]


def _same_results(a: list, b: list) -> bool:
    return len(a) == len(b) and all(map(same_bits, a, b))


def _block_norms(frame: KFrame) -> np.ndarray:
    """The norms of the blocks, then |z| of each block when Z is given."""
    norms = [np.linalg.norm(c.state.coeffs) for c in decompose_plane(frame)]
    return np.array(norms + np.abs(multiconstellation(frame).z_values or ()).tolist())


@settings(max_examples=10, deadline=None, derandomize=True)
@given(case=st.tuples(st.sampled_from(_GL_SHAPES), st.integers(0, 2**32 - 1)))
@_at_every_gl_shape
def test_results_depend_on_the_plane_alone(case):
    # Bounds from 3930 seeded draws (seeds 0-29 at every shape), one BLAS
    # thread: standard-form rows under row scales moved by at most 7.1e-14 of
    # their largest entry, at (2s, k) = (16, 16), and block norms and |z|
    # under a mix M by at most 35.5 eps cond(M), at (35, 35), cond(M) = 1.6.
    (two_s, k), seed = case
    rng = np.random.default_rng([seed, two_s, k])
    g = rng.standard_normal((k, two_s + 1)) + 1j * rng.standard_normal((k, two_s + 1))
    rows = np.linalg.qr(g.T)[0].T  # orthonormal: the mixes below have cond(M) itself
    frame = KFrame(SpinLabel(two_s), k, rows)
    want, plane = _plane_results(frame), standard_form(frame)
    # a scale of all rows by 2^600 or 2^-600 changes no bit of any result
    # (the raw minors of the scaled rows overflow or underflow from k = 2)
    for scale in (2.0**600, 2.0**-600):
        g = KFrame(frame.s, k, scale * rows)
        assert _same_results(_plane_results(g), want)
        got = standard_form(g)
        assert got.pivot_columns == plane.pivot_columns and same_bits(got.rows, plane.rows)
    # nor do row scales 2^e, but the solve's row pivoting may change with them
    g = KFrame(frame.s, k, np.ldexp(1.0, rng.integers(-500, 501, size=k))[:, None] * rows)
    assert _same_results(_plane_results(g), want)
    got = standard_form(g)
    assert got.pivot_columns == plane.pivot_columns
    assert np.abs(got.rows - plane.rows).max() <= 1e-12 * np.abs(plane.rows).max()
    # a mix M moves the plane by about eps cond(M): block norms and |z| follow
    U, V = (
        np.linalg.qr(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))[0]
        for _ in range(2)
    )
    M = (U * 10.0 ** np.linspace(0.0, rng.uniform(0.0, 6.0), k)) @ V  # cond(M) <= 1e6
    gap = np.abs(_block_norms(KFrame(frame.s, k, M @ rows)) - _block_norms(frame)).max()
    assert gap <= 256 * np.finfo(float).eps * np.linalg.cond(M)


def test_degree_drop_puts_stars_at_south_pole():
    # span{|1,1>, |1,-1>}: principal polynomial -2z, one star north and the
    # infinite root mapped to the south pole
    frame = KFrame(SpinLabel(2), 2, np.array([[1, 0, 0], [0, 0, 1]], dtype=complex))
    for route in ("wronskian", "sampled", "top"):
        res = principal(frame, route)
        c = res.constellation
        assert c.total == 2
        zs = sorted(s.direction[2] for s in c.stars)
        assert zs == pytest.approx([-1.0, 1.0], abs=1e-9)


def test_principal_rotation_covariance():
    rng = np.random.default_rng(54)
    frame = random_frame(rng, 4, 2)
    r = random_rotation(rng)
    rotated = principal(rotate_frame(frame, r)).constellation
    want = rotate_constellation(principal(frame).constellation, r)
    assert constellation_match_angle(rotated, want) < 1e-12


def test_top_component_route_equals_wronskian():
    rng = np.random.default_rng(55)
    frame = random_frame(rng, 5, 2)
    a = principal(frame, "top").polynomial
    b = principal(frame, "wronskian").polynomial
    assert projective_distance(a, b) < 1e-13


def test_sampled_route_standalone():
    rng = np.random.default_rng(56)
    frame = random_frame(rng, 4, 3)
    a = principal(frame, "sampled").polynomial
    b = principal(frame, "wronskian").polynomial
    assert projective_distance(a, b) < 1e-12


def test_schubert_counts():
    assert schubert_count(SpinLabel(3), 2) == 2
    assert schubert_count(SpinLabel(4), 3) == 5
    assert schubert_count(SpinLabel(8), 4) == 1662804
    # a line's constellation determines it uniquely
    assert schubert_count(SpinLabel(6), 1) == 1


def test_planes_from_quartic_square_example():
    # zeta^4 - 1 has the square constellation; its two planes are the
    # conjugate pair with +-i in the standard form
    p = ComplexPolynomial(np.array([-1.0, 0.0, 0.0, 0.0, 1.0]), 4)
    planes = planes_from_quartic_32(p)
    assert len(planes) == 2
    reps = sorted(
        tuple(np.round(pl.rows, 9).ravel()) for pl in planes
    )
    want = sorted(
        tuple(np.round(np.array([[1, 0, v, 0], [0, 1, 0, v]], dtype=complex), 9).ravel())
        for v in (1j, -1j)
    )
    for g, w in zip(reps, want):
        assert np.abs(np.array(g) - np.array(w)).max() < 1e-9


def test_planes_from_quartic_random_inversion():
    rng = np.random.default_rng(57)
    for _ in range(10):
        coeffs = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        p = ComplexPolynomial(coeffs, 4)
        planes = planes_from_quartic_32(p)
        assert len(planes) == 2
        monic = coeffs / coeffs[4]
        for pl in planes:
            got = principal(pl).polynomial.coeffs
            got = got / got[4]
            assert np.abs(got - monic).max() < 1e-9


def test_wronskian_matches_plucker_top_block():
    # the exact Cauchy-Binet sum against the same linear map of the minors
    # read through bd_basis's top block, so a check of the numerically built
    # basis, at every shape with 2s <= 13 and a nonconstant polynomial, and
    # past it at the 54 shapes with d_nom <= 35 (k = 1, 2, 2s - 1 or 2s); the
    # integer product of the Vandermonde differences would overflow from k = 9
    small = [(two_s, k) for two_s in range(14) for k in range(1, two_s + 1)]
    wide = [
        (two_s, k)
        for two_s in range(14, 36)
        for k in sorted({1, 2, two_s - 1, two_s})
        if two_s_max(SpinLabel(two_s), k) <= 35
    ]
    assert len(wide) == 54
    for shapes in (small, wide):
        rng = np.random.default_rng(58)
        for two_s, k in shapes:
            frame = random_frame(rng, two_s, k)
            a = principal(frame, "top")
            b = principal(frame, "wronskian")
            assert projective_distance(a.polynomial, b.polynomial) <= 1e-13, (two_s, k)
            assert constellation_match_angle(a.constellation, b.constellation) <= 1e-12, (two_s, k)


@pytest.mark.parametrize("offset", [0.0, 0.5, 0.87])
def test_circle_coeffs_round_trip(offset):
    rng = np.random.default_rng(59)
    for n in (1, 2, 7, 64):
        coeffs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        nodes = _circle_nodes(n, offset)
        assert np.abs(np.abs(nodes) - 1.0).max() < 1e-15
        vals = np.array([np.polynomial.polynomial.polyval(z, coeffs) for z in nodes])
        got = _circle_coeffs(vals, offset)
        assert np.abs(got - coeffs).max() < 1e-13 * np.abs(coeffs).max()


def _orthonormal_rows(rows: np.ndarray) -> np.ndarray:
    q, _ = np.linalg.qr(np.asarray(rows).T)
    return q.T


def _transversality_defects(frame: KFrame, constellation) -> list[float]:
    """|det <V|W>| for each star n, with V the coherent plane at -n: every
    principal star makes it meet the plane, so each defect should vanish."""
    W = _orthonormal_rows(frame.rows)
    out = []
    for star in constellation.stars:
        # the k highest-weight states along -n span the coherent plane
        D = wigner_d(frame.s, geodesic_rotation(-star.direction))
        V = _orthonormal_rows(D[:, : frame.k].T)
        out.append(abs(np.linalg.det(V.conj() @ W.T)))
    return out


@pytest.mark.parametrize("seed", [1909, 1])
def test_interpolating_routes_fail_transversality_at_their_stars(seed):
    # only the sampled route interpolates; at (2s, k) = (12, 6) the
    # polynomial has degree 42
    frame = random_frame(np.random.default_rng(seed), 12, 6)
    assert max(_transversality_defects(frame, principal(frame, "sampled").constellation)) <= 2e-8


@pytest.mark.parametrize("seed", [1909, 1])
def test_wronskian_stars_are_transversal_at_high_degree(seed):
    # degrees 35 to 80: the end coefficients span a factor of about 2^(d/2),
    # so any read of them at a common absolute error misplaces polar stars
    for two_s, k in ((11, 5), (13, 6), (15, 7), (17, 8)):
        frame = random_frame(np.random.default_rng(seed), two_s, k)
        res = principal(frame, "wronskian")
        assert res.constellation.total == two_s_max(frame.s, k)
        assert max(_transversality_defects(frame, res.constellation)) <= 1e-12, (two_s, k)


_RSS_CODE = """
import resource
import numpy as np
from stellar import KFrame, SpinLabel, principal
rng = np.random.default_rng(1909)
frame = KFrame(SpinLabel(17), 8, rng.standard_normal((8, 18)) + 1j * rng.standard_normal((8, 18)))
principal(KFrame(SpinLabel(4), 2, rng.standard_normal((2, 5))), "wronskian")
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
principal(frame, "wronskian")
print((resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before) / 1024)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
def test_wronskian_peak_memory_is_bounded_at_17_8():
    # 43,758 minors of 8 x 8: all their matrices at once grew peak RSS by
    # about 60 MB; taken in chunks, by about 15 MB
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", _RSS_CODE], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) <= 35.0


def sampled_oracle(frame: KFrame) -> ComplexPolynomial:
    """The sampled route one node at a time: a geodesic rotation, a full
    Wigner matrix, a chart solve and a determinant per node."""
    s, k = frame.s, frame.k
    d_nom = two_s_max(s, k)
    nodes = _circle_nodes(d_nom + 1, 0.5)
    vals = np.empty(len(nodes), dtype=complex)
    for a, zeta in enumerate(nodes):
        rows = wigner_d(s, geodesic_rotation(-stereo_to_sphere(zeta)))[:, :k].T
        A = rows[:, :k]
        assert abs(np.linalg.det(A)) >= 1e-10
        V = np.linalg.solve(A, rows)
        vals[a] = zeta**d_nom * np.linalg.det(V.conj() @ frame.rows.T)
    return ComplexPolynomial(_circle_coeffs(vals, 0.5), d_nom)


def test_sampled_route_matches_the_per_node_oracle():
    rng = np.random.default_rng(60)
    for two_s in range(12):
        for k in range(1, two_s + 2):
            if two_s_max(SpinLabel(two_s), k) > 35:
                continue
            frame = random_frame(rng, two_s, k)
            got = principal(frame, "sampled").polynomial
            assert projective_distance(got, sampled_oracle(frame)) <= 1e-12, (two_s, k)


def test_chart_determinant_depends_only_on_the_shape():
    # on the unit circle the chart block of one node differs from another's
    # by row and column phases: moving the nodes cannot rescue a shape
    for two_s in range(20):
        for k in range(1, two_s + 2):
            dets = []
            for offset in (0.5, 0.87, 1.24):
                nodes = _circle_nodes(two_s_max(SpinLabel(two_s), k) + 1, offset)
                q = _geodesic_quaternions(-stereo_to_sphere(nodes))
                stack = _wigner_stack((two_s,), two_s + 1)
                A = _wigner_columns(stack, np.full(len(q), two_s), q, k)[:, :k, :]
                dets.append(np.abs(np.linalg.det(A)))
            dets = np.concatenate(dets)
            assert dets.max() - dets.min() <= 1e-9 * dets.max(), (two_s, k)


def test_sampled_route_raises_where_its_chart_is_singular():
    rng = np.random.default_rng(61)
    for two_s, k in ((16, 7), (17, 8)):
        with pytest.raises(ArithmeticError, match="nonsingular sampling nodes"):
            principal(random_frame(rng, two_s, k), "sampled")
    assert principal(random_frame(rng, 16, 6), "sampled").constellation.total == 66


ROUTES = ("wronskian", "sampled", "top")


def _route_or_error(frame, route):
    try:
        return principal(frame, route)
    except (ArithmeticError, RuntimeWarning) as e:
        return e


def test_principal_all_equals_the_single_routes_bit_for_bit():
    # one minors pass and one roots pass for all three routes change no bit;
    # where a route fails alone (as the sampled route does on its singular
    # chart, the last case), principal_all raises the first such failure
    rng = np.random.default_rng(62)
    for two_s in range(36):
        for k in range(1, two_s + 2):
            if two_s_max(SpinLabel(two_s), k) > 35:
                continue
            frame = random_frame(rng, two_s, k)
            alone = {r: _route_or_error(frame, r) for r in ROUTES}
            failed = [e for e in alone.values() if isinstance(e, Exception)]
            if failed:
                with pytest.raises(type(failed[0]), match=re.escape(str(failed[0]))):
                    principal_all(frame)
                continue
            together = principal_all(frame)
            assert list(together) == list(ROUTES)
            for r, one in alone.items():
                both = together[r]
                assert both.route == one.route == r
                assert same_bits(both.polynomial.coeffs, one.polynomial.coeffs), (two_s, k, r)
                assert same_bits(both.constellation.directions, one.constellation.directions)
                assert same_bits(both.constellation.multiplicities, one.constellation.multiplicities)
    with pytest.raises(ArithmeticError, match="nonsingular sampling nodes"):
        principal_all(random_frame(rng, 17, 8))


def test_shape_plans_are_cached_and_read_only():
    s = SpinLabel(7)
    for plan in (_wronskian_plan, _sampled_plan):
        first = plan(s, 4)
        assert plan(s, 4) is first
        arrays = [a for a in first if isinstance(a, np.ndarray)]
        assert arrays
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a[(0,) * a.ndim] = 1
    # a singular chart is a verdict kept per shape, too
    assert _sampled_plan(SpinLabel(16), 7) is None


@pytest.mark.parametrize("two_s, k", [(24, 25), (25, 25), (26, 26), (27, 27), (30, 29)])
def test_wronskian_matches_top_where_its_weights_outgrow_a_double(two_s, k):
    # the weights reach 2^988 to 2^1483 here, near or past the double range;
    # scaled by a power of two they raise no warning
    frame = random_frame(np.random.default_rng(100 * two_s + k), two_s, k)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        wronskian, top = principal(frame, "wronskian"), principal(frame, "top")
    assert wronskian.constellation.total == top.constellation.total == k * (two_s + 1 - k)
    assert constellation_match_angle(wronskian.constellation, top.constellation) <= 1e-7


@pytest.mark.parametrize(
    "two_s, k, scaled",
    [(3, 2, False), (9, 4, False), (13, 6, False), (20, 12, False), (23, 24, False),
     (26, 24, False), (24, 25, True), (25, 25, True), (26, 26, True)],
)
def test_wronskian_weights_are_scaled_only_where_they_outgrow_a_double(two_s, k, scaled):
    # below 2^970 the Vandermonde factor is the plain running product, bit
    # for bit (up to (26, 24), at 2^968.2); above, it is that product times
    # one power of two
    J = _multi_index_array(two_s + 1, k)
    plain = np.ones(len(J))
    for a, b in zip(*np.triu_indices(k, 1)):
        plain *= J[:, a] - J[:, b]
    vandermonde = _wronskian_plan(SpinLabel(two_s), k)[2]
    if not scaled:
        assert same_bits(vandermonde, plain)
        return
    ratio = vandermonde / plain
    assert np.all(ratio == ratio[0]) and ratio[0] < 1
    assert np.frexp(ratio[0])[0] == 0.5
