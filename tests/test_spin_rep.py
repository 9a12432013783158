import cmath
import importlib
import math

import mpmath
import numpy as np
import pytest

from stellar import (
    RotationSpec,
    SpinLabel,
    SpinState,
    coherent_state,
    constellation_of_state,
    geodesic_rotation,
    majorana_polynomial,
    poly_roots,
    so3_matrix,
    wigner_d,
)
from stellar.majorana import stereo_to_sphere
from stellar.spin_rep import (
    _geodesic_quaternions, _ladder, _sy_eigenbasis, _wigner_columns, _wigner_stack,
)

from conftest import (
    INF,
    compose,
    random_rotation,
    random_state,
    same_bits,
    spin_matrices,
    stereo_from_sphere,
)


def test_spin_label_basics():
    s = SpinLabel(3)
    assert s.s == 1.5
    assert s.dim == 4
    with pytest.raises(ValueError):
        SpinLabel(-1)


def test_spin_state_validation():
    s = SpinLabel(2)
    psi = SpinState(s, np.array([1.0, 0.0, 1.0]))
    assert psi.norm == pytest.approx(math.sqrt(2.0))
    with pytest.raises(ValueError):
        SpinState(s, np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        SpinState(s, np.array([1.0, np.nan, 0.0]))


def test_rotation_axis_must_be_unit():
    with pytest.raises(ValueError):
        RotationSpec(np.array([1.0, 1.0, 0.0]), 0.3)


@pytest.mark.parametrize(
    "make",
    [
        lambda: RotationSpec(np.array([math.nan, 0.0, 1.0]), 0.3),
        lambda: RotationSpec(np.array([0.0, 0.0, 1.0]), math.nan),
        lambda: RotationSpec(np.array([0.0, 0.0, 1.0]), math.inf),
        lambda: geodesic_rotation(np.array([0.0, math.nan, 1.0])),
    ],
    ids=["nan-axis", "nan-angle", "inf-angle", "nan-direction"],
)
def test_rotation_rejects_non_finite_input(make):
    with pytest.raises(ValueError):
        make()


def test_rotation_angle_folding():
    z = np.array([0.0, 0.0, 1.0])
    r = RotationSpec(z, 3.0 * math.pi)
    assert r.angle == pytest.approx(math.pi)
    assert np.allclose(r.axis, -z)
    # the 2*pi boundary stays representable: it is not the identity on
    # half-integer spins
    r2 = RotationSpec(z, 2.0 * math.pi)
    assert r2.angle == pytest.approx(2.0 * math.pi)
    D = wigner_d(SpinLabel(1), r2)
    assert np.allclose(D, -np.eye(2), atol=1e-12)
    D_int = wigner_d(SpinLabel(2), r2)
    assert np.allclose(D_int, np.eye(3), atol=1e-12)


def test_identity_rotation():
    r = RotationSpec(np.array([0.0, 0.0, 1.0]), 0.0)
    assert r.angle == 0.0
    assert np.array_equal(wigner_d(SpinLabel(3), r), np.eye(4))


def test_compose_z_rotations_add_angles():
    z = np.array([0.0, 0.0, 1.0])
    s = SpinLabel(3)
    D = wigner_d(s, RotationSpec(z, 0.7)) @ wigner_d(s, RotationSpec(z, 1.1))
    assert np.abs(D - wigner_d(s, RotationSpec(z, 1.8))).max() < 1e-12


def test_compose_matches_matrix_product():
    rng = np.random.default_rng(11)
    for two_s in (1, 2, 3):
        s = SpinLabel(two_s)
        for _ in range(6):
            r1 = random_rotation(rng)
            r2 = random_rotation(rng)
            lhs = wigner_d(s, compose(r1, r2))
            rhs = wigner_d(s, r1) @ wigner_d(s, r2)
            assert np.abs(lhs - rhs).max() < 1e-10


def test_inverse():
    rng = np.random.default_rng(12)
    r = random_rotation(rng)
    s = SpinLabel(3)
    D = wigner_d(s, r) @ wigner_d(s, RotationSpec(-r.axis, r.angle))
    assert np.abs(D - np.eye(4)).max() < 1e-10


def test_wigner_d_half_spin_y_rotation():
    theta = 0.9
    D = wigner_d(SpinLabel(1), RotationSpec(np.array([0.0, 1.0, 0.0]), theta))
    ref = np.array(
        [
            [math.cos(theta / 2), -math.sin(theta / 2)],
            [math.sin(theta / 2), math.cos(theta / 2)],
        ]
    )
    assert np.abs(D - ref).max() < 1e-12


def test_from_euler_zyz_half_spin():
    a, b, g = 0.7, 1.1, -0.4
    y, z = np.array([0.0, 1.0, 0.0]), np.array([0.0, 0.0, 1.0])
    r = compose(compose(RotationSpec(z, a), RotationSpec(y, b)), RotationSpec(z, g))
    D = wigner_d(SpinLabel(1), r)
    ref = np.array(
        [
            [
                cmath.exp(-1j * (a + g) / 2) * math.cos(b / 2),
                -cmath.exp(-1j * (a - g) / 2) * math.sin(b / 2),
            ],
            [
                cmath.exp(1j * (a - g) / 2) * math.sin(b / 2),
                cmath.exp(1j * (a + g) / 2) * math.cos(b / 2),
            ],
        ]
    )
    assert np.abs(D - ref).max() < 1e-12


def test_wigner_d_unitary():
    rng = np.random.default_rng(13)
    for two_s in (1, 2, 4, 5):
        s = SpinLabel(two_s)
        D = wigner_d(s, random_rotation(rng))
        assert np.abs(D @ D.conj().T - np.eye(s.dim)).max() < 1e-12


def _wigner_d_oracle(two_s: int, r: RotationSpec) -> np.ndarray:
    """Spin-s rotation matrix at 40 digits as a symmetric power of SU(2).

    With U = [[a, -conj(b)], [b, conj(a)]] acting on x, y by (x, y) -> (x, y) U,
    D[i', i] is the x^(n-i') y^(i') coefficient of x'^(n-i) y'^i, rescaled to
    the orthonormal basis x^(n-i) y^i / sqrt((n-i)! i!), n = 2s.
    """
    with mpmath.workdps(40):
        axis = [mpmath.mpf(float(t)) for t in r.axis]
        scale = mpmath.sin(mpmath.mpf(r.angle) / 2) / mpmath.sqrt(sum(t * t for t in axis))
        x, y, z = (scale * t for t in axis)
        w = mpmath.cos(mpmath.mpf(r.angle) / 2)
        u00, u01 = mpmath.mpc(w, -z), mpmath.mpc(-y, -x)
        u10, u11 = mpmath.mpc(y, -x), mpmath.mpc(w, z)
        n = two_s

        def expand(c0, c1):
            # row e: coefficients of x^p in (c0 x + c1 y)^e
            return [[math.comb(e, p) * c0**p * c1 ** (e - p) for p in range(e + 1)] for e in range(n + 1)]

        X, Y = expand(u00, u10), expand(u01, u11)
        fact = [math.factorial(t) for t in range(n + 1)]
        D = np.empty((n + 1, n + 1), dtype=complex)
        for ip in range(n + 1):
            for i in range(n + 1):
                lo, hi = max(0, n - ip - i), min(n - i, n - ip)
                acc = mpmath.fsum(X[n - i][p] * Y[i][n - ip - p] for p in range(lo, hi + 1))
                norm = mpmath.sqrt(mpmath.mpf(fact[n - ip] * fact[ip]) / (fact[n - i] * fact[i]))
                D[ip, i] = complex(acc * norm)
    return D


def test_wigner_d_matches_mpmath_oracle():
    rng = np.random.default_rng(1909)
    for two_s in range(1, 31):
        s = SpinLabel(two_s)
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        r = RotationSpec(axis, float(rng.uniform(0.0, 4.0 * np.pi)))
        assert np.abs(wigner_d(s, r) - _wigner_d_oracle(two_s, r)).max() <= 1e-14
        # a 2*pi rotation is -1 on half-integer spins
        full = wigner_d(s, RotationSpec(axis, 2.0 * np.pi))
        sign = -1.0 if two_s % 2 else 1.0
        assert np.abs(full - sign * np.eye(s.dim)).max() <= 1e-14
        r2 = random_rotation(rng)
        lhs = wigner_d(s, compose(r, r2))
        assert np.abs(lhs - wigner_d(s, r) @ wigner_d(s, r2)).max() <= 5e-14


def _geodesic_test_directions(rng) -> np.ndarray:
    n = rng.standard_normal((12, 3))
    n /= np.linalg.norm(n, axis=1)[:, None]
    # at the poles the tie-break puts the axis on y
    return np.vstack([n, [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]])


def test_geodesic_quaternions_match_geodesic_rotation():
    n = _geodesic_test_directions(np.random.default_rng(19))
    want = np.array([geodesic_rotation(v)._quaternion() for v in n])
    assert np.abs(_geodesic_quaternions(n) - want).max() <= 1e-15


def columns(two_s: np.ndarray, q: np.ndarray, x) -> np.ndarray:
    """`_wigner_columns` against the stack of exactly the spins in two_s, at
    the rows of x, or at max(2s) + 1 rows for an int x."""
    D = int(two_s.max()) + 1 if isinstance(x, int) else x.shape[1]
    return _wigner_columns(_wigner_stack(tuple(sorted(set(two_s.tolist()))), D), two_s, q, x)


def test_wigner_columns_match_wigner_d():
    n = _geodesic_test_directions(np.random.default_rng(20))
    q = _geodesic_quaternions(n)
    for two_s in range(0, 21):
        s = SpinLabel(two_s)
        for k in {1, (two_s + 2) // 2, s.dim}:
            got = columns(np.full(len(q), two_s), q, k)
            assert got.shape == (len(n), s.dim, k)
            for D, v in zip(got, n):
                want = wigner_d(s, geodesic_rotation(v))[:, :k]
                assert np.abs(D - want).max() <= 1e-13
    # the north pole is the identity, exactly
    assert np.array_equal(columns(np.array([5]), q[-2:-1], 6)[0], np.eye(6))


def test_wigner_columns_of_mixed_spins_match_wigner_d():
    # unsorted spins, repeated apart, spin 0, and identity rotations among
    # them, each block zero-padded to the largest
    rng = np.random.default_rng(21)
    spins = [3, 8, 3, 0, 5, 3, 1, 8, 1, 8, 2, 0, 5]
    rotations = [random_rotation(rng) for _ in spins]
    rotations[1] = rotations[7] = RotationSpec(np.array([0.0, 0.0, 1.0]), 0.0)
    q = np.array([r._quaternion() for r in rotations])
    x = np.zeros((len(spins), max(spins) + 1, 2), dtype=complex)
    for block, two_s in zip(x, spins):
        block[: two_s + 1] = rng.standard_normal((two_s + 1, 2)) + 1j * rng.standard_normal((two_s + 1, 2))
    got = columns(np.array(spins), q, x)
    assert got.shape == x.shape
    for i, (two_s, r) in enumerate(zip(spins, rotations)):
        want = wigner_d(SpinLabel(two_s), r) @ x[i, : two_s + 1]
        assert np.abs(got[i, : two_s + 1] - want).max() <= 1e-14
        assert not got[i, two_s + 1 :].any()
        if i in (1, 7):
            assert np.array_equal(got[i], x[i])


def _one_spin_wigner_columns(two_s: int, q: np.ndarray, k: int) -> np.ndarray:
    """The first k columns of each rotation matrix at one spin, as the
    kernel formed them before it took padded blocks of mixed spins: the
    cached V and V^dagger broadcast over the rotations (oracle)."""
    w, qx, qy, qz = np.asarray(q, dtype=float).T
    a, b = (w - 1j * qz).astype(np.clongdouble), (qy - 1j * qx).astype(np.clongdouble)
    abs_a, abs_b = np.abs(a), np.abs(b)
    a_zero, b_zero = abs_a == 0, abs_b == 0
    u = (a + a_zero) / (abs_a + a_zero)
    v = (b.conj() + b_zero) / (abs_b + b_zero)
    p = np.sqrt(u * v)
    c = abs_a - 1j * abs_b
    bases = np.empty((len(q), 3, 1), dtype=np.clongdouble)
    bases[:, 0, 0], bases[:, 1, 0], bases[:, 2, 0] = p, c / np.abs(c), u * p.conj()
    two_m, V = two_s - 2 * np.arange(two_s + 1), _sy_eigenbasis(two_s)
    VH = V.conj().T
    ph_alpha, ph_beta, ph_gamma = (bases**two_m).astype(complex)[..., None].transpose(1, 0, 2, 3)
    x = np.eye(two_s + 1, k)[None].repeat(len(q), 0)
    out = ph_alpha * (V @ (ph_beta * (VH @ (ph_gamma * x))))
    identity = b_zero & (a == 1)
    out[identity] = x[identity]
    return out


def test_one_spin_wigner_columns_keep_the_broadcast_kernel_bit_for_bit():
    # the padded kernel at one spin, as `wigner_d` and the sampled chart call it
    n = _geodesic_test_directions(np.random.default_rng(22))
    q = np.concatenate([_geodesic_quaternions(n), [random_rotation(np.random.default_rng(23))._quaternion()]])
    for two_s in range(0, 41):
        spins = np.full(len(q), two_s)
        for k in {1, (two_s + 2) // 2, two_s + 1}:
            assert same_bits(columns(spins, q, k), _one_spin_wigner_columns(two_s, q, k))


@pytest.mark.parametrize("shape", [(3, 2), (5, 3), (7, 4), (9, 4), (11, 5), (13, 6)])
def test_sampled_plan_keeps_the_broadcast_kernel_bit_for_bit(monkeypatch, shape):
    principal = importlib.import_module("stellar.principal")  # the package attribute is the function
    s, k = SpinLabel(shape[0]), shape[1]
    got = principal._sampled_plan(s, k)
    # the plan passes one 2s per node, all equal
    monkeypatch.setattr(
        principal,
        "_wigner_columns",
        lambda stack, two_s, q, k: _one_spin_wigner_columns(int(two_s[0]), q, k),
    )
    want = principal._sampled_plan.__wrapped__(s, k)
    assert len(got) == len(want) == 2
    for a, b in zip(got, want):
        assert same_bits(a, b)


def test_generators_commutators():
    for two_s in (0, 1, 2, 3, 4, 17):
        ops = spin_matrices(two_s)
        comm = ops.Sz @ ops.Splus - ops.Splus @ ops.Sz
        assert np.abs(comm - ops.Splus).max() < 1e-12
        comm2 = ops.Splus @ ops.Sminus - ops.Sminus @ ops.Splus
        assert np.abs(comm2 - 2.0 * ops.Sz).max() < 1e-12
        # the library's one ladder is the superdiagonal of S_+
        assert np.array_equal(_ladder(two_s), np.diagonal(ops.Splus, 1).real)


def test_coherent_state_poles():
    s = SpinLabel(4)
    north = coherent_state(s, 0.0)
    assert np.allclose(north.coeffs, np.eye(5)[0])
    south = coherent_state(s, INF)
    assert np.array_equal(south.coeffs, np.eye(5)[4])


def test_coherent_state_at_every_root_of_a_state_with_lost_leading_coefficients():
    # |3/2, -1/2>: the two leading coefficients of its polynomial vanish, so
    # poly_roots returns [inf, inf, 0]
    s = SpinLabel(3)
    roots = poly_roots(majorana_polynomial(SpinState(s, np.eye(4)[2])))
    assert np.isinf(roots).sum() == 2
    for r in roots:
        psi = coherent_state(s, r)
        assert np.isfinite(psi.coeffs).all()
        assert psi.norm == pytest.approx(1.0, abs=1e-12)
        c = constellation_of_state(psi)
        assert c.multiplicities.tolist() == [3]
        assert np.abs(c.directions[0] - stereo_to_sphere(r)).max() < 1e-12


def test_coherent_state_normalized():
    rng = np.random.default_rng(14)
    for two_s in (1, 3, 6):
        z = complex(rng.standard_normal(), rng.standard_normal())
        psi = coherent_state(SpinLabel(two_s), z)
        assert psi.norm == pytest.approx(1.0, abs=1e-12)
    # past |zeta| ~ 1.3e154, |zeta|^2 overflows: the state is still |s, -s>
    for z in (1e155, -3e200j, 1e300):
        psi = coherent_state(SpinLabel(3), z)
        assert np.abs(psi.coeffs - np.eye(4)[3] * (z / abs(z)) ** 3).max() < 1e-12


def test_coherent_overlap_law():
    # |<n|m>|^2 = ((1 + n.m)/2)^(2s)
    rng = np.random.default_rng(15)
    for two_s in (1, 2, 5):
        s = SpinLabel(two_s)
        for _ in range(5):
            za = complex(rng.standard_normal(), rng.standard_normal())
            zb = complex(rng.standard_normal(), rng.standard_normal())
            na, nb = stereo_to_sphere(za), stereo_to_sphere(zb)
            ov = abs(np.vdot(coherent_state(s, za).coeffs,
                             coherent_state(s, zb).coeffs)) ** 2
            want = ((1.0 + float(na @ nb)) / 2.0) ** two_s
            assert ov == pytest.approx(want, abs=1e-12)


def test_coherent_state_rotation_covariance():
    # D(geodesic(n)) |north> is the coherent state at n, up to phase
    rng = np.random.default_rng(16)
    s = SpinLabel(5)
    for _ in range(5):
        n = rng.standard_normal(3)
        n /= np.linalg.norm(n)
        rotated = wigner_d(s, geodesic_rotation(n)) @ coherent_state(s, 0.0).coeffs
        direct = coherent_state(s, stereo_from_sphere(n)).coeffs
        ov = abs(np.vdot(rotated, direct))
        assert ov == pytest.approx(1.0, abs=1e-10)


def test_geodesic_rotation_sends_z_to_n():
    rng = np.random.default_rng(17)
    z = np.array([0.0, 0.0, 1.0])
    for _ in range(8):
        n = rng.standard_normal(3)
        n /= np.linalg.norm(n)
        r = geodesic_rotation(n)
        assert np.abs(so3_matrix(r) @ z - n).max() < 1e-12
        # axis lies in the equatorial plane
        assert abs(r.axis[2]) < 1e-12


def test_geodesic_rotation_south_pole_tie():
    r = geodesic_rotation(np.array([0.0, 0.0, -1.0]))
    assert r.angle == pytest.approx(math.pi)
    assert np.allclose(r.axis, [0.0, 1.0, 0.0])


def test_so3_matches_spin_expectation_transformation():
    rng = np.random.default_rng(18)
    s = SpinLabel(3)
    ops = spin_matrices(s.two_s)
    for _ in range(5):
        psi = random_state(rng, 3)
        r = random_rotation(rng)
        rotated = wigner_d(s, r) @ psi.coeffs
        sev = np.array(
            [(psi.coeffs.conj() @ S @ psi.coeffs).real for S in (ops.Sx, ops.Sy, ops.Sz)]
        )
        sev_rot = np.array(
            [(rotated.conj() @ S @ rotated).real for S in (ops.Sx, ops.Sy, ops.Sz)]
        )
        assert np.abs(so3_matrix(r) @ sev - sev_rot).max() < 1e-10
