import math
from fractions import Fraction

import numpy as np
import pytest

from stellar import (
    KFrame,
    SpinLabel,
    SpinState,
    constellation_match_angle,
    gauge_fix_component,
    multiconstellation,
    polarization_components,
    rotate_constellation,
    rotate_frame,
    spectator_constellation,
    standard_form,
)
from stellar.multicon import GAUGE_TOL, _polarization_diagonals
from stellar.spin_rep import geodesic_rotation, wigner_d

from conftest import random_frame, random_rotation, spin_matrices


def _twice(x, name: str) -> int:
    t = 2 * x
    r = round(t)
    if abs(t - r) > 1e-9:
        raise ValueError(f"{name} must be integer or half-integer, got {x}")
    return int(r)


def clebsch_gordan(j1, m1, j2, m2, J, M) -> float:
    """<j1 m1; j2 m2 | J M> in the Condon-Shortley convention (exact sum):
    the oracle the polarization operators are checked against.

    Returns 0.0 whenever a selection rule fails (M != m1 + m2, triangle
    inequality, out-of-range m, or parity mismatch).
    """
    tj1, tm1 = _twice(j1, "j1"), _twice(m1, "m1")
    tj2, tm2 = _twice(j2, "j2"), _twice(m2, "m2")
    tJ, tM = _twice(J, "J"), _twice(M, "M")
    if tm1 + tm2 != tM:
        return 0.0
    if abs(tm1) > tj1 or abs(tm2) > tj2 or abs(tM) > tJ:
        return 0.0
    if (tj1 + tm1) % 2 or (tj2 + tm2) % 2 or (tJ + tM) % 2:
        return 0.0
    if tJ < abs(tj1 - tj2) or tJ > tj1 + tj2 or (tj1 + tj2 + tJ) % 2:
        return 0.0

    def f(two_x: int) -> int:
        if two_x % 2:
            raise ValueError("internal parity error in factorial argument")
        return math.factorial(two_x // 2)

    norm = Fraction(tJ + 1)
    norm *= Fraction(
        f(tj1 + tj2 - tJ) * f(tj1 - tj2 + tJ) * f(-tj1 + tj2 + tJ),
        f(tj1 + tj2 + tJ + 2),
    )
    norm *= Fraction(
        f(tJ + tM) * f(tJ - tM) * f(tj1 - tm1) * f(tj1 + tm1)
        * f(tj2 - tm2) * f(tj2 + tm2)
    )
    t_lo = max(0, (tj2 - tJ - tm1) // 2, (tj1 + tm2 - tJ) // 2)
    t_hi = min(
        (tj1 + tj2 - tJ) // 2, (tj1 - tm1) // 2, (tj2 + tm2) // 2
    )
    total = Fraction(0)
    for t in range(t_lo, t_hi + 1):
        den = (
            math.factorial(t)
            * f(tj1 + tj2 - tJ - 2 * t)
            * f(tj1 - tm1 - 2 * t)
            * f(tj2 + tm2 - 2 * t)
            * f(tJ - tj2 + tm1 + 2 * t)
            * f(tJ - tj1 - tm2 + 2 * t)
        )
        total += Fraction((-1) ** t, den)
    return float(total) * math.sqrt(norm)


def exact_tensor_op(two_j: int, ell: int, m: int) -> np.ndarray:
    """T_{lm} with entries sqrt((2l+1)/(2j+1)) <j m'; l m | j m'+m>."""
    dim = two_j + 1
    j = two_j / 2
    T = np.zeros((dim, dim))
    for col in range(dim):
        mm = j - col
        if abs(mm + m) <= j:
            T[col - m, col] = math.sqrt((2 * ell + 1) / dim) * clebsch_gordan(
                j, mm, ell, m, j, mm + m
            )
    return T


def tensor_op(two_j: int, ell: int, m: int) -> np.ndarray:
    """T_{lm} as a dense matrix, from the library's diagonals."""
    W = _polarization_diagonals(two_j)[abs(m)]
    T = np.diag(W[:, ell - abs(m)], abs(m))
    return T if m >= 0 else (-1) ** m * T.T


def vw_frame() -> KFrame:
    return KFrame(
        SpinLabel(4), 2,
        np.array([[1, 0, 1, 0, 0], [0, 1, 0, 0, 1]], dtype=complex),
    )


def test_clebsch_gordan_half_half():
    r = 1.0 / math.sqrt(2.0)
    assert clebsch_gordan(0.5, 0.5, 0.5, -0.5, 1, 0) == pytest.approx(r)
    assert clebsch_gordan(0.5, 0.5, 0.5, -0.5, 0, 0) == pytest.approx(r)
    assert clebsch_gordan(0.5, -0.5, 0.5, 0.5, 0, 0) == pytest.approx(-r)
    assert clebsch_gordan(0.5, 0.5, 0.5, 0.5, 1, 1) == pytest.approx(1.0)


def test_clebsch_gordan_one_one():
    assert clebsch_gordan(1, 1, 1, -1, 0, 0) == pytest.approx(1.0 / math.sqrt(3.0))
    assert clebsch_gordan(1, 0, 1, 0, 0, 0) == pytest.approx(-1.0 / math.sqrt(3.0))
    assert clebsch_gordan(1, 1, 1, 0, 2, 1) == pytest.approx(1.0 / math.sqrt(2.0))
    # selection rules
    assert clebsch_gordan(1, 1, 1, 1, 0, 0) == 0.0
    assert clebsch_gordan(1, 1, 1, -1, 3, 0) == 0.0


def test_clebsch_gordan_orthogonality():
    rng = np.random.default_rng(61)
    j1, j2 = 1.5, 1.0
    for _ in range(4):
        m1 = float(rng.choice([-1.5, -0.5, 0.5, 1.5]))
        m2 = float(rng.choice([-1.0, 0.0, 1.0]))
        total = 0.0
        J = abs(j1 - j2)
        while J <= j1 + j2 + 1e-9:
            total += clebsch_gordan(j1, m1, j2, m2, J, m1 + m2) ** 2
            J += 1.0
        assert total == pytest.approx(1.0, abs=1e-12)


def all_tensor_ops(two_j: int):
    """Keys (l, m), l ascending and m descending, and the stacked T_{lm}."""
    keys = [(ell, m) for ell in range(two_j + 1) for m in range(ell, -ell - 1, -1)]
    return keys, np.array([tensor_op(two_j, ell, m) for ell, m in keys])


def test_tensor_operators_orthonormal():
    for two_j in range(0, 41):
        dim = two_j + 1
        keys, ops = all_tensor_ops(two_j)
        flat = ops.reshape(len(keys), -1)
        assert np.abs(flat.conj() @ flat.T - np.eye(len(keys))).max() < 1e-12
        assert np.abs(ops[0] - np.eye(dim) / math.sqrt(dim)).max() < 1e-12


def test_tensor_operator_adjoint_symmetry():
    # the library builds T_{l,-m} from T_{lm} by this identity; check it on
    # the exact operators, and the library's against them
    for two_j in range(0, 9):
        for ell in range(0, two_j + 1):
            for m in range(-ell, ell + 1):
                lhs = exact_tensor_op(two_j, ell, m).conj().T
                rhs = (-1.0) ** m * exact_tensor_op(two_j, ell, -m)
                assert np.abs(lhs - rhs).max() < 1e-12
                assert np.abs(tensor_op(two_j, ell, m) - exact_tensor_op(two_j, ell, m)).max() < 1e-13


def test_tensor_operators_are_spherical_tensors():
    # [S_z, T_lm] = m T_lm and [S_+, T_lm] = sqrt(l(l+1) - m(m+1)) T_{l,m+1}
    for two_j in range(0, 41):
        gens = spin_matrices(two_j)
        keys, ops = all_tensor_ops(two_j)
        m = np.array([mm for _, mm in keys], dtype=float)[:, None, None]
        l = np.array([ell for ell, _ in keys], dtype=float)[:, None, None]
        z = gens.Sz @ ops - ops @ gens.Sz
        assert np.abs(z - m * ops).max() < 1e-12
        # with m descending, T_{l,m+1} sits one place before T_lm; T_{l,l+1} = 0
        raised = np.concatenate([np.zeros_like(ops[:1]), ops[:-1]])
        raised[[i for i, (ell, mm) in enumerate(keys) if mm == ell]] = 0.0
        up = gens.Splus @ ops - ops @ gens.Splus
        assert np.abs(up - np.sqrt(l * (l + 1) - m * (m + 1)) * raised).max() < 1e-12


def test_polarization_components_match_exact_oracle():
    rng = np.random.default_rng(68)
    for two_j in range(0, 17):
        dim = two_j + 1
        A = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        rho = A @ A.conj().T
        pol = polarization_components(rho, SpinLabel(two_j))
        for ell, m, v in pol.values:
            want = np.vdot(exact_tensor_op(two_j, ell, m), rho)
            assert abs(v - want) < 1e-13 * max(1.0, np.abs(rho).max())


def test_polarization_hermitian_symmetry():
    rng = np.random.default_rng(62)
    s = SpinLabel(4)
    A = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    rho = A @ A.conj().T
    pol = polarization_components(rho, s)
    for ell in range(0, 5):
        for m in range(0, ell + 1):
            lhs = pol.get(ell, -m)
            rhs = (-1.0) ** m * np.conj(pol.get(ell, m))
            assert abs(lhs - rhs) < 1e-9
    assert pol.get(0, 0) == pytest.approx(np.trace(rho).real / math.sqrt(5.0))


def test_polarization_get_matches_linear_scan():
    rng = np.random.default_rng(64)
    for two_j in range(13):
        A = rng.standard_normal((two_j + 1,) * 2) + 1j * rng.standard_normal(
            (two_j + 1,) * 2
        )
        pol = polarization_components(A @ A.conj().T, SpinLabel(two_j))
        for ell in range(two_j + 1):
            for m in range(-ell, ell + 1):
                want = next(v for l2, m2, v in pol.values if (l2, m2) == (ell, m))
                assert pol.get(ell, m) == want
        for ell, m in ((-1, 0), (two_j + 1, 0), (0, 1), (two_j, two_j + 1), (two_j, -two_j - 1)):
            with pytest.raises(KeyError):
                pol.get(ell, m)


def test_polarization_field_order():
    rng = np.random.default_rng(63)
    s = SpinLabel(2)
    A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    pol = polarization_components(A @ A.conj().T, s)
    order = [(ell, m) for ell, m, _ in pol.values]
    assert order == [
        (0, 0),
        (1, 1), (1, 0), (1, -1),
        (2, 2), (2, 1), (2, 0), (2, -1), (2, -2),
    ]


def full_table_polarization(rho: np.ndarray, two_j: int) -> tuple:
    """Every (ell, m, rho_lm) in storage order, all diagonals of rho expanded
    at once."""
    diags = _polarization_diagonals(two_j)
    up = [W.T @ np.diagonal(rho, m) for m, W in enumerate(diags)]
    down = [(-1) ** m * W.T @ np.diagonal(rho, -m) for m, W in enumerate(diags)]
    return tuple(
        (ell, m, complex(up[m][ell - m] if m >= 0 else down[-m][ell + m]))
        for ell in range(two_j + 1)
        for m in range(ell, -ell - 1, -1)
    )


def dense_gauge_fix(psi: SpinState) -> dict:
    """Gauge fixing with the spin expectation as three dense quadratic forms
    and the aligned state's full polarization table."""
    two_j, c, nrm = psi.s.two_s, psi.coeffs, psi.norm
    ops = spin_matrices(two_j)
    sev = np.array([(c.conj() @ S @ c).real for S in (ops.Sx, ops.Sy, ops.Sz)])
    out = dict(sev=sev, z=None, alpha=None, beta=None, selected_lm=None)
    if np.linalg.norm(sev) <= GAUGE_TOL * (two_j / 2) * nrm * nrm:
        return dict(out, applicable=False, reason="vanishing spin expectation")
    D = wigner_d(psi.s, geodesic_rotation(sev / np.linalg.norm(sev)))
    psi1 = D.conj().T @ c
    table = full_table_polarization(np.outer(psi1, psi1.conj()), two_j)
    selected = next(
        ((ell, m, v) for ell, m, v in table if m != 0 and abs(v) > GAUGE_TOL * nrm * nrm),
        None,
    )
    if selected is None:
        return dict(out, applicable=False, reason="axial symmetry", table=table)
    ell0, m0, v0 = selected
    alpha = math.atan2(v0.imag, v0.real) % (2.0 * math.pi)
    if 2.0 * math.pi - alpha < 1e-9:
        alpha = 0.0
    m_values = psi.s.m_values()
    psi2 = np.exp(-1j * alpha * m_values / m0) * psi1
    mags = np.abs(psi2)
    lead_idx = int(np.nonzero(mags > 1e-12 * mags.max())[0][0])
    beta0 = math.atan2(psi2[lead_idx].imag, psi2[lead_idx].real) % (2 * math.pi)
    cands = []
    for t in range(abs(m0) if two_j % 2 == 0 else 2 * abs(m0)):
        cand = (beta0 - 2.0 * math.pi * t * m_values[lead_idx] / m0) % (2.0 * math.pi)
        cands.append(0.0 if 2 * math.pi - cand < 1e-9 else cand)
    beta = min(cands)
    return dict(
        out, applicable=True, reason=None, table=table, selected_lm=(ell0, m0),
        alpha=alpha, beta=beta, z=nrm * complex(math.cos(beta), math.sin(beta)),
    )


def _gauge_test_states():
    rng = np.random.default_rng(69)
    for two_j in range(1, 25):
        dim = two_j + 1
        for _ in range(4):
            c = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            yield SpinState(SpinLabel(two_j), c / np.linalg.norm(c))
        # a few nonzero coefficients: sparse polarization tables
        c = np.zeros(dim, dtype=complex)
        c[rng.choice(dim, size=2, replace=False)] = rng.standard_normal(2)
        yield SpinState(SpinLabel(two_j), c)
        for i in range(dim):  # |j, m>: axial symmetry, or no expectation at m = 0
            yield SpinState(SpinLabel(two_j), np.eye(dim)[i])
        if two_j >= 2:  # |j, j> + |j, -j>: no spin expectation
            yield SpinState(SpinLabel(two_j), np.eye(dim)[0] + np.eye(dim)[-1])


def test_gauge_fix_matches_the_dense_oracle():
    reasons = set()
    for psi in _gauge_test_states():
        g, want = gauge_fix_component(psi), dense_gauge_fix(psi)
        assert np.abs(g.sev - want["sev"]).max() <= 1e-12
        assert (g.applicable, g.reason, g.selected_lm) == (
            want["applicable"], want["reason"], want["selected_lm"],
        )
        assert g.spin1_warning == (psi.s.two_s == 2)
        reasons.add(g.reason)
        if g.applicable:
            assert abs(g.z - want["z"]) <= 1e-12
            assert abs(g.alpha - want["alpha"]) <= 1e-12
            assert abs(g.beta - want["beta"]) <= 1e-12
        else:
            assert g.z is g.alpha is g.beta is None
        if "table" in want:
            got = g.aligned_polarization.values
            assert [lm[:2] for lm in got] == [lm[:2] for lm in want["table"]]
            assert max(abs(a[2] - b[2]) for a, b in zip(got, want["table"])) <= 1e-12
        else:
            assert g.aligned_polarization is None
    assert reasons == {None, "axial symmetry", "vanishing spin expectation"}


def test_polarization_values_equal_the_full_table():
    rng = np.random.default_rng(70)
    for two_j in range(0, 25):
        A = rng.standard_normal((two_j + 1,) * 2) + 1j * rng.standard_normal((two_j + 1,) * 2)
        rho = A @ A.conj().T
        assert polarization_components(rho, SpinLabel(two_j)).values == (
            full_table_polarization(rho, two_j)
        )


def test_gauge_fix_worked_example_spin3():
    comps = None
    from stellar import decompose_plane

    comps = decompose_plane(vw_frame())
    g3 = gauge_fix_component(comps[0].state)
    assert g3.applicable
    want_sev = np.array([-math.sqrt(3.0 / 50.0), 0.0, 7.0 / 20.0])
    assert np.abs(g3.sev - want_sev).max() < 1e-12
    assert g3.z == pytest.approx(math.sqrt(13.0 / 20.0), abs=1e-12)
    pol = g3.aligned_polarization
    assert pol.get(0, 0) == pytest.approx(13.0 / (20.0 * math.sqrt(7.0)), abs=1e-12)
    assert pol.get(1, 0) == pytest.approx(math.sqrt(73.0 / 7.0) / 40.0, abs=1e-12)
    assert abs(pol.get(1, 1)) < 1e-12
    assert abs(pol.get(1, -1)) < 1e-12
    assert pol.get(2, 2) == pytest.approx(31.0 / (730.0 * math.sqrt(14.0)), abs=1e-12)
    assert pol.get(2, 1) == pytest.approx(-29.0 / (146.0 * math.sqrt(21.0)), abs=1e-12)
    assert pol.get(2, 0) == pytest.approx(
        241.0 * math.sqrt(3.0 / 7.0) / 2920.0, abs=1e-12
    )


def test_gauge_fix_worked_example_spin1():
    from stellar import decompose_plane

    comps = decompose_plane(vw_frame())
    g1 = gauge_fix_component(comps[1].state)
    assert g1.applicable
    assert g1.spin1_warning
    z = complex(g1.z)
    assert abs(z - 1j * math.sqrt(7.0 / 20.0)) < 1e-12


def test_multiconstellation_worked_example():
    mc = multiconstellation(vw_frame())
    assert mc.z_values is not None
    assert len(mc.z_values) == 2
    assert abs(mc.z_values[0] - math.sqrt(13.0 / 20.0)) < 1e-12
    assert abs(mc.z_values[1] - 1j * math.sqrt(7.0 / 20.0)) < 1e-12
    # both component constellations have a star at the north pole
    for rep in mc.components:
        top = max(s.direction[2] for s in rep.constellation.stars)
        assert top > 1.0 - 1e-9
    # spectator: single spin-1/2 star at (0, sqrt(91)/10, 3/10)
    assert mc.spectator.total == 1
    star = mc.spectator.stars[0]
    want = np.array([0.0, math.sqrt(91.0) / 10.0, 0.3])
    assert np.abs(star.direction - want).max() < 1e-9
    assert any("spin-1" in f for f in mc.flags)


def test_reconstruction_invariants():
    rng = np.random.default_rng(64)
    from stellar import decompose_plane

    for _ in range(5):
        frame = random_frame(rng, 4, 2)
        mc = multiconstellation(frame)
        if mc.z_values is None:
            continue
        comps = decompose_plane(frame)
        assert sum(abs(z) ** 2 for z in mc.z_values) == pytest.approx(1.0, abs=1e-10)
        for comp, z in zip(comps, mc.z_values):
            assert comp.state.norm == pytest.approx(abs(z), abs=1e-10)


def test_spectator_rotation_invariance():
    rng = np.random.default_rng(65)
    frame = vw_frame()
    base = multiconstellation(frame)
    for _ in range(20):
        r = random_rotation(rng)
        mc = multiconstellation(rotate_frame(frame, r))
        assert mc.z_values is not None
        for a, b in zip(mc.z_values, base.z_values):
            assert abs(a - b) < 1e-7


def test_component_covariance():
    rng = np.random.default_rng(66)
    frame = random_frame(rng, 4, 2)
    base = multiconstellation(frame)
    r = random_rotation(rng)
    rotated = multiconstellation(rotate_frame(frame, r))
    for rep_base, rep_rot in zip(base.components, rotated.components):
        if rep_base.constellation is None:
            continue
        want = rotate_constellation(rep_base.constellation, r)
        assert constellation_match_angle(rep_rot.constellation, want) < 1e-7


def test_negative_control_vanishing_sev():
    for sign in (1.0, -1.0):
        frame = KFrame(
            SpinLabel(3), 2,
            np.array([[1, 0, sign * 1j, 0], [0, 1, 0, sign * 1j]], dtype=complex),
        )
        mc = multiconstellation(frame)
        assert mc.z_values is None
        assert mc.spectator is None
        assert any("not applicable" in f for f in mc.flags)
        spin0 = [r for r in mc.components if r.two_j == 0]
        assert len(spin0) == 1
        want = sign * 1j * math.sqrt(2.0) / 2.0
        assert abs(complex(spin0[0].amplitude) - want) < 1e-12


def test_axial_symmetry_not_applicable():
    # a single S_z eigenstate has rotation symmetry about z: SEV along z and
    # every m != 0 polarization vanishes
    psi = SpinState(SpinLabel(4), np.array([1.0, 0, 0, 0, 0]))
    g = gauge_fix_component(psi)
    assert not g.applicable
    assert g.reason == "axial symmetry"


def test_vanishing_sev_reason():
    # equal-weight superposition of extreme m states: SEV = 0
    psi = SpinState(SpinLabel(4), np.array([1.0, 0, 0, 0, 1.0]))
    g = gauge_fix_component(psi)
    assert not g.applicable
    assert g.reason == "vanishing spin expectation"


def test_coherent_12_plane_multiconstellation():
    frame = KFrame(
        SpinLabel(2), 2,
        np.array([[1, 0, 1j], [0, 1, 1 - 1j]], dtype=complex),
    )
    mc = multiconstellation(frame)
    assert [r.two_j for r in mc.components] == [2]
    c = mc.components[0].constellation
    assert c.total == 2
    want = np.array([1.0, -1.0, 0.0]) / math.sqrt(2.0)
    for star in c.stars:
        assert np.abs(star.direction - want).max() < 1e-8
    assert any("spin-1" in f for f in mc.flags)


def test_absent_component():
    # rows [[1,0,a,b],[0,1,c,-a]] have spin-0 amplitude (P_03 - P_12)/sqrt(2)
    # = (-a + a)/sqrt(2) = 0 while the spin-2 block stays generic
    a, b, c = 0.3 + 0.1j, -0.2 + 0.4j, 0.7 - 0.3j
    frame = KFrame(
        SpinLabel(3), 2,
        np.array([[1, 0, a, b], [0, 1, c, -a]], dtype=complex),
    )
    mc = multiconstellation(frame)
    spin0 = [r for r in mc.components if r.two_j == 0]
    assert len(spin0) == 1
    assert spin0[0].absent
    assert spin0[0].amplitude == 0.0
    assert mc.z_values is not None
    assert mc.z_values[1] == 0.0
    assert abs(mc.z_values[0]) == pytest.approx(1.0, abs=1e-10)
    # spectator: spin-1/2 state (z, 0), a single star at the north pole
    assert mc.spectator.total == 1
    assert mc.spectator.stars[0].direction[2] == pytest.approx(1.0)


def test_spectator_constellation_edge_cases():
    empty = spectator_constellation([0.5 + 0.1j])
    assert empty.total == 0
    north = spectator_constellation([1.0, 0.0])
    assert north.stars[0].direction[2] == pytest.approx(1.0)
    south = spectator_constellation([0.0, 1.0])
    assert south.stars[0].direction[2] == pytest.approx(-1.0)


def test_multiconstellation_accepts_plane():
    rng = np.random.default_rng(67)
    frame = random_frame(rng, 3, 2)
    a = multiconstellation(frame)
    b = multiconstellation(standard_form(frame))
    # same plane, possibly different gauge: constellations must agree
    for ra, rb in zip(a.components, b.components):
        if ra.constellation is None:
            assert rb.constellation is None
            continue
        assert constellation_match_angle(ra.constellation, rb.constellation) < 1e-7
