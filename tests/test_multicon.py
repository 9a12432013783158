import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from stellar import (
    KFrame,
    PluckerVector,
    SpinLabel,
    SpinState,
    coherent_plane,
    constellation_match_angle,
    bd_basis,
    constellation_of_state,
    decompose_plane,
    multi_indices,
    multiconstellation,
    plucker,
    plucker_residual,
    rotate_constellation,
    rotate_frame,
    spectator_constellation,
    standard_form,
)
from stellar import majorana, multicon
from stellar.multicon import (
    GAUGE_TOL, PolarizationComponents, _gauge_fix, _multicon_plan, _polarization_diagonals,
)
from stellar.spin_rep import geodesic_rotation, wigner_d

from conftest import random_frame, random_rotation, same_bits, spin_matrices


def _twice(x, name: str) -> int:
    t = 2 * x
    r = round(t)
    if abs(t - r) > 1e-9:
        raise ValueError(f"{name} must be integer or half-integer, got {x}")
    return int(r)


def polarization_components(rho: np.ndarray, s: SpinLabel) -> PolarizationComponents:
    """Expand a (not necessarily normalized) density matrix over T_{lm}."""
    r = np.array(rho, dtype=complex)
    if r.shape != (s.dim, s.dim):
        raise ValueError(f"rho must be {s.dim} x {s.dim}")
    return PolarizationComponents(s.two_s, r)


def polarization_values(pol: PolarizationComponents) -> tuple:
    """Every (ell, m, rho_{lm}) of pol, in storage order."""
    return tuple(
        (ell, m, pol.get(ell, m)) for ell in range(pol.two_j + 1) for m in range(ell, -ell - 1, -1)
    )


def gauge_fix_one(psi: SpinState):
    """The gauge pass on one nonzero spin-j > 0 state: the one block of the
    (2j, 1) plan."""
    plan = _multicon_plan(psi.s, 1)
    kets = np.append(psi.coeffs, 0.0)[plan.ket]
    weight = kets.real**2 + kets.imag**2
    return _gauge_fix(plan, np.array([0]), kets, weight)[0]


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
    W = _polarization_diagonals(two_j, abs(m))
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
        for ell, m, v in polarization_values(pol):
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
                want = next(v for l2, m2, v in polarization_values(pol) if (l2, m2) == (ell, m))
                assert pol.get(ell, m) == want
        for ell, m in ((-1, 0), (two_j + 1, 0), (0, 1), (two_j, two_j + 1), (two_j, -two_j - 1)):
            with pytest.raises(KeyError):
                pol.get(ell, m)


def test_polarization_field_order():
    rng = np.random.default_rng(63)
    s = SpinLabel(2)
    A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    pol = polarization_components(A @ A.conj().T, s)
    order = [(ell, m) for ell, m, _ in polarization_values(pol)]
    assert order == [
        (0, 0),
        (1, 1), (1, 0), (1, -1),
        (2, 2), (2, 1), (2, 0), (2, -1), (2, -2),
    ]


def full_table_polarization(rho: np.ndarray, two_j: int) -> tuple:
    """Every (ell, m, rho_lm) in storage order, all diagonals of rho expanded
    at once."""
    diags = [_polarization_diagonals(two_j, m) for m in range(two_j + 1)]
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
    m_values = (two_j - 2 * np.arange(two_j + 1)) / 2
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
        g, want = gauge_fix_one(psi), dense_gauge_fix(psi)
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
            got = polarization_values(g.aligned_polarization)
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
        assert polarization_values(polarization_components(rho, SpinLabel(two_j))) == (
            full_table_polarization(rho, two_j)
        )


def test_gauge_fix_worked_example_spin3():
    comps = None
    from stellar import decompose_plane

    comps = decompose_plane(vw_frame())
    g3 = gauge_fix_one(comps[0].state)
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
    g1 = gauge_fix_one(comps[1].state)
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
            assert abs(a - b) < 1e-12


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
        assert constellation_match_angle(rep_rot.constellation, want) < 1e-12


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
    g = gauge_fix_one(psi)
    assert not g.applicable
    assert g.reason == "axial symmetry"


def test_vanishing_sev_reason():
    # equal-weight superposition of extreme m states: SEV = 0
    psi = SpinState(SpinLabel(4), np.array([1.0, 0, 0, 0, 1.0]))
    g = gauge_fix_one(psi)
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
    # one entry has no stars, yet it is a spin state: it must be finite
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="coefficients must be finite"):
            spectator_constellation([bad])


def test_multiconstellation_accepts_plane():
    rng = np.random.default_rng(67)
    for two_s, k in ((3, 2), (5, 3), (7, 4), (9, 4)):
        frame = random_frame(rng, two_s, k)
        a = multiconstellation(frame)
        b = multiconstellation(standard_form(frame))
        # same plane, possibly different gauge: constellations must agree
        for ra, rb in zip(a.components, b.components):
            if ra.constellation is None:
                assert rb.constellation is None
                continue
            assert constellation_match_angle(ra.constellation, rb.constellation) < 1e-12


# ---------------------------------------------------------------------------
# multiconstellation gauge-fixes all blocks in one pass; each block must be
# what the one-block path gives for its own state


def _blocks_match_the_one_block_path(frame: KFrame) -> list:
    """Check every gauge-fixed block of multiconstellation(frame) against
    the one-block `_gauge_fix` and constellation_of_state of its state;
    return the blocks' ComponentReports."""
    mc = multiconstellation(frame)
    reports = []
    for rep, comp in zip(mc.components, decompose_plane(frame)):
        assert (rep.two_j, rep.copy_index) == (comp.two_j, comp.copy_index)
        if rep.gauge is None:
            continue
        g, want = rep.gauge, gauge_fix_one(comp.state)
        one = constellation_of_state(comp.state)
        assert same_bits(rep.constellation.directions, one.directions)
        assert same_bits(rep.constellation.multiplicities, one.multiplicities)
        assert rep.constellation.total == one.total
        assert (g.applicable, g.reason, g.selected_lm, g.spin1_warning) == (
            want.applicable, want.reason, want.selected_lm, want.spin1_warning,
        )
        assert np.abs(g.sev - want.sev).max() <= 1e-12
        for got, ref in ((g.z, want.z), (g.alpha, want.alpha), (g.beta, want.beta)):
            assert (got is None) == (ref is None)
            assert got is None or abs(got - ref) <= 1e-12
        flags = [f"gauge not applicable: {want.reason}"] if not want.applicable else []
        flags += ["spin-1 block: z and constellation underdetermine it"] * want.spin1_warning
        assert rep.flags == tuple(flags)
        reports.append(rep)
    return reports


@pytest.mark.parametrize(
    "two_s,k", [(3, 2), (4, 2), (5, 3), (7, 4), (9, 4), (6, 3), (8, 4), (11, 5)]
)
def test_every_block_matches_the_one_block_path(two_s, k):
    # the bench `planes` shapes, plus (11,5): many spins, a spin-1/2 block
    rng = np.random.default_rng(1000 + 16 * two_s + k)
    for _ in range(3):
        reports = _blocks_match_the_one_block_path(random_frame(rng, two_s, k))
        assert reports and any(rep.gauge.applicable for rep in reports)


def test_blocks_with_multiple_roots_take_the_clustering_path_and_match():
    # a coherent plane at a pole: its top block is |3, +-3>, one sixfold star
    for pole in (1.0, -1.0):
        frame = coherent_plane(SpinLabel(4), 2, np.array([0.0, 0.0, pole]))
        (rep,) = _blocks_match_the_one_block_path(frame)
        assert rep.constellation.multiplicities.tolist() == [6]
    # zero last columns: every block of a high enough spin loses its leading
    # coefficients, so its roots at infinity merge into one star, next to
    # blocks whose stars are all simple
    rng = np.random.default_rng(71)
    rows = rng.standard_normal((3, 8)) + 1j * rng.standard_normal((3, 8))
    rows[:, -2:] = 0.0
    reports = _blocks_match_the_one_block_path(KFrame(SpinLabel(7), 3, rows))
    most = [int(rep.constellation.multiplicities.max()) for rep in reports]
    assert most == [6, 4, 3, 2, 1, 1]


def test_weight_vector_blocks_keep_the_exact_identity_rotation():
    # rows |2, 2> and |2, -1>: every block is |j, 1>, whose spin expectation
    # is along +z; the identity rotation must leave it exactly as it is, so
    # every polarization component off the diagonal is exactly 0
    frame = KFrame(SpinLabel(4), 2, np.eye(5, dtype=complex)[[0, 3]])
    reports = _blocks_match_the_one_block_path(frame)
    assert [rep.two_j for rep in reports] == [6, 2]
    for rep in reports:
        assert rep.gauge.reason == "axial symmetry"
        assert all(v == 0 for _, m, v in polarization_values(rep.gauge.aligned_polarization) if m)


def test_multiconstellation_raises_when_a_block_root_fails_its_check(monkeypatch):
    frame = random_frame(np.random.default_rng(72), 7, 4)
    monkeypatch.setattr(majorana, "ROOT_TOL", 0.0)
    with pytest.raises(ArithmeticError, match="backward error"):
        multiconstellation(frame)


def frame_from_minors(s: SpinLabel, k: int, P: np.ndarray) -> KFrame:
    """A frame whose Pluecker vector is P: the standard form on the largest
    minor's columns, read off the minors, with its first row scaled by that
    minor."""
    subsets = multi_indices(s.dim, k)
    pivots = subsets[int(np.argmax(np.abs(P)))]
    rows = np.zeros((k, s.dim), dtype=complex)
    for i in range(k):
        for c in range(s.dim):
            J = list(pivots)
            J[i] = c
            if len(set(J)) == k:
                sign = np.linalg.det(np.eye(k)[np.argsort(J)])
                rows[i, c] = sign * P[subsets.index(tuple(sorted(J)))]
    rows[1:] /= P[subsets.index(pivots)]
    return KFrame(s, k, rows)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 10")
def test_multiconstellation_tells_apart_the_53_twin_planes():
    # negating the spin-5/2 block of a (5,3) plane's Pluecker vector gives
    # the Pluecker vector of another plane; z keeps a block's phase only
    # modulo the residual gauge twists, so today both planes read the same
    s = SpinLabel(5)
    U = bd_basis(s, 3).U
    for seed in range(3):
        rng = np.random.default_rng(seed)
        frame = KFrame(s, 3, rng.standard_normal((3, 6)) + 1j * rng.standard_normal((3, 6)))
        comps = decompose_plane(frame)
        psi = np.concatenate([(-1 if c.two_j == 5 else 1) * c.state.coeffs for c in comps])
        twin_minors = U.conj().T @ psi
        assert plucker_residual(PluckerVector(s, 3, twin_minors)) <= 8.5e-17, seed
        P = plucker(frame).comps
        assert 1 - abs(np.vdot(P, twin_minors)) / np.linalg.norm(P) >= 0.3, seed
        twin = frame_from_minors(s, 3, twin_minors)
        assert np.abs(plucker(twin).comps - twin_minors).max() <= 1e-14, seed
        a, b = multiconstellation(frame), multiconstellation(twin)
        dz = max(abs(x - y) for x, y in zip(a.z_values, b.z_values))
        dstars = max(
            constellation_match_angle(x.constellation, y.constellation)
            for x, y in zip(a.components, b.components)
        )
        assert max(dz, dstars) > 1e-6, seed


Z_SHAPES = [(3, 2), (4, 2), (5, 2), (5, 3), (6, 2), (6, 3), (7, 3), (7, 4), (8, 3), (8, 4), (9, 4)]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(shape=st.sampled_from(Z_SHAPES), seed=st.integers(0, 2**32 - 1))
def test_spectator_amplitudes_are_rotation_invariant(shape, seed):
    rng = np.random.default_rng(seed)
    frame = random_frame(rng, *shape)
    base = multiconstellation(frame)
    assert base.z_values is not None
    for _ in range(3):
        mc = multiconstellation(rotate_frame(frame, random_rotation(rng)))
        assert max(abs(a - b) for a, b in zip(mc.z_values, base.z_values)) <= 1e-11


# ---------------------------------------------------------------------------
# one root pass per plane: the spectator's polynomial rides with the blocks'


def _count_root_passes(monkeypatch) -> list:
    """Record the polynomials of every root pass multicon makes."""
    passes = []

    def roots(coeffs, degrees, d_noms):
        passes.append(list(d_noms))
        return majorana._roots(coeffs, degrees, d_noms)

    monkeypatch.setattr(multicon, "_roots", roots)
    return passes


@pytest.mark.parametrize("shape", Z_SHAPES + [(11, 5)])
def test_spectator_is_the_constellation_of_z_from_the_blocks_root_pass(monkeypatch, shape):
    passes = _count_root_passes(monkeypatch)
    rng = np.random.default_rng(2000 + 16 * shape[0] + shape[1])
    for _ in range(3):
        passes.clear()
        mc = multiconstellation(random_frame(rng, *shape))
        blocks = [c for c in mc.components if c.gauge is not None]
        assert len(passes) == 1
        if shape == (11, 5):
            # the spin-1/2 block is axial: Z is withheld, and no spectator
            # polynomial joins the blocks'
            assert mc.z_values is None and mc.spectator is None
            assert len(passes[0]) == len(blocks)
            continue
        assert mc.z_values is not None and len(passes[0]) == len(blocks) + 1
        want = spectator_constellation(mc.z_values)
        assert same_bits(mc.spectator.directions, want.directions)
        assert same_bits(mc.spectator.multiplicities, want.multiplicities)
        assert mc.spectator.total == want.total == len(mc.z_values) - 1


# ---------------------------------------------------------------------------
# the gauge pass against the dense oracle, on frames whose scan stops at
# ell = 2 (Gaussian), passes it (weight-vector rows: axial blocks; rows on
# every third column: only m = 0 mod 3 survives) or reads an axial block
# (coherent planes)

GAUGE_SHAPES = [
    (two_s, k) for two_s in range(1, 12) for k in range(1, two_s + 2) if k * (two_s + 1 - k) <= 35
]


def gauge_test_frame(kind: str, shape: tuple, seed: int):
    two_s, k = shape
    n = two_s + 1
    rng = np.random.default_rng(seed)
    if kind == "weight":
        return KFrame(SpinLabel(two_s), k, np.eye(n, dtype=complex)[rng.permutation(n)[:k]])
    if kind == "coherent":
        d = rng.standard_normal(3)
        return coherent_plane(SpinLabel(two_s), k, d / np.linalg.norm(d))
    cols = np.arange(n)  # "gaussian"; "stride": columns 0, 3, 6, ..., then others as k needs
    if kind == "stride":
        cols = np.argsort(cols % 3, kind="stable")[: max(k, len(cols[::3]))]
    rows = np.zeros((k, n), dtype=complex)
    rows[:, cols] = rng.standard_normal((k, len(cols))) + 1j * rng.standard_normal((k, len(cols)))
    return KFrame(SpinLabel(two_s), k, rows)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(["gaussian", "weight", "stride", "coherent"]),
    shape=st.sampled_from(GAUGE_SHAPES),
    seed=st.integers(0, 2**32 - 1),
)
@example(kind="stride", shape=(8, 2), seed=7)  # every block selects (3, 3)
@example(kind="stride", shape=(11, 3), seed=5)
@example(kind="weight", shape=(9, 4), seed=0)  # axial blocks: the scan runs to the top ell
@example(kind="coherent", shape=(11, 5), seed=1)  # one axial block, the rest absent
@example(kind="gaussian", shape=(11, 5), seed=2)
def test_every_block_matches_the_dense_gauge_oracle(kind, shape, seed):
    frame = gauge_test_frame(kind, shape, seed)
    mc = multiconstellation(frame)
    for rep, comp in zip(mc.components, decompose_plane(frame)):
        if rep.gauge is None:
            continue
        g, want = rep.gauge, dense_gauge_fix(comp.state)
        assert (g.selected_lm, g.reason) == (want["selected_lm"], want["reason"])
        for got, ref in ((g.z, want["z"]), (g.alpha, want["alpha"]), (g.beta, want["beta"])):
            assert (got is None) == (ref is None)
            assert got is None or abs(got - ref) <= 1e-12


def test_the_dense_oracle_frames_take_the_scan_past_ell_2():
    # the examples above reach selections above ell = 2 and axial blocks
    selected, reasons = set(), set()
    for kind, shape, seed in (("stride", (8, 2), 7), ("stride", (11, 3), 5), ("weight", (9, 4), 0)):
        frame = gauge_test_frame(kind, shape, seed)
        for rep in multiconstellation(frame).components:
            if rep.gauge is not None:
                selected.add(rep.gauge.selected_lm)
                reasons.add(rep.gauge.reason)
    assert (3, 3) in selected and "axial symmetry" in reasons


# ---------------------------------------------------------------------------
# the blocks as rows of one padded array: what the gather must keep


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(["gaussian", "stride"]),
    shape=st.sampled_from(GAUGE_SHAPES),
    seed=st.integers(0, 2**32 - 1),
)
def test_padded_blocks_keep_the_norms_and_the_layout(kind, shape, seed):
    frame = gauge_test_frame(kind, shape, seed)
    mc = multiconstellation(frame)
    comps = decompose_plane(frame)
    norms = np.array([comp.state.norm for comp in comps])
    assert abs((norms**2).sum() - 1.0) <= 1e-13
    two_j = [m.two_j for m in bd_basis(frame.s, frame.k).layout]
    assert [rep.two_j for rep in mc.components] == two_j
    assert sum(n + 1 for n in two_j) == math.comb(frame.s.dim, frame.k)
    for rep, nrm in zip(mc.components, norms):
        if rep.absent:
            assert nrm <= GAUGE_TOL
            continue
        assert rep.constellation.total == rep.two_j
        if rep.amplitude is not None:  # z, or a spin-0 block's amplitude
            assert abs(abs(rep.amplitude) - nrm) <= 1e-13
    if mc.z_values is not None:
        assert np.abs(np.abs(mc.z_values) - np.where(norms > GAUGE_TOL, norms, 0.0)).max() <= 1e-13


_MULTICON_RSS_CODE = """
import resource, sys
import numpy as np
from stellar import KFrame, SpinLabel, bd_basis, multiconstellation
rows = np.random.default_rng(147).standard_normal((7, 15, 2))
multiconstellation(KFrame(SpinLabel(5), 3, rows[:3, :6, 0] + 0j))
if sys.argv[1] == "gaussian":
    rows = rows[..., 0] + 1j * rows[..., 1]
else:  # the weight vectors e_0, e_2, e_4, e_6, e_8, e_11, e_14
    rows = np.eye(15, dtype=complex)[[0, 2, 4, 6, 8, 11, 14]]
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
multiconstellation(KFrame(SpinLabel(14), 7, rows))
grown = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before
print(grown * 1024 / bd_basis(SpinLabel(14), 7).coefs.nbytes)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
@pytest.mark.parametrize("frame,bound", [("gaussian", 2.0), ("weight", 2.25)])
def test_multiconstellation_peak_memory_is_bounded_at_14_7(frame, bound):
    # a cold (14,7) plane builds the basis and decomposes (test_decomp), then
    # pads its 289 blocks of up to 57 entries: stacked whole, the companions,
    # the powers of the roots and the rotation matrices gathered per block
    # would take 14, 14 and 29 MB beside 28 MB of basis rows; a bounded
    # chunk at a time, they stay below the decomposition's own peak.  The
    # weight-vector frame's 263 live blocks are all axial, so its gauge scan
    # runs to the top ell: it must carry only the blocks still undecided
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", _MULTICON_RSS_CODE, frame], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) <= bound
