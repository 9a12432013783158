"""Multiconstellation of a plane: per-block Majorana constellations plus the
gauge-fixed complex amplitudes tying the blocks together.

Each spin-j component of the decomposed Pluecker vector carries a
constellation (2j stars) and, after a canonical alignment procedure, a single
complex number z; the vector Z of all z's behaves as one extra "spectator"
spin state whose own constellation completes a faithful, rotation-covariant
picture of the plane.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .decomp import decompose_plane
from .grassmann import frame_of
from .majorana import Constellation, constellation_of_state
from .spin_rep import SpinLabel, SpinState, _ladder, geodesic_rotation, wigner_d

#: Relative threshold for treating amplitudes/expectations as zero.
GAUGE_TOL = 1e-9

#: The constellation of a spin-0 state.
_NO_STARS = Constellation(np.zeros((0, 3)), np.zeros(0, dtype=int), 0)


@lru_cache(maxsize=64)
def _polarization_diagonals(two_j: int) -> tuple:
    """Polarization operators T_{lm}, m >= 0, of the spin-j space.

    T_{lm} (unit Frobenius norm, Condon-Shortley phases) is nonzero only on
    the diagonal at offset m.  On that diagonal the Casimir superoperator
    X -> sum_a [S_a, [S_a, X]] is a real symmetric tridiagonal matrix with
    eigenvalues l(l+1), l = m..2j, so entry m of the result holds those
    diagonals as the columns of its ascending `eigh` eigenvectors (column
    l - m), each signed so that its first entry <j, j-m; l m | j j> has the
    sign (-1)^m.  T_{l,-m} = (-1)^m T_{lm}^T.
    """
    j = two_j / 2
    mz = j - np.arange(two_j + 1)
    ladder = _ladder(two_j)
    out = []
    for m in range(two_j + 1):
        # entry p of the diagonal sits at (p, p + m): m_r = mz[p], m_c = mz[p + m]
        C = np.diag(2 * j * (j + 1) - 2 * mz[: two_j + 1 - m] * mz[m:])
        off = -ladder[: two_j - m] * ladder[m:]
        C += np.diag(off, 1) + np.diag(off, -1)
        W = np.linalg.eigh(C)[1]
        W *= (-1.0) ** m * np.sign(W[0])
        W.setflags(write=False)
        out.append(W)
    return tuple(out)


class PolarizationComponents:
    """rho_{lm} = Tr(rho T_{lm}^dagger), l ascending, m descending l..-l.

    Entry (l, m) lies on diagonal m of rho, which is expanded over the T_{lm}
    of every l on first use: `get` reads only the diagonals it asks for.
    """

    def __init__(self, two_j: int, rho: np.ndarray) -> None:
        self.two_j, self._rho, self._rows = two_j, rho, {}

    def get(self, ell: int, m: int) -> complex:
        if not (0 <= ell <= self.two_j and -ell <= m <= ell):
            raise KeyError((ell, m))
        if m not in self._rows:
            # T_{l,m} = (-1)^m T_{l,-m}^T for m < 0
            W = (-1) ** min(m, 0) * _polarization_diagonals(self.two_j)[abs(m)]
            self._rows[m] = W.T @ np.diagonal(self._rho, m)
        return complex(self._rows[m][ell - abs(m)])

    @property
    def values(self) -> tuple:
        """Every (ell, m, rho_{lm}), in storage order."""
        return tuple(
            (ell, m, self.get(ell, m))
            for ell in range(self.two_j + 1)
            for m in range(ell, -ell - 1, -1)
        )


def polarization_components(rho: np.ndarray, s: SpinLabel) -> PolarizationComponents:
    """Expand a (not necessarily normalized) density matrix over T_{lm}."""
    r = np.array(rho, dtype=complex)
    if r.shape != (s.dim, s.dim):
        raise ValueError(f"rho must be {s.dim} x {s.dim}")
    return PolarizationComponents(s.two_s, r)


@dataclass(frozen=True, eq=False)
class GaugeFixed:
    """Outcome of the alignment procedure on one spin-j component.

    z is None when the procedure does not apply (vanishing spin expectation
    or exact axial symmetry); the constellation of the original state is
    reported regardless.  For j = 1 the warning notes that a constellation
    plus one complex number cannot distinguish every state.
    """

    two_j: int
    z: complex | None
    constellation: Constellation
    applicable: bool
    reason: str | None
    spin1_warning: bool
    sev: np.ndarray
    selected_lm: tuple | None
    alpha: float | None
    beta: float | None
    aligned_polarization: PolarizationComponents | None


def gauge_fix_component(psi: SpinState) -> GaugeFixed:
    """Canonical complex amplitude of a spin-j component (j > 0).

    Rotate the spin expectation to +z, cancel the phase of the first
    non-axial polarization component by a diagonal S_z twist, and read off
    z = ||psi|| e^{i beta} from the first nonzero coefficient.
    """
    two_j = psi.s.two_s
    if two_j == 0:
        raise ValueError("gauge fixing applies to spin j > 0 components")
    nrm = psi.norm
    if nrm <= 1e-12:
        raise ValueError("cannot gauge-fix a zero component")
    constellation = constellation_of_state(psi)
    spin1_warning = two_j == 2
    c = psi.coeffs
    # <S_+> = sum_i conj(c_i) <i|S_+|i+1> c_{i+1}, <S_x> + i <S_y> = <S_+>
    s_plus = _ladder(two_j) @ (c[:-1].conj() * c[1:])
    s_z = psi.s.m_values() @ (c.real**2 + c.imag**2)
    sev = np.array([s_plus.real, s_plus.imag, s_z])
    j = two_j / 2
    if np.linalg.norm(sev) <= GAUGE_TOL * j * nrm * nrm:
        return GaugeFixed(
            two_j, None, constellation, False, "vanishing spin expectation",
            spin1_warning, sev, None, None, None, None,
        )
    n = sev / np.linalg.norm(sev)
    D = wigner_d(psi.s, geodesic_rotation(n))
    psi1 = D.conj().T @ c  # inverse rotation: expectation now along +z
    rho1 = np.outer(psi1, psi1.conj())
    pol = polarization_components(rho1, psi.s)
    selected = None
    # Scan ell ascending, m descending within each ell, matching the storage
    # order of PolarizationComponents.  The residual-orbit quotient below
    # makes the final amplitude independent of this direction.
    for ell in range(1, two_j + 1):
        for m in range(ell, -ell - 1, -1):
            if m == 0:
                continue
            v = pol.get(ell, m)
            if abs(v) > GAUGE_TOL * nrm * nrm:
                selected = (ell, m, v)
                break
        if selected:
            break
    if selected is None:
        return GaugeFixed(
            two_j, None, constellation, False, "axial symmetry",
            spin1_warning, sev, None, None, None, pol,
        )
    ell0, m0, v0 = selected
    # alpha lives on [0, 2*pi) so the branch cut sits on the positive real
    # axis, away from negative-real selected components; noise that lands
    # just below the cut is folded back to 0, because a twist by 2*pi/m is
    # not the identity and would flip the phase of z.
    alpha = math.atan2(v0.imag, v0.real) % (2.0 * math.pi)
    if 2.0 * math.pi - alpha < 1e-9:
        alpha = 0.0
    m_values = psi.s.m_values()
    psi2 = np.exp(-1j * alpha * m_values / m0) * psi1
    mags = np.abs(psi2)
    lead_idx = int(np.nonzero(mags > 1e-12 * mags.max())[0][0])
    lead = psi2[lead_idx]
    beta0 = math.atan2(lead.imag, lead.real) % (2 * math.pi)
    # Making the selected polarization component real positive only fixes
    # the z-twist modulo 2*pi/|m0| (modulo 4*pi/|m0| for half-integer j,
    # where a 2*pi rotation contributes a global sign).  Frames that are
    # rotations of each other can land on different members of that residual
    # orbit, so quotient it out: of all residual twists, keep the one that
    # minimizes beta.  This leaves the amplitude invariant under rotations
    # of the input while reproducing the same value on symmetric states
    # whose leading coefficient is already real positive.
    m_lead = m_values[lead_idx]
    t_count = abs(m0) if two_j % 2 == 0 else 2 * abs(m0)
    beta = None
    for t in range(t_count):
        cand = (beta0 - 2.0 * math.pi * t * m_lead / m0) % (2.0 * math.pi)
        if 2 * math.pi - cand < 1e-9:
            cand = 0.0
        if beta is None or cand < beta:
            beta = cand
    z = nrm * complex(math.cos(beta), math.sin(beta))
    return GaugeFixed(
        two_j, z, constellation, True, None, spin1_warning,
        sev, (ell0, m0), alpha, beta, pol,
    )


def spectator_constellation(z_values) -> Constellation:
    """Constellation of the spectator state built from the amplitudes Z.

    Z with L entries is read as a spin-(L-1)/2 ket (entries ordered like
    m = s_Z, ..., -s_Z); a single entry has spin 0 and no stars.
    """
    Z = np.asarray(z_values, dtype=complex)
    if Z.ndim != 1 or len(Z) == 0:
        raise ValueError("Z must be a nonempty vector")
    if len(Z) == 1:
        return _NO_STARS
    return constellation_of_state(SpinState(SpinLabel(len(Z) - 1), Z))


@dataclass(frozen=True, eq=False)
class ComponentReport:
    """One spin-j block of a multiconstellation."""

    two_j: int
    copy_index: int
    amplitude: complex | None
    absent: bool
    constellation: Constellation | None
    gauge: GaugeFixed | None
    flags: tuple


@dataclass(frozen=True)
class Multiconstellation:
    """All block constellations plus the spectator data of a plane.

    z_values (ordered two_j descending, copies ascending) and the spectator
    constellation are None when any block's gauge fixing was not applicable;
    partial data is never silently invented.
    """

    s: SpinLabel
    k: int
    components: tuple
    z_values: tuple | None
    spectator: Constellation | None
    flags: tuple


def multiconstellation(plane) -> Multiconstellation:
    """Decompose a plane and gauge-fix every spin block.

    Accepts a KPlane or KFrame; the representative's overall phase is part
    of the gauge, so rotating the rows coherently rotates every piece of the
    answer without re-fixing phases.
    """
    frame = frame_of(plane)
    comps = decompose_plane(frame)
    reports = []
    z_ok = True
    all_flags = []
    for comp in comps:
        nrm = comp.state.norm
        if nrm <= GAUGE_TOL:
            reports.append(
                ComponentReport(
                    comp.two_j, comp.copy_index, 0.0, True, None, None,
                    ("absent",),
                )
            )
            continue
        if comp.two_j == 0:
            reports.append(
                ComponentReport(
                    comp.two_j, comp.copy_index, complex(comp.state.coeffs[0]),
                    False, _NO_STARS, None, (),
                )
            )
            continue
        g = gauge_fix_component(comp.state)
        flags = []
        if not g.applicable:
            flags.append(f"gauge not applicable: {g.reason}")
            z_ok = False
        if g.spin1_warning:
            flags.append("spin-1 block: z and constellation underdetermine it")
        reports.append(
            ComponentReport(
                comp.two_j, comp.copy_index, g.z, False, g.constellation,
                g, tuple(flags),
            )
        )
        all_flags.extend(flags)
    if z_ok:
        z_values = tuple(r.amplitude for r in reports)
        spectator = spectator_constellation(z_values)
    else:
        z_values = None
        spectator = None
    return Multiconstellation(
        frame.s, frame.k, tuple(reports), z_values, spectator, tuple(all_flags)
    )
