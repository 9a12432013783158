"""Multiconstellation of a plane: per-block Majorana constellations plus the
gauge-fixed complex amplitudes tying the blocks together.

Each spin-j component of the decomposed Pluecker vector carries a
constellation (2j stars) and, after a canonical alignment procedure, a single
complex number z; the vector Z of all z's behaves as one extra "spectator"
spin state.  The picture is rotation-covariant but not faithful in general:
at (5,3), negating the spin-5/2 block gives another plane with the same
multiconstellation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from ._cache import cached
from .decomp import decompose_plane
from .grassmann import KFrame
from .majorana import (
    Constellation, _constellations, _roots, constellation_of_state, majorana_polynomial,
)
from .spin_rep import (
    SpinLabel, SpinState, _geodesic_quaternions, _ladder, _sy_eigenbasis, _wigner_columns,
)

#: Relative threshold for treating amplitudes/expectations as zero.
GAUGE_TOL = 1e-9

#: The constellation of a spin-0 state.
_NO_STARS = Constellation(np.zeros((0, 3)), np.zeros(0, dtype=int), 0)


@cached
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


def _gauge_fix(states: list) -> list[GaugeFixed]:
    """Canonical complex amplitude of each nonzero spin-j > 0 component.

    Rotate the spin expectation to +z, cancel the phase of the first
    non-axial polarization component by a diagonal S_z twist, and read off
    z = ||psi|| e^{i beta} from the first nonzero coefficient.  One pass over
    all roots, norms and spin expectations as reductions over the stacked
    coefficients, and one `_wigner_columns` call that rotates every spin
    expectation to +z; only `_gauge_of` runs per component.
    """
    constellations = _constellations(_roots([majorana_polynomial(psi) for psi in states]))
    two_j = [psi.s.two_s for psi in states]
    dims = [n + 1 for n in two_j]
    starts = list(accumulate(dims, initial=0))[:-1]
    c = np.concatenate([psi.coeffs for psi in states])
    weight = c.real**2 + c.imag**2
    nrm = np.sqrt(np.add.reduceat(weight, starts)).tolist()
    # <S_+> = sum_i conj(c_i) <i|S_+|i+1> c_{i+1}, <S_x> + i <S_y> = <S_+>;
    # a 0 after each component's ladder drops the pair across components
    ladder = np.concatenate([x for n in two_j for x in (_ladder(n), (0.0,))])[:-1]
    s_plus = np.add.reduceat(ladder * (c[:-1].conj() * c[1:]), starts)
    two_m = np.concatenate([_sy_eigenbasis(n)[0] for n in two_j])
    sev = np.empty((len(states), 3))
    sev[:, 0], sev[:, 1] = s_plus.real, s_plus.imag
    sev[:, 2] = np.add.reduceat(two_m * weight, starts) / 2
    sev_norm = np.sqrt((sev * sev).sum(1))
    live = [
        b for b, (size, n, r) in enumerate(zip(sev_norm.tolist(), two_j, nrm))
        if size > GAUGE_TOL * n / 2 * r * r
    ]
    psi1 = {}
    if live:
        q = _geodesic_quaternions(sev[live] / sev_norm[live, None])
        q[:, 1:] *= -1.0  # the inverse rotation: expectation now along +z
        x = np.concatenate([states[b].coeffs for b in live])[:, None]
        rotated = _wigner_columns([two_j[b] for b in live], q, x)[:, 0]
        ends = accumulate(dims[b] for b in live)
        psi1 = {b: rotated[e - dims[b] : e] for b, e in zip(live, ends)}
    return [
        _gauge_of(psi1.get(b), two_j[b], nrm[b], constellations[b], sev[b])
        for b in range(len(states))
    ]


def _gauge_of(psi1, two_j: int, nrm: float, constellation: Constellation, sev) -> GaugeFixed:
    """The polarization scan, alpha twist and beta quotient of one component,
    rotated so that its spin expectation is along +z (psi1 None: it has none)."""
    spin, pol, selected = SpinLabel(two_j), None, None
    if psi1 is not None:
        pol = polarization_components(np.outer(psi1, psi1.conj()), spin)
        # Scan ell ascending, m descending within each ell, matching the storage
        # order of PolarizationComponents.  The residual-orbit quotient below
        # makes the final amplitude independent of this direction.
        lms = ((ell, m) for ell in range(1, two_j + 1) for m in range(ell, -ell - 1, -1) if m)
        selected = next((lm for lm in lms if abs(pol.get(*lm)) > GAUGE_TOL * nrm * nrm), None)
    if selected is None:
        reason = "vanishing spin expectation" if pol is None else "axial symmetry"
        return GaugeFixed(
            two_j, None, constellation, False, reason, two_j == 2, sev, None, None, None, pol,
        )
    ell0, m0 = selected
    v0 = pol.get(ell0, m0)
    # alpha lives on [0, 2*pi) so the branch cut sits on the positive real
    # axis, away from negative-real selected components; noise that lands
    # just below the cut is folded back to 0, because a twist by 2*pi/m is
    # not the identity and would flip the phase of z.
    alpha = math.atan2(v0.imag, v0.real) % (2.0 * math.pi)
    if 2.0 * math.pi - alpha < 1e-9:
        alpha = 0.0
    m_values = spin.m_values()
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
        two_j, z, constellation, True, None, two_j == 2, sev, (ell0, m0), alpha, beta, pol,
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


def multiconstellation(frame: KFrame) -> Multiconstellation:
    """Decompose a plane and gauge-fix every spin block.

    The frame's overall phase is part of the gauge, so rotating the rows
    coherently rotates every piece of the answer without re-fixing phases.
    """
    comps = decompose_plane(frame)
    norms = [comp.state.norm for comp in comps]
    live = [comp.state for comp, nrm in zip(comps, norms) if comp.two_j > 0 and nrm > GAUGE_TOL]
    gauges = iter(_gauge_fix(live) if live else ())
    reports = []
    z_ok = True
    all_flags = []
    for comp, nrm in zip(comps, norms):
        tag = (comp.two_j, comp.copy_index)
        if nrm <= GAUGE_TOL:
            reports.append(ComponentReport(*tag, 0.0, True, None, None, ("absent",)))
            continue
        if comp.two_j == 0:
            amplitude = complex(comp.state.coeffs[0])
            reports.append(ComponentReport(*tag, amplitude, False, _NO_STARS, None, ()))
            continue
        g = next(gauges)
        flags = []
        if not g.applicable:
            flags.append(f"gauge not applicable: {g.reason}")
            z_ok = False
        if g.spin1_warning:
            flags.append("spin-1 block: z and constellation underdetermine it")
        reports.append(ComponentReport(*tag, g.z, False, g.constellation, g, tuple(flags)))
        all_flags.extend(flags)
    z_values = tuple(r.amplitude for r in reports) if z_ok else None
    spectator = None if z_values is None else spectator_constellation(z_values)
    return Multiconstellation(
        frame.s, frame.k, tuple(reports), z_values, spectator, tuple(all_flags)
    )
