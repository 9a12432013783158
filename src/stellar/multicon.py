"""Multiconstellation of a plane: per-block Majorana constellations plus the
gauge-fixed complex amplitudes tying the blocks together.

Each spin-j component of the decomposed Pluecker vector carries a
constellation (2j stars) and, after a canonical alignment procedure, a single
complex number z; the vector Z of all z's behaves as one extra "spectator"
spin state.  The picture is rotation-covariant but not faithful in general:
at (5,3), negating the spin-5/2 block gives another plane with the same
multiconstellation.  A plane costs one `_wigner_columns` call, a gauge scan
of a few array steps per ell, and one root pass over all its blocks and the
spectator together.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import accumulate

import numpy as np

from ._cache import cached
from .decomp import decompose_plane
from .grassmann import KFrame
from .majorana import (
    Constellation, _constellations, _roots, majorana_polynomial,
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
        if self._rho.ndim == 1:  # given as a ket psi: rho = psi psi^dagger, formed now
            self._rho = np.outer(self._rho, self._rho.conj())
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
    selected_lm: tuple | None = None
    alpha: float | None = None
    beta: float | None = None
    aligned_polarization: PolarizationComponents | None = None


def _gauge_fix(states: list) -> list[GaugeFixed]:
    """Canonical complex amplitude of each nonzero spin-j > 0 component, with
    the constellation left None for the caller's root pass.

    Rotate the spin expectation to +z, cancel the phase of the first
    non-axial polarization component by a diagonal S_z twist, and read off
    z = ||psi|| e^{i beta} from the first nonzero coefficient.  Norms and
    spin expectations are reductions over the stacked coefficients, one
    `_wigner_columns` call rotates them all, and the scan (per ell), twist
    and beta_0 are array steps over all the zero-padded rotated kets; only
    the beta quotient and the record run per component.
    """
    two_j = [psi.s.two_s for psi in states]
    tables = {n: (_ladder(n), _sy_eigenbasis(n)[0]) for n in set(two_j)}
    dims = [n + 1 for n in two_j]
    starts = list(accumulate(dims, initial=0))[:-1]
    c = np.concatenate([psi.coeffs for psi in states])
    weight = c.real**2 + c.imag**2
    nrm = np.sqrt(np.add.reduceat(weight, starts))
    # <S_+> = sum_i conj(c_i) <i|S_+|i+1> c_{i+1}, <S_x> + i <S_y> = <S_+>;
    # a 0 after each component's ladder drops the pair across components
    ladder = np.concatenate([x for n in two_j for x in (tables[n][0], (0.0,))])[:-1]
    s_plus = np.add.reduceat(ladder * (c[:-1].conj() * c[1:]), starts)
    two_m = np.concatenate([tables[n][1] for n in two_j])
    sev = np.empty((len(states), 3))
    sev[:, 0], sev[:, 1] = s_plus.real, s_plus.imag
    sev[:, 2] = np.add.reduceat(two_m * weight, starts) / 2
    sev_norm = np.sqrt((sev * sev).sum(1))
    gauges = [
        GaugeFixed(n, None, None, False, "vanishing spin expectation", n == 2, s)
        for n, s in zip(two_j, sev)
    ]
    live = np.flatnonzero(sev_norm > GAUGE_TOL * np.array(two_j) / 2 * nrm * nrm)
    if not len(live):
        return gauges
    q = _geodesic_quaternions(sev[live] / sev_norm[live, None])
    q[:, 1:] *= -1.0  # the inverse rotation: expectation now along +z
    spins = np.array([two_j[b] for b in live])
    x = np.concatenate([states[b].coeffs for b in live])[:, None]
    B, D = len(live), max(3, int(spins.max()) + 1)  # D > 2: the scan reads ell = 2 at any spin
    R = np.zeros((B, D), dtype=complex)  # row i: component live[i], zero-padded
    R[np.arange(D) < spins[:, None] + 1] = _wigner_columns(spins.tolist(), q, x)[:, 0]
    # Scan ell ascending, m descending within each ell (the storage order of
    # PolarizationComponents), all rows at once: rho_{ell m} is a weighted
    # sum over diagonal m of psi psi^dagger, and each ell adds a diagonal.
    # rho_{1,+-1} ~ <S_-+> are rounding after the rotation (about
    # j^2 eps ||psi||^2), so the scan starts at ell = 2; |rho_{ell,-m}| =
    # |rho_{ell m}|, so an m < 0 is never first.  The residual-orbit
    # quotient below makes the amplitude independent of this direction.
    Rc, tol = R.conj(), GAUGE_TOL * nrm[live, None] * nrm[live, None]
    diagonals = np.zeros((D, B, D), dtype=complex)  # [m, i, p]: psi_p conj(psi_{p+m}) of row i
    np.multiply(R[:, :-1], Rc[:, 1:], out=diagonals[1, :, :-1])
    distinct = sorted(set(spins.tolist()))
    diagonal_tables = [_polarization_diagonals(n) for n in distinct]
    spin_index = np.searchsorted(distinct, spins)
    above, values, labels = [], [], []
    for ell in range(2, D):
        np.multiply(R[:, : D - ell], Rc[:, ell:], out=diagonals[ell, :, : D - ell])
        W = np.zeros((ell, len(distinct), D))  # [m - 1, u, p]: <p|T_{ell m}|p + m>, spin u
        for u, n in enumerate(distinct):
            for m in range(1, ell + 1) if n >= ell else ():
                W[m - 1, u, : n + 1 - m] = diagonal_tables[u][m][:, ell - m]
        values.append(np.add.reduce(W[:, spin_index] * diagonals[1 : ell + 1], axis=2).T[:, ::-1])
        above.append(np.abs(values[-1]) > tol)
        labels += [(ell, m) for m in range(ell, 0, -1)]
        if np.concatenate(above, 1).any(1).all():
            break
    above = np.concatenate(above, 1)
    first = above.argmax(1)
    selected = [labels[f] if hit else None for f, hit in zip(first.tolist(), above.any(1).tolist())]
    v0 = np.concatenate(values, 1)[np.arange(B), first]
    # alpha lives on [0, 2*pi) so the branch cut sits on the positive real
    # axis, away from negative-real selected components; noise that lands
    # just below the cut is folded back to 0, because a twist by 2*pi/m is
    # not the identity and would flip the phase of z.  Axial rows twist by 1.
    m0 = np.array([1 if lm is None else lm[1] for lm in selected])[:, None]
    alpha = np.arctan2(v0.imag, v0.real) % (2.0 * math.pi)
    alpha[2.0 * math.pi - alpha < 1e-9] = 0.0
    m_values = (spins[:, None] - 2 * np.arange(D)) / 2
    psi2 = np.exp(-1j * alpha[:, None] * m_values / m0) * R
    mags = np.abs(psi2)
    lead_idx = (mags > 1e-12 * mags.max(1, keepdims=True)).argmax(1)
    lead = psi2[np.arange(B), lead_idx]
    beta0 = np.arctan2(lead.imag, lead.real) % (2 * math.pi)
    m_lead = m_values[np.arange(B), lead_idx]
    for i, (b, lm, a, b0, ml) in enumerate(
        zip(live.tolist(), selected, alpha.tolist(), beta0.tolist(), m_lead.tolist())
    ):
        n = two_j[b]
        pol = PolarizationComponents(n, R[i, : n + 1])  # the ket of psi psi^dagger
        if lm is None:
            gauges[b] = replace(gauges[b], reason="axial symmetry", aligned_polarization=pol)
            continue
        # Making the selected polarization component real positive only fixes
        # the z-twist modulo 2*pi/|m0| (modulo 4*pi/|m0| for half-integer j,
        # where a 2*pi rotation contributes a global sign).  Frames that are
        # rotations of each other can land on different members of that residual
        # orbit, so quotient it out: of all residual twists, keep the one that
        # minimizes beta.  This leaves the amplitude invariant under rotations
        # of the input while reproducing the same value on symmetric states
        # whose leading coefficient is already real positive.
        twists = abs(lm[1]) if n % 2 == 0 else 2 * abs(lm[1])
        cands = ((b0 - 2.0 * math.pi * t * ml / lm[1]) % (2.0 * math.pi) for t in range(twists))
        beta = min(0.0 if 2 * math.pi - cand < 1e-9 else cand for cand in cands)
        z = float(nrm[b]) * complex(math.cos(beta), math.sin(beta))
        gauges[b] = GaugeFixed(n, z, None, True, None, n == 2, sev[b], lm, a, beta, pol)
    return gauges


def _stars(states: list) -> list:
    """Each state's constellation (None for None): one root and one stars pass."""
    polys = [majorana_polynomial(psi) for psi in states if psi is not None and psi.s.two_s]
    found = iter(_constellations(_roots(polys)) if polys else ())
    return [None if psi is None else next(found) if psi.s.two_s else _NO_STARS for psi in states]


def _spectator_state(z_values) -> SpinState:
    """Z with L entries as a spin-(L-1)/2 ket, entries ordered like m = s_Z, ..., -s_Z."""
    Z = np.asarray(z_values, dtype=complex)
    if Z.ndim != 1 or len(Z) == 0:
        raise ValueError("Z must be a nonempty vector")
    return SpinState(SpinLabel(len(Z) - 1), Z)


def spectator_constellation(z_values) -> Constellation:
    """Constellation of the spectator state built from the amplitudes Z.

    Z with L entries is read as a spin-(L-1)/2 ket (entries ordered like
    m = s_Z, ..., -s_Z); a single entry has spin 0 and no stars.
    """
    return _stars([_spectator_state(z_values)])[0]


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
    gauges = _gauge_fix(live) if live else []
    zs = iter([g.z for g in gauges])
    amplitudes = tuple(
        0.0 if nrm <= GAUGE_TOL else complex(comp.state.coeffs[0]) if comp.two_j == 0 else next(zs)
        for comp, nrm in zip(comps, norms)
    )
    z_values = None if any(not g.applicable for g in gauges) else amplitudes
    spectator = None if z_values is None else _spectator_state(z_values)
    *stars, spectator = _stars([*live, spectator])
    for g, c in zip(gauges, stars):
        object.__setattr__(g, "constellation", c)  # the one field the root pass fills
    gauges = iter(gauges)
    reports = []
    all_flags = []
    for comp, nrm, amplitude in zip(comps, norms, amplitudes):
        tag = (comp.two_j, comp.copy_index)
        if nrm <= GAUGE_TOL:
            reports.append(ComponentReport(*tag, 0.0, True, None, None, ("absent",)))
            continue
        if comp.two_j == 0:
            reports.append(ComponentReport(*tag, amplitude, False, _NO_STARS, None, ()))
            continue
        g = next(gauges)
        flags = []
        if not g.applicable:
            flags.append(f"gauge not applicable: {g.reason}")
        if g.spin1_warning:
            flags.append("spin-1 block: z and constellation underdetermine it")
        reports.append(ComponentReport(*tag, g.z, False, g.constellation, g, tuple(flags)))
        all_flags.extend(flags)
    return Multiconstellation(
        frame.s, frame.k, tuple(reports), z_values, spectator, tuple(all_flags)
    )
