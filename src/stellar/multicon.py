"""Multiconstellation of a plane: per-block Majorana constellations plus the
gauge-fixed complex amplitudes tying the blocks together.

Each spin-j component of the decomposed Pluecker vector carries a
constellation (2j stars) and, after a canonical alignment procedure, a single
complex number z; the vector Z of all z's behaves as one extra "spectator"
spin state.  The picture is rotation-covariant but not faithful in general:
at (5,3), negating the spin-5/2 block gives another plane with the same
multiconstellation.  A plane's blocks are the rows of one padded array: a
plane costs two lookups (plan and basis), a few array steps (per ell of the
gauge scan), one `_wigner_columns` and one `_roots` call.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from ._cache import cached
from .decomp import _decompose_minors, bd_basis
from .grassmann import KFrame, _minors, _multi_index_array
from .majorana import (
    Constellation, _constellations, _degrees, _roots, _sqrt_binomials, constellation_of_state,
)
from .spin_rep import (
    SpinLabel, SpinState, _geodesic_quaternions, _ladder, _wigner_columns, _wigner_stack,
)

#: Relative threshold for treating amplitudes/expectations as zero.
GAUGE_TOL = 1e-9

#: The constellation of a spin-0 state.
_NO_STARS = Constellation(np.zeros((0, 3)), np.zeros(0, dtype=int), 0)


@cached
def _polarization_diagonals(two_j: int, m: int) -> np.ndarray:
    """Polarization operators T_{lm}, l = m..2j, of the spin-j space, m >= 0.

    T_{lm} (unit Frobenius norm, Condon-Shortley phases) is nonzero only on
    the diagonal at offset m.  On that diagonal the Casimir superoperator
    X -> sum_a [S_a, [S_a, X]] is a real symmetric tridiagonal matrix with
    eigenvalues l(l+1), l = m..2j, so the result holds those diagonals as the
    columns of its ascending `eigh` eigenvectors (column l - m), each signed
    so that its first entry <j, j-m; l m | j j> has the sign (-1)^m.
    T_{l,-m} = (-1)^m T_{lm}^T.  One table per m: a non-axial scan reads m <= 2.
    """
    j = two_j / 2
    mz = j - np.arange(two_j + 1)
    ladder = _ladder(two_j)
    # entry p of the diagonal sits at (p, p + m): m_r = mz[p], m_c = mz[p + m]
    C = np.diag(2 * j * (j + 1) - 2 * mz[: two_j + 1 - m] * mz[m:])
    off = -ladder[: two_j - m] * ladder[m:]
    C += np.diag(off, 1) + np.diag(off, -1)
    W = np.linalg.eigh(C)[1]
    W *= (-1.0) ** m * np.sign(W[0])
    return W


class PolarizationComponents:
    """rho_{lm} = Tr(rho T_{lm}^dagger), stored l ascending, m descending l..-l.

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
            W = (-1) ** min(m, 0) * _polarization_diagonals(self.two_j, abs(m))
            self._rows[m] = W.T @ np.diagonal(self._rho, m)
        return complex(self._rows[m][ell - abs(m)])


@dataclass(frozen=True, eq=False)
class GaugeFixed:
    """Outcome of the alignment procedure on one spin-j component.

    z is None when the procedure does not apply (vanishing spin expectation
    or exact axial symmetry); the component's constellation, in its
    `ComponentReport`, is reported regardless.  For j = 1 the warning notes
    that a constellation plus one complex number cannot distinguish every
    state.
    """

    two_j: int
    z: complex | None
    applicable: bool
    reason: str | None
    spin1_warning: bool
    sev: np.ndarray
    selected_lm: tuple | None = None
    alpha: float | None = None
    beta: float | None = None
    aligned_polarization: PolarizationComponents | None = None


#: The tables of a shape, found by one lookup (see `_multicon_plan`).
_Plan = namedtuple("_Plan", "minors two_j two_m ket poly ladder signed binomial spins spin_index "
                   "wigner scan2 spectator")


def _scan_weights(spins: list, ell: int, D: int, tables: dict) -> np.ndarray:
    """[m - 1, u, p]: <p|T_{ell m}|p + m> at plan spin u; tables[2j][m] keeps each read."""
    W = np.zeros((ell, len(spins), D))
    for u, n in [(u, n) for u, n in enumerate(spins) if n >= ell]:
        diagonals = tables.setdefault(n, [None])
        diagonals += [_polarization_diagonals(n, m) for m in range(len(diagonals), ell + 1)]
        for m in range(1, ell + 1):
            W[m - 1, u, : n + 1 - m] = diagonals[m][:, ell - m]
    return W


@cached
def _multicon_plan(s: SpinLabel, k: int) -> _Plan:
    """The (s, k) blocks in layout order as rows of (B, D) arrays, D = max(3,
    2j_max + 1) (the scan reads ell = 2 at any spin): entry p of block b's ket
    is flat component ket[b, p], of weight two_m[u, p] at its spin u =
    spin_index[b], and entry t of its Majorana polynomial is signed[u, t]
    times component poly[b, t], cut by binomial[u, t] = sqrt(C(2j, t)).
    Padding indexes the 0 after the components.  With them: the shape's minor
    index, spectator binomials, and its spins' ell = 2 scan weights and Wigner
    stack; not its basis, which the cache counts and may evict on its own."""
    basis = bd_basis(s, k)
    two_j, lo = np.array([(m.two_j, m.row_range[0]) for m in basis.layout]).T
    B, D, end = len(two_j), max(3, int(two_j.max()) + 1), len(basis.row_level)
    p, inside = np.arange(D), np.arange(D) <= two_j[:, None]
    spins, spin_index = np.unique(two_j, return_inverse=True)
    spins, S = spins.tolist(), len(spins)
    ladder, signed, binomial = np.zeros((S, D - 1)), np.zeros((S, D)), np.ones((S, D))
    for u, n in enumerate(spins):  # ladder and signed are 0 past a block, binomial 1
        root, sign = _sqrt_binomials(n)
        ladder[u, :n], binomial[u, : n + 1], signed[u, : n + 1] = _ladder(n), root, sign[::-1]
    ket = np.where(inside, lo[:, None] + p, end)
    poly = np.where(inside, (lo + two_j)[:, None] - p, end)
    return _Plan(
        _multi_index_array(s.dim, k), two_j, np.array(spins)[:, None] - 2 * p, ket, poly,
        ladder, signed, binomial, spins, spin_index, _wigner_stack(tuple(spins), D),
        _scan_weights(spins, 2, D, {}), _sqrt_binomials(B - 1),
    )


def _gauge_fix(plan: _Plan, rows: np.ndarray, kets: np.ndarray, weight: np.ndarray) -> list:
    """Canonical complex amplitude of the nonzero spin-j > 0 blocks `rows` of
    the plan, whose zero-padded kets are the rows of kets, their |c|^2 those
    of weight; their constellations come from the caller's root pass.

    Rotate the spin expectation to +z, cancel the phase of the first
    non-axial polarization component by a diagonal S_z twist, and read off
    z = ||psi|| e^{i beta} from the first nonzero coefficient.  All but the
    beta quotient and the record are array steps over all the rows.
    """
    two_j, u, nrm = plan.two_j[rows], plan.spin_index[rows], np.sqrt(np.add.reduce(weight, 1))
    two_m = plan.two_m[u]
    # <S_+> = sum_i conj(c_i) <i|S_+|i+1> c_{i+1}, <S_x> + i <S_y> = <S_+>
    s_plus = np.add.reduce(plan.ladder[u] * (kets[:, :-1].conj() * kets[:, 1:]), 1)
    sev = np.empty((len(rows), 3))
    sev[:, 0], sev[:, 1], sev[:, 2] = s_plus.real, s_plus.imag, np.add.reduce(two_m * weight, 1) / 2
    sev_norm = np.sqrt(np.add.reduce(sev * sev, 1))
    on = sev_norm > GAUGE_TOL * two_j / 2 * nrm * nrm
    gauges = [  # each live block's record is made below
        None if o else GaugeFixed(n, None, False, "vanishing spin expectation", n == 2, v)
        for n, v, o in zip(two_j.tolist(), sev, on.tolist())
    ]
    live = on.nonzero()[0]
    if not len(live):
        return gauges
    q = _geodesic_quaternions(sev[live] / sev_norm[live, None])
    q[:, 1:] *= -1.0  # the inverse rotation: expectation now along +z
    R = _wigner_columns(plan.wigner, two_j[live], q, kets[live, :, None])[:, :, 0]
    B, D = R.shape
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
    spin_index, live_two_j, tables = u[live], two_j[live], {}
    scan, selected, v0 = (live_two_j >= 2).nonzero()[0], [None] * B, np.zeros(B, dtype=complex)
    for ell in range(2, D):  # scan holds the rows with no (ell, m) yet and ell <= 2j
        if not len(scan):
            break
        diagonals[ell, scan, : D - ell] = R[scan, : D - ell] * Rc[scan, ell:]
        W = plan.scan2 if ell == 2 else _scan_weights(plan.spins, ell, D, tables)
        values = np.add.reduce(W[:, spin_index[scan]] * diagonals[1 : ell + 1, scan], axis=2)
        above = np.abs(values.T[:, ::-1]) > tol[scan]  # column f holds m = ell - f
        first, found = above.argmax(1), np.logical_or.reduce(above, 1)
        hit = found.nonzero()[0]
        for i, f in zip(scan[hit].tolist(), first[hit].tolist()):
            selected[i] = (ell, ell - f)
        v0[scan[hit]] = values[ell - 1 - first[hit], hit]
        scan = scan[~found & (live_two_j[scan] > ell)]
    # alpha lives on [0, 2*pi) so the branch cut sits on the positive real
    # axis, away from negative-real selected components; noise that lands
    # just below the cut is folded back to 0, because a twist by 2*pi/m is
    # not the identity and would flip the phase of z.  Axial rows twist by 1.
    m0 = np.array([1 if lm is None else lm[1] for lm in selected])[:, None]
    alpha = np.arctan2(v0.imag, v0.real) % (2.0 * math.pi)
    alpha[2.0 * math.pi - alpha < 1e-9] = 0.0
    m_values = two_m[live] / 2
    psi2 = np.exp(-1j * alpha[:, None] * m_values / m0) * R
    mags = np.abs(psi2)
    lead_idx = (mags > 1e-12 * np.maximum.reduce(mags, 1, keepdims=True)).argmax(1)
    lead = psi2[np.arange(B), lead_idx]
    beta0 = np.arctan2(lead.imag, lead.real) % (2 * math.pi)
    m_lead = m_values[np.arange(B), lead_idx]
    for i, (b, lm, a, b0, ml, v) in enumerate(
        zip(live.tolist(), selected, alpha.tolist(), beta0.tolist(), m_lead.tolist(), sev[live])
    ):
        n = int(two_j[b])
        pol = PolarizationComponents(n, R[i, : n + 1])  # the ket of psi psi^dagger
        if lm is None:
            axial = (n, None, False, "axial symmetry", n == 2, v)
            gauges[b] = GaugeFixed(*axial, aligned_polarization=pol)
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
        cands = [(b0 - 2.0 * math.pi * t * ml / lm[1]) % (2.0 * math.pi) for t in range(twists)]
        beta = min([0.0 if 2 * math.pi - cand < 1e-9 else cand for cand in cands])
        z = float(nrm[b]) * complex(math.cos(beta), math.sin(beta))
        gauges[b] = GaugeFixed(n, z, True, None, n == 2, v, lm, a, beta, pol)
    return gauges


def spectator_constellation(z_values) -> Constellation:
    """Constellation of the spectator state built from the amplitudes Z.

    Z with L entries is read as a spin-(L-1)/2 ket (entries ordered like
    m = s_Z, ..., -s_Z); a single entry has spin 0 and no stars.  Entries
    that are not finite raise ValueError, as for any spin state.
    """
    Z = np.asarray(z_values, dtype=complex)
    if Z.ndim != 1 or len(Z) == 0:
        raise ValueError("Z must be a nonempty vector")
    psi = SpinState(SpinLabel(len(Z) - 1), Z)
    return constellation_of_state(psi) if len(Z) > 1 else _NO_STARS


@dataclass(frozen=True, eq=False)
class ComponentReport:
    """One spin-j block of a multiconstellation: its constellation, from the
    plane's one root pass (None for an absent block), and its gauge record."""

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

    The frame's scale drops out and its phase is part of the gauge, so rotating
    the rows coherently rotates every piece of the answer, no phase re-fixed.
    """
    plan, basis = _multicon_plan(frame.s, frame.k), bd_basis(frame.s, frame.k)
    flat = _decompose_minors(basis, _minors(frame._polar, plan.minors))
    kets = flat[plan.ket]
    weight = kets.real**2 + kets.imag**2
    absent = np.sqrt(np.add.reduce(weight, 1)) <= GAUGE_TOL
    rows = (~absent & (plan.two_j > 0)).nonzero()[0]
    gauges = _gauge_fix(plan, rows, kets[rows], weight[rows]) if len(rows) else []
    amplitudes, given = np.where(absent, 0.0, kets[:, 0]), all(g.applicable for g in gauges)
    if given:  # else only the spin-0 blocks' amplitudes are read
        amplitudes[rows] = [g.z for g in gauges]
    z_values = tuple(amplitudes.tolist()) if given else None
    # one root pass: the blocks' Majorana polynomials, then, when Z is given
    # and n > 0, the spectator's, Z read as a spin-n/2 ket
    n, L, D = len(amplitudes) - 1, len(rows), kets.shape[1]
    spectate = given and n > 0
    coeffs = np.zeros((L + spectate, max(D, n + 1)), dtype=complex)
    binomials = np.ones(coeffs.shape)
    u = plan.spin_index[rows]
    np.multiply(plan.signed[u], flat[plan.poly[rows]], out=coeffs[:L, :D])
    binomials[:L, :D] = plan.binomial[u]
    if spectate:
        root, sign = plan.spectator
        coeffs[L, : n + 1], binomials[L, : n + 1] = (sign * amplitudes)[::-1], root
    d_noms = plan.two_j[rows].tolist() + [n] * spectate
    degrees = _degrees(coeffs, binomials).tolist()
    stars = _constellations(_roots(coeffs, degrees, d_noms)) if d_noms else []
    spectator = stars.pop() if spectate else None if z_values is None else _NO_STARS
    gauges, stars, reports, all_flags = iter(gauges), iter(stars), [], []
    for m, gone, amplitude in zip(basis.layout, absent, amplitudes.tolist()):
        tag = (m.two_j, m.copy_index)
        if gone:
            reports.append(ComponentReport(*tag, 0.0, True, None, None, ("absent",)))
            continue
        if m.two_j == 0:
            reports.append(ComponentReport(*tag, amplitude, False, _NO_STARS, None, ()))
            continue
        g = next(gauges)
        flags = []
        if not g.applicable:
            flags.append(f"gauge not applicable: {g.reason}")
        if g.spin1_warning:
            flags.append("spin-1 block: z and constellation underdetermine it")
        reports.append(ComponentReport(*tag, g.z, False, next(stars), g, tuple(flags)))
        all_flags.extend(flags)
    return Multiconstellation(
        frame.s, frame.k, tuple(reports), z_values, spectator, tuple(all_flags)
    )
