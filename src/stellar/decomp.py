"""SU(2) structure of the k-th wedge power of the spin-s space.

The Pluecker image of a (s, k) plane lives in the wedge space of dimension
C(2s+1, k), which splits into spin-j blocks with multiplicities m_j: the
differences of the coefficients of the Gaussian binomial [2s+1 choose k]_q.
This module computes those multiplicities by three independent routes: the
closed-form product in exact integers (`genfun`, defined in `_exact` so that
it loads no numpy) in O(kk L) steps for kk = min(k, 2s+1-k) and L =
kk(2s+1-kk) + 1, the int64 character dynamic program (`char`) in kk numpy
cumulative sums, and the explicit highest-weight construction (`basis`).  It
also builds the unitary change of basis to the block-diagonal form, with a
canonical, rotation-independent choice inside degenerate j-sectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._cache import cached
from ._exact import (  # multiplicities_genfun: one of this module's three routes
    MultiplicityTable,
    _multiplicities_from_gaussian,
    _table_from_map,
    multiplicities_genfun,
    two_s_max,
)
from .grassmann import (
    RANK_TOL,
    _PRODUCT_CHUNK,
    KFrame,
    _multi_index_array,
    _minors,
    _subset_rank,
)
from .spin_rep import RotationSpec, SpinLabel, SpinState, _ladder, wigner_d

#: Eigenvalue clusters tighter than this count as ties during refinement.
DEGENERACY_TOL = 1e-9


# ---------------------------------------------------------------------------
# wedge-space generators


def _wedge_lowering_terms(two_s: int, k: int):
    """(dst, src, coeff) triples of the lowering operator on wedge indices.

    Lowering sends the single index i to i + 1 (m decreases by one) with the
    ladder coefficient _ladder(two_s)[i], summed over the k slots; terms
    that would duplicate an index vanish, and sorted order is preserved, so
    no antisymmetrization signs appear.
    """
    n = two_s + 1
    I = _multi_index_array(n, k)
    # index i may step to i + 1 where the next slot (n past the last) is above it
    above = np.column_stack([I[:, 1:], np.full(len(I), n)])
    src, t = np.nonzero(I + 1 < above)
    moved = I[src]
    moved[np.arange(len(src)), t] += 1
    return _subset_rank(n, moved), src, _ladder(two_s)[I[src, t]]


def _wedge_two_m(two_s: int, k: int) -> np.ndarray:
    """Twice the S_z eigenvalue of each wedge basis vector."""
    return k * two_s - 2 * _multi_index_array(two_s + 1, k).sum(axis=1)


def wedge_rep(s: SpinLabel, k: int, r: RotationSpec) -> np.ndarray:
    """The rotation on the wedge space: the k-th compound of wigner_d."""
    D = wigner_d(s, r)
    sel = _multi_index_array(s.dim, k)
    sub = D[sel[:, None, :, None], sel[None, :, None, :]]
    return np.linalg.det(sub)


# ---------------------------------------------------------------------------
# multiplicity tables


def _wedge_character(n: int, kk: int) -> list | None:
    """The lower half of the Gaussian binomial [n choose kk]_q, or None on overflow.

    c[e] for e <= (L-1)/2, L = kk(n-kk) + 1, e the index sum less its least
    value; the SU(2) character is palindromic, so this is all a table reads.
    Row u of pass j's int64 history counts the j-subsets of indices 0..j+u-1
    (u < N = n-kk+1: later rows never reach kk) and is the sum over v <= u of
    pass j-1's row v shifted by v: one cumsum down a zero-padded buffer read
    with rows one entry short, which shifts row v by v, trimmed to the
    j(N-1) + 1 columns that can be nonzero.  Sums wrap modulo 2^64, so each
    entry is at most its true, non-negative value, and the row is exact iff
    its symmetric sum 2 sum(half) - (centre if L is odd) reaches C(n, kk).
    The buffer is dropped before the caller sees the result, so an error
    raised over it keeps no array alive.
    """
    L, N = kk * (n - kk) + 1, n - kk + 1
    H = (L + 1) // 2
    B = np.zeros((N, H + N), dtype=np.int64)
    B[:, 0] = 1
    shifted = B.reshape(-1)[: N * (H + N - 1)].reshape(N, H + N - 1)
    for j in range(1, kk + 1):
        w = min(H, j * (N - 1) + 1)
        B[:, :w] = np.cumsum(shifted[:, :w], axis=0)
    half = B[-1, :H].tolist()
    return half if 2 * sum(half) - (half[-1] if L % 2 else 0) == math.comb(n, kk) else None


def multiplicities_char(s: SpinLabel, k: int) -> MultiplicityTable:
    """Multiplicities from exact character inner products.

    The wedge character chi is the elementary symmetric polynomial e_k of
    the weights q^{2m}, built by an int64 dynamic program at kk =
    min(k, 2s+1-k) (the two wedge powers are equivalent representations)
    on the lower half of its palindromic index-sum support of width L =
    kk(2s+1-kk) + 1: kk cumulative sums over a (2s+2-kk) x ceil(L/2) history.
    Pairing with the spin-j character telescopes to m_j = chi(2j) -
    chi(2j+2), with chi(e) the coefficient of q^e.
    Overflow is detected once, on the half row, by its symmetric sum (see
    _wedge_character); an ArithmeticError is then raised from a frame that
    holds no array, so a kept traceback keeps no table alive.
    """
    if not 1 <= k <= s.dim:
        raise ValueError("k out of range")
    n = s.dim
    chi = _wedge_character(n, min(k, n - k))
    if chi is None:
        raise ArithmeticError(
            f"multiplicities_char: the (n, k) = ({n}, {k}) wedge character "
            "overflows int64"
        )
    return _multiplicities_from_gaussian(s, k, chi)


def multiplicities_from_basis(s: SpinLabel, k: int) -> MultiplicityTable:
    """Multiplicities counted off the explicit highest-weight construction."""
    return bd_basis(s, k).multiplicity_table()


# ---------------------------------------------------------------------------
# block-diagonalizing basis


@dataclass(frozen=True)
class Multiplet:
    """One spin-j block: the basis rows lo..hi-1 that hold its 2j+1 components.

    Row lo + t is the m = j - t member, which lies in the weight space 2m.
    """

    two_j: int
    copy_index: int
    row_range: tuple[int, int]


@dataclass(frozen=True, eq=False)
class BDBasis:
    """Unitary U block-diagonalizing the wedge representation, per S_z weight.

    Rows are grouped per multiplet (two_j descending, copies ascending); for
    every rotation r, U @ wedge_rep(r) @ U^dagger is block diagonal with
    spin-j rotation matrices on the diagonal.  Every row lies in a single
    S_z weight space, so only its coefficients there are stored: weight
    level l (2m = two_s_max - 2l) has its wedge positions in level_cols[l],
    row r lies in level row_level[r], and coefs[r] holds U[r] on the
    columns level_cols[row_level[r]].  Levels narrower than the widest are
    padded with column 0 and coefficient 0.  The dense U is assembled on
    each access and never stored.  degenerate_two_j lists j-sectors where
    the canonical refinement still hit a residual tie and fell back to a
    deterministic coordinate rule.
    """

    s: SpinLabel
    k: int
    level_cols: np.ndarray
    row_level: np.ndarray
    coefs: np.ndarray
    layout: tuple[Multiplet, ...]
    degenerate_two_j: tuple[int, ...]

    @property
    def U(self) -> np.ndarray:
        """The dense dim x dim matrix, built from the per-weight rows."""
        dim = len(self.row_level)
        U = np.zeros((dim, dim), dtype=complex)
        rows = np.arange(dim)[:, None]
        np.add.at(U, (rows, self.level_cols[self.row_level]), self.coefs)
        U.setflags(write=False)
        return U

    def multiplicity_table(self) -> MultiplicityTable:
        mmap: dict[int, int] = {}
        for mult in self.layout:
            mmap[mult.two_j] = mmap.get(mult.two_j, 0) + 1
        return _table_from_map(self.s, self.k, mmap)


def _qpower_diagonals(two_s: int, k: int, max_power: int) -> np.ndarray:
    """Diagonals of sum_r (S_z of slot r)^n in the wedge basis, n = 2..max."""
    ms = (two_s - 2 * _multi_index_array(two_s + 1, k)) / 2
    out = np.zeros((max_power + 1, len(ms)))
    for n_pow in range(2, max_power + 1):
        for col in ms.T:
            out[n_pow] += col**n_pow
    return out


def _phase_fixed(v: np.ndarray) -> np.ndarray:
    """Rotate the global phase so the first nonzero entry is real positive."""
    mags = np.abs(v)
    top = mags.max()
    nz = np.nonzero(mags > 1e-12 * top)[0]
    lead = v[nz[0]]
    return v * (lead.conjugate() / abs(lead))


def _canonical_level_basis(diags: np.ndarray, V: np.ndarray) -> tuple[np.ndarray, bool]:
    """Rotation-independent ordered basis of a degenerate j-sector.

    V holds the sector's vectors as columns on one weight space, diags the
    Q^(n) diagonals there; returns the canonical vectors as columns.  They
    are the eigenvectors of the compressed Q^(2) = sum_r (S_z^(r))^2 in
    descending order of eigenvalue.  A tie, a run of eigenvalues whose gaps
    are within DEGENERACY_TOL times the largest |Q^(n)| on the level, is
    ordered in turn by the compressed Q^(3), ..., Q^(k); a tie left after
    Q^(k) falls back to a coordinate rule and sets the returned flag.
    """
    out = []
    flagged = False

    def refine(C: np.ndarray, n_pow: int) -> None:
        nonlocal flagged
        if C.shape[1] == 1:
            out.append(C[:, 0])
        elif n_pow == len(diags):
            flagged = True
            out.extend(_coordinate_basis(C).T)
        else:
            A = C.conj().T @ (diags[n_pow][:, None] * C)
            evals, evecs = np.linalg.eigh((A + A.conj().T) / 2)
            tol = DEGENERACY_TOL * np.abs(diags[n_pow]).max()
            cuts = np.nonzero(-np.diff(evals[::-1]) > tol)[0] + 1
            for run in np.split(C @ evecs[:, ::-1], cuts, axis=1):
                refine(run, n_pow + 1)

    # make sure the working columns are orthonormal
    q, _ = np.linalg.qr(V)
    refine(q[:, : V.shape[1]], 2)
    return np.column_stack([_phase_fixed(v / np.linalg.norm(v)) for v in out]), flagged


def _coordinate_basis(C: np.ndarray) -> np.ndarray:
    """Ordered orthonormal basis of the span of C's orthonormal columns.

    Each vector in turn is the normalized projection of the first
    coordinate vector e_c whose projection onto what the vectors before it
    leave of the span has norm above 1e-6.
    """
    Y = np.zeros((C.shape[1], 0), dtype=complex)
    # row c of C, conjugated, is the coordinate vector e_c projected onto
    # the span, in the coordinates of C's columns
    for x in C.conj():
        x = x - Y @ (Y.conj().T @ x)
        nrm = np.linalg.norm(x)
        if nrm > 1e-6:
            Y = np.column_stack([Y, x / nrm])
    return C @ Y


@cached
def bd_basis(s: SpinLabel, k: int) -> BDBasis:
    """Block-diagonalizing basis of the (s, k) wedge space (in the table cache).

    Highest-weight vectors, their canonical refinement and their lowering
    ladders are all built in the coordinates of one weight space at a time,
    with one complete QR of the lowered ladders per level.  Rows are assigned
    to a multiplet when it is created, and each ladder vector is written to
    its row as the ladder descends.
    """
    if not 1 <= k <= s.dim:
        raise ValueError("k out of range")
    dim = math.comb(s.dim, k)
    two_m = _wedge_two_m(s.two_s, k)
    tsm = two_s_max(s, k)
    levels = range(tsm, -tsm - 1, -2)
    pos = {tm: np.nonzero(two_m == tm)[0] for tm in levels}
    local = np.empty(dim, dtype=np.intp)
    for p in pos.values():
        local[p] = np.arange(len(p))
    dst, src, cf = _wedge_lowering_terms(s.two_s, k)
    diags = _qpower_diagonals(s.two_s, k, max(2, k))
    level_cols = np.zeros((len(levels), max(map(len, pos.values()))), dtype=np.intp)
    for lev, tm in enumerate(levels):
        level_cols[lev, : len(pos[tm])] = pos[tm]

    # rows hold the vectors themselves until the final conjugation
    row_level = np.empty(dim, dtype=np.intp)
    coefs = np.zeros((dim, level_cols.shape[1]), dtype=complex)
    layout: list[Multiplet] = []
    flagged: list[int] = []
    for lev, two_mu in enumerate(levels):
        width = len(pos[two_mu])
        # lower every multiplet that reaches this weight, in one product;
        # its m = two_mu / 2 member goes to row lo + (two_j - two_mu) / 2
        active = [m for m in layout if m.two_j >= -two_mu]
        if len(active) > width:
            raise ArithmeticError("level dimension bookkeeping failed")
        rows = np.array([m.row_range[0] + (m.two_j - two_mu) // 2 for m in active], dtype=np.intp)
        W = np.zeros((width, 0))
        if active:
            # the lowering operator from the level above, in level coordinates
            sel = two_m[src] == two_mu + 2
            L = np.zeros((width, len(pos[two_mu + 2])))
            L[local[dst[sel]], local[src[sel]]] = cf[sel]
            W = L @ coefs[rows - 1, : len(pos[two_mu + 2])].T
            # spin j lowers from m = (two_mu + 2) / 2 by entry j - m of its ladder
            W /= [_ladder(m.two_j)[(m.two_j - two_mu - 2) // 2] for m in active]
        # Rounding in a ladder's vector along longer ladders grows as the
        # lowering coefficient shrinks toward the ladder's foot.  QR in
        # creation order (two_j descending) takes it out; the phases of R's
        # diagonal keep each vector's own phase.  The trailing columns of the
        # complete Q span the complement of the ladders: the level's
        # highest-weight space, empty below 2m = 0.
        Q, R = np.linalg.qr(W, mode="complete")
        r = np.diagonal(R)
        if np.any(np.abs(r) <= RANK_TOL):
            raise ArithmeticError(f"lowered ladders at 2m={two_mu} lost rank")
        coefs[rows, :width] = (Q[:, : len(active)] * (r / np.abs(r))).T
        row_level[rows] = lev
        ns = Q[:, len(active) :]
        if ns.shape[1] > 1:
            ns, flag = _canonical_level_basis(diags[:, pos[two_mu]], ns)
            if flag:
                flagged.append(two_mu)
        # every copy of this two_j starts here, in canonical order
        for copy, v in enumerate(ns.T):
            lo = layout[-1].row_range[1] if layout else 0
            coefs[lo, :width] = _phase_fixed(v)
            row_level[lo] = lev
            layout.append(Multiplet(two_mu, copy, (lo, lo + two_mu + 1)))
    if layout[-1].row_range[1] != dim:
        raise ArithmeticError("block layout does not exhaust the wedge space")
    np.conjugate(coefs, out=coefs)
    return BDBasis(
        s, k, level_cols, row_level, coefs, tuple(layout), tuple(sorted(flagged))
    )


# ---------------------------------------------------------------------------
# plane decomposition


@dataclass(frozen=True, eq=False)
class ComponentState:
    """One spin-j component of a decomposed Pluecker vector."""

    two_j: int
    copy_index: int
    state: SpinState


def decompose_plane(frame: KFrame) -> list[ComponentState]:
    """Spin-j components of the unit Pluecker vector P/|P| of a frame, read
    off its polar factor: the frame's scale drops out, and the phase of its
    minors fixes the (gauge-dependent) phases of the components, so rotating
    the rows coherently transforms every block by its spin-j rotation.  Each
    component entry is the product of one stored basis row with the
    Pluecker entries of its own weight space.
    """
    basis = bd_basis(frame.s, frame.k)
    c = _decompose_minors(basis, _minors(frame._polar, _multi_index_array(frame.s.dim, frame.k)))
    return [
        ComponentState(m.two_j, m.copy_index, SpinState(SpinLabel(m.two_j), c[slice(*m.row_range)]))
        for m in basis.layout
    ]


def _decompose_minors(basis: BDBasis, P: np.ndarray) -> np.ndarray:
    """The flat components, each multiplet's in its basis rows, of the wedge
    vector P, then one 0, which the padding of a `multicon` plan indexes."""
    end = len(basis.row_level)
    levels, step = P[basis.level_cols], max(1, _PRODUCT_CHUNK // basis.coefs.shape[1])
    psi = np.zeros(end + 1, dtype=complex)
    for lo in range(0, end, step):  # each row's level of P, gathered a bounded block at a time
        hi = min(lo + step, end)
        psi[lo:hi] = np.einsum("rc,rc->r", basis.coefs[lo:hi], levels[basis.row_level[lo:hi]])
    return psi
