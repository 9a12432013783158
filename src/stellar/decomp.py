"""SU(2) structure of the k-th wedge power of the spin-s space.

The Pluecker image of a (s, k) plane lives in the wedge space of dimension
C(2s+1, k), which splits into spin-j blocks with multiplicities m_j: the
differences of the coefficients of the Gaussian binomial [2s+1 choose k]_q.
This module computes those multiplicities by three independent routes: the
closed-form product in exact integers (`genfun`) and the int64 character
dynamic program (`char`), each in O(kk L) steps for kk = min(k, 2s+1-k) and
L = kk(2s+1-kk) + 1, and the explicit highest-weight construction
(`basis`).  It also builds the unitary change of basis to the block-diagonal
form, with a canonical, rotation-independent choice inside degenerate
j-sectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

import numpy as np

from .grassmann import (
    RANK_TOL,
    _multi_index_array,
    frame_of,
    multi_index_positions,
    multi_indices,
    null_space,
    plucker,
)
from .spin_rep import RotationSpec, SpinLabel, SpinState, _ladder, wigner_d

#: Eigenvalue clusters tighter than this count as ties during refinement.
DEGENERACY_TOL = 1e-9


def two_s_max(s: SpinLabel, k: int) -> int:
    """Twice the largest spin in the wedge decomposition, k(2s+1-k)."""
    return k * (s.dim - k)


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
    ladder = _ladder(two_s)
    pos = multi_index_positions(n, k)
    dst, src, cf = [], [], []
    for p, I in enumerate(multi_indices(n, k)):
        occupied = set(I)
        for t, i in enumerate(I):
            if i + 1 < n and (i + 1) not in occupied:
                dst.append(pos[I[:t] + (i + 1,) + I[t + 1 :]])
                src.append(p)
                cf.append(ladder[i])
    return np.array(dst), np.array(src), np.array(cf)


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


@dataclass(frozen=True)
class MultiplicityTable:
    """Multiplicities m_j of spin-j blocks, keyed by two_j descending to 0."""

    s: SpinLabel
    k: int
    entries: tuple[tuple[int, int], ...]

    def multiplicity(self, two_j: int) -> int:
        for tj, m in self.entries:
            if tj == two_j:
                return m
        return 0

    def nonzero(self) -> tuple[tuple[int, int], ...]:
        return tuple((tj, m) for tj, m in self.entries if m)

    def as_dict(self) -> dict:
        return dict(self.entries)

    def total_dimension(self) -> int:
        return sum((tj + 1) * m for tj, m in self.entries)


@lru_cache(maxsize=64)
def _zero_entries(tsm: int) -> tuple[tuple[int, int], ...]:
    """(two_j, 0) for two_j = tsm, ..., 0, shared by every table of that size.

    At least every other entry of a table is zero (two_j of the other
    parity), so sharing these tuples halves the objects a table holds.
    """
    return tuple((tj, 0) for tj in range(tsm, -1, -1))


def _table_from_map(s: SpinLabel, k: int, mmap: dict) -> MultiplicityTable:
    entries = tuple(
        (z[0], mmap[z[0]]) if mmap.get(z[0]) else z
        for z in _zero_entries(two_s_max(s, k))
    )
    return MultiplicityTable(s, k, entries)


def _multiplicities_from_gaussian(s: SpinLabel, k: int, c: list) -> MultiplicityTable:
    """The table from c[e], the q^e coefficients of the Gaussian binomial.

    c[e] counts the k-subsets of the n weights whose sorted index sum
    exceeds its least value by e: the weight 2m = two_s_max - 2e of the wedge
    character.  So m_j = c[e] - c[e - 1] at e = (two_s_max - 2j) / 2.
    """
    tsm = two_s_max(s, k)
    mmap = {tsm - 2 * e: c[e] - (c[e - 1] if e else 0) for e in range(tsm // 2 + 1)}
    return _table_from_map(s, k, mmap)


def multiplicities_genfun(s: SpinLabel, k: int) -> MultiplicityTable:
    """Multiplicities from the closed form of the Gaussian binomial.

    With n = 2s+1 and kk = min(k, n-k) (the k-th and (n-k)-th wedge powers
    are equivalent representations), the wedge character, read from its
    top weight down in steps of 2, is the Gaussian binomial

        [n choose kk]_q = prod_{r=1}^{kk} (1 - q^{n-kk+r}) / (1 - q^r),

    built one factor at a time on a list of exact Python ints, never longer
    than L + kk with L = kk(n-kk) + 1: multiplying by (1 - q^a) is one
    shifted subtract, dividing by (1 - q^r) one running sum with stride r.
    The running sum is the power series of the quotient; it is exact only
    if the r coefficients past the quotient's degree vanish, and an
    ArithmeticError is raised if they do not.  Each factor costs O(L), the
    table O(kk L), and no floating point is involved.
    """
    if not 1 <= k <= s.dim:
        raise ValueError("k out of range")
    n = s.dim
    kk = min(k, n - k)
    c = [1]
    for r in range(1, kk + 1):
        a = n - kk + r
        c += [0] * a
        c[a:] = [x - y for x, y in zip(c[a:], c)]  # times (1 - q^a)
        for rho in range(r):  # over (1 - q^r): c[t] += c[t - r], left to right
            c[rho::r] = accumulate(c[rho::r])
        if any(c[-r:]):
            raise ArithmeticError("inexact polynomial division")
        del c[-r:]
    return _multiplicities_from_gaussian(s, k, c)


def _wedge_character(n: int, kk: int) -> list | None:
    """Coefficients of the Gaussian binomial [n choose kk]_q, or None on overflow.

    The int64 dynamic program for e_kk over the weights: row j holds the
    j-subsets of the indices seen so far, by index sum less its least value
    j(j-1)/2, so adding index i shifts row j-1 by i-(j-1) >= 0 into row j
    and every row fits the one-sided width L = kk(n-kk) + 1.  The program
    only adds, so int64 wraparound leaves every entry right modulo 2^64; the
    true entries are non-negative and sum to C(n, kk), which the stored ones
    reach only if none of them wrapped.  The table is dropped before the
    caller sees the result, so an error raised over it keeps no array alive.
    """
    L = kk * (n - kk) + 1
    E = np.zeros((kk + 1, L), dtype=np.int64)
    E[0, 0] = 1
    for i in range(n):
        # row j still reaches row kk only if the n - 1 - i indices left suffice
        for j in range(min(kk, i + 1), max(0, kk - n + i), -1):
            sh = i - (j - 1)
            E[j, sh:] += E[j - 1, : L - sh]
    row = E[kk].tolist()
    return row if sum(row) == math.comb(n, kk) else None


def multiplicities_char(s: SpinLabel, k: int) -> MultiplicityTable:
    """Multiplicities from exact character inner products.

    The wedge character chi is the elementary symmetric polynomial e_k of
    the weights q^{2m}, built by an int64 dynamic program at kk =
    min(k, 2s+1-k) (the two wedge powers are equivalent representations)
    on the one-sided index-sum support of width L = kk(2s+1-kk) + 1: at
    most kk (2s+1) row additions of length at most L, O(kk L) per index.
    Pairing with the spin-j character telescopes to m_j = chi(2j) -
    chi(2j+2), with chi(e) the coefficient of q^e.
    Overflow is detected once, on the final row, by its sum (see
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
    Q^(n) diagonals there; returns the canonical vectors as columns.  Each
    in turn maximizes <Q^(2)>, Q^(2) = sum_r (S_z^(r))^2, ties broken by
    Q^(3), ..., Q^(k); a residual tie falls back to a coordinate rule and
    sets the returned flag.
    """
    # make sure the working columns are orthonormal
    q, _ = np.linalg.qr(V)
    work = q[:, : V.shape[1]]
    out = []
    flagged = False
    while work.shape[1] > 0:
        if work.shape[1] == 1:
            v = work[:, 0]
        else:
            cand = work
            for n_pow in range(2, len(diags)):
                A = cand.conj().T @ (diags[n_pow][:, None] * cand)
                A = (A + A.conj().T) / 2
                evals, evecs = np.linalg.eigh(A)
                top = evals[-1]
                tol = DEGENERACY_TOL * max(1.0, abs(top))
                sel = evals >= top - tol
                cand = cand @ evecs[:, sel]
                if cand.shape[1] == 1:
                    break
            if cand.shape[1] > 1:
                flagged = True
                # fall back: first coordinate with nonzero projection wins
                B, _ = np.linalg.qr(cand)
                B = B[:, : cand.shape[1]]
                v = None
                for c in range(B.shape[0]):
                    p = B @ B[c, :].conj()
                    nrm = np.linalg.norm(p)
                    if nrm > 1e-6:
                        v = p / nrm
                        break
                if v is None:
                    raise ArithmeticError("degenerate sector has no usable basis")
            else:
                v = cand[:, 0]
        v = _phase_fixed(v / np.linalg.norm(v))
        out.append(v)
        coords = work.conj().T @ v
        if work.shape[1] == 1:
            break
        keep = null_space(coords[None, :].conj(), rcond=RANK_TOL)
        work = work @ keep
    return np.column_stack(out), flagged


@lru_cache(maxsize=32)
def bd_basis(s: SpinLabel, k: int) -> BDBasis:
    """Block-diagonalizing basis of the (s, k) wedge space (cached).

    Highest-weight vectors, their canonical refinement and their lowering
    ladders are all built in the coordinates of one weight space at a time.
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
    # the lowering operator from weight tm to tm - 2, in level coordinates
    dst, src, cf = _wedge_lowering_terms(s.two_s, k)
    lowering = {}
    for tm in levels[:-1]:
        sel = two_m[src] == tm
        L = np.zeros((len(pos[tm - 2]), len(pos[tm])))
        L[local[dst[sel]], local[src[sel]]] = cf[sel]
        lowering[tm] = L
    diags = _qpower_diagonals(s.two_s, k, max(2, k))

    # each multiplet: its two_j and its vectors for m = j, j-1, ...
    two_js: list[int] = []
    ladders: list[list[np.ndarray]] = []
    flagged: list[int] = []
    for two_mu in levels:
        # lower every multiplet that reaches this weight, in one product
        active = [i for i, tj in enumerate(two_js) if tj >= two_mu + 2 >= 2 - tj]
        if active:
            W = lowering[two_mu + 2] @ np.column_stack([ladders[i][-1] for i in active])
            # spin j lowers from m = (two_mu + 2) / 2 by entry j - m of its ladder
            W /= [_ladder(two_js[i])[(two_js[i] - two_mu - 2) // 2] for i in active]
            # Rounding in a ladder's vector along longer ladders grows as
            # the lowering coefficient shrinks toward the ladder's foot.  QR
            # in creation order (two_j descending) takes it out; the phases
            # of R's diagonal keep each vector's own phase.
            Q, R = np.linalg.qr(W)
            dg = np.abs(np.diagonal(R))
            if dg.min() <= RANK_TOL:
                raise ArithmeticError(f"lowered ladders at 2m={two_mu} lost rank")
            W = Q * (np.diagonal(R) / dg)
            for i, w in zip(active, W.T):
                ladders[i].append(w)
        if two_mu < 0:
            continue
        n_new = len(pos[two_mu]) - len(active)
        if n_new < 0:
            raise ArithmeticError("level dimension bookkeeping failed")
        if n_new == 0:
            continue
        if active:
            ns = null_space(W.conj().T, rcond=RANK_TOL)
        else:
            ns = np.eye(len(pos[two_mu]), dtype=complex)
        if ns.shape[1] != n_new:
            raise ArithmeticError(
                f"highest-weight space at 2m={two_mu} has numerical rank "
                f"{ns.shape[1]}, expected {n_new}"
            )
        if n_new > 1:
            ns, flag = _canonical_level_basis(diags[:, pos[two_mu]], ns)
            if flag:
                flagged.append(two_mu)
        for v in ns.T:
            two_js.append(two_mu)
            ladders.append([_phase_fixed(v / np.linalg.norm(v))])
    # multiplets were created in descending two_j order; copies keep their
    # canonical order within each level
    level_cols = np.zeros((len(levels), max(map(len, pos.values()))), dtype=np.intp)
    for lev, tm in enumerate(levels):
        level_cols[lev, : len(pos[tm])] = pos[tm]
    row_level = np.empty(dim, dtype=np.intp)
    coefs = np.zeros((dim, level_cols.shape[1]), dtype=complex)
    layout = []
    row = 0
    copy_counter: dict[int, int] = {}
    for two_j, vecs in zip(two_js, ladders):
        if len(vecs) != two_j + 1:
            raise ArithmeticError("incomplete multiplet ladder")
        copy = copy_counter.get(two_j, 0)
        copy_counter[two_j] = copy + 1
        lev0 = (tsm - two_j) // 2
        for t, v in enumerate(vecs):
            row_level[row] = lev0 + t
            coefs[row, : len(v)] = v.conj()
            row += 1
        layout.append(Multiplet(two_j, copy, (row - len(vecs), row)))
    if row != dim:
        raise ArithmeticError("block layout does not exhaust the wedge space")
    for arr in (level_cols, row_level, coefs):
        arr.setflags(write=False)
    return BDBasis(
        s, k, level_cols, row_level, coefs, tuple(layout), tuple(sorted(set(flagged)))
    )


# ---------------------------------------------------------------------------
# plane decomposition


@dataclass(frozen=True, eq=False)
class ComponentState:
    """One spin-j component of a decomposed Pluecker vector."""

    two_j: int
    copy_index: int
    state: SpinState


def decompose_plane(plane) -> list[ComponentState]:
    """Spin-j components of the normalized Pluecker vector of a plane.

    Accepts a KPlane or a bare KFrame; the frame's own overall scale and
    phase fix the (gauge-dependent) phases of the components, so rotating
    the rows coherently transforms every block by its spin-j rotation.
    Each component entry is the product of one stored basis row with the
    Pluecker entries of its own weight space.
    """
    frame = frame_of(plane)
    basis = bd_basis(frame.s, frame.k)
    P = plucker(frame).comps
    P = P / np.linalg.norm(P)
    psi = np.einsum("rc,rc->r", basis.coefs, P[basis.level_cols][basis.row_level])
    out = []
    for mult in basis.layout:
        lo, hi = mult.row_range
        out.append(
            ComponentState(
                mult.two_j,
                mult.copy_index,
                SpinState(SpinLabel(mult.two_j), psi[lo:hi]),
            )
        )
    return out
