"""SU(2) structure of the k-th wedge power of the spin-s space.

The Pluecker image of a (s, k) plane lives in the wedge space of dimension
C(2s+1, k), which splits into spin-j blocks with multiplicities m_j.  This
module computes those multiplicities by three independent routes (character
inner products, a generating-function quotient, and explicit highest-weight
construction), and builds the unitary change of basis to the block-diagonal
form, with a canonical, rotation-independent choice inside degenerate
j-sectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .grassmann import RANK_TOL, frame_of, multi_indices, null_space, plucker
from .spin_rep import RotationSpec, SpinLabel, SpinState, wigner_d

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
    usual ladder coefficient, summed over the k slots; terms that would
    duplicate an index vanish, and sorted order is preserved, so no
    antisymmetrization signs appear.
    """
    n = two_s + 1
    s = two_s / 2
    idxs = multi_indices(n, k)
    pos = {I: p for p, I in enumerate(idxs)}
    dst, src, cf = [], [], []
    for p, I in enumerate(idxs):
        occupied = set(I)
        for t, i in enumerate(I):
            if i + 1 < n and (i + 1) not in occupied:
                m = s - i
                dst.append(pos[I[:t] + (i + 1,) + I[t + 1 :]])
                src.append(p)
                cf.append(math.sqrt(s * (s + 1) - m * (m - 1)))
    return np.array(dst), np.array(src), np.array(cf)


def _wedge_two_m(two_s: int, k: int) -> np.ndarray:
    """Twice the S_z eigenvalue of each wedge basis vector."""
    idxs = multi_indices(two_s + 1, k)
    return np.array([sum(two_s - 2 * i for i in I) for I in idxs])


def wedge_rep(s: SpinLabel, k: int, r: RotationSpec) -> np.ndarray:
    """The rotation on the wedge space: the k-th compound of wigner_d."""
    D = wigner_d(s, r)
    sel = np.array(multi_indices(s.dim, k))
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


def _table_from_map(s: SpinLabel, k: int, mmap: dict) -> MultiplicityTable:
    tsm = two_s_max(s, k)
    entries = tuple((tj, int(mmap.get(tj, 0))) for tj in range(tsm, -1, -1))
    return MultiplicityTable(s, k, entries)


def _poly_mul_int(a: list, b: list) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def _poly_div_exact(a: list, b: list) -> list:
    """Quotient of integer polynomials (b monic); the division must be exact."""
    a = list(a)
    dq = len(a) - len(b)
    if dq < 0:
        raise ArithmeticError("inexact polynomial division")
    q = [0] * (dq + 1)
    for i in range(dq, -1, -1):
        c = a[i + len(b) - 1]
        q[i] = c
        if c:
            for j, bj in enumerate(b):
                a[i + j] -= c * bj
    if any(a):
        raise ArithmeticError("inexact polynomial division")
    return q


def multiplicities_genfun(s: SpinLabel, k: int) -> MultiplicityTable:
    """Multiplicities as coefficients of a closed-form rational function.

    In the variable x the table is the non-negative part of

        (1 - x^{-1}) prod_{r=1}^{k} (x^{s+1} - x^{r-s-1}) / (x^r - 1),

    read off at exponents j = s_max, ..., 0.  Everything is carried out in
    y = x^{1/2} with exact integer coefficients, so half-integer spins and
    arbitrary sizes need no floating point at all.  The product runs to
    min(k, 2s+1-k), since the k-th and (2s+1-k)-th wedge powers are
    equivalent representations.
    """
    if not 1 <= k <= s.dim:
        raise ValueError("k out of range")
    two_s = s.two_s
    num_off, num = 0, [1]
    den = [1]
    for r in range(1, min(k, s.dim - k) + 1):
        e1 = two_s + 2
        e2 = 2 * r - two_s - 2
        lo, hi = min(e1, e2), max(e1, e2)
        f = [0] * (hi - lo + 1)
        f[e1 - lo] += 1
        f[e2 - lo] -= 1
        num = _poly_mul_int(num, f)
        num_off += lo
        g = [0] * (2 * r + 1)
        g[0] = -1
        g[2 * r] = 1
        den = _poly_mul_int(den, g)
    num = _poly_mul_int(num, [-1, 0, 1])  # times (1 - y^{-2})
    num_off -= 2
    q = _poly_div_exact(num, den)
    mmap = {}
    for tj in range(two_s_max(s, k), -1, -1):
        idx = tj - num_off
        if 0 <= idx < len(q):
            mmap[tj] = q[idx]
    return _table_from_map(s, k, mmap)


def _wedge_character(two_s: int, k: int, reach: int) -> np.ndarray:
    """Coefficients of e_k(q^{2m}) at exponents -reach..reach, modulo 2^64.

    The dynamic program only adds, so int64 wraparound leaves every entry
    right modulo 2^64.  The row is returned as a copy, so that an error
    raised over it does not keep the whole (k + 1)-row table alive.
    """
    width = 2 * reach + 1
    E = np.zeros((k + 1, width), dtype=np.int64)
    E[0, reach] = 1
    for i in range(two_s + 1):
        tm = two_s - 2 * i
        for j in range(min(k, i + 1), 0, -1):
            if tm >= 0:
                E[j, tm:] += E[j - 1, : width - tm]
            else:
                E[j, :tm] += E[j - 1, -tm:]
    return E[k].copy()


def multiplicities_char(s: SpinLabel, k: int) -> MultiplicityTable:
    """Multiplicities from exact character inner products.

    The wedge character chi is the elementary symmetric polynomial e_k of
    the weights q^{2m}, built by an integer dynamic program at
    min(k, 2s+1-k) (the two wedge powers are equivalent representations).
    Pairing with the spin-j character telescopes to m_j = chi(2j) - chi(2j+2),
    with chi(e) the coefficient of q^e.  Raises ArithmeticError where a
    coefficient exceeds the int64 range.
    """
    if not 1 <= k <= s.dim:
        raise ValueError("k out of range")
    n = s.dim
    tsm = two_s_max(s, k)
    # at min(k, n - k) <= n/2 no intermediate e_j reaches past +-tsm
    chi = _wedge_character(s.two_s, min(k, n - k), tsm)
    # chi is right modulo 2^64; its true entries are non-negative and sum to
    # C(n, k), which the stored ones reach only if none of them wrapped.
    if sum(chi.tolist()) != math.comb(n, k):
        raise ArithmeticError(
            f"multiplicities_char: the (n, k) = ({n}, {k}) wedge character "
            "overflows int64"
        )
    up = chi[tsm:].tolist() + [0, 0]  # chi(0), ..., chi(tsm), then zeros
    mmap = {tj: up[tj] - up[tj + 2] for tj in range(tsm + 1)}
    return _table_from_map(s, k, mmap)


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


@dataclass(frozen=True)
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
    ms = (two_s - 2 * np.array(multi_indices(two_s + 1, k))) / 2
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
            jj = np.array([two_js[i] for i in active]) / 2
            mm = (two_mu + 2) / 2  # the m being lowered from
            W = lowering[two_mu + 2] @ np.column_stack([ladders[i][-1] for i in active])
            W /= np.sqrt(jj * (jj + 1) - mm * (mm - 1))
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


@dataclass(frozen=True)
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
