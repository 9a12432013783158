"""k-frames and k-planes in spin-s space: Pluecker embedding, inner products,
coherent planes.

A k-frame is a k x (2s+1) matrix of row spin states spanning a k-plane.  The
Pluecker vector collects the k x k minors over lexicographically ordered
column multi-indices; a k-plane is stored through its reduced-echelon
("standard form") representative whose pivot minor is the identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from .spin_rep import (
    RotationSpec,
    SpinLabel,
    geodesic_rotation,
    wigner_d,
)

#: Relative singular-value / minor threshold for rank and pivot decisions.
RANK_TOL = 1e-10


@lru_cache(maxsize=64)
def multi_indices(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """All size-k subsets of range(n) in lexicographic order."""
    return tuple(combinations(range(n), k))


@lru_cache(maxsize=64)
def _multi_index_array(n: int, k: int) -> np.ndarray:
    """multi_indices(n, k) as a read-only (C(n, k), k) integer array."""
    out = np.array(multi_indices(n, k), dtype=np.intp).reshape(-1, k)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=64)
def multi_index_positions(n: int, k: int) -> dict:
    """Map from multi-index tuple to its lexicographic position."""
    return {I: p for p, I in enumerate(multi_indices(n, k))}


@dataclass(frozen=True, eq=False)
class KFrame:
    """k linearly independent spin-s row states (a k x (2s+1) matrix)."""

    s: SpinLabel
    k: int
    rows: np.ndarray

    def __post_init__(self) -> None:
        if not 1 <= self.k <= self.s.dim:
            raise ValueError(f"k must lie in 1..{self.s.dim}")
        r = np.array(self.rows, dtype=complex)
        if r.shape != (self.k, self.s.dim):
            raise ValueError(
                f"rows must have shape ({self.k}, {self.s.dim}), got {r.shape}"
            )
        if not np.all(np.isfinite(r)):
            raise ValueError("rows must be finite")
        sv = np.linalg.svd(r, compute_uv=False)
        if sv[-1] <= RANK_TOL * sv[0]:
            raise ValueError("rows are rank deficient: not a k-frame")
        r.setflags(write=False)
        object.__setattr__(self, "rows", r)


@dataclass(frozen=True, eq=False)
class KPlane:
    """A point of the Grassmannian, held by its standard-form frame."""

    frame: KFrame
    pivot_columns: tuple[int, ...]


def frame_of(plane) -> KFrame:
    """The frame of a KPlane, or a bare KFrame itself."""
    if isinstance(plane, KPlane):
        return plane.frame
    if isinstance(plane, KFrame):
        return plane
    raise TypeError("expected a KPlane or KFrame")


def null_space(A: np.ndarray, rcond: float | None = None) -> np.ndarray:
    """Orthonormal columns spanning the null space of A, by SVD.

    Singular values at most rcond times the largest count as zero; the
    default rcond is max(A.shape) * eps.
    """
    _, sv, vh = np.linalg.svd(A, full_matrices=True)
    if rcond is None:
        rcond = max(A.shape) * np.finfo(float).eps
    rank = int(np.count_nonzero(sv > rcond * sv.max()))
    return vh[rank:].conj().T


@dataclass(frozen=True, eq=False)
class PluckerVector:
    """k x k minors over lexicographic column multi-indices."""

    s: SpinLabel
    k: int
    comps: np.ndarray

    def __post_init__(self) -> None:
        c = np.array(self.comps, dtype=complex)
        want = math.comb(self.s.dim, self.k)
        if c.shape != (want,):
            raise ValueError(f"expected {want} components, got {c.shape}")
        c.setflags(write=False)
        object.__setattr__(self, "comps", c)


def plucker(frame: KFrame) -> PluckerVector:
    """All k x k minors of the frame, lexicographically ordered."""
    idx = _multi_index_array(frame.s.dim, frame.k)
    # rows[:, idx][r, c, t] = rows[r, idx[c, t]]: minor c is [:, c, :]
    mats = frame.rows[:, idx].transpose(1, 0, 2)
    return PluckerVector(frame.s, frame.k, np.linalg.det(mats))


def standard_form(frame: KFrame) -> KPlane:
    """Reduced representative: identity on the pivot columns.

    Pivots are the lexicographically first column multi-index whose minor has
    modulus at least RANK_TOL times the largest minor.
    """
    P = plucker(frame).comps
    mags = np.abs(P)
    top = mags.max()
    if top == 0.0:
        raise ValueError("frame is degenerate: all minors vanish")
    pos = int(np.nonzero(mags >= RANK_TOL * top)[0][0])
    pivots = multi_indices(frame.s.dim, frame.k)[pos]
    A = frame.rows[:, pivots]
    rep = np.linalg.solve(A, frame.rows)
    rep[:, pivots] = np.eye(frame.k)  # exact identity on the pivot block
    return KPlane(KFrame(frame.s, frame.k, rep), pivots)


def frame_inner(v: KFrame, w: KFrame) -> complex:
    """det(conj(V) W^T): the frame inner product (Cauchy-Binet pairs it with
    the Pluecker dot product)."""
    if v.s != w.s or v.k != w.k:
        raise ValueError("frames must share (s, k)")
    return complex(np.linalg.det(v.rows.conj() @ w.rows.T))


def _deletion_positions(n: int, m: int) -> np.ndarray:
    """Row S, column t: the position of S minus its t-th element among the
    (m-1)-subsets, for every m-subset S in lexicographic order."""
    pos = multi_index_positions(n, m - 1)
    subsets = multi_indices(n, m)
    out = [pos[S[:t] + S[t + 1 :]] for S in subsets for t in range(m)]
    return np.array(out, dtype=np.intp).reshape(len(subsets), m)


def plucker_residual(P: PluckerVector) -> float:
    """Largest normalized violation of the quadratic Pluecker relations.

    Relation (I, J), for I a (k-1)-subset and J a (k+1)-subset, is
    sum_t (-1)^t c_{I+J_t} c_{J-J_t}; as a sum over the column j = J_t it is
    the (I, J) entry of A B^T, with A[I, j] = c_{I+j} (signed by where j
    sorts into I) and B[J, J_t] = (-1)^t c_{J-J_t}.  Zero (to tolerance)
    iff P is a wedge of k vectors; the zero vector returns 0.0.
    """
    c = P.comps
    norm2 = float(np.vdot(c, c).real)
    if norm2 == 0.0:
        return 0.0
    n = P.s.dim
    k = P.k
    # K = I + j with j = K_p: moving j from the end of I to slot p costs k-1-p
    K = _multi_index_array(n, k)
    A = np.zeros((math.comb(n, k - 1), n), dtype=complex)
    A[_deletion_positions(n, k), K] = c[:, None] * (-1.0) ** (k - 1 - np.arange(k))
    J = _multi_index_array(n, k + 1)
    B = np.zeros((len(J), n), dtype=complex)
    B[np.arange(len(J))[:, None], J] = c[_deletion_positions(n, k + 1)] * (
        (-1.0) ** np.arange(k + 1)
    )
    return float(np.max(np.abs(A @ B.T), initial=0.0)) / norm2


def coherent_plane(s: SpinLabel, k: int, n) -> KPlane:
    """Span of the k highest-weight states along the direction n.

    Rows are the rotated |s,s>, ..., |s,s-k+1> with the geodesic rotation
    carrying +z to n, so every member state has at least 2s+1-k stars at n.
    """
    D = wigner_d(s, geodesic_rotation(n))
    rows = D[:, :k].T
    return standard_form(KFrame(s, k, rows))


def rotate_frame(frame: KFrame, r: RotationSpec) -> KFrame:
    """Row states rotated by D(r); no re-reduction, so phases are coherent."""
    D = wigner_d(frame.s, r)
    return KFrame(frame.s, frame.k, frame.rows @ D.T)


def orthogonal_complement(plane: KPlane) -> KPlane:
    """The (2s+1-k)-plane of states orthogonal to every state of the plane."""
    rows = plane.frame.rows
    comp = null_space(rows.conj()).T
    return standard_form(KFrame(plane.frame.s, rows.shape[1] - rows.shape[0], comp))
