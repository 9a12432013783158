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
from functools import cached_property
from itertools import chain, combinations

import numpy as np

from ._cache import cached
from .spin_rep import (
    _PRODUCT_CHUNK,
    RotationSpec,
    SpinLabel,
    geodesic_rotation,
    wigner_d,
)

#: Relative singular-value / minor threshold for rank and pivot decisions.
RANK_TOL = 1e-10


def multi_indices(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """All size-k subsets of range(n) in lexicographic order."""
    return tuple(map(tuple, _multi_index_array(n, k).tolist()))


@cached
def _multi_index_array(n: int, k: int) -> np.ndarray:
    """The size-k subsets of range(n), lexicographic, as a read-only
    (C(n, k), k) integer array."""
    count = math.comb(n, k)
    flat = np.fromiter(chain.from_iterable(combinations(range(n), k)), np.intp, count * k)
    return flat.reshape(count, k)  # not (-1, k): at k = 0 there is one empty subset


def _subset_rank(n: int, S: np.ndarray) -> np.ndarray:
    """Lexicographic position of each sorted index row of S (last axis, of
    length k) among the size-k subsets of range(n):
    C(n, k) - 1 - sum_t C(n-1-S_t, k-t)."""
    k = S.shape[-1]
    # slot t = k - b holds at least t, so a = n-1-S_t <= n-1-k+b: every entry
    # read is at most C(n, k), and the others, which may not fit, stay 0
    binom = np.array(
        [math.comb(a, b) if a <= n - 1 - k + b else 0 for a in range(n) for b in range(k + 1)],
        dtype=np.intp,
    ).reshape(n, k + 1)
    return math.comb(n, k) - 1 - binom[n - 1 - S, k - np.arange(k)].sum(axis=-1)


@dataclass(frozen=True, eq=False)
class KFrame:
    """k linearly independent spin-s row states (a k x (2s+1) matrix), kept with
    their polar factor `_polar`, whose minors are the unit Pluecker ray `_ray`:
    a plane's consumers read `s`, `k` and `_ray`, the `sampled` route `_polar`."""

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
        # each row times a power of two, its largest part into [0.5, 1): exact, phase kept
        parts = np.ascontiguousarray(r).view(float)
        exponent = np.frexp(np.abs(parts).max(axis=1))[1]
        scaled = np.ldexp(parts, -exponent[:, None]).view(complex)
        u, sv, vh = np.linalg.svd(scaled, full_matrices=False)
        if sv[-1] <= RANK_TOL * sv[0]:
            raise ValueError("rows are rank deficient: not a k-frame")
        for name, a in (("rows", r), ("_polar", u @ vh)):
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    @cached_property
    def _ray(self) -> np.ndarray:
        """The unit Pluecker ray, read-only: `_polar`'s minors, taken on first use."""
        ray = _minors(self._polar, _multi_index_array(self.s.dim, self.k))
        ray.setflags(write=False)
        return ray


@dataclass(frozen=True, eq=False)
class KPlane(KFrame):
    """A point of the Grassmannian: a frame in standard form, the identity on
    its pivot columns.  Being a frame, it goes wherever a KFrame does."""

    pivot_columns: tuple[int, ...]

    @property
    def frame(self) -> KFrame:
        """The plane itself: it is its own standard-form frame."""
        return self


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
        if not np.all(np.isfinite(c)):
            raise ValueError("components must be finite")
        c.setflags(write=False)
        object.__setattr__(self, "comps", c)


def _minors(rows: np.ndarray, index: np.ndarray) -> np.ndarray:
    """All k x k minors of a k x n matrix over index, the `_multi_index_array(n, k)`.

    The k x k minor matrices go to the batched det _PRODUCT_CHUNK entries at
    a time, so memory stays bounded at large shapes; det factors each matrix
    alone, so the chunking does not change a bit of the result.
    """
    k = len(rows)
    comps = np.empty(len(index), dtype=complex)
    step = max(1, _PRODUCT_CHUNK // k**2)
    for lo in range(0, len(index), step):
        chunk = index[lo : lo + step]
        # rows[:, chunk][r, c, t] = rows[r, chunk[c, t]]: minor c is [:, c, :]
        comps[lo : lo + len(chunk)] = np.linalg.det(rows[:, chunk].transpose(1, 0, 2))
    return comps


def plucker(frame: KFrame) -> PluckerVector:
    """All k x k minors of the frame's own rows, lexicographically ordered."""
    index = _multi_index_array(frame.s.dim, frame.k)
    return PluckerVector(frame.s, frame.k, _minors(frame.rows, index))


def standard_form(frame: KFrame) -> KPlane:
    """Reduced representative: identity on the pivot columns.

    Pivots are the lexicographically first column multi-index whose entry of
    the frame's unit Pluecker ray has modulus at least RANK_TOL times the
    largest; the frame's own rows are solved for on that pivot block.
    Where those rows fail KFrame's rank test, the largest minor's block is taken.
    """
    # the squared moduli sum to 1, so the largest is never 0
    index = _multi_index_array(frame.s.dim, frame.k)
    mags = np.abs(frame._ray)
    for pos in (np.nonzero(mags >= RANK_TOL * mags.max())[0][0], mags.argmax()):
        pivots = tuple(index[pos].tolist())
        rep = np.linalg.solve(frame.rows[:, pivots], frame.rows)
        rep[:, pivots] = np.eye(frame.k)  # exact identity on the pivot block
        try:
            return KPlane(frame.s, frame.k, rep, pivots)
        except ValueError:  # rows up to about 1/RANK_TOL; the largest minor's are within 1
            if pos == mags.argmax():
                raise


def frame_inner(v: KFrame, w: KFrame) -> complex:
    """det(conj(V) W^T): the frame inner product (Cauchy-Binet pairs it with
    the Pluecker dot product)."""
    if v.s != w.s or v.k != w.k:
        raise ValueError("frames must share (s, k)")
    return complex(np.linalg.det(v.rows.conj() @ w.rows.T))


def _deletion_positions(n: int, m: int) -> np.ndarray:
    """Row S, column t: the position of S minus its t-th element among the
    (m-1)-subsets, for every m-subset S in lexicographic order."""
    # row t of kept: the slots of S other than t
    kept = np.arange(m - 1) + (np.arange(m - 1) >= np.arange(m)[:, None])
    return _subset_rank(n, _multi_index_array(n, m)[:, kept])


def plucker_residual(P: PluckerVector) -> float:
    """Largest normalized violation of the quadratic Pluecker relations.

    Relation (I, J), for I a (k-1)-subset and J a (k+1)-subset, is
    sum_t (-1)^t c_{I+J_t} c_{J-J_t}; as a sum over the column j = J_t it is
    the (I, J) entry of A B^T, with A[I, j] = c_{I+j} (signed by where j
    sorts into I) and B[J, J_t] = (-1)^t c_{J-J_t}.  Zero (to tolerance)
    iff P is a wedge of k vectors; the zero vector returns 0.0.  A B^T is
    taken a block of A's rows at a time, about _PRODUCT_CHUNK entries each,
    so memory stays bounded at large shapes.
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
    step = max(1, _PRODUCT_CHUNK // max(1, len(B)))
    worst = max(
        np.max(np.abs(A[lo : lo + step] @ B.T), initial=0.0) for lo in range(0, len(A), step)
    )
    return float(worst) / norm2


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


def orthogonal_complement(frame: KFrame) -> KPlane:
    """The (2s+1-k)-plane of states orthogonal to every state of the frame:
    the trailing 2s+1-k columns of Q in the complete QR of rows^T."""
    comp = np.linalg.qr(frame.rows.T, mode="complete")[0][:, frame.k :].T
    return standard_form(KFrame(frame.s, frame.s.dim - frame.k, comp))
