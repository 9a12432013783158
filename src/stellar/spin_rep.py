"""SU(2) spin-s machinery: the S_+ ladder, rotation matrices, coherent states.

Conventions used throughout the package:

* kets are coefficient vectors in the S_z eigenbasis, ordered m = s, ..., -s;
* rotations act as D(axis, angle) = expm(-i * angle * (axis . S));
* the spin coherent state along the direction with stereographic coordinate
  zeta = tan(theta/2) e^{i phi} has components
  sqrt(C(2s, s-m)) zeta^{s-m} / (1 + |zeta|^2)^s, and zeta = complex(inf)
  stands for the south pole.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


@dataclass(frozen=True)
class SpinLabel:
    """Spin quantum number, stored as 2s so half-integers stay exact."""

    two_s: int

    def __post_init__(self) -> None:
        if int(self.two_s) != self.two_s or self.two_s < 0:
            raise ValueError("two_s must be a non-negative integer")
        object.__setattr__(self, "two_s", int(self.two_s))

    @property
    def s(self) -> float:
        return self.two_s / 2

    @property
    def dim(self) -> int:
        return self.two_s + 1

    def m_values(self) -> np.ndarray:
        """S_z eigenvalues, ordered s, s-1, ..., -s."""
        return (self.two_s - 2 * np.arange(self.dim)) / 2


@dataclass(frozen=True, eq=False)
class SpinState:
    """Coefficients of a spin-s ket in the S_z eigenbasis (m = s, ..., -s)."""

    s: SpinLabel
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        c = np.array(self.coeffs, dtype=complex)
        if c.shape != (self.s.dim,):
            raise ValueError(
                f"expected {self.s.dim} coefficients for two_s={self.s.two_s}, "
                f"got shape {c.shape}"
            )
        if not np.all(np.isfinite(c)):
            raise ValueError("coefficients must be finite")
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))


@dataclass(frozen=True, eq=False)
class RotationSpec:
    """Axis-angle rotation with the SU(2) lift kept explicit.

    The angle is normalized into [0, 2*pi] via (angle, axis) ~
    (4*pi - angle, -axis); with that convention a 2*pi rotation is *not* the
    identity on half-integer spins (it is -1), which is why angles are not
    reduced mod 2*pi.  The boundary value 2*pi itself is representable.
    """

    axis: np.ndarray
    angle: float

    def __post_init__(self) -> None:
        a = np.array(self.axis, dtype=float)
        if a.shape != (3,):
            raise ValueError("axis must be a 3-vector")
        if not abs(np.linalg.norm(a) - 1.0) <= 1e-12:
            raise ValueError("axis must be a unit vector (|axis| = 1 to 1e-12)")
        ang = float(self.angle)
        if not math.isfinite(ang):
            raise ValueError("angle must be finite")
        ang %= 4 * math.pi
        if ang > 2 * math.pi:
            ang = 4 * math.pi - ang
            a = -a
        a.setflags(write=False)
        object.__setattr__(self, "axis", a)
        object.__setattr__(self, "angle", ang)

    def _quaternion(self) -> np.ndarray:
        h = self.angle / 2
        return np.concatenate(([math.cos(h)], math.sin(h) * self.axis))


@lru_cache(maxsize=64)
def _ladder(two_s: int) -> np.ndarray:
    """The read-only <m+1|S_+|m> = sqrt(s(s+1) - m(m+1)), m = s-1, ..., -s.

    Entry i links basis vectors i and i + 1 (m = s, ..., -s): it is
    <i|S_+|i+1>, and <i+1|S_-|i> as well.
    """
    s = two_s / 2
    m = s - 1 - np.arange(two_s)
    out = np.sqrt(s * (s + 1) - m * (m + 1))
    out.setflags(write=False)
    return out


@lru_cache(maxsize=64)
def _sy_eigenbasis(two_s: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """2m = 2s, 2s - 2, ..., -2s, and V, V^dagger with S_y = V diag(m) V^dagger.

    V = P d(pi/2): P = e^{-i pi S_z / 2} turns S_x into S_y and the
    y-rotation d(pi/2) turns S_z into S_x.  Entry (i', i) of d(pi/2) is
    2^{-s} (-1)^i sqrt(C(2s, i) / C(2s, i')) times the x^{i'} coefficient of
    (1 + x)^{2s-i} (1 - x)^i, an integer, so V is exact to a few roundings
    where an eigensolver would leave errors of order s * eps.
    """
    n = two_s
    i = np.arange(n + 1)
    poly = [math.comb(n, t) for t in i]  # (1 + x)^n
    K = np.empty((n + 1, n + 1))
    for col in i:
        K[:, col] = np.array(poly, dtype=float) * (-1) ** col
        # multiply by (1 - x), then divide by (1 + x): exact on integers
        poly = [poly[0]] + [poly[t] - poly[t - 1] for t in range(1, n + 1)]
        for t in range(1, n + 1):
            poly[t] -= poly[t - 1]
    comb = K[:, 0]
    P = np.exp(-0.25j * math.pi * ((n - 2 * i) % 8))
    V = P[:, None] * np.sqrt(comb[None, :] / comb[:, None]) * 2.0 ** (-n / 2) * K
    out = (n - 2 * i, V, V.conj().T)
    for arr in out:
        arr.setflags(write=False)
    return out


def _wigner_columns(two_s: int, q: np.ndarray, k: int) -> np.ndarray:
    """First k columns of the spin-s rotation matrix at each of N rotations.

    q is an (N, 4) array of SU(2) quaternions (w, x, y, z); the result is
    (N, 2s + 1, k).  Evaluated in z-y-z Euler form, D = e^{-i alpha S_z}
    e^{-i beta S_y} e^{-i gamma S_z}, from the SU(2) element
    [[a, -conj(b)], [b, conj(a)]] of each rotation, with e^{-i beta S_y} =
    V diag(e^{-i beta m}) V^dagger.  Working from the SU(2) element keeps the
    sign of a 2*pi rotation on half-integer spins.  Each phase e^{-i angle m}
    is an integer power of a unit complex number, taken in extended
    precision where the platform has it: a power 2s of a double would
    multiply its rounding error by 2s.  The identity quaternion gives the
    identity columns exactly.
    """
    q = np.asarray(q, dtype=float)
    w, x, y, z = q.T
    a, b = (w - 1j * z).astype(np.clongdouble), (y - 1j * x).astype(np.clongdouble)
    abs_a, abs_b = np.abs(a), np.abs(b)
    # u = e^{-i (alpha + gamma) / 2} and v = e^{-i (alpha - gamma) / 2}, 1
    # where undefined: a zero numerator gets 1 added to both sides
    a_zero, b_zero = abs_a == 0, abs_b == 0
    u = (a + a_zero) / (abs_a + a_zero)
    v = (b.conj() + b_zero) / (abs_b + b_zero)
    p = np.sqrt(u * v)  # e^{-i alpha / 2}, either sign
    c = abs_a - 1j * abs_b  # e^{-i beta / 2}
    # e^{-i alpha m} = p^{2m}, e^{-i beta m} = c^{2m} and e^{-i gamma m} =
    # (u / p)^{2m}: p (u / p) = u fixes the SU(2) sign
    bases = np.empty((len(q), 3, 1), dtype=np.clongdouble)
    bases[:, 0, 0], bases[:, 1, 0], bases[:, 2, 0] = p, c / np.abs(c), u * p.conj()
    two_m, V, VH = _sy_eigenbasis(two_s)
    ph_alpha, ph_beta, ph_gamma = (bases**two_m).astype(complex).transpose(1, 0, 2)
    D = (ph_alpha[:, :, None] * V * ph_beta[:, None]) @ (VH[:, :k] * ph_gamma[:, None, :k])
    identity = b_zero & (a == 1)
    if identity.any():
        D[identity] = np.eye(two_s + 1, k)
    return D


def wigner_d(s: SpinLabel, r: RotationSpec) -> np.ndarray:
    """Spin-s rotation matrix expm(-i * angle * (axis . S)), from its SU(2)
    element (see `_wigner_columns`)."""
    return _wigner_columns(s.two_s, r._quaternion()[None], s.dim)[0]


def coherent_state(s: SpinLabel, zeta) -> SpinState:
    """Spin coherent state at the complex stereographic coordinate zeta.

    zeta = 0 gives |s, s> and an infinite zeta (complex(inf), as
    `poly_roots` returns for a lost leading coefficient) gives |s, -s>.
    """
    dim = s.dim
    z = complex(zeta)
    if cmath.isinf(z):
        c = np.zeros(dim, dtype=complex)
        c[-1] = 1.0
        return SpinState(s, c)
    if z == 0:
        c = np.zeros(dim, dtype=complex)
        c[0] = 1.0
        return SpinState(s, c)
    n = s.two_s
    r = abs(z)
    phase = z / r
    i = np.arange(dim)
    # log-scale magnitudes so huge |zeta| stays finite; past 1e150, where
    # r * r may overflow, log(1 + r^2) is 2 log r to rounding
    log_norm = math.log1p(r * r) if r < 1e150 else 2 * math.log(r)
    log_mag = np.array(
        [0.5 * math.log(math.comb(n, int(j))) for j in i]
    ) + i * math.log(r) - (n / 2) * log_norm
    c = np.exp(log_mag) * phase**i
    return SpinState(s, c)


def geodesic_rotation(n) -> RotationSpec:
    """Equatorial-axis rotation taking +z to n; axis y, angle pi at n = -z."""
    v = np.asarray(n, dtype=float)
    if v.shape != (3,):
        raise ValueError("n must be a 3-vector")
    if not abs(np.linalg.norm(v) - 1.0) <= 1e-10:
        raise ValueError("n must be a unit vector")
    theta = math.acos(min(1.0, max(-1.0, v[2])))
    phi = math.atan2(v[1], v[0])  # 0 on the z-axis, giving the y-axis tie-break
    axis = np.array([-math.sin(phi), math.cos(phi), 0.0])
    return RotationSpec(axis, theta)


def _geodesic_quaternions(n: np.ndarray) -> np.ndarray:
    """(N, 4) SU(2) quaternions of `geodesic_rotation` at the rows of n."""
    half = np.arccos(np.clip(n[:, 2], -1.0, 1.0)) / 2
    phi = np.arctan2(n[:, 1], n[:, 0])
    sin_half = np.sin(half)
    zero = np.zeros_like(half)
    return np.stack([np.cos(half), -sin_half * np.sin(phi), sin_half * np.cos(phi), zero], -1)


def so3_matrix(r: RotationSpec) -> np.ndarray:
    """The 3x3 orthogonal matrix of the rotation (Rodrigues formula)."""
    ux, uy, uz = r.axis
    K = np.array([[0.0, -uz, uy], [uz, 0.0, -ux], [-uy, ux, 0.0]])
    return np.eye(3) + math.sin(r.angle) * K + (1 - math.cos(r.angle)) * (K @ K)
