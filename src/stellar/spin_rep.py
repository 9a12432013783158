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

import numpy as np

from ._cache import cached
from ._exact import SpinLabel

#: Entries of one block of a large product or stack, so memory stays bounded.
_PRODUCT_CHUNK = 1 << 18


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


@cached
def _ladder(two_s: int) -> np.ndarray:
    """The read-only <m+1|S_+|m> = sqrt(s(s+1) - m(m+1)), m = s-1, ..., -s.

    Entry i links basis vectors i and i + 1 (m = s, ..., -s): it is
    <i|S_+|i+1>, and <i+1|S_-|i> as well.
    """
    s = two_s / 2
    m = s - 1 - np.arange(two_s)
    return np.sqrt(s * (s + 1) - m * (m + 1))


@cached
def _sy_eigenbasis(two_s: int) -> np.ndarray:
    """V with S_y = V diag(m) V^dagger, m = s, s - 1, ..., -s.

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
    return V


@cached
def _wigner_stack(spins: tuple, D: int) -> tuple:
    """(spins, V): the `_sy_eigenbasis` of each 2s in spins, zero-padded to D x D."""
    V = np.zeros((len(spins), D, D), dtype=complex)
    for i, n in enumerate(spins):
        V[i, : n + 1, : n + 1] = _sy_eigenbasis(n)
    return np.array(spins), V


def _wigner_columns(stack: tuple, two_s: np.ndarray, q: np.ndarray, x) -> np.ndarray:
    """D(q_i) x_i for N rotations, each of its own spin.

    stack is the `_wigner_stack` of spins holding each of two_s, the N spins'
    2s; q is an (N, 4) array of SU(2) quaternions (w, x, y, z), and x an
    (N, D, k) array whose block x_i fills its first 2s_i + 1 rows and is zero
    below them; the result is padded the same way.  An int x = k stands for
    the first k identity columns, at the stack's D rows, and the result of
    equal spins is then the first k columns of each rotation matrix.

    Evaluated in z-y-z Euler form, D = e^{-i alpha S_z} e^{-i beta S_y}
    e^{-i gamma S_z}, from the SU(2) element [[a, -conj(b)], [b, conj(a)]]
    of each rotation, with e^{-i beta S_y} = V diag(e^{-i beta m}) V^dagger,
    one factor at a time, each one batched matmul for all rotations against
    the stack's V of their spins, gathered _PRODUCT_CHUNK entries at a time
    (V^dagger as a conjugated gather, transposed); no rotation matrix is formed.
    Working from the SU(2) element keeps the sign of a 2*pi rotation on
    half-integer spins.  Each phase e^{-i angle m} is an integer power of a
    unit complex number, taken in extended precision where the platform has
    it: a power 2s of a double would multiply its rounding error by 2s.  The
    identity quaternion leaves x_i exactly as it is.
    """
    spins, V = stack
    D = V.shape[1]
    if isinstance(x, int):
        x = np.eye(D, x)[None].repeat(len(q), 0)
    w, qx, qy, qz = q.T
    a, b = (w - 1j * qz).astype(np.clongdouble), (qy - 1j * qx).astype(np.clongdouble)
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
    bases = np.array((p, c / np.abs(c), u * p.conj()))
    index = spins.searchsorted(two_s)
    # rows p > 2s repeat row 2s's power, so |2m| <= 2s (numpy's quick range); x, V are 0 there
    two_m = two_s[:, None] - 2 * np.minimum(np.arange(D), two_s[:, None])
    ph_alpha, ph_beta, ph_gamma = (bases[:, :, None] ** two_m).astype(complex)[..., None]
    out = np.empty(x.shape, dtype=complex)
    step = max(1, _PRODUCT_CHUNK // (D * D))
    for lo in range(0, len(q), step):
        r = slice(lo, lo + step)
        VH = V[index[r]]  # a gathered copy, conjugated in place: V^dagger is its transpose
        y = np.conjugate(VH, out=VH).transpose(0, 2, 1) @ (ph_gamma[r] * x[r])
        out[r] = ph_alpha[r] * (V[index[r]] @ (ph_beta[r] * y))
    identity = b_zero & (a == 1)
    out[identity] = x[identity]
    return out


def wigner_d(s: SpinLabel, r: RotationSpec) -> np.ndarray:
    """Spin-s rotation matrix expm(-i * angle * (axis . S)), from its SU(2)
    element (see `_wigner_columns`)."""
    stack = _wigner_stack((s.two_s,), s.dim)
    return _wigner_columns(stack, np.array([s.two_s]), r._quaternion()[None], s.dim)[0]


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
    half = np.arccos(np.minimum(np.maximum(n[:, 2], -1.0), 1.0)) / 2
    phi = np.arctan2(n[:, 1], n[:, 0])
    sin_half = np.sin(half)
    q = np.zeros((len(n), 4))
    q[:, 0], q[:, 1], q[:, 2] = np.cos(half), -sin_half * np.sin(phi), sin_half * np.cos(phi)
    return q


def so3_matrix(r: RotationSpec) -> np.ndarray:
    """The 3x3 orthogonal matrix of the rotation (Rodrigues formula)."""
    ux, uy, uz = r.axis
    K = np.array([[0.0, -uz, uy], [uz, 0.0, -ux], [-uy, ux, 0.0]])
    return np.eye(3) + math.sin(r.angle) * K + (1 - math.cos(r.angle)) * (K @ K)
