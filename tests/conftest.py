"""Shared helpers for the test suite."""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np

from stellar import KFrame, RotationSpec, SpinLabel, SpinState

#: The point zeta = infinity, as `poly_roots` returns it.
INF = complex(math.inf)


def random_frame(rng, two_s: int, k: int) -> KFrame:
    rows = rng.standard_normal((k, two_s + 1)) + 1j * rng.standard_normal(
        (k, two_s + 1)
    )
    return KFrame(SpinLabel(two_s), k, rows)


def random_state(rng, two_s: int) -> SpinState:
    c = rng.standard_normal(two_s + 1) + 1j * rng.standard_normal(two_s + 1)
    return SpinState(SpinLabel(two_s), c)


def random_rotation(rng) -> RotationSpec:
    axis = rng.standard_normal(3)
    axis /= np.linalg.norm(axis)
    return RotationSpec(axis, float(rng.uniform(0.0, 2.0 * np.pi)))


def compose(r1: RotationSpec, r2: RotationSpec) -> RotationSpec:
    """r2 first, then r1, as a product of SU(2) quaternions (oracle)."""
    w1, x1, y1, z1 = r1._quaternion()
    w2, x2, y2, z2 = r2._quaternion()
    w = w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2
    v = np.array([
        w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
        w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
        w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
    ])
    nv = float(np.linalg.norm(v))
    axis = v / nv if nv > 1e-15 else np.array([0.0, 0.0, 1.0])
    return RotationSpec(axis, 2.0 * math.atan2(nv, w))


def spin_matrices(two_s: int) -> SimpleNamespace:
    """Sz, S+, S-, Sx and Sy in the S_z eigenbasis m = s, ..., -s (oracle)."""
    s = two_s / 2
    m = s - np.arange(two_s + 1)
    Sz = np.diag(m).astype(complex)
    Splus = np.zeros((two_s + 1, two_s + 1), dtype=complex)
    for i in range(two_s):
        Splus[i, i + 1] = math.sqrt(s * (s + 1) - m[i + 1] * (m[i + 1] + 1))
    Sminus = Splus.conj().T
    return SimpleNamespace(
        Sz=Sz, Splus=Splus, Sminus=Sminus, Sx=(Splus + Sminus) / 2, Sy=(Splus - Sminus) / 2j
    )


def stereo_from_sphere(n):
    """Stereographic coordinate of a unit vector; south pole maps to INF (oracle)."""
    v = np.asarray(n, dtype=float)
    if abs(np.linalg.norm(v) - 1.0) > 1e-9:
        raise ValueError("n must be a unit vector")
    if v[2] < -1.0 + 1e-14:
        return INF
    return complex(v[0], v[1]) / (1.0 + v[2])
