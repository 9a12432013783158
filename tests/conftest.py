"""Shared helpers for the test suite."""

from __future__ import annotations

import numpy as np

from stellar import INF, KFrame, RotationSpec, SpinLabel, SpinState


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


def stereo_from_sphere(n):
    """Stereographic coordinate of a unit vector; south pole maps to INF (oracle)."""
    v = np.asarray(n, dtype=float)
    if abs(np.linalg.norm(v) - 1.0) > 1e-9:
        raise ValueError("n must be a unit vector")
    if v[2] < -1.0 + 1e-14:
        return INF
    return complex(v[0], v[1]) / (1.0 + v[2])
