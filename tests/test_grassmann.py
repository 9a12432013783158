import math

import numpy as np
import pytest

from stellar import (
    KFrame,
    KPlane,
    PluckerVector,
    SpinLabel,
    coherent_plane,
    frame_inner,
    orthogonal_complement,
    plucker,
    plucker_residual,
    rotate_frame,
    standard_form,
)
from stellar.grassmann import multi_indices

from conftest import random_frame, random_rotation, stereo_from_sphere


def plane_inner(p1: KPlane, p2: KPlane) -> float:
    """Normalized squared overlap |<V|W>|^2 / (<V|V> <W|W>) in [0, 1] (oracle)."""
    g11 = frame_inner(p1.frame, p1.frame).real
    g22 = frame_inner(p2.frame, p2.frame).real
    g12 = frame_inner(p1.frame, p2.frame)
    if g11 <= 0 or g22 <= 0:
        raise ValueError("degenerate plane in inner product")
    val = (abs(g12) ** 2) / (g11 * g22)
    return float(min(1.0, max(0.0, val)))


def rotate_plane(plane: KPlane, r) -> KPlane:
    """The plane rotated by D(r), in standard form (oracle)."""
    return standard_form(rotate_frame(plane.frame, r))


def test_multi_indices_lexicographic():
    assert multi_indices(4, 2) == (
        (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
    )


def test_kframe_validation():
    s = SpinLabel(3)
    with pytest.raises(ValueError):
        KFrame(s, 5, np.eye(5, 4))
    with pytest.raises(ValueError):
        KFrame(s, 2, np.ones((2, 4)))  # rank 1
    with pytest.raises(ValueError):
        KFrame(s, 2, np.array([[1, 0, 0, np.inf], [0, 1, 0, 0]], dtype=complex))


def test_kframe_accepts_noncontiguous_rows():
    s = SpinLabel(3)
    rows = np.eye(4, dtype=complex)[:, :2].T
    f = KFrame(s, 2, rows)
    assert np.allclose(f.rows, np.eye(2, 4))


def test_plucker_identity_block():
    f = KFrame(SpinLabel(4), 2, np.eye(2, 5))
    P = plucker(f).comps
    want = np.zeros(10)
    want[0] = 1.0
    assert np.allclose(P, want)


def test_plucker_worked_example():
    # v = e1 + e3, w = e2 + e5 in a 5-dimensional spin-2 space
    f = KFrame(
        SpinLabel(4), 2,
        np.array([[1, 0, 1, 0, 0], [0, 1, 0, 0, 1]], dtype=complex),
    )
    P = plucker(f).comps
    assert np.allclose(P, [1, 0, 0, 1, -1, 0, 0, 0, 1, 0])
    assert np.linalg.norm(P) == pytest.approx(2.0)


def _plucker_list_form(frame: KFrame) -> np.ndarray:
    """Oracle: one k x k column selection per multi-index, then np.stack."""
    idxs = multi_indices(frame.s.dim, frame.k)
    return np.linalg.det(np.stack([frame.rows[:, I] for I in idxs]))


@pytest.mark.parametrize("two_s,k", [(0, 1), (2, 1), (3, 2), (4, 5), (7, 4), (9, 4), (11, 5)])
def test_plucker_bit_identical_to_list_form(two_s, k):
    rng = np.random.default_rng(100 + two_s)
    for _ in range(3):
        frame = random_frame(rng, two_s, k)
        assert np.array_equal(plucker(frame).comps, _plucker_list_form(frame))


def test_plucker_twosols_example():
    f = KFrame(
        SpinLabel(3), 2,
        np.array([[1, 0, 1j, 0], [0, 1, 0, 1j]], dtype=complex),
    )
    P = plucker(f).comps
    assert np.allclose(P, [1, 0, 1j, -1j, 0, -1])


def test_standard_form_idempotent_and_gauge_invariant():
    rng = np.random.default_rng(31)
    f = random_frame(rng, 5, 3)
    plane = standard_form(f)
    k = f.k
    piv = plane.pivot_columns
    sub = plane.frame.rows[:, list(piv)]
    assert np.abs(sub - np.eye(k)).max() < 1e-12
    M = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    scrambled = KFrame(f.s, k, M @ f.rows)
    plane2 = standard_form(scrambled)
    assert plane2.pivot_columns == piv
    assert np.abs(plane2.frame.rows - plane.frame.rows).max() < 1e-9


def test_standard_form_picks_first_viable_pivot_set():
    # first column dependent rows force pivots past column 0
    f = KFrame(
        SpinLabel(3), 2,
        np.array([[0, 1, 0, 2], [0, 0, 1, 3]], dtype=complex),
    )
    plane = standard_form(f)
    assert plane.pivot_columns == (1, 2)


def test_coherent_plane_standard_form_oracle():
    # spin 3/2, k = 2: representative [[1,0,-sqrt3 z^2,-2 z^3],[0,1,2z,sqrt3 z^2]]
    rng = np.random.default_rng(32)
    for _ in range(5):
        n = rng.standard_normal(3)
        n /= np.linalg.norm(n)
        z = stereo_from_sphere(n)
        pl = coherent_plane(SpinLabel(3), 2, n)
        assert pl.pivot_columns == (0, 1)
        want = np.array(
            [
                [1.0, 0.0, -math.sqrt(3.0) * z * z, -2.0 * z**3],
                [0.0, 1.0, 2.0 * z, math.sqrt(3.0) * z * z],
            ]
        )
        assert np.abs(pl.frame.rows - want).max() < 1e-12


def test_plucker_residual_zero_on_factorizable():
    rng = np.random.default_rng(33)
    for two_s, k in ((3, 2), (4, 2), (5, 3), (6, 3)):
        f = random_frame(rng, two_s, k)
        assert plucker_residual(plucker(f)) < 1e-10


def test_plucker_residual_positive_on_nonfactorizable():
    # e_{12} + e_{34} in Gr(2,4): the single relation evaluates to 1, and the
    # squared norm is 2, so the normalized residual is exactly 1/2
    P = PluckerVector(SpinLabel(3), 2, np.array([1, 0, 0, 0, 0, 1], dtype=complex))
    assert plucker_residual(P) == pytest.approx(0.5, abs=1e-12)


def _plucker_residual_loop(P: PluckerVector) -> float:
    """The quadratic Pluecker relations one (I, J) pair at a time (oracle)."""
    c = P.comps
    norm2 = float(np.vdot(c, c).real)
    if norm2 == 0.0:
        return 0.0
    n, k = P.s.dim, P.k
    pos_k = {I: p for p, I in enumerate(multi_indices(n, k))}
    worst = 0.0
    for I in multi_indices(n, k - 1):
        for J in multi_indices(n, k + 1):
            acc = 0j
            for t, j in enumerate(J):
                if j in I:
                    continue
                insert_at = sum(1 for i in I if i < j)
                sign = (-1) ** (k - 1 - insert_at) * (-1) ** t
                acc += sign * c[pos_k[tuple(sorted(I + (j,)))]] * c[pos_k[J[:t] + J[t + 1 :]]]
            worst = max(worst, abs(acc) / norm2)
    return worst


@pytest.mark.parametrize("two_s, k", [(3, 2), (4, 2), (7, 4), (9, 4)])
def test_plucker_residual_matches_relation_loop(two_s, k):
    rng = np.random.default_rng(two_s * 10 + k)
    size = math.comb(two_s + 1, k)
    factorizable = plucker(random_frame(rng, two_s, k)).comps
    noise = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    for comps in (noise, factorizable + 1e-3 * noise):
        P = PluckerVector(SpinLabel(two_s), k, comps)
        want = _plucker_residual_loop(P)
        assert want > 1e-6
        assert plucker_residual(P) == pytest.approx(want, rel=1e-12)


def test_plucker_residual_of_zero_vector_is_zero():
    Z = PluckerVector(SpinLabel(3), 2, np.zeros(6, dtype=complex))
    assert plucker_residual(Z) == 0.0


def test_cauchy_binet():
    rng = np.random.default_rng(34)
    for two_s, k in ((3, 2), (4, 2), (4, 3), (6, 3)):
        V = random_frame(rng, two_s, k)
        W = random_frame(rng, two_s, k)
        lhs = frame_inner(V, W)
        rhs = complex(np.vdot(plucker(V).comps, plucker(W).comps))
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))


def test_plane_inner_range_and_extremes():
    rng = np.random.default_rng(35)
    V = standard_form(random_frame(rng, 4, 2))
    W = standard_form(random_frame(rng, 4, 2))
    val = plane_inner(V, W)
    assert 0.0 <= val <= 1.0
    assert plane_inner(V, V) == pytest.approx(1.0, abs=1e-12)


def test_rotate_frame_keeps_row_span_transformation():
    rng = np.random.default_rng(38)
    f = random_frame(rng, 3, 2)
    r = random_rotation(rng)
    g = rotate_frame(f, r)
    # rotating then reducing equals reducing then rotating the plane
    a = standard_form(g)
    b = rotate_plane(standard_form(f), r)
    assert np.abs(a.frame.rows - b.frame.rows).max() < 1e-9


def test_orthogonal_complement():
    rng = np.random.default_rng(39)
    f = random_frame(rng, 4, 2)
    plane = standard_form(f)
    comp = orthogonal_complement(plane)
    assert comp.frame.k == 3
    gram = plane.frame.rows.conj() @ comp.frame.rows.T
    assert np.abs(gram).max() < 1e-10
    back = orthogonal_complement(comp)
    assert plane_inner(back, plane) == pytest.approx(1.0, abs=1e-10)
