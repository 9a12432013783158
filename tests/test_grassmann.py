import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from stellar import (
    KFrame,
    KPlane,
    PluckerVector,
    SpinLabel,
    coherent_plane,
    decompose_plane,
    frame_inner,
    multiconstellation,
    orthogonal_complement,
    plucker,
    plucker_residual,
    principal,
    principal_all,
    projective_distance,
    rotate_frame,
    standard_form,
)
from stellar.grassmann import (
    _deletion_positions, _minors, _multi_index_array, _subset_rank, multi_indices,
)
from stellar.spin_rep import geodesic_rotation, wigner_d

from conftest import random_frame, random_rotation, stereo_from_sphere


def plane_inner(p1: KPlane, p2: KPlane) -> float:
    """Normalized squared overlap |<V|W>|^2 / (<V|V> <W|W>) in [0, 1] (oracle)."""
    g11 = frame_inner(p1, p1).real
    g22 = frame_inner(p2, p2).real
    g12 = frame_inner(p1, p2)
    if g11 <= 0 or g22 <= 0:
        raise ValueError("degenerate plane in inner product")
    val = (abs(g12) ** 2) / (g11 * g22)
    return float(min(1.0, max(0.0, val)))


def rotate_plane(plane: KPlane, r) -> KPlane:
    """The plane rotated by D(r), in standard form (oracle)."""
    return standard_form(rotate_frame(plane, r))


def test_multi_indices_lexicographic():
    assert multi_indices(4, 2) == (
        (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
    )


def test_subset_rank_is_the_lexicographic_position():
    # at (70, 69) the middle binomials pass int64: C(69, 34) > 2**63
    shapes = [(n, k) for n in range(11) for k in range(n + 2)] + [(70, 69)]
    for n, k in shapes:
        subsets = multi_indices(n, k)
        S = np.array(subsets, dtype=np.intp).reshape(len(subsets), k)
        assert _subset_rank(n, S).tolist() == list(range(len(subsets))), (n, k)


def test_deletion_positions_match_a_lookup_of_each_deleted_subset():
    for n in range(1, 9):
        for m in range(1, n + 2):
            pos = {I: p for p, I in enumerate(multi_indices(n, m - 1))}
            want = [[pos[S[:t] + S[t + 1 :]] for t in range(m)] for S in multi_indices(n, m)]
            got = _deletion_positions(n, m)
            assert got.shape == (math.comb(n, m), m)
            assert got.tolist() == want, (n, m)


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


# (15, 7) has 11,440 minors: they go to det in several chunks, the last one short
@pytest.mark.parametrize("two_s,k", [(0, 1), (2, 1), (3, 2), (4, 5), (7, 4), (9, 4), (11, 5), (15, 7)])
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
    sub = plane.rows[:, list(piv)]
    assert np.abs(sub - np.eye(k)).max() < 1e-12
    M = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    scrambled = KFrame(f.s, k, M @ f.rows)
    plane2 = standard_form(scrambled)
    assert plane2.pivot_columns == piv
    assert np.abs(plane2.rows - plane.rows).max() < 1e-9


def test_standard_form_picks_first_viable_pivot_set():
    # first column dependent rows force pivots past column 0
    f = KFrame(
        SpinLabel(3), 2,
        np.array([[0, 1, 0, 2], [0, 0, 1, 3]], dtype=complex),
    )
    plane = standard_form(f)
    assert plane.pivot_columns == (1, 2)


_PIVOTS_12 = np.array([[0, 1, 0, 2], [0, 0, 1, 3]], dtype=complex)


@pytest.mark.parametrize("rows", [_PIVOTS_12, random_frame(np.random.default_rng(46), 3, 2).rows])
def test_standard_form_of_a_plane_whose_minors_overflow(rows):
    # the raw minors overflow at 1e300 and vanish at 1e-300, but the pivots
    # are ranked on the minors of the polar factor, which no scale moves; no
    # numpy warning either (the suite turns RuntimeWarning into an error)
    plane = standard_form(KFrame(SpinLabel(3), 2, rows))
    for scale in (1e300, 1e-300):
        scaled = standard_form(KFrame(SpinLabel(3), 2, scale * rows))
        assert scaled.pivot_columns == plane.pivot_columns
        assert np.abs(scaled.rows - plane.rows).max() <= 1e-15


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
        assert np.abs(pl.rows - want).max() < 1e-12


def _sweep_direction(i: int) -> np.ndarray:
    """Direction i of the 60 unit vectors drawn from default_rng(0)."""
    n = np.random.default_rng(0).standard_normal((60, 3))[i]
    return n / np.linalg.norm(n)


@pytest.mark.parametrize(
    "two_s, n",
    [
        (13, np.array([-0.206, 0.041, -0.978]) / np.linalg.norm([-0.206, 0.041, -0.978])),
        (11, _sweep_direction(48)),
        (13, _sweep_direction(50)),
        (13, _sweep_direction(52)),
    ],
)
def test_coherent_plane_near_the_south_pole_keeps_the_plane(two_s, n):
    # k = 2s near the south pole: the first pivot block above RANK_TOL, a
    # minor ratio near 1.7e-10, reduces the rows to about 6e9, which the
    # plane's own rank test rejects; the largest minor's block is taken instead
    s, k = SpinLabel(two_s), two_s
    rows = wigner_d(s, geodesic_rotation(n))[:, :k].T
    plane = coherent_plane(s, k, n)
    assert isinstance(plane, KPlane)
    index = _multi_index_array(s.dim, k)
    P, Q = (_minors(f._polar, index) for f in (KFrame(s, k, rows), plane))
    assert 1.0 - abs(np.vdot(P, Q)) <= 1e-12
    assert np.array_equal(plane.rows[:, plane.pivot_columns], np.eye(k))


def test_plucker_residual_zero_on_factorizable():
    rng = np.random.default_rng(33)
    for two_s, k in ((3, 2), (4, 2), (5, 3), (6, 3)):
        f = random_frame(rng, two_s, k)
        assert plucker_residual(plucker(f)) < 1e-10


# 1 <= 2s <= 12, 1 <= k <= 2s + 1, and the seed of the frame and of its mix
_frame_shapes = st.integers(1, 12).flatmap(
    lambda two_s: st.tuples(st.just(two_s), st.integers(1, two_s + 1), st.integers(0, 2**32 - 1))
)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(shape=_frame_shapes)
@example(shape=(12, 6, 0))
@example(shape=(12, 13, 0))
@example(shape=(1, 1, 0))
def test_plucker_and_standard_form_properties_across_shapes(shape):
    # Bounds from 5000 seeded draws over the same shapes, one BLAS thread:
    # the worst residual read 7.7e-16, the re-reduced rows differed by 0.0,
    # and the worst ray defect read 8.9e-14, at (2s, k) = (6, 6).
    two_s, k, seed = shape
    rng = np.random.default_rng(seed)
    f = random_frame(rng, two_s, k)
    P = plucker(f)
    assert plucker_residual(P) < 1e-10
    plane = standard_form(f)
    again = standard_form(plane)
    assert again.pivot_columns == plane.pivot_columns
    assert np.abs(again.rows - plane.rows).max() <= 1e-12
    # a unitary times exact powers of two: a GL(k) mix of condition <= 2^8
    Q = np.linalg.qr(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))[0]
    M = Q * 2.0 ** rng.integers(-4, 5, size=k)
    mixed = plucker(KFrame(f.s, k, M @ f.rows)).comps
    scale = np.vdot(P.comps, mixed) / np.vdot(P.comps, P.comps)
    assert np.linalg.norm(mixed - scale * P.comps) <= 1e-12 * np.linalg.norm(mixed)


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


_RESIDUAL_RSS_CODE = """
import resource
import numpy as np
from stellar import KFrame, SpinLabel, plucker, plucker_residual
rng = np.random.default_rng(1909)
P = plucker(KFrame(SpinLabel(13), 6, rng.standard_normal((6, 14)) + 1j * rng.standard_normal((6, 14))))
plucker_residual(plucker(KFrame(SpinLabel(4), 2, rng.standard_normal((2, 5)))))
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
plucker_residual(P)
print((resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before) / 1024)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
def test_plucker_residual_peak_memory_is_bounded_at_13_6():
    # the whole 2002 x 3432 relation product at once grew peak RSS by about
    # 160 MB; taken a block of rows at a time, by about 25 MB
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", _RESIDUAL_RSS_CODE], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) <= 40.0


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
    assert np.abs(a.rows - b.rows).max() < 1e-9


def test_orthogonal_complement():
    rng = np.random.default_rng(39)
    # k = 1 and k = 2s, whose complement is a line, included
    for two_s, k in ((4, 2), (1, 1), (4, 1), (4, 4), (7, 3), (9, 9)):
        plane = standard_form(random_frame(rng, two_s, k))
        comp = orthogonal_complement(plane)
        assert comp.k == two_s + 1 - k
        gram = plane.rows.conj() @ comp.rows.T
        assert np.abs(gram).max() < 1e-10
        back = orthogonal_complement(comp)
        assert plane_inner(back, plane) == pytest.approx(1.0, abs=1e-10)
    # the complement of the full space is the zero plane, which is no plane
    with pytest.raises(ValueError):
        orthogonal_complement(random_frame(rng, 4, 5))


def test_a_plane_is_the_frame_of_its_standard_form():
    # every public function that takes a frame takes a KPlane as well, and
    # reads the same plane from the frame and from its standard form
    rng = np.random.default_rng(41)
    f = random_frame(rng, 4, 2)
    plane = standard_form(f)
    assert issubclass(KPlane, KFrame) and plane.frame is plane
    # the standard form is the frame times the inverse of its pivot block
    scale = np.linalg.det(f.rows[:, list(plane.pivot_columns)])
    P, Q = plucker(f).comps, plucker(plane).comps
    assert np.abs(P - scale * Q).max() < 1e-12 * np.abs(P).max()
    assert abs(frame_inner(plane, f) - np.vdot(Q, P)) < 1e-12 * np.abs(P).max()
    r = random_rotation(rng)
    a, b = (standard_form(rotate_frame(x, r)) for x in (f, plane))
    assert np.abs(a.rows - b.rows).max() < 1e-12
    a, b = (orthogonal_complement(x) for x in (f, plane))
    assert np.abs(a.rows - b.rows).max() < 1e-12
    # the normalized Pluecker vectors differ by the phase of the pivot minor
    phase = scale / abs(scale)
    for ca, cb in zip(decompose_plane(f), decompose_plane(plane)):
        assert (ca.two_j, ca.copy_index) == (cb.two_j, cb.copy_index)
        assert np.abs(ca.state.coeffs - phase * cb.state.coeffs).max() < 1e-12
    assert projective_distance(
        principal(f).polynomial, principal(plane).polynomial
    ) < 1e-12
    ra, rb = principal_all(f), principal_all(plane)
    for route in ra:
        assert projective_distance(ra[route].polynomial, rb[route].polynomial) < 1e-12
    ma, mb = multiconstellation(f), multiconstellation(plane)
    for ca, cb in zip(ma.components, mb.components):
        assert abs(abs(ca.amplitude) - abs(cb.amplitude)) < 1e-12
