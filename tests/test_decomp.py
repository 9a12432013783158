import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass, fields
from itertools import zip_longest

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from stellar import (
    KFrame,
    SpinLabel,
    bd_basis,
    decompose_plane,
    multiplicities_char,
    multiplicities_from_basis,
    multiplicities_genfun,
    plucker,
    two_s_max,
    wedge_rep,
    wigner_d,
)
from stellar import decomp
from stellar.decomp import (
    DEGENERACY_TOL,
    _canonical_level_basis,
    _decompose_minors,
    _phase_fixed,
    _qpower_diagonals,
    _wedge_lowering_terms,
    _wedge_two_m,
)
from stellar.grassmann import RANK_TOL, _multi_index_array, _subset_rank, multi_indices
from stellar.principal import _top_plan, _wronskian_plan
from stellar.spin_rep import _ladder

from conftest import compose, random_frame, random_rotation

# spin content of the wedge powers through s = 7/2, k = 4, keyed by
# (two_s, k) with values {two_j: multiplicity}
SMALL_TABLE = {
    (2, 2): {2: 1},
    (3, 2): {0: 1, 4: 1},
    (4, 2): {2: 1, 6: 1},
    (5, 2): {0: 1, 4: 1, 8: 1},
    (5, 3): {3: 1, 5: 1, 9: 1},
    (6, 2): {2: 1, 6: 1, 10: 1},
    (6, 3): {0: 1, 4: 1, 6: 1, 8: 1, 12: 1},
    (7, 2): {0: 1, 4: 1, 8: 1, 12: 1},
    (7, 3): {3: 1, 5: 1, 7: 1, 9: 1, 11: 1, 15: 1},
    (7, 4): {0: 1, 4: 2, 8: 2, 10: 1, 12: 1, 16: 1},
}


def test_two_s_max():
    assert two_s_max(SpinLabel(3), 2) == 4
    assert two_s_max(SpinLabel(4), 2) == 6
    assert two_s_max(SpinLabel(7), 4) == 16


@dataclass(frozen=True)
class WedgeGenerators:
    """Dense spin generators on the k-th wedge power."""

    Sz: np.ndarray
    Splus: np.ndarray
    Sminus: np.ndarray


def wedge_generators(two_s: int, k: int) -> WedgeGenerators:
    """Oracle assembled from the lowering terms that bd_basis ladders with."""
    dst, src, cf = _wedge_lowering_terms(two_s, k)
    dim = math.comb(two_s + 1, k)
    Sminus = np.zeros((dim, dim), dtype=complex)
    if len(dst):
        np.add.at(Sminus, (dst, src), cf)
    Sz = np.diag(_wedge_two_m(two_s, k) / 2).astype(complex)
    return WedgeGenerators(Sz, Sminus.conj().T, Sminus)


def test_wedge_lowering_terms_match_a_loop_over_subsets():
    # each index steps to the next one when that is free; terms in subset
    # order, then slot order
    for two_s in range(10):
        n = two_s + 1
        for k in range(1, n + 1):
            subsets = multi_indices(n, k)
            pos = {I: p for p, I in enumerate(subsets)}
            want = [
                (pos[I[:t] + (i + 1,) + I[t + 1 :]], p, _ladder(two_s)[i])
                for p, I in enumerate(subsets)
                for t, i in enumerate(I)
                if i + 1 < n and i + 1 not in I
            ]
            dst, src, cf = _wedge_lowering_terms(two_s, k)
            assert list(zip(dst.tolist(), src.tolist(), cf.tolist())) == want, (two_s, k)


def test_wedge_generator_commutators_and_sz():
    for two_s, k in ((3, 2), (4, 2), (4, 3), (5, 3)):
        g = wedge_generators(two_s, k)
        comm = g.Sz @ g.Splus - g.Splus @ g.Sz
        assert np.abs(comm - g.Splus).max() < 1e-10
        comm2 = g.Splus @ g.Sminus - g.Sminus @ g.Splus
        assert np.abs(comm2 - 2.0 * g.Sz).max() < 1e-10
        diag = np.diag(g.Sz)
        assert np.abs(g.Sz - np.diag(diag)).max() == 0.0
        # entries are sums of k distinct m-values of the single-particle spin
        m = (two_s / 2.0) - np.arange(two_s + 1)
        from itertools import combinations

        want = [sum(m[list(I)]) for I in combinations(range(two_s + 1), k)]
        assert np.abs(np.sort(diag.real) - np.sort(want)).max() < 1e-12


def test_wedge_rep_is_minor_lift_of_wigner_d():
    rng = np.random.default_rng(41)
    s, k = SpinLabel(4), 2
    r = random_rotation(rng)
    D = wedge_rep(s, k, r)
    assert np.abs(D @ D.conj().T - np.eye(D.shape[0])).max() < 1e-10
    # product structure carries over from the underlying representation
    r2 = random_rotation(rng)
    lhs = wedge_rep(s, k, compose(r, r2))
    rhs = wedge_rep(s, k, r) @ wedge_rep(s, k, r2)
    assert np.abs(lhs - rhs).max() < 1e-9


def test_multiplicity_tables_match_reference():
    for (two_s, k), want in SMALL_TABLE.items():
        s = SpinLabel(two_s)
        for fn in (multiplicities_genfun, multiplicities_char, multiplicities_from_basis):
            got = {tj: m for tj, m in fn(s, k).entries}
            assert got == want, (two_s, k, fn.__name__)


def test_multiplicity_structural_invariants():
    for two_s, k in ((5, 2), (6, 3), (7, 4), (9, 3), (10, 4)):
        s = SpinLabel(two_s)
        table = multiplicities_genfun(s, k)
        assert table.total_dimension() == math.comb(two_s + 1, k)
        assert table.nonzero() == table.entries
        mult = dict(table.entries)
        tsm = two_s_max(s, k)
        assert mult[tsm] == 1
        assert tsm - 2 not in mult
        if tsm >= 4:
            assert mult[tsm - 4] == 1


def test_multiplicities_genfun_matches_char_on_larger_cases():
    # (73, 37): n = 74, the largest middle shape whose character fits int64
    for two_s, k in ((9, 4), (11, 3), (12, 5), (73, 37)):
        s = SpinLabel(two_s)
        a = multiplicities_genfun(s, k).entries
        b = multiplicities_char(s, k).entries
        assert a == b


def test_multiplicities_char_raises_beyond_int64():
    for n in (75, 76, 78, 80):
        with pytest.raises(ArithmeticError, match=f"\\({n}, {n // 2}\\)"):
            multiplicities_char(SpinLabel(n - 1), n // 2)
    # the table is computed at min(k, n - k), but the message names k
    with pytest.raises(ArithmeticError, match=r"\(75, 38\)"):
        multiplicities_char(SpinLabel(74), 38)


# the k at which char raises, first to last, at each n = 2s + 1 in 72 .. 82
_CHAR_OVERFLOW_BAND = {
    75: (34, 41), 76: (32, 44), 77: (31, 46), 78: (30, 48),
    79: (29, 50), 80: (28, 52), 81: (28, 53), 82: (27, 55),
}


def test_char_raises_exactly_where_the_central_coefficient_passes_int64():
    # The Gaussian coefficients are palindromic and unimodal, so the largest
    # is the central one, and the table telescopes to it: sum_j m_j.  char
    # checks only the lower half of the row, so this pins its verdict at
    # every shape around the boundary, both edges of each band included.
    raised = {}
    for n in range(72, 83):
        s = SpinLabel(n - 1)
        for k in range(1, n):
            want = multiplicities_genfun(s, k).entries
            if sum(m for _, m in want) >= 2**63:
                with pytest.raises(ArithmeticError, match="overflows int64"):
                    multiplicities_char(s, k)
                raised.setdefault(n, []).append(k)
            else:
                assert multiplicities_char(s, k).entries == want, (n, k)
    assert {n: (ks[0], ks[-1]) for n, ks in raised.items()} == _CHAR_OVERFLOW_BAND
    assert all(len(ks) == ks[-1] - ks[0] + 1 for ks in raised.values())


def gaussian_binomial(n: int, k: int) -> list:
    """Coefficients of [n choose k]_q by [m, j] = [m-1, j-1] + q^j [m-1, j] (oracle)."""
    row = [[1]] + [[0]] * k  # row[j] holds [m choose j]_q, here at m = 0
    for m in range(1, n + 1):
        for j in range(min(m, k), max(0, k - n + m - 1), -1):
            shifted = [0] * j + row[j]
            row[j] = [x + y for x, y in zip_longest(row[j - 1], shifted, fillvalue=0)]
    return row[k][: k * (n - k) + 1]


def table_from_gaussian(n: int, k: int, c: list) -> tuple:
    """(two_j, m_j) with m_j = c[e] - c[e-1] > 0, two_j = two_s_max..0 (oracle)."""
    tsm = k * (n - k)
    out = []
    for tj in range(tsm, -1, -1):
        e, odd = divmod(tsm - tj, 2)
        m = 0 if odd else c[e] - (c[e - 1] if e else 0)
        if m:
            out.append((tj, m))
    return tuple(out)


def test_gaussian_binomial_oracle_on_small_cases():
    assert gaussian_binomial(4, 2) == [1, 1, 2, 1, 1]
    assert gaussian_binomial(5, 2) == [1, 1, 2, 2, 2, 1, 1]
    for n in range(1, 12):
        for k in range(1, n + 1):
            assert sum(gaussian_binomial(n, k)) == math.comb(n, k)


_shapes = st.integers(1, 90).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n)))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(nk=_shapes)
@example(nk=(74, 37))
@example(nk=(75, 37))
@example(nk=(90, 45))
@example(nk=(90, 1))
@example(nk=(1, 1))
def test_integer_routes_match_the_gaussian_binomial_oracle(nk):
    n, k = nk
    s = SpinLabel(n - 1)
    c = gaussian_binomial(n, k)
    want = table_from_gaussian(n, k, c)
    assert all(m > 0 for _, m in want)
    assert multiplicities_genfun(s, k).entries == want
    if max(c) >= 2**63:
        with pytest.raises(ArithmeticError, match="overflows int64"):
            multiplicities_char(s, k)
    else:
        assert multiplicities_char(s, k).entries == want


def partition_numbers(top: int) -> list:
    """p(0), ..., p(top) by the coin-change recurrence over part sizes (oracle)."""
    p = [1] + [0] * top
    for part in range(1, top + 1):
        for e in range(part, top + 1):
            p[e] += p[e - part]
    return p


def test_genfun_at_two_s_199_k_100():
    # In a 100 x 100 box the first 101 coefficients are unrestricted
    # partition numbers, so the top of the table is known independently.
    s, k = SpinLabel(199), 100
    table = multiplicities_genfun(s, k)
    tsm = two_s_max(s, k)
    assert tsm == 10000
    assert table.total_dimension() == math.comb(200, 100)
    assert all(m > 0 for _, m in table.entries)
    mult = dict(table.entries)
    p = partition_numbers(100)
    for e in range(101):
        assert mult.get(tsm - 2 * e, 0) == p[e] - (p[e - 1] if e else 0)
        assert tsm - 2 * e - 1 not in mult


def test_char_overflow_raises_over_no_array():
    try:
        multiplicities_char(SpinLabel(79), 40)
    except ArithmeticError as exc:
        tb = exc.__traceback__
    else:
        pytest.fail("the (80, 40) character fits int64")
    frames = 0
    while tb is not None:
        held = [
            name for name, v in tb.tb_frame.f_locals.items() if isinstance(v, np.ndarray)
        ]
        assert held == [], (tb.tb_frame.f_code.co_name, held)
        frames += 1
        tb = tb.tb_next
    assert frames >= 2  # this test's frame and the raising one


def test_multiplicities_large_case_is_fast():
    t0 = time.monotonic()
    table = multiplicities_genfun(SpinLabel(80), 3)
    dt = time.monotonic() - t0
    assert table.total_dimension() == math.comb(81, 3)
    assert dt < 5.0


def test_bd_basis_spin_three_halves_k2_exact():
    basis = bd_basis(SpinLabel(3), 2)
    s2 = 1.0 / math.sqrt(2.0)
    want = np.array(
        [
            [1, 0, 0, 0, 0, 0],
            [0, 1, 0, 0, 0, 0],
            [0, 0, s2, s2, 0, 0],
            [0, 0, 0, 0, 1, 0],
            [0, 0, 0, 0, 0, 1],
            [0, 0, s2, -s2, 0, 0],
        ],
        dtype=complex,
    )
    assert np.abs(basis.U - want).max() < 1e-12
    assert [(m.two_j, m.copy_index) for m in basis.layout] == [(4, 0), (0, 0)]


def test_bd_basis_spin2_k2_exact():
    basis = bd_basis(SpinLabel(4), 2)
    a, b = math.sqrt(3.0 / 5.0), math.sqrt(2.0 / 5.0)
    c, d = 1.0 / math.sqrt(5.0), 2.0 / math.sqrt(5.0)
    want = np.array(
        [
            [1, 0, 0, 0, 0, 0, 0, 0, 0, 0],
            [0, 1, 0, 0, 0, 0, 0, 0, 0, 0],
            [0, 0, a, 0, b, 0, 0, 0, 0, 0],
            [0, 0, 0, c, 0, d, 0, 0, 0, 0],
            [0, 0, 0, 0, 0, 0, a, b, 0, 0],
            [0, 0, 0, 0, 0, 0, 0, 0, 1, 0],
            [0, 0, 0, 0, 0, 0, 0, 0, 0, 1],
            [0, 0, b, 0, -a, 0, 0, 0, 0, 0],
            [0, 0, 0, d, 0, -c, 0, 0, 0, 0],
            [0, 0, 0, 0, 0, 0, b, -a, 0, 0],
        ],
        dtype=complex,
    )
    assert np.abs(basis.U - want).max() < 1e-12
    assert [(m.two_j, m.copy_index) for m in basis.layout] == [(6, 0), (2, 0)]


def test_bd_basis_unitary_and_block_diagonal():
    rng = np.random.default_rng(44)
    for two_s, k in ((3, 2), (4, 2), (5, 3)):
        s = SpinLabel(two_s)
        basis = bd_basis(s, k)
        dim = basis.U.shape[0]
        assert np.abs(basis.U @ basis.U.conj().T - np.eye(dim)).max() < 1e-10
        r = random_rotation(rng)
        conj = basis.U @ wedge_rep(s, k, r) @ basis.U.conj().T
        row = 0
        blocks = []
        for mult in basis.layout:
            lo, hi = mult.row_range
            assert lo == row
            blocks.append((lo, hi, mult.two_j))
            row = hi
        assert row == dim
        for lo, hi, two_j in blocks:
            inside = conj[lo:hi, lo:hi]
            # diagonal block is the spin-j rotation matrix itself
            want = wigner_d(SpinLabel(two_j), r)
            assert np.abs(inside - want).max() < 1e-8
            mask = np.ones_like(conj, dtype=bool)
            mask[lo:hi, lo:hi] = False
            strip = conj[lo:hi, :][:, np.concatenate([np.arange(0, lo), np.arange(hi, dim)])]
            assert np.abs(strip).max() < 1e-8


def test_bd_basis_matches_multiplicity_routes():
    for two_s, k in ((5, 3), (7, 4)):
        s = SpinLabel(two_s)
        assert bd_basis(s, k).multiplicity_table().entries == multiplicities_genfun(s, k).entries


def test_decompose_plane_worked_example():
    frame = KFrame(
        SpinLabel(4), 2,
        np.array([[1, 0, 1, 0, 0], [0, 1, 0, 0, 1]], dtype=complex),
    )
    comps = decompose_plane(frame)
    assert [(c.two_j, c.copy_index) for c in comps] == [(6, 0), (2, 0)]
    scale = 1.0 / math.sqrt(20.0)
    want3 = scale * np.array(
        [math.sqrt(5.0), 0.0, -math.sqrt(2.0), 1.0, 0.0, math.sqrt(5.0), 0.0]
    )
    want1 = scale * np.array([math.sqrt(3.0), 2.0, 0.0])
    assert np.abs(comps[0].state.coeffs - want3).max() < 1e-12
    assert np.abs(comps[1].state.coeffs - want1).max() < 1e-12


def test_decompose_plane_reconstruction_and_norms():
    rng = np.random.default_rng(45)
    for two_s, k in ((3, 2), (4, 2), (5, 3)):
        frame = random_frame(rng, two_s, k)
        comps = decompose_plane(frame)
        basis = bd_basis(frame.s, k)
        P = plucker(frame).comps
        P = P / np.linalg.norm(P)
        stacked = np.concatenate([c.state.coeffs for c in comps])
        assert np.abs(basis.U.conj().T @ stacked - P).max() < 1e-10
        assert sum(c.state.norm ** 2 for c in comps) == pytest.approx(1.0, abs=1e-10)


def test_canonical_degenerate_basis_splits_seven_halves_k4():
    s = SpinLabel(7)
    basis = bd_basis(s, 4)
    table = {tj: m for tj, m in basis.multiplicity_table().entries}
    assert table == SMALL_TABLE[(7, 4)]
    assert basis.degenerate_two_j == ()
    # two j=4 copies: their highest-weight rows carry distinct Q^2 values
    mults = [m for m in basis.layout if m.two_j == 8]
    assert len(mults) == 2
    from stellar.decomp import _qpower_diagonals

    q2 = _qpower_diagonals(7, 4, 2)[2]
    vals = []
    for m in mults:
        v = basis.U[m.row_range[0]].conj()
        vals.append(float((v.conj() * q2 * v).real.sum()))
    assert abs(vals[0] - vals[1]) > 1e-6
    assert vals[0] > vals[1]  # ordered by decreasing diagnostic value


def canonical_degenerate_basis(s: SpinLabel, k: int, two_j: int, vectors) -> tuple[list, bool]:
    """`_canonical_level_basis` of wedge vectors of weight 2m = two_j, in full
    wedge coordinates: exactly 0 off that weight space (oracle)."""
    V = np.array(vectors, dtype=complex).T
    on_level = _wedge_two_m(s.two_s, k) == two_j
    assert np.abs(V[~on_level]).max(initial=0.0) <= RANK_TOL * np.abs(V).max()
    diags = _qpower_diagonals(s.two_s, k, max(2, k))[:, on_level]
    level, flagged = _canonical_level_basis(diags, V[on_level])
    full = np.zeros((len(V), level.shape[1]), dtype=complex)
    full[on_level] = level
    return list(full.T), flagged


# (7, 4) 2j = 8 is ordered by Q^(2); the 2j = 0 sectors of (9, 4) and (12, 9)
# stay tied through Q^(k) and take the coordinate rule
@pytest.mark.parametrize(
    "two_s,k,two_j,flagged", [(7, 4, 8, False), (9, 4, 0, True), (12, 9, 0, True)]
)
def test_canonical_degenerate_basis_deterministic(two_s, k, two_j, flagged):
    rng = np.random.default_rng(46)
    s = SpinLabel(two_s)
    basis = bd_basis(s, k)
    assert (two_j in basis.degenerate_two_j) == flagged
    mults = [m for m in basis.layout if m.two_j == two_j]
    raw = np.array([basis.U[m.row_range[0]].conj() for m in mults])
    # feed the span back in scrambled gauge: the canonical output is unchanged
    n = len(raw)
    M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    out, got_flag = canonical_degenerate_basis(s, k, two_j, M @ raw)
    assert got_flag == flagged
    assert len(out) == n
    for got, want in zip(out, raw):
        phase = np.vdot(got, want)
        assert abs(abs(phase) - 1.0) < 1e-9
        assert np.abs(got * (phase / abs(phase)) - want).max() < 1e-8


def test_complementary_shapes_flag_the_same_degenerate_sectors():
    # the k-th and (2s+1-k)-th wedge powers are equivalent representations,
    # so a sector ties on both or on neither; with a tolerance not scaled by
    # Q^(n) on the level, rounding in the all-zero spectrum of an odd Q^(n)
    # settled the 2j = 0 tie of (12, 9), which (12, 4) flags
    for two_s in range(14):
        for k in range(1, (two_s + 1) // 2 + 1):
            want = bd_basis(SpinLabel(two_s), k).degenerate_two_j
            got = bd_basis(SpinLabel(two_s), two_s + 1 - k).degenerate_two_j
            assert got == want, (two_s, k)


def test_complement_tables_match_basis_built_at_k():
    # genfun and char work at min(k, n - k); the basis is built at k itself
    for n in range(1, 41):
        s = SpinLabel(n - 1)
        for k in range(n // 2 + 1, n + 1):
            if math.comb(n, k) > 200:
                continue
            want = multiplicities_from_basis(s, k)
            for fn in (multiplicities_genfun, multiplicities_char):
                got = fn(s, k)
                assert got.k == k
                assert got.entries == want.entries, (fn.__name__, n, k)


# -- the dense construction, kept as an oracle for the per-weight storage -----


def null_space(A: np.ndarray, rcond: float) -> np.ndarray:
    """Orthonormal columns spanning the null space of A, by SVD (the oracles'
    own route, independent of the library's QR): singular values at most
    rcond times the largest count as zero."""
    _, sv, vh = np.linalg.svd(A, full_matrices=True)
    rank = int(np.count_nonzero(sv > rcond * sv.max()))
    return vh[rank:].conj().T


def _dense_canonical(two_s: int, k: int, two_mu: int, vectors: list) -> list:
    """Canonical refinement on full-dimension vectors of weight 2m = two_mu,
    one vector at a time, each from a fresh eigen-solve of what the vectors
    before it leave (dense oracle)."""
    V = np.array(vectors, dtype=complex).T
    q, _ = np.linalg.qr(V)
    work = q[:, : V.shape[1]]
    diags = _qpower_diagonals(two_s, k, max(2, k))
    on_level = _wedge_two_m(two_s, k) == two_mu
    out = []
    while work.shape[1] > 0:
        cand = work
        if cand.shape[1] > 1:
            for n_pow in range(2, len(diags)):
                A = cand.conj().T @ (diags[n_pow][:, None] * cand)
                evals, evecs = np.linalg.eigh((A + A.conj().T) / 2)
                tol = DEGENERACY_TOL * np.abs(diags[n_pow][on_level]).max()
                cand = cand @ evecs[:, evals >= evals[-1] - tol]
                if cand.shape[1] == 1:
                    break
        if cand.shape[1] > 1:
            B = np.linalg.qr(cand)[0][:, : cand.shape[1]]
            v = next(
                p / np.linalg.norm(p)
                for p in (B @ B[c, :].conj() for c in range(B.shape[0]))
                if np.linalg.norm(p) > 1e-6
            )
        else:
            v = cand[:, 0]
        v = _phase_fixed(v / np.linalg.norm(v))
        out.append(v)
        if work.shape[1] == 1:
            break
        coords = work.conj().T @ v
        work = work @ null_space(coords[None, :].conj(), rcond=RANK_TOL)
    return out


def dense_bd_basis(two_s: int, k: int) -> np.ndarray:
    """U built on full-dimension vectors, one lowering at a time (oracle)."""
    dim = math.comb(two_s + 1, k)
    two_m = _wedge_two_m(two_s, k)
    tsm = k * (two_s + 1 - k)
    dst, src, cf = _wedge_lowering_terms(two_s, k)

    def lower(v):
        w = np.zeros(dim, dtype=complex)
        if len(dst):
            np.add.at(w, dst, cf * v[src])
        return w

    multiplets = []
    for two_mu in range(tsm, -tsm - 1, -2):
        pos = np.nonzero(two_m == two_mu)[0]
        lowered = []
        for two_j, vecs in multiplets:
            if two_j >= two_mu + 2 >= -two_j + 2:
                jj, mm = two_j / 2, (two_mu + 2) / 2
                vecs.append(lower(vecs[-1]) / math.sqrt(jj * (jj + 1) - mm * (mm - 1)))
                lowered.append(vecs[-1])
        n_new = len(pos) - len(lowered)
        if two_mu < 0 or n_new == 0:
            continue
        if lowered:
            ns = null_space(np.array([w[pos] for w in lowered]).conj(), rcond=RANK_TOL)
        else:
            ns = np.eye(len(pos), dtype=complex)
        new = []
        for t in range(n_new):
            v = np.zeros(dim, dtype=complex)
            v[pos] = ns[:, t]
            new.append(v)
        if n_new > 1:
            new = _dense_canonical(two_s, k, two_mu, new)
        multiplets += [(two_mu, [_phase_fixed(v / np.linalg.norm(v))]) for v in new]
    return np.array([v.conj() for _, vecs in multiplets for v in vecs])


def _row_two_m(basis) -> np.ndarray:
    """Twice the S_z weight of each row, read off the multiplet layout."""
    out = np.empty(basis.layout[-1].row_range[1], dtype=int)
    for mult in basis.layout:
        lo, hi = mult.row_range
        out[lo:hi] = mult.two_j - 2 * np.arange(hi - lo)
    return out


def _off_block(basis, rot) -> float:
    """Largest entry of U D(rot) U^dagger outside the multiplet blocks."""
    U = basis.U
    conj = U @ wedge_rep(basis.s, basis.k, rot) @ U.conj().T
    for mult in basis.layout:
        lo, hi = mult.row_range
        conj[lo:hi, lo:hi] = 0.0
    return float(np.abs(conj).max())


def test_bd_basis_rows_lie_in_one_weight_space():
    shapes = [
        (two_s, k)
        for two_s in range(13)
        for k in range(1, two_s + 2)
        if math.comb(two_s + 1, k) <= 1716
    ]
    assert (12, 6) in shapes
    for two_s, k in shapes:
        basis = bd_basis(SpinLabel(two_s), k)
        off = _row_two_m(basis)[:, None] != _wedge_two_m(two_s, k)[None, :]
        assert not basis.U[off].any(), (two_s, k)


def test_bd_basis_stores_no_dense_matrix():
    s, k = SpinLabel(11), 5
    dim = math.comb(12, 5)
    decompose_plane(random_frame(np.random.default_rng(47), 11, 5))
    basis = bd_basis(s, k)
    arrays = [getattr(basis, f.name) for f in fields(basis)]
    arrays = [a for a in arrays if isinstance(a, np.ndarray)]
    assert sum(a.nbytes for a in arrays) < 2_000_000
    assert all(a.size < dim * dim for a in arrays)
    assert basis.U.shape == (dim, dim)
    assert basis.U is not basis.U  # assembled on each access


@pytest.mark.parametrize("two_s,k", [(2, 2), (3, 2), (4, 2), (7, 4), (9, 4)])
def test_bd_basis_matches_dense_oracle(two_s, k):
    basis = bd_basis(SpinLabel(two_s), k)
    want = dense_bd_basis(two_s, k)
    diff = np.abs(basis.U - want).max()
    if two_s < 9:
        assert diff < 1e-12
    else:
        # At (9, 4) the oracle's long ladders carry about 1e-12 of rounding
        # along other multiplets, which the per-weight build orthonormalizes
        # away: the two agree to 2e-12 and the new rows are the more exact.
        assert diff < 2e-12
        rot = random_rotation(np.random.default_rng(48))
        assert _off_block(basis, rot) < 1e-14


def _level_positions(basis) -> np.ndarray:
    """Each wedge column's position within its weight level's level_cols row."""
    two_s, k = basis.s.two_s, basis.k
    level = (two_s_max(basis.s, k) - _wedge_two_m(two_s, k)) // 2
    local = np.empty(len(level), dtype=np.intp)
    for lev, cols in enumerate(basis.level_cols):
        width = np.count_nonzero(level == lev)
        local[cols[:width]] = np.arange(width)
    return local


def test_bd_basis_top_block_is_the_wronskian_weights():
    # row t of the top multiplet is c (-1)^t w_J / sqrt(C(d, t)) on the minors
    # J with e_J = d - t, w the Wronskian weights and c one constant per
    # shape: an exact oracle for the numerically built rows, at the cost of
    # one plan per shape
    for two_s in range(1, 14):
        for k in range(1, two_s + 1):
            s = SpinLabel(two_s)
            basis = bd_basis(s, k)
            d, e, vandermonde, signprod = _wronskian_plan(s, k)
            assert basis.layout[0].two_j == d
            t = np.arange(d + 1)
            got = np.zeros((d + 1, len(e)), dtype=complex)
            np.add.at(got, (t[:, None], basis.level_cols[basis.row_level[t]]), basis.coefs[t])
            want = np.where(e == d - t[:, None], vandermonde * signprod, 0.0)
            want *= ((-1.0) ** t / np.sqrt([math.comb(d, i) for i in t]))[:, None]
            c = np.vdot(want, got) / np.vdot(want, want)
            # every row has unit norm, so this error is relative
            assert np.linalg.norm(got - c * want, axis=1).max() <= 1e-14, (two_s, k)


def test_bd_basis_rows_obey_the_condon_shortley_mirror():
    # e^(-i pi J_y) |j, m> = (-1)^(j-m) |j, -m>: row lo + 2j - t of a multiplet
    # is (-1)^t F(row lo + t), F the rotation by pi about y on the wedge
    # space, which sends subset J to reversed(2s - J) with the sign
    # (-1)^(sum J + k(k-1)/2)
    for two_s in range(14):
        for k in range(1, two_s + 2):
            basis = bd_basis(SpinLabel(two_s), k)
            n = two_s + 1
            I = _multi_index_array(n, k)
            flip = _subset_rank(n, (two_s - I)[:, ::-1])
            sign = (-1.0) ** (I.sum(axis=1) + k * (k - 1) // 2)
            local = _level_positions(basis)
            # row lo + t goes to row lo + 2j - t = hi - 1 - t, for every t <= j
            src, dst, t = [], [], []
            for mult in basis.layout:
                lo, hi = mult.row_range
                half = np.arange(mult.two_j // 2 + 1)
                src.append(lo + half)
                dst.append(hi - 1 - half)
                t.append(half)
            src, dst, t = map(np.concatenate, (src, dst, t))
            # both sides on the level positions of the rows they fill; padded
            # entries carry a zero coefficient, so where they land is moot
            have = np.zeros(basis.coefs.shape, dtype=complex)
            at_dst = local[basis.level_cols[basis.row_level[dst]]]
            np.add.at(have, (dst[:, None], at_dst), basis.coefs[dst])
            cols = basis.level_cols[basis.row_level[src]]
            mirrored = np.zeros(basis.coefs.shape, dtype=complex)
            np.add.at(
                mirrored,
                (dst[:, None], local[flip[cols]]),
                ((-1.0) ** t)[:, None] * sign[cols] * basis.coefs[src],
            )
            assert np.abs(have - mirrored).max() <= 1e-14, (two_s, k)


_BASIS_RSS_CODE = """
import resource
from stellar import SpinLabel, bd_basis
bd_basis(SpinLabel(5), 3)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
basis = bd_basis(SpinLabel(14), 7)
print((resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before) * 1024 / basis.coefs.nbytes)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
def test_bd_basis_peak_memory_is_bounded_at_14_7():
    # 28 MiB of rows: holding every level's lowering matrix and a conjugated
    # copy of the rows grows peak RSS by 2.6 times the rows; one level's
    # matrix at a time and an in-place conjugation, by 1.6 times
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", _BASIS_RSS_CODE], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) <= 2.0


_DECOMPOSE_RSS_CODE = """
import resource
import numpy as np
from stellar import KFrame, SpinLabel, bd_basis, decompose_plane
rows = np.random.default_rng(147).standard_normal((7, 15, 2))
decompose_plane(KFrame(SpinLabel(5), 3, rows[:3, :6, 0] + 0j))
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
decompose_plane(KFrame(SpinLabel(14), 7, rows[..., 0] + 1j * rows[..., 1]))
grown = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before
print(grown * 1024 / bd_basis(SpinLabel(14), 7).coefs.nbytes)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
def test_decompose_plane_peak_memory_is_bounded_at_14_7():
    # a cold decomposition builds the basis (1.6 times its rows, above) and
    # then multiplies each row by the Pluecker entries of its level: gathered
    # for all rows at once, those entries are one more copy of the rows (2.4
    # times in all); a bounded block of rows at a time, 1.8 times
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", _DECOMPOSE_RSS_CODE], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) <= 2.0


@pytest.mark.parametrize("chunk", [1, 7, 100])
def test_decompose_minors_in_blocks_of_rows_is_bit_identical(monkeypatch, chunk):
    # the gather runs a bounded block of rows at a time; each row's product
    # is the same einsum over the same entries, whatever the block, and the
    # top route's plan, which holds copies of the top block's rows, gives
    # that block's components bit for bit
    rng = np.random.default_rng(73)
    shapes = [(3, 2), (5, 3), (7, 3), (8, 4)]
    minors = {
        shape: rng.standard_normal(math.comb(shape[0] + 1, shape[1])) + 0.5j for shape in shapes
    }
    want = {
        shape: _decompose_minors(bd_basis(SpinLabel(shape[0]), shape[1]), P)
        for shape, P in minors.items()
    }
    monkeypatch.setattr(decomp, "_PRODUCT_CHUNK", chunk)
    for shape, psi in want.items():
        got = _decompose_minors(bd_basis(SpinLabel(shape[0]), shape[1]), minors[shape])
        assert got.tobytes() == psi.tobytes(), shape
        assert psi[-1] == 0.0  # the one entry after the components
        _, coefs, cols = _top_plan(SpinLabel(shape[0]), shape[1])
        top = np.einsum("rc,rc->r", coefs, minors[shape][cols])
        assert top.tobytes() == psi[: len(top)].tobytes(), shape
