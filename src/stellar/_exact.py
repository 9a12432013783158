"""The package's exact integer results, in a module that imports the standard library alone.

Spin labels, the multiplicity tables of the wedge powers from the closed
form of the Gaussian binomial, and the Schubert count.  `spin_rep`, `decomp`
and `principal` import these names from here, and the `stellar schubert`
and `stellar multiplicities` (genfun) commands run on this module alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate


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


def two_s_max(s: SpinLabel, k: int) -> int:
    """Twice the largest spin in the wedge decomposition, k(2s+1-k)."""
    return k * (s.dim - k)


@dataclass(frozen=True)
class MultiplicityTable:
    """Multiplicities m_j > 0 of the spin-j blocks that occur, two_j descending."""

    s: SpinLabel
    k: int
    entries: tuple[tuple[int, int], ...]

    def nonzero(self) -> tuple[tuple[int, int], ...]:
        return self.entries

    def total_dimension(self) -> int:
        return sum((tj + 1) * m for tj, m in self.entries)


def _table_from_map(s: SpinLabel, k: int, mmap: dict) -> MultiplicityTable:
    entries = sorted(((tj, m) for tj, m in mmap.items() if m), reverse=True)
    return MultiplicityTable(s, k, tuple(entries))


def _multiplicities_from_gaussian(s: SpinLabel, k: int, c: list) -> MultiplicityTable:
    """The table from c[e], the q^e coefficients of the Gaussian binomial.

    c[e] counts the k-subsets of the n weights whose sorted index sum
    exceeds its least value by e: the weight 2m = two_s_max - 2e of the wedge
    character.  So m_j = c[e] - c[e - 1] at e = (two_s_max - 2j) / 2.
    """
    tsm = two_s_max(s, k)
    mmap = {tsm - 2 * e: c[e] - (c[e - 1] if e else 0) for e in range(tsm // 2 + 1)}
    return _table_from_map(s, k, mmap)


def multiplicities_genfun(s: SpinLabel, k: int) -> MultiplicityTable:
    """Multiplicities from the closed form of the Gaussian binomial.

    With n = 2s+1 and kk = min(k, n-k) (the k-th and (n-k)-th wedge powers
    are equivalent representations), the wedge character, read from its
    top weight down in steps of 2, is the Gaussian binomial

        [n choose kk]_q = prod_{r=1}^{kk} (1 - q^{n-kk+r}) / (1 - q^r),

    built one factor at a time on a list of exact Python ints, never longer
    than L + kk with L = kk(n-kk) + 1: multiplying by (1 - q^a) is one
    shifted subtract, dividing by (1 - q^r) one running sum with stride r.
    The running sum is the power series of the quotient; it is exact only
    if the r coefficients past the quotient's degree vanish, and an
    ArithmeticError is raised if they do not.  Each factor costs O(L), the
    table O(kk L), and no floating point is involved.
    """
    if not 1 <= k <= s.dim:
        raise ValueError("k out of range")
    n = s.dim
    kk = min(k, n - k)
    c = [1]
    for r in range(1, kk + 1):
        a = n - kk + r
        c += [0] * a
        c[a:] = [x - y for x, y in zip(c[a:], c)]  # times (1 - q^a)
        for rho in range(r):  # over (1 - q^r): c[t] += c[t - r], left to right
            c[rho::r] = accumulate(c[rho::r])
        if any(c[-r:]):
            raise ArithmeticError("inexact polynomial division")
        del c[-r:]
    return _multiplicities_from_gaussian(s, k, c)


def schubert_count(s: SpinLabel, k: int) -> int:
    """Number of (s, k) planes sharing a generic principal constellation.

    The degree of the Grassmannian Gr(k, 2s+1) in its Pluecker embedding:
    (k k')! prod_{i=1}^{k-1} i! / prod_{i=k'}^{2s} i!, with k' = 2s+1-k.
    """
    if not 1 <= k <= s.dim:
        raise ValueError("k out of range")
    k_perp = s.dim - k
    num = math.factorial(k * k_perp)
    for i in range(1, k):
        num *= math.factorial(i)
    den = 1
    for i in range(k_perp, s.two_s + 1):
        den *= math.factorial(i)
    return num // den
