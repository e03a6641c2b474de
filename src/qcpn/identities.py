"""Closed-form q-identity suite: Laplacian spectra, Chern conversions.

Everything here is exact: eigenvalue formulas are QScalar identities and
the Chern-character / Fredholm-pairing conversions are rational matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import List, Sequence

from .qcoeff import ONE, QScalar, qint, qpow


def laplacian_eig(k: int, N: int) -> QScalar:
    """Eigenvalue lambda_{k,N} of the monopole Laplacian on CP^2_q.

    (1 + q^{-3})[k][k+N+2] + [2][N] for N >= 0, and
    (1 + q^{-3})[k+2][k-N] + [2][N] for N < 0.
    """
    if k < 0:
        raise ValueError("k must be a nonnegative integer")
    pref = ONE + qpow(-3)
    if N >= 0:
        main = qint(k) * qint(k + N + 2)
    else:
        main = qint(k + 2) * qint(k - N)
    return pref * main + qint(2) * qint(N)


def laplacian_gap(k: int, N: int) -> QScalar:
    """lambda_{k,N} - lambda_{k,-N} (equals (1 - q^{-3})[2][N] for N >= 0)."""
    return laplacian_eig(k, N) - laplacian_eig(k, -N)


def monopole_curvature(N: int) -> QScalar:
    """Curvature coefficient of the charge-N monopole connection: q^{N-1}[N]."""
    return qpow(N - 1) * qint(N)


def casimir_value(d: int) -> QScalar:
    """Casimir eigenvalue [(d+1)/2]^2 on the (d+1)-dimensional irrep."""
    if d < 0:
        raise ValueError("representation label must be nonnegative")
    return qint(Fraction(d + 1, 2)) ** 2


@lru_cache(maxsize=None)
def stirling2(k: int, j: int) -> int:
    """Stirling number of the second kind {k, j} by recurrence."""
    if j < 0 or j > k:
        return 0
    if k == j:
        return 1
    if j == 0:
        return 0
    return j * stirling2(k - 1, j) + stirling2(k - 1, j - 1)


@dataclass(frozen=True)
class ChernVector:
    """Rational vector in the phi (Fredholm) or Ch (Chern character) basis."""

    components: tuple
    basis: str  # "phi" | "ch"

    def __post_init__(self):
        if self.basis not in ("phi", "ch"):
            raise ValueError("basis must be 'phi' or 'ch'")
        object.__setattr__(self, "components", tuple(Fraction(c) for c in self.components))


@lru_cache(maxsize=None)
def _conversion_matrix(n: int) -> tuple:
    """M with Ch_k = sum_j M[k][j] phi_j; M[k][j] = {k,j} j!/k!.  Cached per n, as tuples."""
    return tuple(
        tuple(
            Fraction(stirling2(k, j) * math.factorial(j), math.factorial(k))
            for j in range(n + 1)
        )
        for k in range(n + 1)
    )


@lru_cache(maxsize=None)
def _inverse_conversion_matrix(n: int) -> tuple:
    """The inverse of _conversion_matrix(n), cached per n, as tuples."""
    return tuple(map(tuple, _invert_lower_triangular(_conversion_matrix(n))))


def _invert_lower_triangular(M: Sequence[Sequence[Fraction]]) -> List[List[Fraction]]:
    n = len(M)
    inv = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        inv[i][i] = 1 / M[i][i]
        for j in range(i - 1, -1, -1):
            s = sum(M[i][l] * inv[l][j] for l in range(j, i))
            inv[i][j] = -s / M[i][i]
    return inv


def chern_from_phi(v: ChernVector) -> ChernVector:
    if v.basis != "phi":
        raise ValueError("expected a phi-basis vector")
    M = _conversion_matrix(len(v.components) - 1)
    out = tuple(
        sum(M[k][j] * v.components[j] for j in range(len(v.components)))
        for k in range(len(v.components))
    )
    return ChernVector(out, "ch")


def phi_from_chern(v: ChernVector) -> ChernVector:
    if v.basis != "ch":
        raise ValueError("expected a ch-basis vector")
    M = _inverse_conversion_matrix(len(v.components) - 1)
    out = tuple(
        sum(M[k][j] * v.components[j] for j in range(len(v.components)))
        for k in range(len(v.components))
    )
    return ChernVector(out, "phi")


def line_bundle_phi(N: int, n: int) -> ChernVector:
    """phi_j(L_{-N}) = C(N, j): the Fredholm pairings of the line bundle."""
    return ChernVector(tuple(Fraction(math.comb(N, j)) for j in range(n + 1)), "phi")


def pairing_table(n: int, Nmax: int) -> List[List[int]]:
    """Integer matrix with entry (N, k) = C(N, k), 0 <= N <= Nmax, 0 <= k <= n."""
    return [[math.comb(N, k) for k in range(n + 1)] for N in range(Nmax + 1)]
