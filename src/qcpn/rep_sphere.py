"""Truncated Fock-type representations pi_{n,k} and the Fredholm pairing.

The representation pi_{n,k} of the level-n sphere algebra acts on the
subspace V^n_k of l^2(N^n) spanned by |m_1..m_n> with m_1 <= ... <= m_k and
m_{k+1} > ... > m_n >= 0; operators vanish on the complement.  Everything is
assembled on a finite box m_i <= M and the K-homology pairing
<[F_k], [P_{-N}]> is computed as the trace of the alternating sum of
pullback representations, which converges geometrically in M.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np
from scipy import sparse

from .ncpoly import NCPoly, Presentation, letter_index, letter_starred, normalize
from .qcoeff import QScalar

FockIndex = Tuple[int, ...]


@dataclass
class RepSpec:
    """Parameters of a truncated pi_{n,k} representation."""

    n: int
    k: int
    M: int
    q0: float

    def __post_init__(self):
        if not 0 <= self.k <= self.n:
            raise ValueError("need 0 <= k <= n")
        if self.M < 1:
            raise ValueError("truncation M must be >= 1")
        if not 0.0 < self.q0 < 1.0:
            raise ValueError("q0 must lie in (0,1) for the Fock representations")


def fock_states(spec: RepSpec) -> List[FockIndex]:
    """Basis of V^n_k inside the box {0..M}^n, in lexicographic order."""
    out = []
    for m in itertools.product(range(spec.M + 1), repeat=spec.n):
        if _in_vnk(m, spec.k):
            out.append(m)
    return out


def _in_vnk(m: FockIndex, k: int) -> bool:
    for i in range(k - 1):
        if m[i] > m[i + 1]:
            return False
    for i in range(k, len(m) - 1):
        if m[i] <= m[i + 1]:
            return False
    return True


class FockRep:
    """Sparse-matrix realization of pi_{n,k} on the truncated V^n_k basis.

    With full_box=True the operators are embedded in the whole box
    {0..M}^n (still vanishing off V^n_k), so representations with different
    k can be composed.
    """

    def __init__(self, spec: RepSpec, full_box: bool = False):
        self.spec = spec
        if full_box:
            self.states = [m for m in itertools.product(range(spec.M + 1), repeat=spec.n)]
        else:
            self.states = fock_states(spec)
        self.index: Dict[FockIndex, int] = {m: i for i, m in enumerate(self.states)}
        self._gen_cache: Dict[Tuple[int, bool], sparse.csr_matrix] = {}

    @property
    def dimension(self) -> int:
        return len(self.states)

    def generator(self, i: int, starred: bool) -> sparse.csr_matrix:
        key = (i, starred)
        if key in self._gen_cache:
            return self._gen_cache[key]
        mat = self._build_generator(i)
        if starred:
            mat = mat.conjugate().transpose().tocsr()
        self._gen_cache[key] = mat
        return mat

    def _build_generator(self, i: int) -> sparse.csr_matrix:
        n, k, q0 = self.spec.n, self.spec.k, self.spec.q0
        dim = self.dimension
        rows, cols, vals = [], [], []
        if k == 0:
            # z_0 is the projection onto strictly decreasing strings; z_{>0} = 0
            if i == 0:
                for idx, m in enumerate(self.states):
                    if not _in_vnk(m, 0):
                        continue
                    rows.append(idx)
                    cols.append(idx)
                    vals.append(1.0)
            return sparse.csr_matrix((vals, (rows, cols)), shape=(dim, dim))
        if i > k:
            return sparse.csr_matrix((dim, dim))
        if i == k:
            for idx, m in enumerate(self.states):
                if not _in_vnk(m, k):
                    continue
                rows.append(idx)
                cols.append(idx)
                vals.append(q0 ** m[k - 1])
            return sparse.csr_matrix((vals, (rows, cols)), shape=(dim, dim))
        # 0 <= i <= k-1: shift m_{i+1}..m_k up by one
        for idx, m in enumerate(self.states):
            if not _in_vnk(m, k):
                continue
            mi = m[i - 1] if i >= 1 else 0
            target = tuple(
                mj + (1 if i + 1 <= pos + 1 <= k else 0) for pos, mj in enumerate(m)
            )
            tgt = self.index.get(target)
            if tgt is None:
                continue  # leaves the box; harmless outside the interior window
            amp = q0 ** mi * np.sqrt(1.0 - q0 ** (2 * (m[i] - mi + 1)))
            if amp != 0.0:
                rows.append(tgt)
                cols.append(idx)
                vals.append(amp)
        return sparse.csr_matrix((vals, (rows, cols)), shape=(dim, dim))

    def poly(self, a: NCPoly) -> sparse.csr_matrix:
        """Represent a normalized NCPoly (multiplicative on each word)."""
        dim = self.dimension
        out = sparse.csr_matrix((dim, dim))
        for w, c in a.terms.items():
            mat = sparse.identity(dim, format="csr")
            for g in w:
                mat = mat @ self.generator(letter_index(g), letter_starred(g))
            out = out + c.evalf_stable(self.spec.q0) * mat
        return out

    def interior_window(self, margin: int) -> np.ndarray:
        """Indices of states at distance >= margin from the truncation wall."""
        M = self.spec.M
        return np.array(
            [i for i, m in enumerate(self.states) if all(mj <= M - margin for mj in m)],
            dtype=int,
        )


def rep_generator(spec: RepSpec, i: int, starred: bool) -> sparse.csr_matrix:
    return FockRep(spec).generator(i, starred)


def rep_poly(a: NCPoly, spec: RepSpec, rep: FockRep | None = None) -> sparse.csr_matrix:
    return (rep or FockRep(spec)).poly(a)


def pullback(a: NCPoly, k: int, n_from: int) -> NCPoly:
    """Morphism killing z_{k+1}..z_n, renormalized at level k (k >= 1)."""
    if k >= n_from:
        return a
    if k < 1:
        raise ValueError("pullback target level must be >= 1; use character() for k = 0")
    Pk = Presentation(k)
    kept = {
        w: c
        for w, c in a.terms.items()
        if all(letter_index(g) <= k for g in w)
    }
    return normalize(NCPoly(kept), Pk)


def character(a: NCPoly) -> QScalar:
    """The unique character of the algebra: z_0 -> 1, z_i -> 0 for i > 0."""
    from .qcoeff import ZERO

    out = ZERO
    for w, c in a.terms.items():
        if all(letter_index(g) == 0 for g in w):
            out = out + c
    return out


@dataclass
class PairingResult:
    value: float
    target: int
    tail_estimate: float

    @property
    def error(self) -> float:
        return abs(self.value - self.target)


def fredholm_pairing(
    N: int,
    k: int,
    n: int,
    M: int,
    q0: float,
    P: Presentation | None = None,
) -> PairingResult:
    """Pairing <[F_k], [P_{-N}]> = Tr((pi_+^{(k)} - pi_-^{(k)})(Tr P_{-N})).

    N >= 0 indexes the line-bundle projection P_{-N}; the target value is the
    binomial coefficient C(N, k).  Tr P_{-N} is kept in the factored form
    sum_I u_I m_I m_I^*: each summand represents as pi(m_I) pi(m_I)^dag whose
    diagonal is a sum of squared amplitudes, so every contribution is
    nonnegative and the truncated trace has no cancellation ahead of the
    even/odd alternation.  (Normalizing first loses ~q^{-deg^2} digits.)

    The series converges like q0^{2M}: the default q0 = 0.5 with M = 40 is
    far below every stated tolerance, but q0 near 1 needs a much larger box
    (e.g. q0 = 0.9 wants M ~ 100 for 1e-8).  tail_estimate forward-projects
    the geometric tail from the M-4 comparison.
    """
    if N < 0:
        raise ValueError("pairing is stated for P_{-N} with N >= 0")
    from .projections import psi

    av = psi(-N, n)
    terms: List[Tuple[float, Tuple[int, ...]]] = []
    for m, u in zip(av.monomials, av.weights):
        (w, c), = m.terms.items()
        if any(letter_index(g) > k for g in w):
            continue
        terms.append((u.evalf_stable(q0) * c.evalf_stable(q0) ** 2, w))

    if k == 0:
        # character representation a -> a (+) 0: value sum of surviving weights
        val = sum(wt for wt, _ in terms)
        return PairingResult(val, _binom(N, k), 0.0)

    deg = N

    def boxed_trace(box: int) -> float:
        total = 0.0
        for j in range(k + 1):
            spec = RepSpec(k, j, box + deg, q0)
            rep = FockRep(spec)
            gens = [rep.generator(i, False).tocsc() for i in range(k + 1)]
            contrib = 0.0
            for wt, w in terms:
                mat = None
                for g in reversed(w):
                    gm = gens[letter_index(g)]
                    mat = gm if mat is None else gm @ mat
                if mat is None:
                    mat = sparse.identity(rep.dimension, format="csc")
                # diagonal of mat mat^dag restricted to the reporting box
                keep = np.array(
                    [all(mj <= box for mj in st) for st in rep.states], dtype=bool
                )
                rows, data = mat.tocoo().row, mat.tocoo().data
                mask = keep[rows]
                contrib += wt * float(np.sum(data[mask] ** 2))
            total += contrib if j % 2 == 0 else -contrib
        return total

    val = boxed_trace(M)
    val_small = boxed_trace(max(M - 4, 4))
    # forward-project the geometric tail beyond M from the last 4-step gain
    r = q0 ** 8
    tail = abs(val - val_small) * r / (1.0 - r)
    return PairingResult(val, _binom(N, k), tail)


def _binom(N: int, k: int) -> int:
    if k > N:
        return 0
    import math

    return math.comb(N, k)
