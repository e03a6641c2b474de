"""Truncated Fock-type representations pi_{n,k} and the Fredholm pairing.

The representation pi_{n,k} of the level-n sphere algebra acts on the
subspace V^n_k of l^2(N^n) spanned by |m_1..m_n> with m_1 <= ... <= m_k and
m_{k+1} > ... > m_n >= 0; operators vanish on the complement.  Everything is
assembled on a finite box m_i <= M and the K-homology pairing
<[F_k], [P_{-N}]> is computed as the trace of the alternating sum of
pullback representations, which converges geometrically in M.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
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


def _box_labels(spec: RepSpec) -> np.ndarray:
    """All labels of the box {0..M}^n as an (n, (M+1)^n) array, in lexicographic order."""
    return np.indices((spec.M + 1,) * spec.n).reshape(spec.n, -1)


def _vnk_mask(m: np.ndarray, k: int) -> np.ndarray:
    """Which label columns lie in V^n_k: m_1 <= .. <= m_k and m_{k+1} > .. > m_n."""
    return np.all(np.diff(m[:k], axis=0) >= 0, axis=0) & np.all(np.diff(m[k:], axis=0) < 0, axis=0)


def _tuples(m: np.ndarray) -> List[FockIndex]:
    return list(zip(*m.tolist()))


def fock_states(spec: RepSpec) -> List[FockIndex]:
    """Basis of V^n_k inside the box {0..M}^n, in lexicographic order."""
    m = _box_labels(spec)
    return _tuples(m[:, _vnk_mask(m, spec.k)])


class FockRep:
    """Sparse-matrix realization of pi_{n,k} on the truncated V^n_k basis.

    With full_box=True the operators are embedded in the whole box
    {0..M}^n (still vanishing off V^n_k), so representations with different
    k can be composed.
    """

    def __init__(self, spec: RepSpec, full_box: bool = False):
        self.spec = spec
        m = _box_labels(spec)
        in_vnk = _vnk_mask(m, spec.k)
        # labels (n, dimension) of the basis, and which of them lie in V^n_k
        self.labels = m if full_box else m[:, in_vnk]
        self.in_vnk = in_vnk if full_box else np.ones(self.labels.shape[1], dtype=bool)
        self._gen_cache: Dict[Tuple[int, bool], sparse.csr_matrix] = {}

    @cached_property
    def states(self) -> List[FockIndex]:
        return _tuples(self.labels)

    @property
    def dimension(self) -> int:
        return self.labels.shape[1]

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
        n, k, M, q0 = self.spec.n, self.spec.k, self.spec.M, self.spec.q0
        dim = self.dimension
        src = np.flatnonzero(self.in_vnk)
        if k == 0:
            # z_0 is the projection onto strictly decreasing strings; z_{>0} = 0
            diag = src if i == 0 else src[:0]
            return sparse.csr_matrix((np.ones(len(diag)), (diag, diag)), shape=(dim, dim))
        if i > k:
            return sparse.csr_matrix((dim, dim))
        # the scalar powers q0 ** e, so amplitudes match the scalar formulas bit for bit
        qpow = np.array([q0 ** e for e in range(2 * M + 3)])
        m = self.labels[:, src]
        if i == k:
            return sparse.csr_matrix((qpow[m[k - 1]], (src, src)), shape=(dim, dim))
        # 0 <= i <= k-1: shift m_{i+1}..m_k up by one
        mi = m[i - 1] if i >= 1 else np.zeros_like(m[i])
        amp = qpow[mi] * np.sqrt(1.0 - qpow[2 * (m[i] - mi + 1)])
        pos = np.arange(n)[:, None]
        target = m + ((pos >= i) & (pos < k))
        # leaving the box is harmless outside the interior window
        keep = np.all(target <= M, axis=0) & (amp != 0.0)
        # a shifted V^n_k label stays in V^n_k, so it is a basis state; the
        # basis is in lexicographic order, so its flat box indices ascend
        shape = (M + 1,) * n
        tgt = np.searchsorted(np.ravel_multi_index(self.labels, shape), np.ravel_multi_index(target[:, keep], shape))
        return sparse.csr_matrix((amp[keep], (tgt, src[keep])), shape=(dim, dim))

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
        return np.flatnonzero(np.all(self.labels <= self.spec.M - margin, axis=0))


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
            # diagonal of mat mat^dag is summed over the reporting box only
            keep = np.all(rep.labels <= box, axis=0)
            contrib = 0.0
            for wt, w in terms:
                mat = None
                for g in reversed(w):
                    gm = gens[letter_index(g)]
                    mat = gm if mat is None else gm @ mat
                if mat is None:
                    mat = sparse.identity(rep.dimension, format="csc")
                coo = mat.tocoo()
                contrib += wt * float(np.sum(coo.data[keep[coo.row]] ** 2))
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
