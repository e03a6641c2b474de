"""Fock-type representations pi_{n,k}: truncated operators, the Fredholm pairing, and exact images in pi_{n,n}.

The representation pi_{n,k} of the level-n sphere algebra acts on the
subspace V^n_k of l^2(N^n) spanned by |m_1..m_n> with m_1 <= ... <= m_k and
m_{k+1} > ... > m_n >= 0; operators vanish on the complement, so they are
assembled on the V^n_k states of a finite box m_i <= M alone.  The K-homology
pairing <[F_k], [P_{-N}]> is computed as the trace of the alternating sum of
pullback representations, which converges geometrically in M: for k >= 2
the states of the k-dimensional cone past the box weigh in, so the tail
behaves like M^{k-1} q0^{2M}.

The exact layer represents an element by its action in pi_{n,n} (Hong and
Szymanski, CMP 232 (2002)), times a torus phase per charge, with no
truncation and no float.  Label the basis of V^n_n by d_j = m_{j+1} - m_j
>= 0 (j < n, m_0 = 0) and write Y_j = q^{d_j}.  z_j (j < n) raises d_j by
one with amplitude q^{m_j} sqrt(1 - q^{2(d_j+1)}), z_j^* lowers it with the
adjoint amplitude, and z_n, z_n^* multiply by q^{m_n}; q^{m_j} = Y_0...Y_{j-1}.
A root belongs to one edge (d_j, d_j + 1), so every path from d to d + delta
carries the same root factor S(d, d + delta), one root per edge between the
two.  Divide it out and a word w of charge c (c_j = #z_j - #z_j^*, delta =
c_0..c_{n-1}) acts as e_d -> S(d, d + delta) R_w(Y) e_{d+delta}, with R_w a
polynomial in Y whose coefficients are Laurent polynomials in s = q^{1/2}.

The image of an element is ``{charge: {Y-exponent tuple: Laurent}}``, the
sum of c_w R_w over its words.  A product composes: R_{AB}(Y) =
R_A(q^{delta_B} Y) R_B(Y), times 1 - q^{2t} Y_j^2 for each edge t of
coordinate j that delta_B and then delta_A both cross (in opposite
directions, so its root is squared).  The identity holds on every label,
the labels a step leaves included, where a crossed edge (-1, 0) gives the
factor 0.  Two elements act alike in pi_{n,n} at every torus phase iff
their images are equal, because the points Y = q^d are Zariski-dense;
``projections.is_projection`` states why the images decide equality in the
algebra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import add
from typing import Callable, Dict, Iterable, List, Tuple

import numpy as np
from scipy import sparse

from .ncpoly import NCPoly, Presentation, Word, letter_index, letter_starred, lincomb, normalize
from .qcoeff import ZERO, Laurent, QScalar, _lmac, _lmul

FockIndex = Tuple[int, ...]
Charge = Tuple[int, ...]  # (#z_j - #z_j^*) for j = 0..n
Amplitude = Dict[Tuple[int, ...], Laurent]  # reduced amplitude: Y-exponent tuple -> Laurent coefficient
Image = Dict[Charge, Amplitude]


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


def _cone_labels(spec: RepSpec) -> np.ndarray:
    """Labels of V^n_k (m_1 <= .. <= m_k, m_{k+1} > .. > m_n) in the box {0..M}^n, lexicographic, as (n, dimension)."""
    m = np.indices((spec.M + 1,) * spec.n).reshape(spec.n, -1)
    k = spec.k
    return m[:, np.all(np.diff(m[:k], axis=0) >= 0, axis=0) & np.all(np.diff(m[k:], axis=0) < 0, axis=0)]


def fock_states(spec: RepSpec) -> List[FockIndex]:
    """Basis of V^n_k inside the box {0..M}^n, in lexicographic order."""
    return list(zip(*_cone_labels(spec).tolist()))


class FockRep:
    """Sparse-matrix realization of pi_{n,k} on the truncated V^n_k basis."""

    def __init__(self, spec: RepSpec):
        self.spec = spec
        self.labels = _cone_labels(spec)  # (n, dimension)
        # flat indices of the labels in the box {0..M}^n; they ascend, as the labels are in lexicographic order
        self._flat = np.ravel_multi_index(self.labels, (spec.M + 1,) * spec.n)
        # q0 ** e for every exponent e <= 2M + 2 that ``shift`` reads (none at k = 0): the scalar
        # powers, so amplitudes match the scalar formulas bit for bit
        self._qpow = np.array([spec.q0 ** e for e in range(2 * spec.M + 3 if spec.k else 0)])
        self._gen_cache: Dict[Tuple[int, bool], sparse.csr_matrix] = {}

    @cached_property
    def states(self) -> List[FockIndex]:
        return list(zip(*self.labels.tolist()))

    @property
    def dimension(self) -> int:
        return self.labels.shape[1]

    def generator(self, i: int, starred: bool) -> sparse.csr_matrix:
        key = (i, starred)
        if key in self._gen_cache:
            return self._gen_cache[key]
        tgt, amp = self.shift(i)
        src = np.flatnonzero(tgt >= 0)
        mat = sparse.csr_matrix((amp[src], (tgt[src], src)), shape=(self.dimension,) * 2)
        if starred:
            mat = mat.conjugate().transpose().tocsr()
        self._gen_cache[key] = mat
        return mat

    def shift(self, i: int) -> Tuple[np.ndarray, np.ndarray]:
        """pi(z_i) as a partial injective weighted shift: z_i e_s = amp[s] e_{tgt[s]}.

        tgt[s] = -1 and amp[s] = 0.0 where z_i kills e_s or moves it out of
        the box.  The diagonal letters (z_0 at k = 0, z_k) keep every V^n_k
        state even where the amplitude underflows to 0.0; the shifting letters
        drop amplitude 0.0.
        """
        n, k, M = self.spec.n, self.spec.k, self.spec.M
        tgt = np.full(self.dimension, -1)
        amp = np.zeros(self.dimension)
        if i > k:  # z_i = 0 for i > k
            return tgt, amp
        qpow, m = self._qpow, self.labels[:k]
        if i == k:
            # z_0 at k = 0 is the projection onto strictly decreasing strings; z_k multiplies by q0^{m_k}
            amp[:] = 1.0 if k == 0 else qpow[m[k - 1]]
            return np.arange(self.dimension), amp
        # 0 <= i <= k-1: shift m_{i+1}..m_k up by one; leaving the box is
        # harmless outside the interior window
        mi = m[i - 1] if i >= 1 else np.zeros_like(m[i])
        a = qpow[mi] * np.sqrt(1.0 - qpow[2 * (m[i] - mi + 1)])
        keep = np.all(m[i:] < M, axis=0) & (a != 0.0)
        # a shifted V^n_k label stays in V^n_k, so it is a basis state
        step = sum((M + 1) ** (n - 1 - p) for p in range(i, k))
        tgt[keep] = np.searchsorted(self._flat, self._flat[keep] + step)
        amp[keep] = a[keep]
        return tgt, amp

    def poly(self, a: NCPoly) -> sparse.csr_matrix:
        """Represent a normalized NCPoly (multiplicative on each word)."""
        return word_operator(
            a, lambda g: self.generator(letter_index(g), letter_starred(g)), self.dimension, self.spec.q0
        )

    def interior_window(self, margin: int) -> np.ndarray:
        """Indices of states at distance >= margin from the truncation wall."""
        return np.flatnonzero(np.all(self.labels <= self.spec.M - margin, axis=0))


def word_operator(
    a: NCPoly, letter_matrix: Callable[[int], sparse.csr_matrix], dim: int, q0: float
) -> sparse.csr_matrix:
    """Operator of a at q = q0: each word is the product of its letters' dim x dim matrices."""
    out = sparse.csr_matrix((dim, dim))
    for w, c in a.terms.items():
        mat = sparse.identity(dim, format="csr")
        for g in w:
            mat = mat @ letter_matrix(g)
        out = out + c.evalf_stable(q0) * mat
    return out


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


def _trace_terms(N: int, n: int, q0: float) -> List[Tuple[float, Word]]:
    """(u_I c_I^2 at q0, word w_I) for each summand u_I m_I m_I^* of Tr P_{-N}, where m_I = c_I w_I."""
    from .projections import psi

    av = psi(-N, n)
    terms = []
    for m, u in zip(av.monomials, av.weights):
        (w, c), = m.terms.items()
        terms.append((u.evalf_stable(q0) * c.evalf_stable(q0) ** 2, w))
    return terms


# The most labels (M+1)^k of a box {0..M}^k that the pairing builds a representation on.  It admits
# M = 199 at k = 3 and M = 52 at k = 4; each such sweep over N = 0..n runs in a 2 GB address space.
MAX_BOX_LABELS = 8_000_000


def _check_pairing(N: int, k: int, n: int, M: int, q0: float) -> None:
    if N < 0:
        raise ValueError("pairing is stated for P_{-N} with N >= 0")
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n for F_k, got k={k} with n={n}")
    if not 0.0 < q0 < 1.0:
        raise ValueError("q0 must lie in (0,1) for the Fock representations")
    if M < 5:
        raise ValueError("truncation M must be >= 5: the tail estimate compares the boxes M and M - 4")
    if (M + 1) ** k > MAX_BOX_LABELS:
        raise ValueError(f"the box {{0..M}}^k has (M+1)^k = {(M + 1) ** k} labels at M = {M}, k = {k}, "
                         f"more than the limit {MAX_BOX_LABELS}")


def fredholm_pairing(N: int, k: int, n: int, M: int, q0: float) -> PairingResult:
    """Pairing <[F_k], [P_{-N}]>: one record of ``fredholm_pairings``."""
    return fredholm_pairings([N], [k], n, M, q0)[N, k]


def fredholm_pairings(
    Ns: Iterable[int], ks: Iterable[int], n: int, M: int, q0: float
) -> Dict[Tuple[int, int], PairingResult]:
    """Pairings <[F_k], [P_{-N}]> = Tr((pi_+^{(k)} - pi_-^{(k)})(Tr P_{-N})) for every N in Ns and k in ks.

    N >= 0 indexes the line-bundle projection P_{-N}; the target value is the
    binomial coefficient C(N, k).  Tr P_{-N} is kept in the factored form
    sum_I u_I m_I m_I^*: each summand represents as pi(m_I) pi(m_I)^dag whose
    diagonal is a sum of squared amplitudes, so every contribution is
    nonnegative and the truncated trace has no cancellation ahead of the
    even/odd alternation.  (Normalizing first loses ~q^{-deg^2} digits.)

    Each letter is a weighted shift (FockRep.shift), so a word m_I maps a
    state to one state: its amplitude is composed right to left on index
    arrays, and the trace over a box sums the squares of the paths that end
    in it.  Letters only raise labels, so a path that ends in the box M
    never leaves it: one representation pi_{k,j} on the box M serves every
    N, for the box M and the box M - 4 alike.  Each is built once per call
    and freed after its j; Psi_{-N} is built once per N.

    The series converges like q0^{2M} (times M^{k-1} for k >= 2): the
    default q0 = 0.5 with M = 40 is far below every stated tolerance, but
    q0 near 1 needs a much larger box (e.g. q0 = 0.9 wants M ~ 100 for
    1e-8).  tail_estimate is a heuristic, not a bound: it forward-projects a
    pure geometric tail from the M - 4 comparison, and for k >= 2 it runs
    low by up to 15x.  A box of more than MAX_BOX_LABELS labels is refused
    before anything is built.
    """
    Ns, ks = list(Ns), list(ks)
    for N in Ns:
        for k in ks:
            _check_pairing(N, k, n, M, q0)
    all_terms = {N: _trace_terms(N, n, q0) for N in dict.fromkeys(Ns)}

    out = {}
    for k in dict.fromkeys(ks):
        terms = {N: [(wt, w) for wt, w in t if all(letter_index(g) <= k for g in w)] for N, t in all_terms.items()}
        if k == 0:
            # character representation a -> a (+) 0: value sum of surviving weights
            out.update({(N, k): PairingResult(sum(wt for wt, _ in t), math.comb(N, k), 0.0) for N, t in terms.items()})
            continue
        totals = {N: [0.0, 0.0] for N in terms}
        for j in range(k + 1):
            rep = FockRep(RepSpec(k, j, M, q0))
            # one sentinel state past the basis, mapped to itself with amplitude 0, holds the dead paths
            shifts = [[np.append(x, dead) for x, dead in zip(rep.shift(i), (-1, 0.0))] for i in range(k + 1)]
            # every live path ends in the box M; keep_small marks the box M - 4
            keep_small = np.append(np.all(rep.labels <= M - 4, axis=0), False)
            for N, t in terms.items():
                contrib = [0.0, 0.0]
                for wt, w in t:
                    idx, amp = np.arange(rep.dimension), np.ones(rep.dimension)
                    for g in reversed(w):
                        tgt, a = shifts[letter_index(g)]
                        amp = a[idx] * amp
                        idx = tgt[idx]
                    # the entries of the generators' sparse product: a lone letter keeps its stored zeros,
                    # a product of two or more drops exact zeros
                    live = idx >= 0 if len(w) < 2 else amp != 0.0
                    contrib[0] += wt * float(np.sum(amp[live] ** 2))
                    contrib[1] += wt * float(np.sum(amp[live & keep_small[idx]] ** 2))
                for b in range(2):
                    totals[N][b] += contrib[b] if j % 2 == 0 else -contrib[b]
            del rep, shifts, keep_small
        for N, (val, val_small) in totals.items():
            # forward-project the geometric tail beyond M from the last 4-step gain
            r = q0 ** 8
            out[N, k] = PairingResult(val, math.comb(N, k), abs(val - val_small) * r / (1.0 - r))
    return out


# ---------------------------------------------------------------------------
# exact images in pi_{n,n}
# ---------------------------------------------------------------------------


class NotLaurentError(ArithmeticError):
    """A coefficient with a denominator in s: exact Fock images hold Laurent coefficients only."""


def _laurent(c: QScalar) -> Laurent:
    if not c.is_laurent():
        raise NotLaurentError(f"the coefficient {c} is not a Laurent polynomial in s")
    return c.num


def _crossings(b: int, a: int) -> range:
    """The edges t (edge t joins d_j + t - 1 and d_j + t) crossed both by a step b from d_j and by a step a after it."""
    return range(max(min(0, b), min(b, b + a)) + 1, min(max(0, b), max(b, b + a)) + 1)


def _times_edge(amp: Amplitude, j: int, t: int) -> Amplitude:
    """amp * (1 - q^{2t} Y_j^2), in a new map; amp is not mutated."""
    out = {y: dict(c) for y, c in amp.items()}
    for y, c in amp.items():
        y2 = y[:j] + (y[j] + 2,) + y[j + 1:]
        if not _lmac(out.setdefault(y2, {}), c, {4 * t: -1}):
            del out[y2]
    return out


def _word_image(w: Word, n: int) -> Tuple[Charge, Amplitude]:
    """Charge and reduced amplitude of a word, its letters composed from the right."""
    charge, y, e, edges = [0] * (n + 1), [0] * n, 0, []
    for g in reversed(w):
        j, step = g >> 1, -1 if g & 1 else 1
        if not 0 <= j <= n:
            raise ValueError(f"generator index {j} out of range for n={n}")
        # the letter's monomial Y_0...Y_{j-1}, read at the label the letters to its right reach
        e += 2 * sum(charge[:j])
        for i in range(j):
            y[i] += 1
        if j < n and charge[j] * step < 0:  # only opposite steps cross an edge twice
            edges.extend((j, t) for t in _crossings(charge[j], step))
        charge[j] += step
    amp = {tuple(y): {e: 1}}
    for j, t in edges:
        amp = _times_edge(amp, j, t)
    return tuple(charge), amp


def fock_images(elems: Iterable[NCPoly], n: int) -> List[Image]:
    """Exact images of the elements in pi_{n,n} (module docstring), in order; each distinct word is imaged once.

    One word -> (charge, amplitude) table serves every element and dies with
    the call.  Its amplitudes are shared read-only: the images are summed
    into new maps, and neither the elements nor the table are mutated.  A
    coefficient with a denominator raises NotLaurentError.
    """
    table: Dict[Word, Tuple[Charge, Amplitude]] = {}
    out: List[Image] = []
    for a in elems:
        img: Image = {}
        for w, c in a.terms.items():
            lc = _laurent(c)
            if w not in table:
                table[w] = _word_image(w, n)
            charge, amp = table[w]
            acc = img.setdefault(charge, {})
            for y, lau in amp.items():
                if not _lmac(acc.setdefault(y, {}), lau, lc):
                    del acc[y]
        out.append({ch: amp for ch, amp in img.items() if amp})
    return out


def fock_image(a: NCPoly, n: int) -> Image:
    """Exact image of a in pi_{n,n}: ``fock_images`` of the one element, so each distinct word of a is imaged once."""
    return fock_images([a], n)[0]


def scale_image(img: Image, c: QScalar) -> Image:
    """The image of c * a from the image of a (c Laurent)."""
    lc = _laurent(c)
    return {ch: {y: _lmul(lau, lc) for y, lau in amp.items()} for ch, amp in img.items()} if lc else {}


def compose_sum(pairs: Iterable[Tuple[Image, Image]]) -> Image:
    """Image of sum_l a_l b_l from the (image of a_l, image of b_l) pairs; nothing is rewritten or re-imaged.

    R_{ab}(Y) = R_a(q^{delta_b} Y) R_b(Y) times 1 - q^{2t} Y_j^2 for each
    edge t of coordinate j that delta_b and delta_a cross in opposite
    directions (none where they have one sign); ``qcoeff._lmac`` does every
    coefficient product.  The input images are not mutated, so they may
    share amplitudes, as the images of one ``fock_images`` call do: a
    decision images each distinct word once and composes those images.
    """
    out: Image = {}
    for A, B in pairs:
        for ca, ra in A.items():
            for cb, rb in B.items():
                acc = out.setdefault(tuple(map(add, ca, cb)), {})
                for j in range(len(ca) - 1):
                    if cb[j] * ca[j] < 0:
                        for t in _crossings(cb[j], ca[j]):
                            rb = _times_edge(rb, j, t)
                for ya, la in ra.items():
                    sh = 2 * sum(map(int.__mul__, cb[:-1], ya))  # Y -> q^{delta_b} Y in R_a
                    if sh:
                        la = {e + sh: k for e, k in la.items()}
                    for yb, lb in rb.items():
                        y = tuple(map(add, ya, yb))
                        if not _lmac(acc.setdefault(y, {}), la, lb):
                            del acc[y]
    return {ch: amp for ch, amp in out.items() if amp}


@lru_cache(maxsize=None)
def rule_violations(n: int, sphere_reduction: bool = True) -> Tuple[Tuple[int, int], ...]:
    """The letter pairs (a, b) whose rewrite rule in ``Presentation._rewrite_pair`` fails on images.

    Empty means the images respect every relation of the level-n
    presentation, so ``fock_image`` is an algebra homomorphism there.  Both
    sides of every rule are imaged in one ``fock_images`` call.
    """
    P = Presentation(n, sphere_reduction)
    rules = {(a, b): rule for a in range(2 * n + 2) for b in range(2 * n + 2)
             if (rule := P._rewrite_pair(a, b)) is not None}
    imgs = fock_images([x for ab, rule in rules.items()
                        for x in (NCPoly.word(ab), lincomb((NCPoly.word(w), c) for c, w in rule))], n)
    return tuple(ab for ab, lhs, rhs in zip(rules, imgs[0::2], imgs[1::2]) if lhs != rhs)
