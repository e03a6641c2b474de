"""Noncommutative *-polynomial engine for the odd quantum spheres.

Words are tuples of letters; letter ``2*i`` is the generator ``z_i`` and
``2*i + 1`` is ``z_i^*``.  Normal order interleaves by index,

    z_0^* < z_0 < z_1^* < z_1 < ... < z_n^* < z_n,

so a normal word is z_0^*^{a_0} z_0^{b_0} z_1^*^{a_1} z_1^{b_1} ... .  This
keeps every same-index pair adjacent, which is what lets the sphere
relation sum_j q^{2j} z_j^* z_j = 1 act as a rewrite rule (eliminating
z_n^* z_n) and makes the normal words an actual linear basis; a
starred-block-first order would hide the reducible pair inside words like
z_0^* z_1^* z_0 z_1 and normal forms would stop being unique.

Rewriting is memoized per presentation: the normal form of a word is
computed once and reused, which is what keeps the projection identity
checks fast.

A normal form is built by pushing letters, right to left, onto a normal word
(``Presentation._push``), and every push is one closed-form step.  Write
x_j = z_j^* z_j, and w = L B H for a normal word whose block of index i is
B = z_i^*^a z_i^b, with L below index i and H above it.  The cross-index
relations move a letter of index i across L for q^e, q per unstarred and
q^{-1} per starred letter of L, whatever its star.  They also make x_j
commute with every generator of higher index, and give x_j z_k = q^2 z_k x_j
and x_j z_k^* = q^{-2} z_k^* x_j for k < j.  Write M_j for a word with its
block j grown by z_j^* z_j, b_j for the exponent of z_j in it, and B_j =
b_j + ... + b_{i-1}.  A letter that commutes past B gives one word.  The
other pushes follow from the relations that ``_rewrite_pair`` lists:

- With sphere reduction, z_i z_i^* = q^{-2} x_i - (1-q^2) q^{-2i-2} (1 - y_i)
  with y_i = sum_{j<i} q^{2j} x_j, which commutes with z_i and z_i^*.
  Induction on a gives, for i < n,
      z_i L z_i^*^a z_i^b H = q^{e-2a} L z_i^*^a z_i^{b+1} H
          + q^e (q^{-2a-2i} - q^{-2i}) (L y_i - L) z_i^*^{a-1} z_i^b H.
  At the top index the sphere relation x_n = q^{-2n} (1 - y_n) gives
  z_n L z_n^*^a = q^{e-2n} (L - L y_n) z_n^*^{a-1} and z_n^* L z_n^b =
  q^{e-2n} (L - L y_n) z_n^{b-1}.  The same identity for j < i gives
  L x_j = q^{-2b_j} M_j + (q^{-2b_j-2j} - q^{-2j}) (L y_j - L), and summed
  over j the bracket telescopes, L y_{j+1} - L = q^{-2b_j} (L y_j - L +
  q^{2j} M_j), to L y_i - L = -q^{-2B_0} L + sum_{j<i} q^{2j-2B_j} M_j.
- Without sphere reduction the formulas are mirror images.  Here z_i z_i^* =
  x_i + d_i with d_i = -(1-q^2) sum_{j>i} q^{2(j-i-1)} x_j, and d_i z_i^b =
  q^{2b} z_i^b d_i, so z_i z_i^*^a = z_i^*^a z_i + [a]' z_i^*^{a-1} d_i with
  [a]' = sum_{k<a} q^{-2k} and
      z_i L z_i^*^a z_i^b H = q^e L z_i^*^a z_i^{b+1} H
          + q^e [a]' q^{2b} L z_i^*^{a-1} z_i^b d_i H.
  x_j applied on the left of H recurses upward, x_j H = q^{2c} M_j +
  [a_j]' q^{2a_j} d_j H with q^{2c} the cost of crossing H's letters below
  j, and the sum over j telescopes the same way, d_{j-1} H = -(1-q^2) q^{2c}
  M_j + q^{2a_j+2} d_j H, to d_i H = -(1-q^2) sum_{k>i} q^{2(k-i-1) + 2(b_{i+1}
  + ... + b_{k-1})} M_k.

So a push writes at most n + 2 words, each with a one- or two-term Laurent
coefficient, in one pass over w: nothing recurses and no suffix is cached.
``Presentation._own_block`` writes the words in the order a letter-by-letter
rewrite with the rules of ``_rewrite_pair`` first writes them: the main word,
then (with sphere reduction) the word with one letter fewer, then the M_j by
ascending j.

``Presentation._reducible`` is the one normal-order test: it decides
whether an adjacent pair of letters is out of normal order, both for the
normal suffix that ``_normal_word`` leaves unpushed and for the own-block
branch of ``_push``.

Rewriting runs on integers.  Every push coefficient is a Laurent polynomial
in s with integer coefficients, so every normal form of a word is too.  Inside
``Presentation`` a normal form is a ``{word: {e: k}}`` map, sum of k * s^e *
word, with ``qcoeff``'s Laurent dicts as values; cached forms are shared and
never mutated, and sums accumulate into fresh maps through ``qcoeff._lmac``.
``_collect`` keeps one such sum per distinct denominator and builds one
canonical QScalar per output word from the input numerators as they are;
only a product with a non-unit denominator takes a QScalar product.  Normal
forms are unique, so the coefficient storage changes no output.  When the
input coefficients share one denominator (every Laurent input does), the
words also come out in the order of a term-by-term add_terms sum.

Two kernels do all the summing.  ``_add_int`` sums Laurent numerators
inside ``_collect``, and every sum of normal forms streams its (word,
denominator, numerator) items into it: ``normalize``, ``mul_sum``, the U_q
actions and ``lincomb``.  ``coproduct_act`` reads integer image tables, each
letter's image a +-s^e monomial, so its items are a term's numerator shifted
and signed.  ``mul_sum`` makes a sum of products, sum c * a * b, one integer
accumulation where a normal form is wanted; ``mul`` is its one-product case.
``lincomb`` shares its product rule (``_product_items``: ``_lmul`` for
Laurent x Laurent, a QScalar product otherwise) and takes each word as its
own normal form.  The Haar state and P^2 = P compose Fock images
(``rep_sphere``) instead.  ``add_terms`` (acc += c * terms, zero
coefficients dropped) sums QScalar TermMaps whose denominators differ, which
no integer map can hold: it stays for NCPoly addition and for ``_collect``'s
merge across denominators.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

from .qcoeff import ONE, ZERO, Laurent, QScalar, _lmac, _lmul, qpow

Word = Tuple[int, ...]
TermMap = Dict[Word, QScalar]
IntForm = Dict[Word, Laurent]  # a normal form with Laurent coefficients
DenKey = Tuple[Tuple[int, int], ...]  # a canonical denominator as sorted (e, k) items, for _collect's grouping

_Q = qpow(1)
_QINV = qpow(-1)
_ONE_MINUS_Q2 = ONE - qpow(2)
_UNIT: Laurent = {0: 1}
_UNIT_DEN: DenKey = ((0, 1),)
_MAX_STEPS = 50_000_000  # push steps (letters crossed, terms written) allowed in one _collect


def letter(index: int, starred: bool) -> int:
    return 2 * index + (1 if starred else 0)


def letter_index(g: int) -> int:
    return g >> 1


def letter_starred(g: int) -> bool:
    return bool(g & 1)


def word_str(w: Word) -> str:
    """Text form of a word, runs of one letter as powers: z0* z1^2 (the empty word is 1)."""
    if not w:
        return "1"
    parts = []
    i = 0
    while i < len(w):
        g = w[i]
        j = i
        while j < len(w) and w[j] == g:
            j += 1
        name = f"z{g >> 1}" + ("*" if g & 1 else "")
        parts.append(name if j - i == 1 else f"{name}^{j - i}")
        i = j
    return " ".join(parts)


@dataclass
class Presentation:
    """Level-n sphere presentation (generators z_0..z_n) with rule caches."""

    n: int
    sphere_reduction: bool = True
    _nf_cache: Dict[Word, IntForm] = field(default_factory=dict, repr=False)
    _push_cache: Dict[Tuple[int, Word], IntForm] = field(default_factory=dict, repr=False)
    _steps: int = field(default=0, repr=False)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("presentation level n must be >= 1")

    # -- single rewrite step --------------------------------------------------

    def _rewrite_pair(self, a: int, b: int) -> List[Tuple[QScalar, Word]] | None:
        """Rewrite for the adjacent pair (a, b), or None if already ordered."""
        ia, sa = a >> 1, a & 1
        ib, sb = b >> 1, b & 1
        n = self.n
        if sa == sb:
            if ia > ib:
                # z_j z_i -> q z_i z_j and z_j^* z_i^* -> q^{-1} z_i^* z_j^*  (j > i)
                return [(_Q if sa == 0 else _QINV, (b, a))]
            return None
        if sa == 0:  # unstarred then starred
            if ia > ib:  # z_j z_i^* -> q^{-1} z_i^* z_j  (j > i)
                return [(_QINV, (b, a))]
            if ia < ib:  # z_i z_j^* ordered (interleaved by index)
                return None
            # Same-index commutator, pre-solved into starred-first pairs only.
            # Without sphere reduction the cascade closes upward,
            #   z_i z_i^* -> z_i^* z_i - (1-q^2) sum_{j>i} q^{2(j-i-1)} z_j^* z_j;
            # with it the sphere identity is substituted as well, leaving only
            # indices strictly below i (plus a constant), which is what makes
            # the combined rewrite system terminate: raw z_j z_j^* tails would
            # oscillate with the sphere rule forever.
            if not self.sphere_reduction:
                out: List[Tuple[QScalar, Word]] = [(ONE, (b, a))]
                for j in range(ia + 1, n + 1):
                    out.append((-_ONE_MINUS_Q2 * qpow(2 * (j - ia - 1)), (letter(j, True), letter(j, False))))
                return out
            out = [(qpow(-2), (b, a)), (-_ONE_MINUS_Q2 * qpow(-2 * ia - 2), ())]
            for j in range(ia):
                out.append((_ONE_MINUS_Q2 * qpow(2 * j - 2 * ia - 2), (letter(j, True), letter(j, False))))
            return out
        # starred then unstarred
        if ia > ib:  # z_j^* z_i -> q z_i z_j^*  (j > i)
            return [(_Q, (b, a))]
        if ia == ib == n and self.sphere_reduction:
            # z_n^* z_n -> q^{-2n} (1 - sum_{j<n} q^{2j} z_j^* z_j)
            out = [(qpow(-2 * n), ())]
            for j in range(n):
                out.append((-qpow(2 * j - 2 * n), (letter(j, True), letter(j, False))))
            return out
        return None

    def _reducible(self, a: int, b: int) -> bool:
        """Whether the adjacent pair (a, b) is out of normal order, so that _rewrite_pair rewrites it.

        a ^ 1 ranks the letters in normal order, z_i^* as 2i and z_i as 2i + 1;
        under sphere reduction z_n^* z_n is reducible as well.
        """
        return (a ^ 1) > (b ^ 1) or (self.sphere_reduction and a == 2 * self.n + 1 and b == a - 1)

    # -- word normal form ------------------------------------------------------
    #
    # Normalization works insertion-sort style: a letter is pushed onto the
    # front of an already-normal word.  Memoizing on (letter, normal word)
    # gives far more cache reuse than memoizing whole unnormalized words.
    #
    # A push is one closed-form step (the derivation is in the module
    # docstring): g crosses the letters of w below its index (a prefix, since
    # w is normal) for q^{#unstarred - #starred}, and then either stops, which
    # gives one word, or meets its own index block, which gives the main word
    # and one word per other index.  Nothing recurses, and a push takes one
    # cache key however long the runs it crosses are.

    def _push(self, g: int, w: Word) -> IntForm:
        key = (g, w)
        cached = self._push_cache.get(key)
        if cached is not None:
            return cached
        lower = g & ~1  # the letters below g's index are the ones below z_i (g = z_i or z_i^*)
        p = e = 0
        for x in w:
            if x >= lower:
                break
            e += -2 if x & 1 else 2  # exponent of s = q^{1/2}
            p += 1
        # z_i onto z_i^*^a z_i^b ..., or z_n^* onto z_n^b under sphere reduction
        if p < len(w) and self._reducible(g, w[p]):
            res = self._own_block(g, w, p, e)
        else:
            res = {w[:p] + (g,) + w[p:]: {e: 1}}
        self._steps += p + len(res)
        if self._steps > _MAX_STEPS:
            raise ArithmeticError("rewrite step budget exceeded (rule system bug?)")
        self._push_cache[key] = res
        return res

    def _own_block(self, g: int, w: Word, p: int, e: int) -> IntForm:
        """g w for a normal word w = L B H whose index block B, from w[p] on, g does not commute with.

        L = w[:p] holds the letters below g's index and H those above it; s^e
        is the cost of moving g across L.  The words come in the order the
        letter-by-letter rewrite first writes them.
        """
        i = g >> 1
        end = p
        while end < len(w) and w[end] == w[p]:
            end += 1
        a = end - p  # the run g meets: z_i^*^a, or z_n^a for g = z_n^* under sphere reduction
        rest = w[:p] + w[p + 1:]  # B with one letter fewer
        c = {-4 * a: -1, 0: 1}  # 1 - q^{-2a}
        if not self.sphere_reduction:
            # q^e (L z_i^*^a z_i^{b+1} H + [a]' q^{2b} L z_i^*^{a-1} z_i^b d_i H): the main word, then
            # one word per H block k > i grown by z_k^* z_k
            out = {w[:end] + (g,) + w[end:]: {e: 1}}
            b = end
            while b < len(w) and w[b] == g:
                b += 1
            x, pos = e + 4 * (b - end) + 4, b - 1  # pos indexes rest, which lacks one z_i^*
            for k in range(i + 1, self.n + 1):  # x = e + 4b + 4(k - i) + 4(b_{i+1} + ... + b_{k-1})
                while pos < len(rest) and rest[pos] == 2 * k + 1:
                    pos += 1
                out[rest[:pos] + (2 * k + 1, 2 * k) + rest[pos:]] = _lmul({x: 1}, c)
                run = pos
                while pos < len(rest) and rest[pos] == 2 * k:
                    pos += 1
                x += 4 * (pos - run) + 4
            return out
        # q^e (q^{-2a} L z_i^*^a z_i^{b+1} H + (q^{-2a-2i} - q^{-2i}) (L y_i - L) z_i^*^{a-1} z_i^b H) for i < n
        if i < self.n:
            out = {w[:end] + (g,) + w[end:]: {e - 4 * a: 1}}
        else:  # q^{e-2n} (L - L y_n) times B with one letter fewer
            out, c = {}, _UNIT
        grow = []  # (position of the z_j run, b_j) per L block j < i
        pos = 0
        for j in range(i):
            while pos < p and w[pos] == 2 * j + 1:
                pos += 1
            run = pos
            while pos < p and w[pos] == 2 * j:
                pos += 1
            grow.append((run, pos - run))
        x = e - 4 * i - 4 * sum(bj for _, bj in grow)
        out[rest] = _lmul({x: 1}, c)
        for j, (run, bj) in enumerate(grow):  # x = e + 4j - 4i - 4(b_j + ... + b_{i-1})
            out[rest[:run] + (2 * j + 1, 2 * j) + rest[run:]] = _lmul({x: -1}, c)
            x += 4 * bj + 4
        return out

    def _normal_word(self, w: Word) -> IntForm:
        cached = self._nf_cache.get(w)
        if cached is not None:
            return cached
        self.check_letters(w)
        # The longest suffix with no reducible adjacent pair is already normal:
        # pushing its letters would rewrite nothing, so only the letters before it are pushed.
        k = max(len(w) - 1, 0)
        while k and not self._reducible(w[k - 1], w[k]):
            k -= 1
        poly: IntForm = {w[k:]: _UNIT}
        for g in reversed(w[:k]):
            if len(poly) == 1 and _UNIT in poly.values():  # one word times 1: the cached push itself
                poly = self._push(g, *poly)
            else:
                acc: IntForm = {}
                for u, c in poly.items():
                    _add_int(acc, self._push(g, u), c)
                poly = acc
        self._nf_cache[w] = poly
        return poly

    def check_letters(self, w: Word) -> None:
        for g in w:
            if not 0 <= (g >> 1) <= self.n:
                raise ValueError(f"generator index {g >> 1} out of range for n={self.n}")


class NCPoly:
    """Finite QScalar-linear combination of generator words."""

    __slots__ = ("terms",)

    def __init__(self, terms: TermMap | None = None):
        self.terms: TermMap = terms or {}

    # -- constructors ----------------------------------------------------------

    @staticmethod
    def zero() -> "NCPoly":
        return NCPoly({})

    @staticmethod
    def one() -> "NCPoly":
        return NCPoly({(): ONE})

    @staticmethod
    def scalar(c: QScalar) -> "NCPoly":
        return NCPoly({(): c}) if not c.is_zero() else NCPoly({})

    @staticmethod
    def gen(index: int, starred: bool = False) -> "NCPoly":
        return NCPoly({(letter(index, starred),): ONE})

    @staticmethod
    def word(letters: Iterable[int], coeff: QScalar = ONE) -> "NCPoly":
        w = tuple(letters)
        return NCPoly({w: coeff}) if not coeff.is_zero() else NCPoly({})

    # -- linear structure --------------------------------------------------------

    def __add__(self, other: "NCPoly") -> "NCPoly":
        return NCPoly(add_terms(dict(self.terms), other.terms))

    def __sub__(self, other: "NCPoly") -> "NCPoly":
        return self + (-other)

    def __neg__(self) -> "NCPoly":
        return NCPoly({w: -c for w, c in self.terms.items()})

    def scale(self, c: QScalar) -> "NCPoly":
        if c.is_zero():
            return NCPoly({})
        return NCPoly({w: c * cw for w, cw in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NCPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset((w, hash(c)) for w, c in self.terms.items()))

    # -- rendering ----------------------------------------------------------------

    def __str__(self) -> str:
        """Canonical text in the parser's grammar: sorted words, ``c * w``, a
        coefficient of more than one term in parentheses, ``-w`` for c = -1."""
        if not self.terms:
            return "0"
        out = []
        for w in sorted(self.terms):
            c = self.terms[w]
            if w and c.is_one():
                term = word_str(w)
            else:
                cs = f"({c})" if len(c.num) > 1 else str(c)
                if not w:
                    term = cs
                elif cs == "-1":
                    term = "-" + word_str(w)
                else:
                    term = f"{cs} * {word_str(w)}"
            if out:
                term = f" - {term[1:]}" if term[0] == "-" else f" + {term}"
            out.append(term)
        return "".join(out)

    def __repr__(self) -> str:
        return f"NCPoly({self})"


# ---------------------------------------------------------------------------
# linear combinations and algebra operations
# ---------------------------------------------------------------------------


def add_terms(acc: TermMap, terms: TermMap, c: QScalar | None = None) -> TermMap:
    """acc += c * terms in place (c None: acc += terms), dropping zero coefficients; returns acc."""
    for w, t in terms.items():
        v = acc.get(w, ZERO) + (t if c is None else c * t)
        if v.is_zero():
            acc.pop(w, None)
        else:
            acc[w] = v
    return acc


def lincomb(pairs: Iterable[Tuple[NCPoly, QScalar | None]]) -> NCPoly:
    """sum of c * a over the (a, c) pairs (c None counts as 1).

    The sum is one ``_collect`` with each word as its own normal form, and
    c * a is the product a * (c 1) of ``mul_sum``: Laurent coefficients
    multiply and add on integers, with no QScalar operation.  The normal
    words are a basis and the sum drops zero coefficients, so a linear
    combination of normal forms (outputs of mul, normalize, star with a
    presentation, uq_act) is itself the normal form: it needs no further
    normalize.
    """
    scaled = ((a, NCPoly.one() if c is None else NCPoly.scalar(c), None) for a, c in pairs)
    return _collect(_product_items(scaled), None)


def _add_int(acc: IntForm, form: IntForm, c: Laurent) -> None:
    """acc += c * form in place, dropping a word whose coefficient cancels; form is only read.

    A word keeps its place while its coefficient stays nonzero and is
    appended when it is new, as in add_terms.
    """
    for w, lau in form.items():
        if not _lmac(acc.setdefault(w, {}), lau, c):
            del acc[w]


def _word_form(w: Word) -> IntForm:
    """w as its own normal form, for ``lincomb``."""
    return {w: _UNIT}


def _collect(items: Iterable[Tuple[Word, DenKey, Laurent]], P: Presentation | None) -> NCPoly:
    """sum of (num / den) * (normal form of w) over the (w, den, num) items (den canonical).

    One {word: {e: k}} map per denominator sums on integers, each output word
    gets one canonical QScalar, and sums across denominators go through
    add_terms.  With P None every word is its own normal form.
    """
    if P is None:
        normal_word = _word_form
    else:
        P._steps = 0  # the step budget bounds a single operation: one whole sum
        normal_word = P._normal_word
    groups: Dict[DenKey, IntForm] = {}  # denominator -> sum
    for w, den, num in items:
        _add_int(groups.setdefault(den, {}), normal_word(w), num)
    out: TermMap = {}
    for den, acc in groups.items():
        if den == _UNIT_DEN:
            terms = {w: QScalar(d, _canonical=True) for w, d in acc.items()}
        else:
            terms = {w: QScalar(d, dict(den)) for w, d in acc.items()}
        if len(groups) == 1:
            return NCPoly(terms)
        add_terms(out, terms)
    return NCPoly(out)


def normalize(a: NCPoly, P: Presentation) -> NCPoly:
    """Unique normal form of a modulo the sphere relations (idempotent)."""
    return _collect(((w, tuple(sorted(c.den.items())), c.num) for w, c in a.terms.items() if c.num), P)


def _product_items(triples: Iterable[Tuple[NCPoly, NCPoly, QScalar | None]]):
    """(wa + wb, den, num) items of c * a * b over the (a, b, c) triples, one per pair of terms, for _collect.

    Laurent numerators multiply as dicts, and only a non-unit denominator
    takes a QScalar product.  c scales a once per triple.
    """
    for a, b, c in triples:
        bt = [(wb, cb, cb.is_laurent()) for wb, cb in b.terms.items()]
        for wa, ca in (a if c is None else a.scale(c)).terms.items():
            la = ca.is_laurent()
            for wb, cb, lb in bt:
                if la and lb:
                    yield wa + wb, _UNIT_DEN, _lmul(ca.num, cb.num)
                else:
                    p = ca * cb
                    yield wa + wb, tuple(sorted(p.den.items())), p.num


def mul_sum(triples: Iterable[Tuple[NCPoly, NCPoly, QScalar | None]], P: Presentation) -> NCPoly:
    """Normal form of sum c * a * b over the (a, b, c) triples (c None counts as 1).

    Every product of a term of a with a term of b is one integer item of one
    ``_collect`` (``_product_items``).  The step budget bounds the whole sum.
    """
    return _collect(_product_items(triples), P)


def mul(a: NCPoly, b: NCPoly, P: Presentation) -> NCPoly:
    """Normalized product."""
    return mul_sum(((a, b, None),), P)


def star(a: NCPoly, P: Presentation | None = None) -> NCPoly:
    """Antilinear antihomomorphism z_i <-> z_i^*; normalized if P given."""
    out: TermMap = {}
    for w, c in a.terms.items():
        w2 = tuple(g ^ 1 for g in reversed(w))
        out[w2] = c  # coefficients in Q(s) are real
    res = NCPoly(out)
    return normalize(res, P) if P is not None else res


# ---------------------------------------------------------------------------
# U_q(su(n+1)) generator action
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UqGenerator:
    """E_i, F_i, K_i, K_i^{-1} (1 <= i <= n), or the K-word K_2rho^{+-1}."""

    kind: str  # "E" | "F" | "K" | "Kinv" | "K2rho" | "K2rhoInv"
    i: int = 1

    def __str__(self) -> str:
        if self.kind in ("K2rho", "K2rhoInv"):
            return "K2rho" + ("^-1" if self.kind == "K2rhoInv" else "")
        suffix = {"E": "E", "F": "F", "K": "K", "Kinv": "K^-1"}[self.kind]
        return f"{suffix}_{self.i}"


def _k_weight(i: int, n: int) -> List[int]:
    """Exponent w with K_i |> g = s^w g (s = q^{1/2}), for every letter g."""
    weight = [0] * (2 * n + 2)
    for t, w in ((n - i, 1), (n + 1 - i, -1)):  # K_i |> z_t = q^{w/2} z_t, K_i |> z_t^* = q^{-w/2} z_t^*
        weight[2 * t], weight[2 * t + 1] = w, -w
    return weight


def coproduct_act(
    a: NCPoly, P: Presentation, weight: Sequence[int], image: Dict[int, Tuple[int, int, int]] | None = None
) -> NCPoly:
    """Action on a of a grouplike K, or of an X with coproduct X (x) K + K^{-1} (x) X.

    weight[g] is the exponent w with K |> g = s^w g.  Without image the
    result is K |> a; otherwise image[g] = (g2, sign, e) means X |> g =
    sign s^e g2, X kills the letters missing from image, and X acts on a word
    letter by letter with K^{-1} weights to the left of the acted letter and
    K weights to its right.  Every item is therefore a term of a times +-s^k:
    its denominator stays, and its numerator is shifted by k and signed, on
    integers.  The (word, denominator, numerator) items stream into
    ``_collect``, so the words come out in the order of a term-by-term sum of
    their normal forms, as in ``mul``.
    """
    for w in a.terms:
        P.check_letters(w)

    def items() -> Iterator[Tuple[Word, DenKey, Laurent]]:
        for w, c in a.terms.items():
            den, num = tuple(sorted(c.den.items())), c.num
            ws = [weight[g] for g in w]
            total = sum(ws)
            if image is None:
                yield w, den, {e + total: k for e, k in num.items()}
                continue
            left = 0
            for p, g in enumerate(w):
                hit = image.get(g)
                if hit is not None:
                    g2, sign, e = hit
                    shift = e + total - ws[p] - 2 * left
                    yield w[:p] + (g2,) + w[p + 1:], den, {x + shift: sign * k for x, k in num.items()}
                left += ws[p]

    return _collect(items(), P)


def uq_act(x: UqGenerator, a: NCPoly, P: Presentation) -> NCPoly:
    """Left module-algebra action of a U_q(su(n+1)) generator on a.

    E and F act through the coproduct Delta(E) = E (x) K + K^{-1} (x) E
    (likewise for F); K-type generators act multiplicatively.  Starred
    letters transform via x |> a^* = (S(x)^* |> a)^*.
    """
    n, i = P.n, x.i
    if x.kind in ("K2rho", "K2rhoInv"):
        sign = -1 if x.kind == "K2rhoInv" else 1
        tables = [(2 * j * (n + 1 - j), _k_weight(j, n)) for j in range(1, n + 1)]
        return coproduct_act(a, P, [sign * sum(c * t[g] for c, t in tables) for g in range(2 * n + 2)])
    if x.kind not in ("K", "Kinv", "E", "F"):
        raise ValueError(f"unknown generator kind {x.kind}")
    if not 1 <= i <= n:
        raise ValueError(f"U_q generator index {i} out of range 1..{n}")
    weight = _k_weight(i, n)
    if x.kind == "K":
        return coproduct_act(a, P, weight)
    if x.kind == "Kinv":
        return coproduct_act(a, P, [-w for w in weight])
    lo, hi = letter(n - i, False), letter(n + 1 - i, False)  # z_{n-i} and z_{n+1-i}
    if x.kind == "E":  # E_i |> z_{n+1-i} = z_{n-i},  E_i |> z_{n-i}^* = -q z_{n+1-i}^*
        return coproduct_act(a, P, weight, {hi: (lo, 1, 0), lo + 1: (hi + 1, -1, 2)})
    # F_i |> z_{n-i} = z_{n+1-i},  F_i |> z_{n+1-i}^* = -q^{-1} z_{n-i}^*
    return coproduct_act(a, P, weight, {lo: (hi, 1, 0), hi + 1: (lo + 1, -1, -2)})
