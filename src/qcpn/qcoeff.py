"""Exact arithmetic in the field Q(s), s = q^(1/2), with q-combinatorics.

Elements are ratios of integer-coefficient Laurent polynomials in s.
Working in s rather than q keeps half-integer q-powers (Casimir values,
weight factors) inside the field.  All arithmetic is exact; numeric
evaluation happens only through :func:`evalf`.

Internally a Laurent polynomial is a dict ``{exponent: coeff}`` with int
values and no zero entries.

Reduction to the canonical form tries exact division in Z[s] first: the
quotients that arise here ([k], q-multinomials, eigenvalue differences)
are almost all Laurent polynomials, and one integer long division finds
them.  Only a division that leaves a remainder reaches the Fraction-based
gcd.  The canonical form does not depend on which route produced it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, Union

Laurent = Dict[int, int]

HalfInt = Union[int, Fraction]


class QPoleError(ZeroDivisionError):
    """Evaluation or limit hit a pole of the rational function."""


class QPoint:
    """Numeric evaluation point 0 < q0 <= 1."""

    __slots__ = ("q0",)

    def __init__(self, q0: float):
        if not (0.0 < float(q0) <= 1.0):
            raise ValueError("q0 must lie in (0, 1]")
        self.q0 = float(q0)

    def __repr__(self) -> str:
        return f"QPoint({self.q0})"


# ---------------------------------------------------------------------------
# Laurent-dict helpers
# ---------------------------------------------------------------------------

_ONE: Laurent = {0: 1}


def _ladd(a: Laurent, b: Laurent) -> Laurent:
    out = dict(a)
    for e, c in b.items():
        v = out.get(e, 0) + c
        if v:
            out[e] = v
        else:
            out.pop(e, None)
    return out


def _lneg(a: Laurent) -> Laurent:
    return {e: -c for e, c in a.items()}


def _lmac(out: Laurent, a: Laurent, b: Laurent) -> Laurent:
    """out += a * b in place, dropping a coefficient that cancels (a and b hold no zeros); returns out."""
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ea + eb
            v = out.get(e, 0) + ca * cb
            if v:
                out[e] = v
            else:
                del out[e]
    return out


def _lmul(a: Laurent, b: Laurent) -> Laurent:
    if not a or not b:
        return {}
    if len(a) == 1:
        (ea, ca), = a.items()
        return {ea + eb: ca * cb for eb, cb in b.items()}
    if len(b) == 1:
        (eb, cb), = b.items()
        return {ea + eb: ca * cb for ea, ca in a.items()}
    return _lmac({}, a, b)


def _lshift(a: Laurent, k: int) -> Laurent:
    if k == 0:
        return dict(a)
    return {e + k: c for e, c in a.items()}


def _lcontent(a: Laurent) -> int:
    return math.gcd(*a.values()) if a else 0


def _to_coeffs(a: Laurent) -> tuple[int, list[int]]:
    """Return (min_exponent, dense coefficient list) of a nonzero dict."""
    lo = min(a)
    hi = max(a)
    cs = [0] * (hi - lo + 1)
    for e, c in a.items():
        cs[e - lo] = c
    return lo, cs


def _from_coeffs(lo: int, cs: list[int]) -> Laurent:
    return {lo + i: c for i, c in enumerate(cs) if c}


def _poly_gcd(a: list[int], b: list[int]) -> list[int]:
    """Primitive gcd of two integer coefficient lists (ascending order)."""
    fa = [Fraction(c) for c in a]
    fb = [Fraction(c) for c in b]

    def trim(p):
        while p and p[-1] == 0:
            p.pop()
        return p

    fa, fb = trim(fa), trim(fb)
    while fb:
        # remainder of fa modulo fb
        r = fa[:]
        db, lb = len(fb) - 1, fb[-1]
        while len(r) - 1 >= db and trim(r):
            dr = len(r) - 1
            f = r[-1] / lb
            for i in range(db + 1):
                r[dr - db + i] -= f * fb[i]
            trim(r)
        fa, fb = fb, r
    # make primitive with positive leading coefficient
    den = math.lcm(*(f.denominator for f in fa)) if fa else 1
    ints = [int(f * den) for f in fa]
    g = math.gcd(*ints) if ints else 1
    ints = [c // g for c in ints]
    if ints and ints[-1] < 0:
        ints = [-c for c in ints]
    return ints


def _divexact(a: list[int], d: list[int]) -> list[int] | None:
    """Quotient a/d in Z[x] of ascending coefficient lists, or None.

    Long division with ``divmod`` on d's leading coefficient; None when a
    quotient coefficient is not an integer or the remainder is nonzero.
    """
    dd, lead = len(d) - 1, d[-1]
    if len(a) <= dd:
        return None
    r = list(a)
    out = [0] * (len(a) - dd)
    for i in range(len(out) - 1, -1, -1):
        f, m = divmod(r[i + dd], lead)
        if m:
            return None
        if f:
            out[i] = f
            for k in range(dd):
                r[i + k] -= f * d[k]
    if any(r[:dd]):
        return None
    return out


def _reduce(num: Laurent, den: Laurent) -> tuple[Laurent, Laurent]:
    """Bring num/den to canonical form.

    Canonical means: no zero coefficient, gcd removed, integer content
    shared out, denominator has lowest exponent 0 and positive leading
    coefficient; zero is {} / {0:1}.

    A multi-term denominator is first tried as an exact divisor of the
    numerator in Z[s]; when it divides, the quotient over {0: 1} is the
    canonical form.  Only otherwise does the Fraction-based ``_poly_gcd``
    run.  Both routes give the same canonical form.
    """
    num = {e: c for e, c in num.items() if c}
    den = {e: c for e, c in den.items() if c}
    if not den:
        raise ZeroDivisionError("QScalar with zero denominator")
    if not num:
        return {}, dict(_ONE)
    if len(den) > 1:
        nlo, ncs = _to_coeffs(num)
        dlo, dcs = _to_coeffs(den)
        quo = _divexact(ncs, dcs)
        if quo is not None:
            return _from_coeffs(nlo - dlo, quo), dict(_ONE)
        g = _poly_gcd(ncs, dcs)
        if len(g) > 1:
            # g is primitive, so by Gauss's lemma both cofactors are integral
            ncs, dcs = _divexact(ncs, g), _divexact(dcs, g)
            if ncs is None or dcs is None:
                raise ArithmeticError("inexact polynomial division")
            num = _from_coeffs(nlo, ncs)
            den = _from_coeffs(dlo, dcs)
    # shared integer content
    c = math.gcd(_lcontent(num), _lcontent(den))
    dhi = max(den)
    if den[dhi] < 0:
        c = -c
    if c != 1:
        num = {e: v // c for e, v in num.items()}
        den = {e: v // c for e, v in den.items()}
    # shift denominator to start at s^0
    dlo = min(den)
    if dlo != 0:
        den = _lshift(den, -dlo)
        num = _lshift(num, -dlo)
    return num, den


class QScalar:
    """Element of Q(s) with canonical internal form (equality is structural)."""

    __slots__ = ("num", "den")

    def __init__(self, num: Laurent, den: Laurent | None = None, *, _canonical: bool = False):
        if den is None:
            den = dict(_ONE)
        if _canonical:
            self.num, self.den = num, den
        else:
            self.num, self.den = _reduce(num, den)

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_int(k: int) -> "QScalar":
        if not isinstance(k, int):
            return QScalar.from_fraction(k)
        return QScalar({0: k} if k else {}, _canonical=True)

    @staticmethod
    def from_fraction(f: Fraction) -> "QScalar":
        f = Fraction(f)
        return QScalar({0: f.numerator} if f.numerator else {}, {0: f.denominator}, _canonical=True)

    @staticmethod
    def s_pow(k: int, coeff: int = 1) -> "QScalar":
        """coeff * s^k."""
        return QScalar({k: coeff} if coeff else {}, _canonical=True)

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def is_one(self) -> bool:
        return self.num == _ONE and self.den == _ONE

    def is_laurent(self) -> bool:
        """True if the denominator is trivial (a pure Laurent polynomial)."""
        return self.den == _ONE

    def is_monomial(self) -> bool:
        return len(self.num) == 1 and self.den == _ONE

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "QScalar") -> "QScalar":
        if not self.num:
            return other
        if not other.num:
            return self
        if self.den == other.den:
            if self.den == _ONE:
                # Laurent + Laurent is already canonical
                return QScalar(_ladd(self.num, other.num), dict(_ONE), _canonical=True)
            return QScalar(_ladd(self.num, other.num), dict(self.den))
        return QScalar(
            _ladd(_lmul(self.num, other.den), _lmul(other.num, self.den)),
            _lmul(self.den, other.den),
        )

    def __sub__(self, other: "QScalar") -> "QScalar":
        return self + (-other)

    def __neg__(self) -> "QScalar":
        return QScalar(_lneg(self.num), dict(self.den), _canonical=True)

    def __mul__(self, other: "QScalar") -> "QScalar":
        if not self.num or not other.num:
            return ZERO
        if self.den == _ONE and other.den == _ONE:
            # product of Laurent polynomials stays canonical up to nothing
            return QScalar(_lmul(self.num, other.num), dict(_ONE), _canonical=True)
        return QScalar(_lmul(self.num, other.num), _lmul(self.den, other.den))

    def __truediv__(self, other: "QScalar") -> "QScalar":
        if not other.num:
            raise ZeroDivisionError("division by zero QScalar")
        return QScalar(_lmul(self.num, other.den), _lmul(self.den, other.num))

    def inv(self) -> "QScalar":
        return ONE / self

    def __pow__(self, k: int) -> "QScalar":
        if k < 0:
            return self.inv() ** (-k)
        out = ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = QScalar.from_int(other)
        if not isinstance(other, QScalar):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((tuple(sorted(self.num.items())), tuple(sorted(self.den.items()))))

    # -- evaluation ----------------------------------------------------------

    def evalf(self, q0: float) -> float:
        """Numeric value at q = q0 (so s = sqrt(q0))."""
        if not (0.0 < q0 <= 1.0):
            raise ValueError("q0 must lie in (0, 1]")
        s0 = math.sqrt(q0)
        n = sum(c * s0 ** e for e, c in self.num.items())
        d = sum(c * s0 ** e for e, c in self.den.items())
        if d == 0.0:
            raise QPoleError(f"pole at q0={q0}")
        return n / d

    def eval_q_exact(self, q0: Fraction) -> Fraction:
        """Exact value at rational q = q0; requires only even s-powers.

        Avoids the catastrophic cancellation a float Horner sum suffers on
        wide alternating Laurent polynomials.
        """
        q0 = Fraction(q0)

        def ev(p: Laurent) -> Fraction:
            acc = Fraction(0)
            for e, c in p.items():
                if e % 2:
                    raise ValueError("odd s-power: value is irrational at rational q")
                acc += c * q0 ** (e // 2)
            return acc

        d = ev(self.den)
        if d == 0:
            raise QPoleError(f"pole at q0={q0}")
        return ev(self.num) / d

    def evalf_stable(self, q0: float) -> float:
        """Float value at q0, computed exactly when the element lives in Q(q)."""
        try:
            return float(self.eval_q_exact(Fraction(q0)))
        except ValueError:
            return self.evalf(q0)

    def limit_q1(self) -> Fraction:
        """Exact limit at s = 1, cancelling common (s-1) factors."""
        if not self.num:
            return Fraction(0)
        _, ncs = _to_coeffs(self.num)
        _, dcs = _to_coeffs(self.den)

        def div_s_minus_1(cs: list[int]) -> list[int] | None:
            # synthetic division by (s - 1); None if remainder nonzero
            out = [0] * (len(cs) - 1)
            acc = 0
            for i in range(len(cs) - 1, 0, -1):
                acc += cs[i]
                out[i - 1] = acc
            if acc + cs[0] != 0:
                return None
            return out

        while sum(ncs) == 0 and sum(dcs) == 0:
            ncs = div_s_minus_1(ncs)
            dcs = div_s_minus_1(dcs)
            assert ncs is not None and dcs is not None
        dval = sum(dcs)
        if dval == 0:
            raise QPoleError("pole at q = 1")
        return Fraction(sum(ncs), dval)

    # -- rendering -----------------------------------------------------------

    @staticmethod
    def _poly_str(p: Laurent) -> str:
        if not p:
            return "0"
        parts = []
        for e in sorted(p, reverse=True):
            c = p[e]
            if e == 0:
                term = str(abs(c))
            else:
                exp = Fraction(e, 2)
                es = str(exp.numerator) if exp.denominator == 1 else f"{exp.numerator}/2"
                term = f"q^{es}" if abs(c) == 1 else f"{abs(c)}*q^{es}"
            if not parts:
                parts.append(term if c > 0 else "-" + term)
            else:
                parts.append((" + " if c > 0 else " - ") + term)
        return "".join(parts)

    def __str__(self) -> str:
        ns = self._poly_str(self.num)
        if self.den == _ONE:
            return ns
        ds = self._poly_str(self.den)
        if len(self.num) > 1:
            ns = f"({ns})"
        if len(self.den) > 1:
            ds = f"({ds})"
        return f"{ns}/{ds}"

    def __repr__(self) -> str:
        return f"QScalar({self})"


ZERO = QScalar({}, _canonical=True)
ONE = QScalar(dict(_ONE), _canonical=True)


def _as_twice(x: HalfInt) -> int:
    """Validate x in (1/2)Z and return 2x as an int."""
    if isinstance(x, int):
        return 2 * x
    f = Fraction(x)
    if f.denominator not in (1, 2):
        raise ValueError(f"{x} is not a half-integer")
    return int(2 * f)


def qpow(e: HalfInt) -> QScalar:
    """q^e for e in (1/2)Z, i.e. s^(2e)."""
    return QScalar.s_pow(_as_twice(e))


def eval_at(x: QScalar, p: "QPoint | float") -> float:
    """Numeric value of x at the evaluation point p."""
    q0 = p.q0 if isinstance(p, QPoint) else float(p)
    return x.evalf_stable(q0) if q0 < 1.0 else x.limit_q1().__float__()


def qint(x: HalfInt) -> QScalar:
    """q-integer [x] = (q^x - q^{-x})/(q - q^{-1}); x may be half-integer.

    For integer x this is the Laurent polynomial sign(x) * sum_{i<|x|}
    q^{|x|-1-2i}, written down directly; a half-integer x gives a genuine
    rational with denominator s^2 + 1 and goes through the division.
    """
    t = _as_twice(x)  # q^x = s^t
    if t == 0:
        return ZERO
    if t % 2 == 0:
        k, sign = abs(t) // 2, (1 if t > 0 else -1)
        return QScalar({2 * k - 2 - 4 * i: sign for i in range(k)}, _canonical=True)
    num = QScalar({t: 1, -t: -1}, _canonical=True)
    den = QScalar({2: 1, -2: -1}, _canonical=True)
    return num / den


def qfactorial(n: int) -> QScalar:
    """[n]! = [n][n-1]...[1], with [0]! = 1."""
    if n < 0:
        raise ValueError("q-factorial of a negative integer")
    out = ONE
    for k in range(2, n + 1):
        out = out * qint(k)
    return out


def qmultinomial(js: list[int] | tuple[int, ...]) -> QScalar:
    """[j0,...,jn]! = [sum j]!/prod [j_i]!; always a Laurent polynomial."""
    if any(j < 0 for j in js):
        raise ValueError("q-multinomial arguments must be nonnegative")
    out = qfactorial(sum(js))
    for j in js:
        out = out / qfactorial(j)
    if not out.is_laurent():
        raise ArithmeticError("q-multinomial division left a denominator (bug)")
    return out


def is_positive_at_q(x: QScalar) -> bool:
    """Exact sign test on 0 < q < 1: True iff x > 0 on the whole interval.

    Conclusive for the values arising here (sums and products of q-integers
    [k] with k > 0, which reduce to single-signed Laurent data); raises for
    anything it cannot certify rather than guessing.
    """
    if x.is_zero():
        return False

    def single_sign(p: Laurent) -> int:
        vals = list(p.values())
        if all(v > 0 for v in vals):
            return 1
        if all(v < 0 for v in vals):
            return -1
        return 0

    sn, sd = single_sign(x.num), single_sign(x.den)
    if sn == 0 or sd == 0:
        raise ArithmeticError(f"sign of {x} on (0,1) not certified by coefficient test")
    return sn == sd
