"""Exact q-arithmetic: examples with independent oracles, field properties."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcpn import identities, qcoeff, suq2
from qcpn.qcoeff import (
    ONE,
    ZERO,
    QPoleError,
    QScalar,
    is_positive_at_q,
    qfactorial,
    qint,
    qmultinomial,
    qpow,
)


def expand_qint(n: int) -> QScalar:
    """Independent oracle: [n] = sum_{k=0}^{n-1} q^{n-1-2k} expanded directly."""
    acc = ZERO
    for k in range(n):
        acc = acc + qpow(n - 1 - 2 * k)
    return acc


def test_qint_trivial_values():
    assert qint(0) == ZERO
    assert qint(1) == ONE
    assert qint(2) == qpow(1) + qpow(-1)
    assert qint(-3) == -qint(3)


def test_qint_against_expansion_oracle():
    for n in range(-40, 41):
        expected = expand_qint(n) if n >= 0 else -expand_qint(-n)
        assert qint(n) == expected
        assert qint(n) == (qpow(n) - qpow(-n)) / (qpow(1) - qpow(-1))


def test_qint_half_integer():
    # [1/2]^2 = (q^{1/2}-q^{-1/2})^2/(q-q^{-1})^2
    lhs = qint(Fraction(1, 2)) ** 2
    num = (qpow(Fraction(1, 2)) - qpow(Fraction(-1, 2))) ** 2
    den = (qpow(1) - qpow(-1)) ** 2
    assert lhs == num / den


def test_qfactorial():
    assert qfactorial(0) == ONE
    assert qfactorial(1) == ONE
    assert qfactorial(3) == qint(3) * qint(2)
    with pytest.raises(ValueError):
        qfactorial(-1)


def test_qmultinomial_examples():
    assert qmultinomial([1, 1]) == qint(2)
    assert qmultinomial([5, 0, 0]) == ONE
    # [2,1]! = [3]!/([2]![1]!) = [3], via the expansion oracle
    assert qmultinomial([2, 1]) == expand_qint(3)


def test_qmultinomial_symmetry():
    for js in ([2, 1, 3], [0, 4, 1], [2, 2]):
        base = qmultinomial(js)
        assert qmultinomial(list(reversed(js))) == base
        assert qmultinomial(sorted(js)) == base


def test_eval_examples():
    assert qint(2).evalf(0.5) == pytest.approx(2.5, abs=1e-14)
    assert ONE.evalf(0.37) == 1.0
    assert qint(3).evalf(0.5) == pytest.approx(5.25, abs=1e-14)


def test_eval_q_exact():
    assert qint(3).eval_q_exact(Fraction(1, 2)) == Fraction(21, 4)
    with pytest.raises(ValueError):
        qpow(Fraction(1, 2)).eval_q_exact(Fraction(1, 2))


def test_limit_q1():
    assert qint(7).limit_q1() == 7
    assert qmultinomial([2, 2]).limit_q1() == 6
    x = qpow(1) - qpow(-1)
    assert (x / x).limit_q1() == 1
    with pytest.raises(QPoleError):
        (ONE / (qpow(1) - qpow(-1))).limit_q1()


def test_limit_q1_multinomial_is_classical():
    for js in ([1, 2], [3, 1], [2, 2, 1]):
        total = sum(js)
        classical = math.factorial(total)
        for j in js:
            classical //= math.factorial(j)
        assert qmultinomial(js).limit_q1() == classical


def test_pascal_identity():
    # [n+m] = [n] q^m + q^{-n} [m], symbolically
    for n in range(0, 13, 3):
        for m in range(0, 13, 4):
            assert qint(n + m) == qint(n) * qpow(m) + qpow(-n) * qint(m)


def test_positivity():
    assert is_positive_at_q(qint(3) * qint(2))
    assert not is_positive_at_q(ZERO)
    assert not is_positive_at_q(-qint(2))


small_scalars = st.builds(
    lambda c, e: QScalar.s_pow(e, c),
    st.integers(min_value=-4, max_value=4).filter(lambda c: c != 0),
    st.integers(min_value=-6, max_value=6),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(small_scalars, min_size=1, max_size=4), st.lists(small_scalars, min_size=1, max_size=4))
def test_eval_is_multiplicative(xs, ys):
    a = sum(xs, ZERO)
    b = sum(ys, ZERO)
    q0 = 0.5
    lhs = (a * b).evalf(q0)
    rhs = a.evalf(q0) * b.evalf(q0)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.lists(small_scalars, min_size=1, max_size=3), st.lists(small_scalars, min_size=1, max_size=3))
def test_field_laws(xs, ys):
    a = sum(xs, ZERO)
    b = sum(ys, ZERO)
    assert a + b == b + a
    assert a * b == b * a
    assert (a - b) + b == a
    if not b.is_zero():
        assert (a / b) * b == a


def test_canonical_equality():
    # same element reached along different arithmetic routes
    x = (qpow(2) - qpow(-2)) / (qpow(1) - qpow(-1))
    assert x == qint(2)
    assert hash(x) == hash(qint(2))


laurent_dicts = st.dictionaries(
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=-9, max_value=9).filter(lambda c: c != 0),
    min_size=1,
    max_size=5,
)
contents = st.integers(min_value=-6, max_value=6).filter(lambda c: c != 0)


def _scaled(p, c):
    return {e: c * v for e, v in p.items()}


@settings(max_examples=150, deadline=None)
@given(laurent_dicts, laurent_dicts, contents)
def test_laurent_quotient_is_exact(a, b, c):
    # leading coefficients other than +-1, negative ones, and a shared content c
    x = QScalar(_scaled(a, c), _canonical=True)
    y = QScalar(_scaled(b, c), _canonical=True)
    out = (x * y) / y
    assert out == x
    assert out.is_laurent()


def _reduce_via_gcd(num, den):
    """Canonical form of num/den by the gcd route alone, in Fraction arithmetic."""
    if not num:
        return {}, {0: 1}
    nlo, ncs = qcoeff._to_coeffs(num)
    dlo, dcs = qcoeff._to_coeffs(den)
    g = qcoeff._poly_gcd(ncs, dcs)

    def div(a):
        rem = [Fraction(v) for v in a]
        out = [Fraction(0)] * (len(a) - len(g) + 1)
        for i in range(len(out) - 1, -1, -1):
            out[i] = f = rem[i + len(g) - 1] / g[-1]
            for k, gk in enumerate(g):
                rem[i + k] -= f * gk
        assert not any(rem) and all(f.denominator == 1 for f in out)
        return [int(f) for f in out]

    num, den = qcoeff._from_coeffs(nlo, div(ncs)), qcoeff._from_coeffs(dlo, div(dcs))
    c = math.gcd(*num.values(), *den.values())
    if den[max(den)] < 0:
        c = -c
    lo = min(den)
    return {e - lo: v // c for e, v in num.items()}, {e - lo: v // c for e, v in den.items()}


@settings(max_examples=200, deadline=None)
@given(laurent_dicts, laurent_dicts, st.booleans(), contents)
# (1 + 3s)/(1 + 2s): the top quotient coefficient 3/2 is not an integer,
# though the remainder below it would vanish
@example({0: 1, 1: 3}, {0: 1, 1: 2}, False, 1)
def test_reduce_matches_gcd_route(num, den, divisible, c):
    if divisible:
        num = qcoeff._lmul(num, den)
    num, den = _scaled(num, c), _scaled(den, c)
    assert qcoeff._reduce(num, den) == _reduce_via_gcd(num, den)


def test_exact_quotients_skip_the_gcd(monkeypatch):
    def no_gcd(a, b):
        raise AssertionError("_poly_gcd reached for an exact quotient")

    monkeypatch.setattr(qcoeff, "_poly_gcd", no_gcd)
    m = qmultinomial([3, 4, 2])
    assert m * qfactorial(3) * qfactorial(4) * qfactorial(2) == qfactorial(9)
    gap = (qpow(0) - qpow(-3)) * qint(2)
    for k in range(5):
        for N in range(5):
            assert identities.laplacian_gap(k, N) == gap * qint(N)
    assert suq2.index_analytic(17) == 35
