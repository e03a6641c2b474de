"""The parser builds monomial products as words and rewrites each expression once.

The reference is a fold that multiplies factor by factor with ``mul`` and
raises generators to powers one ``mul`` at a time.  Normal forms are unique,
so both must give the same element.
"""

import random
from fractions import Fraction

import pytest

from qcpn import ncpoly, parser
from qcpn.ncpoly import NCPoly, Presentation, mul, normalize
from qcpn.parser import ParseError, parse_expr, print_expr
from qcpn.qcoeff import QScalar, qpow

# An expression is a list of terms; a term is (number of leading '-', factors);
# a factor is (atom, exponent or None); an atom is ("num", Fraction), ("q",),
# ("gen", index, starred) or ("group", expression).


def render(expr) -> str:
    terms = []
    for minus, factors in expr:
        parts = []
        for atom, power in factors:
            if atom[0] == "num":
                text = str(atom[1])
            elif atom[0] == "q":
                text = "q"
            elif atom[0] == "gen":
                text = f"z{atom[1]}" + ("*" if atom[2] else "")
            else:
                text = f"({render(atom[1])})"
            parts.append(text if power is None else f"{text}^{power}")
        terms.append("-" * minus + " ".join(parts))
    return " + ".join(terms)


def fold(expr, P: Presentation) -> NCPoly:
    """The element of expr with one mul per factor and per unit of a power."""
    total = NCPoly.zero()
    for minus, factors in expr:
        acc = NCPoly.one()
        for atom, power in factors:
            if atom[0] == "q":
                acc = mul(acc, NCPoly.scalar(qpow(1 if power is None else power)), P)
                continue
            if atom[0] == "num":
                base = NCPoly.scalar(QScalar.from_fraction(atom[1]))
            elif atom[0] == "gen":
                base = NCPoly.gen(atom[1], atom[2])
            else:
                base = fold(atom[1], P)
            for _ in range(1 if power is None else power):
                acc = mul(acc, base, P)
        total = total + (-acc if minus % 2 else acc)
    return normalize(total, P)


def random_monomials(rng: random.Random, n: int):
    """The shape of the benchmark's normalize inputs: a coefficient times up to 4 generator powers <= 3."""
    coeff = rng.choice(([], [(("q",), None)], [(("q",), -1)], [(("num", Fraction(2)), None)],
                        [(("num", Fraction(1, 3)), None)], [(("q",), 2)], [(("q",), Fraction(1, 2))]))
    gens = [(("gen", rng.randint(0, n), rng.random() < 0.5), rng.choice((None, None, 2, 3)))
            for _ in range(rng.randint(1, 4))]
    return coeff + gens


def random_expr(rng: random.Random, n: int, depth: int = 0):
    terms = []
    for _ in range(rng.randint(1, 2)):
        factors = random_monomials(rng, n)
        if depth == 0 and rng.random() < 0.4:
            group = random_expr(rng, n, depth + 1)
            factors.insert(rng.randrange(len(factors) + 1), (("group", group), rng.choice((None, 0, 2, 3, 4))))
        terms.append((rng.choice((0, 0, 1)), factors))
    return terms


@pytest.mark.parametrize("sphere", [True, False], ids=["sphere", "no-sphere"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_parse_equals_factor_by_factor_fold(n, sphere):
    rng = random.Random(100 * n + sphere)
    P = Presentation(n, sphere_reduction=sphere)
    for _ in range(40):
        expr = random_expr(rng, n)
        text = render(expr)
        got, want = parse_expr(text, n, P), fold(expr, P)
        assert got == want, text
        assert print_expr(got) == print_expr(want), text


def _num(x):
    return ("num", Fraction(x))


Z0, Z1 = ("gen", 0, False), ("gen", 1, False)
EDGES = [
    [(0, [(Z0, 0)])],  # z0^0
    [(0, [(_num(2), 3)])],  # 2^3
    [(0, [(("group", [(0, [(_num(2), None), (Z0, None)])]), 3)])],  # (2 z0)^3
    [(0, [(_num(0), None), (Z1, None)])],  # 0 z1
    [(0, [(_num(0), 0), (Z1, 2)])],  # 0^0 z1^2
    [(2, [(Z0, None)])],  # --z0
    [(0, [(_num(Fraction(1, 2)), 2)])],  # 1/2^2
    [(0, [(("group", [(0, [(("group", [(0, [(Z0, None)])]), None)])]), 2)])],  # ((z0))^2
    [(0, [(("group", [(0, [(Z0, None)]), (0, [(Z1, None)])]), 0)])],  # (z0 + z1)^0
    [(0, [(("group", [(0, [(Z0, None), (Z1, None)]), (1, [(Z0, None), (Z1, None)])]), None), (Z1, 3)])],
]


@pytest.mark.parametrize("expr", EDGES, ids=[render(e) for e in EDGES])
def test_edge_inputs_equal_the_fold(expr):
    for sphere in (True, False):
        P = Presentation(1, sphere_reduction=sphere)
        text = render(expr)
        assert parse_expr(text, 1, P) == fold(expr, P)


@pytest.mark.parametrize("text", ["z0^-1", "z1^2^2", "z2", "z0^1/2", "(z0)^-2"])
def test_edge_inputs_rejected(text):
    with pytest.raises(ParseError):
        parse_expr(text, 1)


def test_nesting_limit():
    """Parentheses up to parser._MAX_NESTING deep parse; deeper input is a ParseError, not a RecursionError."""
    depth = parser._MAX_NESTING
    assert parse_expr("(" * depth + "z0" + ")" * depth, 1) == NCPoly.gen(0)
    for depth in (parser._MAX_NESTING + 1, 5_000):
        with pytest.raises(ParseError, match="nested deeper") as err:
            parse_expr("(" * depth + "z0" + ")" * depth, 1)
        assert err.value.pos == parser._MAX_NESTING


def _count(monkeypatch, calls, module, name):
    """Replace module.name by a wrapper that counts its calls in calls[name]; returns the wrapper."""
    fn = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return wrapper


@pytest.mark.parametrize("text, n", [("q z1^3 z2* z0^2 + 1/3 z3 z1*", 3), ("z1^400", 1)])
def test_monomial_products_are_rewritten_once(monkeypatch, text, n):
    """An expression without parentheses is one _collect and no mul, whatever its powers."""
    calls = {"_collect": 0, "mul": 0}
    _count(monkeypatch, calls, ncpoly, "_collect")
    monkeypatch.setattr(parser, "mul", _count(monkeypatch, calls, ncpoly, "mul"), raising=False)
    parse_expr(text, n)
    assert calls == {"_collect": 1, "mul": 0}


def test_group_is_normalized_once_and_its_power_one_mul_per_unit(monkeypatch):
    """(z1 z1*)^3 z0: one normalize for the group, three muls for its power, one for z0, one at the end."""
    calls = {}
    _count(monkeypatch, calls, ncpoly, "_collect")
    parse_expr("(z1 z1*)^3 z0", 1)
    assert calls == {"_collect": 1 + 3 + 1 + 1}


def test_generator_names_take_every_digit():
    """At n = 10 the printed z10 parses back as z_10, so print_expr output round-trips."""
    P = Presentation(10, sphere_reduction=False)
    a = parse_expr("z9 z9*", 10, P)
    assert a == normalize(NCPoly.word((18, 19)), P)
    assert print_expr(a) == "z9* z9 + (q^2 - 1) * z10* z10"
    assert parse_expr(print_expr(a), 10, P) == a
    assert parse_expr("z10* z10", 10, P) == NCPoly.word((21, 20))
    with pytest.raises(ParseError, match="generator z12 out of range for n=3") as err:
        parse_expr("z12 z3", 3)  # z_12, not z_1 times 2
    assert err.value.pos == 0


LONG = "1" * 5_000  # past Python's default limit of 4,300 digits in an int conversion


@pytest.mark.parametrize("text, pos", [(LONG, 0), ("z0 + 2/" + LONG, 5), ("3 q^" + LONG, 4),
                                       ("z0^" + LONG, 3), ("q^-" + LONG + "/2", 3)],
                         ids=["number", "denominator", "q-exponent", "power", "negative-half"])
def test_number_literal_past_the_digit_limit_is_a_parse_error(text, pos):
    with pytest.raises(ParseError, match=r"number literal longer than \d+ digits") as err:
        parse_expr(text, 1)
    assert err.value.pos == pos


def test_generator_index_past_the_digit_limit_is_out_of_range():
    with pytest.raises(ParseError, match=r"generator z1{5000} out of range for n=2") as err:
        parse_expr("z0 z" + LONG + "*", 2)
    assert err.value.pos == 3
    assert parse_expr("z" + "0" * 5_000 + "1", 1) == NCPoly.gen(1)  # leading zeros: z_1


@pytest.mark.parametrize("text, pos", [("1/0", 0), ("z0 + 3/00", 5), ("q^1/0", 2), ("q^-1/0 z0", 3)])
def test_zero_denominator_is_a_parse_error(text, pos):
    with pytest.raises(ParseError, match="zero denominator") as err:
        parse_expr(text, 1)
    assert err.value.pos == pos
