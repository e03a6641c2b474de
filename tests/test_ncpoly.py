"""Rewriting engine: defining relations, confluence, star, U_q action."""

import copy
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcpn import ncpoly, suq2
from qcpn.ncpoly import (
    NCPoly,
    Presentation,
    UqGenerator,
    add_terms,
    letter,
    lincomb,
    mul,
    mul_sum,
    normalize,
    star,
    uq_act,
)
from qcpn.qcoeff import ONE, ZERO, QScalar, qint, qmultinomial, qpow
from qcpn.suq2 import dbar, l_act


def gens(n):
    return [NCPoly.gen(i) for i in range(n + 1)], [NCPoly.gen(i, True) for i in range(n + 1)]


def sphere_relations(P, include_sphere=True):
    """LHS - RHS of every defining relation of the level-n sphere."""
    n = P.n
    z, zs = gens(n)
    rels = []
    for i in range(n + 1):
        for j in range(i + 1, n + 1):
            rels.append(mul(z[i], z[j], P) - mul(z[j], z[i], P).scale(qpow(-1)))
    for i in range(n + 1):
        for j in range(n + 1):
            if i != j:
                rels.append(mul(zs[i], z[j], P) - mul(z[j], zs[i], P).scale(qpow(1)))
    rels.append(mul(zs[n], z[n], P) - mul(z[n], zs[n], P))
    one_minus_q2 = ONE - qpow(2)
    for i in range(n):
        acc = mul(zs[i], z[i], P) - mul(z[i], zs[i], P)
        for j in range(i + 1, n + 1):
            acc = acc - mul(z[j], zs[j], P).scale(one_minus_q2)
        rels.append(acc)
    if include_sphere:
        sphere = -NCPoly.one()
        for j in range(n + 1):
            sphere = sphere + mul(z[j], zs[j], P)
        rels.append(sphere)
    return rels


@pytest.mark.parametrize("n", [1, 2, 3])
def test_defining_relations_normalize_to_zero(n):
    P = Presentation(n)
    for r in sphere_relations(P):
        assert normalize(r, P).is_zero()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_commutation_relations_without_sphere_reduction(n):
    # the commutation relations hold in the free-of-sphere normal form too;
    # the sphere condition itself is only folded in when reduction is on
    P = Presentation(n, sphere_reduction=False)
    for r in sphere_relations(P, include_sphere=False):
        assert normalize(r, P).is_zero()
    sphere = -NCPoly.one()
    z, _ = gens(n)
    for j in range(n + 1):
        sphere = sphere + mul(z[j], NCPoly.gen(j, True), P)
    assert not normalize(sphere, P).is_zero()


@pytest.mark.parametrize("n", [1, 2])
def test_sphere_condition_both_forms(n):
    P = Presentation(n)
    z, zs = gens(n)
    acc = NCPoly.zero()
    for j in range(n + 1):
        acc = acc + mul(z[j], zs[j], P)
    assert acc == NCPoly.one()
    acc = NCPoly.zero()
    for j in range(n + 1):
        acc = acc + mul(zs[j], z[j], P).scale(qpow(2 * j))
    assert acc == NCPoly.one()


def test_mul_examples():
    P = Presentation(1)
    z, zs = gens(1)
    # z_1 z_0 = q z_0 z_1
    assert mul(z[1], z[0], P) == mul(z[0], z[1], P).scale(qpow(1))
    assert mul(NCPoly.one(), z[1], P) == z[1]
    # z_0 z_0^* at n=1, no sphere reduction: z_0^* z_0 - (1-q^2) z_1^* z_1
    Pn = Presentation(1, sphere_reduction=False)
    lhs = mul(z[0], zs[0], Pn)
    rhs = mul(zs[0], z[0], Pn) - mul(zs[1], z[1], Pn).scale(ONE - qpow(2))
    assert lhs == rhs


def test_star_examples():
    P = Presentation(1)
    z, zs = gens(1)
    assert star(z[0]) == zs[0]
    a = mul(z[0], z[1], P).scale(qpow(1))
    assert star(a, P) == normalize(NCPoly.word((3, 1), qpow(1)), P)
    # star of the defining-projection entry p_01 is p_10
    p01 = mul(zs[0], z[1], P)
    p10 = mul(zs[1], z[0], P)
    assert star(p01, P) == p10


def test_star_is_involutive_antihomomorphism():
    P = Presentation(2)
    rng = random.Random(5)
    for _ in range(40):
        a = _rand(P, rng)
        b = _rand(P, rng)
        assert star(star(a, P), P) == normalize(a, P)
        assert star(mul(a, b, P), P) == mul(star(b, P), star(a, P), P)


def _rand(P, rng, deg=3, terms=2):
    out = NCPoly.zero()
    for _ in range(terms):
        w = tuple(rng.randrange(2 * (P.n + 1)) for _ in range(rng.randint(0, deg)))
        out = out + NCPoly.word(w, qpow(rng.randint(-2, 2)))
    return out


@pytest.mark.parametrize("n", [1, 2, 3])
def test_associativity_confluence_randomized(n):
    P = Presentation(n)
    rng = random.Random(100 + n)
    for _ in range(170):
        a, b, c = (_rand(P, rng) for _ in range(3))
        assert mul(mul(a, b, P), c, P) == mul(a, mul(b, c, P), P)


@pytest.mark.parametrize("n", [1, 2])
def test_normalize_idempotent(n):
    P = Presentation(n)
    rng = random.Random(7)
    for _ in range(40):
        a = normalize(_rand(P, rng), P)
        assert normalize(a, P) == a


def test_star_normalize_compatibility():
    P = Presentation(2)
    rng = random.Random(17)
    for _ in range(60):
        a = _rand(P, rng)
        assert normalize(star(a), P) == star(normalize(a, P), P)


# -- the accumulation kernel -------------------------------------------------


def test_lincomb_cancellation_drops_zero_coefficients():
    P = Presentation(2)
    z, zs = gens(2)
    a = mul(zs[1], z[2], P)  # a single normal word
    b = mul(z[0], zs[0], P)  # several normal words
    assert lincomb([(a, qpow(2)), (a.scale(qpow(1)), -qpow(1))]).terms == {}
    assert lincomb([(a, None), (b, qpow(-1)), (b.scale(qpow(-1)), -ONE)]) == a
    acc = dict(b.terms)
    assert add_terms(acc, b.terms, -ONE) is acc and acc == {}
    mixed = lincomb([(a, None), (b, ONE), (b, -ONE), (NCPoly.one(), qpow(3))])
    assert mixed.terms.keys() == a.terms.keys() | {()}
    assert not any(c.is_zero() for c in mixed.terms.values())


def _word_pairs(n):
    word = st.lists(st.integers(0, 2 * n + 1), max_size=3).map(tuple)
    coeff = st.tuples(st.sampled_from([-2, -1, 1, 3]), st.integers(-3, 3))
    return st.tuples(st.just(n), st.lists(st.tuples(word, word, coeff), min_size=1, max_size=5))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3).flatmap(_word_pairs))
def test_lincomb_of_normal_forms_is_normal(case):
    # the invariant that lets is_projection, psi_dagger_psi, qtrace and
    # check_equivariance skip a final normalize
    n, pairs = case
    P = Presentation(n)
    coeffs = [QScalar.from_int(k) * qpow(e) for _, _, (k, e) in pairs]
    total = lincomb((mul(NCPoly.word(u), NCPoly.word(v), P), c) for (u, v, _), c in zip(pairs, coeffs))
    assert normalize(total, P) == total
    raw = lincomb((NCPoly.word(u + v), c) for (u, v, _), c in zip(pairs, coeffs))
    assert normalize(raw, P) == total


# -- the integer kernel against the QScalar letter engine ---------------------


class LetterEngine:
    """Normal forms by pushing letters with QScalar coefficients throughout.

    This is the engine the integer kernel replaced, kept as an oracle: the
    same rules (Presentation._rewrite_pair) and the same memoized
    insertion-sort pushes, with every sum an add_terms over QScalars.
    """

    def __init__(self, P):
        self.P = P
        self.cache = {}

    def push(self, g, w):
        key = (g, w)
        if key not in self.cache:
            repl = self.P._rewrite_pair(g, w[0]) if w else None
            if repl is None:
                res = {(g,) + w: ONE}
            else:
                res = {}
                for coeff, mid in repl:
                    poly = {w[1:]: ONE}
                    for g2 in reversed(mid):
                        poly = self.push_poly(g2, poly)
                    add_terms(res, poly, coeff)
            self.cache[key] = res
        return self.cache[key]

    def push_poly(self, g, poly):
        out = {}
        for w, c in poly.items():
            add_terms(out, self.push(g, w), c)
        return out

    def combine(self, items):
        """sum of c * (normal form of w) over (w, c), term by term."""
        out = {}
        for w, c in items:
            poly = {(): ONE}
            for g in reversed(w):
                poly = self.push_poly(g, poly)
            add_terms(out, poly, c)
        return out


# Laurent (integer, q^{1/2}-power, multi-term), rational and genuinely rational coefficients
COEFFS = [ONE, -ONE, qpow(Fraction(1, 2)), -qpow(Fraction(-3, 2)) * QScalar.from_int(2), ONE - qpow(2),
          QScalar.from_fraction(Fraction(1, 3)), QScalar.from_fraction(Fraction(-2, 3)) * qpow(1), qint(Fraction(1, 2))]


def _oracle_cases(n):
    word = st.lists(st.integers(0, 2 * n + 1), max_size=6).map(tuple)
    terms = st.lists(st.tuples(word, st.sampled_from(COEFFS)), min_size=1, max_size=4)
    return st.tuples(st.just(n), st.booleans(), terms, terms)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 3).flatmap(_oracle_cases))
def test_integer_kernel_matches_letter_engine(case):
    n, sphere, ta, tb = case
    P = Presentation(n, sphere_reduction=sphere)
    oracle = LetterEngine(P)
    a, b = NCPoly(dict(ta)), NCPoly(dict(tb))
    for got, items in (
        (normalize(a, P), a.terms.items()),
        (mul(a, b, P), [(wa + wb, ca * cb) for wa, ca in a.terms.items() for wb, cb in b.terms.items()]),
    ):
        want = oracle.combine(items)
        assert got.terms == want
        if len({tuple(sorted(c.den.items())) for _, c in items}) == 1:
            assert list(got.terms) == list(want)  # one denominator: the same word order too


def test_normal_word_pushes_only_the_letters_before_its_normal_suffix():
    """A random prefix before a normal word: the same normal form as pushing every letter, word order included."""
    rng = random.Random(5)
    for n in (1, 2, 3):
        for sphere in (True, False):
            P = Presentation(n, sphere_reduction=sphere)
            oracle = LetterEngine(P)
            for _ in range(30):
                prefix = tuple(rng.randrange(2 * n + 2) for _ in range(rng.randint(0, 4)))
                # letters in normal order z_0^* < z_0 < z_1^* < ... < z_n
                suffix = sorted((rng.randrange(2 * n + 2) for _ in range(rng.randint(0, 6))),
                                key=lambda g: (g >> 1, 1 - (g & 1)))
                if sphere and 2 * n in suffix:  # z_n^* z_n is reducible under sphere reduction
                    suffix = [g for g in suffix if g != 2 * n + 1]
                suffix = tuple(suffix)
                assert all(not P._reducible(a, b) for a, b in zip(suffix, suffix[1:]))
                got = normalize(NCPoly.word(prefix + suffix), P)
                want = oracle.combine([(prefix + suffix, ONE)])
                assert list(got.terms.items()) == list(want.items())


def test_normal_power_leaves_the_push_cache_empty():
    """z0^4000 is already normal: no letter is pushed, so the push cache stays empty."""
    from qcpn.parser import parse_expr

    P = Presentation(1)
    assert parse_expr("z0^4000", 1, P) == NCPoly.word((0,) * 4000)
    assert len(P._push_cache) == 0  # len: a failing push cache holds k^2/2 letters, too many to print
    assert list(P._nf_cache) == [(0,) * 4000]


def _normal_word(rng, n, sphere, run):
    """A random normal word z_0^*^{a_0} z_0^{b_0} ... z_n^{b_n}, each run 0..run letters long."""
    w = []
    for j in range(n + 1):
        a, b = (rng.randint(0, run) if rng.random() < 0.6 else 0 for _ in range(2))
        if sphere and j == n and a and b:  # z_n^* z_n is reducible under sphere reduction
            a = 0
        w += [letter(j, True)] * a + [letter(j, False)] * b
    return tuple(w)


def test_one_step_crossing_of_lower_index_runs_matches_letter_engine():
    """Prefix letters pushed across lower-index runs of up to 12 letters: the oracle's terms, word order included."""
    rng = random.Random(24)
    for n in (1, 2, 3):
        for sphere in (True, False):
            P = Presentation(n, sphere_reduction=sphere)
            oracle = LetterEngine(P)
            for _ in range(25):
                w = _normal_word(rng, n, sphere, 12)
                assert all(not P._reducible(a, b) for a, b in zip(w, w[1:]))
                prefix = tuple(rng.randrange(2 * n + 2) for _ in range(rng.randint(1, 3)))
                got = normalize(NCPoly.word(prefix + w), P)
                want = oracle.combine([(prefix + w, ONE)])
                assert list(got.terms.items()) == list(want.items())


def test_letter_across_a_lower_index_run_is_one_push_key():
    """z1 z0^4000 is q^4000 z0^4000 z1 in one push: one key, not one per suffix of the run."""
    from qcpn.parser import parse_expr

    P = Presentation(1)
    assert parse_expr("z1 z0^4000", 1, P) == NCPoly.word((0,) * 4000 + (2,), qpow(4000))
    assert list(P._push_cache) == [(2, (0,) * 4000)]


def test_two_lower_index_runs_cost_one_push_key_per_moved_letter():
    """z2 z1^200 z0^200: each of the 201 moved letters crosses its lower-index runs in one push."""
    from qcpn.parser import parse_expr

    P = Presentation(2)
    assert parse_expr("z2 z1^200 z0^200", 2, P) == NCPoly.word((0,) * 200 + (2,) * 200 + (4,), qpow(40400))
    assert len(P._push_cache) <= 201  # len: a failing push cache holds millions of letters, too many to print


def _all_normal_words(n, sphere, run):
    """Every normal word whose runs are 0..run letters long."""
    blocks = [[(letter(j, True),) * a + (letter(j, False),) * b
               for a in range(run + 1) for b in range(run + 1) if not (sphere and j == n and a and b)]
              for j in range(n + 1)]  # z_n^* z_n is reducible under sphere reduction
    return [sum(combo, ()) for combo in itertools.product(*blocks)]


@pytest.mark.parametrize("sphere", [True, False], ids=["sphere", "no-sphere"])
@pytest.mark.parametrize("n, run", [(1, 3), (2, 2), (3, 1)])
def test_closed_form_push_matches_letter_engine(n, run, sphere):
    """Every generator pushed onto every normal word with short runs: the oracle's terms, in its word order."""
    P = Presentation(n, sphere_reduction=sphere)
    oracle = LetterEngine(P)
    for w in _all_normal_words(n, sphere, run):
        assert all(not P._reducible(a, b) for a, b in zip(w, w[1:]))
        for g in range(2 * n + 2):
            got = [(u, QScalar(dict(c), _canonical=True)) for u, c in P._push(g, w).items()]
            assert got == list(oracle.push(g, w).items())


def test_letter_across_its_own_index_run_is_one_push_key():
    """z0 z0*^2000 is one closed-form push: one key, not one per suffix of the run."""
    from qcpn.parser import parse_expr

    P = Presentation(1)
    want = NCPoly({(1,) * 1999: ONE - qpow(-4000), (1,) * 2000 + (0,): qpow(-4000)})
    assert parse_expr("z0 z0*^2000", 1, P) == want
    assert list(P._push_cache) == [(0, (1,) * 2000)]


# -- mul_sum: every sum of products as one integer accumulation --------------

# coefficients for the random polynomials and the triple scales: Laurent ones,
# 1/[2] and 1/3 (non-unit denominators, so _collect sums across denominators)
SUM_COEFFS = [ONE, -qpow(1), ONE - qpow(2), qpow(Fraction(-1, 2)), qint(2).inv(),
              -qint(2).inv() * qpow(1), QScalar.from_fraction(Fraction(1, 3))]


def _rand_poly(P, rng, coeffs, deg=4, terms=3):
    return lincomb(
        (NCPoly.word(rng.randrange(2 * (P.n + 1)) for _ in range(rng.randint(0, deg))), rng.choice(coeffs))
        for _ in range(rng.randint(0, terms))  # zero terms: an empty polynomial
    )


@pytest.mark.parametrize("sphere", [True, False], ids=["sphere", "no-sphere"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_mul_sum_equals_lincomb_of_products(n, sphere):
    P = Presentation(n, sphere_reduction=sphere)
    oracle = LetterEngine(P)
    rng = random.Random(1000 * n + sphere)
    scales = [None, ZERO] + SUM_COEFFS
    for case in range(60):
        coeffs = SUM_COEFFS if case % 2 else SUM_COEFFS[:4]  # odd cases mix denominators
        triples = [(_rand_poly(P, rng, coeffs), _rand_poly(P, rng, coeffs), rng.choice(scales))
                   for _ in range(rng.randint(1, 4))]
        got = mul_sum(triples, P)
        assert got == lincomb((mul(a, b, P), c) for a, b, c in triples)
        items = [(wa + wb, (ca if c is None else c * ca) * cb)
                 for a, b, c in triples for wa, ca in a.terms.items() for wb, cb in b.terms.items()]
        want = oracle.combine(items)
        assert got.terms == want
        if not any(c.den != ONE.den for _, c in items):
            assert list(got.terms) == list(want)  # Laurent coefficients: the term-by-term word order


@pytest.mark.parametrize("sphere", [True, False], ids=["sphere", "no-sphere"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_cached_normal_forms_are_never_mutated(n, sphere):
    """The caches share their dict values with later sums: summing over them leaves every entry as it was."""
    P = Presentation(n, sphere_reduction=sphere)
    rng = random.Random(300 * n + sphere)
    for _ in range(40):
        normalize(NCPoly.word(rng.randrange(2 * (n + 1)) for _ in range(rng.randint(1, 5))), P)
    nf, push = copy.deepcopy(P._nf_cache), copy.deepcopy(P._push_cache)
    words = [NCPoly.word(w) for w in nf] + [NCPoly.word(u) for form in push.values() for u in form]
    for _ in range(80):
        a, b, c = rng.choice(words), rng.choice(words), rng.choice(SUM_COEFFS)
        mul_sum([(a, b, c), (b, a, None), (a, a, -c)], P)
        normalize(lincomb([(mul_sum([(a, b, None)], P), c), (b, None)]), P)
        (wa,), (wb,) = a.terms, b.terms
        normalize(NCPoly({wa + wb: c, wb + wa: ONE - qpow(2)}), P)
    assert len(P._nf_cache) > len(nf) and len(P._push_cache) > len(push)
    assert {w: P._nf_cache[w] for w in nf} == nf
    assert {k: P._push_cache[k] for k in push} == push


def test_mul_sum_edge_cases():
    P = Presentation(2)
    z, zs = gens(2)
    a = z[0] + zs[1].scale(qint(2).inv())
    b = zs[0].scale(qpow(-1)) + NCPoly.one()
    assert mul_sum([], P) == NCPoly.zero()
    assert mul_sum([(a, b, ZERO)], P) == NCPoly.zero()
    assert mul_sum([(NCPoly.zero(), b, ONE), (a, NCPoly.zero(), None)], P) == NCPoly.zero()
    assert mul_sum([(a, b, None)], P) == mul(a, b, P)
    assert mul_sum([(a, b, None), (a, b, -ONE)], P) == NCPoly.zero()
    assert mul_sum([(a, b, qint(2)), (b, a, ZERO)], P) == mul(a, b, P).scale(qint(2))
    # z0 z0* + z1 z1* + z2 z2* = 1, summed across products
    assert mul_sum([(z[j], zs[j], None) for j in range(3)], P) == NCPoly.one()


def test_mul_sum_step_budget_bounds_the_whole_sum(monkeypatch):
    P = Presentation(1)
    z, zs = gens(1)
    pairs = [(z[0], zs[0]), (z[1], zs[1])]
    steps = []
    for a, b in pairs:
        mul(a, b, P)
        steps.append(P._steps)
    P2 = Presentation(1)
    mul_sum([(a, b, None) for a, b in pairs], P2)
    assert P2._steps == sum(steps) > max(steps)
    monkeypatch.setattr(ncpoly, "_MAX_STEPS", max(steps))
    with pytest.raises(ArithmeticError, match="step budget exceeded"):
        mul_sum([(a, b, None) for a, b in pairs], Presentation(1))


def test_mul_sum_multi_term_triple_scalars(monkeypatch):
    # qint(3) = qmultinomial([2, 1]) has 3 Laurent terms and qmultinomial([2, 2]) has 5, so the
    # products of such a triple multiply multi-term Laurent coefficients
    P = Presentation(2)
    z, zs = gens(2)
    a, b = z[1] - z[0].scale(qpow(1)), z[0] + z[1]  # z1 z0 = q z0 z1, so the z0 z1 products cancel
    assert (0, 2) not in mul(a, b, P).terms and len(mul(a, b, P).terms) == 2
    laurent = [
        (z[0] + zs[1].scale(qpow(-1)), zs[0] + z[2], qint(3)),
        (a, b, qmultinomial([2, 2])),
        (z[2], zs[0] + z[1] + NCPoly.one(), None),
        (zs[2], z[2].scale(ONE - qpow(2)), qmultinomial([2, 1])),
        (z[0], z[1], ZERO),
    ]
    mixed = laurent + [
        (zs[2] + NCPoly.one(), z[1].scale(qint(2).inv()), qint(3)),  # a non-unit denominator beside a multi-term c
        (zs[1], z[0], QScalar.from_fraction(Fraction(1, 3))),
        (z[1], zs[1], qint(2).inv()),
    ]
    oracle = LetterEngine(P)
    for triples in (laurent, mixed):
        got = mul_sum(triples, P)
        assert got == lincomb((mul(a, b, P), c) for a, b, c in triples)
        items = [(wa + wb, (ca if c is None else c * ca) * cb)
                 for a, b, c in triples for wa, ca in a.terms.items() for wb, cb in b.terms.items()]
        want = oracle.combine(items)
        assert got.terms == want
        if triples is laurent:
            assert list(got.terms) == list(want)  # Laurent coefficients: the term-by-term word order
    # the step budget bounds the whole sum
    P1, P2 = Presentation(2), Presentation(2)
    steps = []
    for t in mixed:
        mul_sum([t], P1)
        steps.append(P1._steps)
    mul_sum(mixed, P2)
    assert P2._steps == sum(steps) > max(steps)
    monkeypatch.setattr(ncpoly, "_MAX_STEPS", max(steps))
    with pytest.raises(ArithmeticError, match="step budget exceeded"):
        mul_sum(mixed, Presentation(2))


def test_mixed_denominators_cancel():
    # 1/3 w + 2/3 w - w with w = z0 z1 (n = 1): z1 z0 = q z0 z1 and z0 z1 (z0 z0* + z1 z1*) = z0 z1
    P = Presentation(1)
    third, two_thirds = QScalar.from_fraction(Fraction(1, 3)), QScalar.from_fraction(Fraction(2, 3))
    a = NCPoly({(0, 2): third, (2, 0): two_thirds * qpow(-1), (0, 2, 0, 1): -ONE, (0, 2, 2, 3): -ONE})
    assert normalize(a, P).terms == {}
    assert mul(NCPoly.one(), a, P).terms == {}
    assert mul(a, NCPoly.gen(1, True), P).terms == {}
    assert normalize(NCPoly({(0, 2): third, (2, 0): two_thirds * qpow(-1)}), P) == NCPoly.word((0, 2))


@pytest.mark.parametrize("sphere", [True, False], ids=["sphere", "no-sphere"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_reducible_pairs_are_the_rule_table(n, sphere):
    """_reducible(a, b) holds exactly for the pairs _rewrite_pair rewrites, and every rule is Laurent."""
    P = Presentation(n, sphere_reduction=sphere)
    for a in range(2 * n + 2):
        for b in range(2 * n + 2):
            rule = P._rewrite_pair(a, b)
            assert (rule is not None) == P._reducible(a, b), (a, b)
            assert all(c.is_laurent() for c, _ in rule or ()), (a, b)


@pytest.mark.parametrize("n", [1, 2])
def test_products_reject_letters_outside_the_presentation(n):
    """mul, mul_sum and star with P reject z_{n+1}, z_{n+1}^* and letter -1 with the error normalize gives."""
    P = Presentation(n)
    for g in (letter(n + 1, False), letter(n + 1, True), -1):
        bad = NCPoly.word((g,))
        for op in (lambda: mul(bad, NCPoly.gen(0, True), P), lambda: mul(NCPoly.gen(n), bad, P),
                   lambda: mul_sum([(NCPoly.gen(0), NCPoly.gen(1), None), (NCPoly.one(), bad, qpow(1))], P),
                   lambda: normalize(bad, P), lambda: star(bad, P)):
            with pytest.raises(ValueError, match=f"generator index {g >> 1} out of range for n={n}"):
                op()


# -- U_q(su(n+1)) action -----------------------------------------------------


def test_counit_on_unit():
    P = Presentation(2)
    for kind in ("E", "F", "K", "Kinv", "K2rho"):
        x = UqGenerator(kind, 1)
        res = uq_act(x, NCPoly.one(), P)
        if kind in ("E", "F"):
            assert res.is_zero()
        else:
            assert res == NCPoly.one()


@pytest.mark.parametrize("n", [1, 2])
def test_highest_weight_monomial(n):
    """E_i z_0^N = 0 and K_n z_0^N = q^{N/2} z_0^N."""
    P = Presentation(n)
    N = 3
    z0N = NCPoly.word((0,) * N)
    for i in range(1, n + 1):
        assert uq_act(UqGenerator("E", i), z0N, P).is_zero()
    assert uq_act(UqGenerator("K", n), z0N, P) == z0N.scale(qpow(Fraction(N, 2)))
    for i in range(1, n):
        assert uq_act(UqGenerator("K", i), z0N, P) == z0N


def test_k2rho_is_k_squared_at_n1():
    P = Presentation(1)
    rng = random.Random(23)
    for _ in range(20):
        a = _rand(P, rng)
        viaK = uq_act(UqGenerator("K", 1), uq_act(UqGenerator("K", 1), a, P), P)
        assert uq_act(UqGenerator("K2rho", 1), a, P) == viaK


@pytest.mark.parametrize("n", [1, 2])
def test_module_algebra_law(n):
    """x(ab) = (x_(1) a)(x_(2) b) with Delta(E) = E(x)K + K^{-1}(x)E."""
    P = Presentation(n)
    rng = random.Random(31 + n)
    for i in range(1, n + 1):
        E, F = UqGenerator("E", i), UqGenerator("F", i)
        K, Ki = UqGenerator("K", i), UqGenerator("Kinv", i)
        for _ in range(12):
            a, b = _rand(P, rng, deg=2), _rand(P, rng, deg=2)
            ab = mul(a, b, P)
            lhs = uq_act(E, ab, P)
            rhs = mul(uq_act(E, a, P), uq_act(K, b, P), P) + mul(
                uq_act(Ki, a, P), uq_act(E, b, P), P
            )
            assert lhs == rhs
            lhs = uq_act(F, ab, P)
            rhs = mul(uq_act(F, a, P), uq_act(K, b, P), P) + mul(
                uq_act(Ki, a, P), uq_act(F, b, P), P
            )
            assert lhs == rhs
            assert uq_act(K, ab, P) == mul(uq_act(K, a, P), uq_act(K, b, P), P)


def test_uq_su2_relations_on_elements():
    """[E,F] a = (K^2 - K^{-2})/(q - q^{-1}) a on random elements (n=1)."""
    P = Presentation(1)
    E, F = UqGenerator("E", 1), UqGenerator("F", 1)
    K, Ki = UqGenerator("K", 1), UqGenerator("Kinv", 1)
    den = qpow(1) - qpow(-1)
    rng = random.Random(41)
    for _ in range(15):
        a = _rand(P, rng, deg=2)
        lhs = uq_act(E, uq_act(F, a, P), P) - uq_act(F, uq_act(E, a, P), P)
        k2 = uq_act(K, uq_act(K, a, P), P)
        k2i = uq_act(Ki, uq_act(Ki, a, P), P)
        rhs = (k2 - k2i).scale(den.inv())
        assert lhs == rhs
        # K E K^{-1} = q E
        lhs = uq_act(K, uq_act(E, uq_act(Ki, a, P), P), P)
        assert lhs == uq_act(E, a, P).scale(qpow(1))


def test_step_budget_guard(monkeypatch):
    monkeypatch.setattr(ncpoly, "_MAX_STEPS", 0)
    P = Presentation(1)
    z, zs = gens(1)
    with pytest.raises(ArithmeticError, match="step budget exceeded"):
        mul(z[0], zs[0], P)


KINDS = ("E", "F", "K", "Kinv", "K2rho", "K2rhoInv")


@pytest.mark.parametrize("kind", KINDS)
def test_action_rejects_letters_outside_the_presentation(kind):
    P = Presentation(1)
    for a in (NCPoly.gen(3), NCPoly.gen(2, True), NCPoly.word((0, 1, 9)), NCPoly.word((-1,))):
        with pytest.raises(ValueError, match="generator index -?[0-9]+ out of range"):
            uq_act(UqGenerator(kind, 1), a, P)
    if kind in ("E", "F", "K"):
        with pytest.raises(ValueError, match="generator index 2 out of range"):
            l_act(kind, NCPoly.word((0, 4)), P)


@pytest.mark.parametrize("kind", ("E", "F", "K", "Kinv"))
def test_action_rejects_generator_index_outside_1_to_n(kind):
    P = Presentation(2)
    for i in (0, 3, -1):
        with pytest.raises(ValueError, match=f"U_q generator index {i} out of range 1..2"):
            uq_act(UqGenerator(kind, i), NCPoly.gen(0), P)


# -- the table action against the engine it replaced ---------------------------


# the n = 1 L_E / L_F letter images as (coefficient, letter): L_E |> z_0 = -z_1^*, L_E |> z_1 = q^{-1} z_0^*,
# L_F |> z_0^* = q z_1, L_F |> z_1^* = -z_0
_L_TABLES = {"E": {0: (-ONE, 3), 2: (qpow(-1), 1)}, "F": {1: (qpow(1), 2), 3: (-ONE, 0)}}


class ParentAction:
    """The U_q action before its letter tables, kept as an oracle.

    Fraction K-weights recomputed per letter, E/F images from if-chains
    behind callbacks, and a TermMap filled by single-entry add_terms calls
    and normalized at the end.  ``items`` records the (word, coefficient)
    items in the order they were produced.
    """

    def __init__(self, P):
        self.P, self.n = P, P.n
        self.items = []

    def k_weight(self, i, g):
        t, starred = g >> 1, g & 1
        w = Fraction(0)
        if t == self.n - i:
            w += Fraction(1, 2)
        if t == self.n + 1 - i:
            w -= Fraction(1, 2)
        return -w if starred else w

    def k2rho_weight(self, g):
        n = self.n
        return int(sum(2 * i * (n + 1 - i) * self.k_weight(i, g) for i in range(1, n + 1)))

    def e_on_letter(self, i, g):
        t, starred = g >> 1, g & 1
        if not starred:
            return (ONE, 2 * (t - 1)) if t == self.n + 1 - i else None
        return (-qpow(1), 2 * (t + 1) + 1) if t == self.n - i else None

    def f_on_letter(self, i, g):
        t, starred = g >> 1, g & 1
        if not starred:
            return (ONE, 2 * (t + 1)) if t == self.n - i else None
        return (-qpow(-1), 2 * (t - 1) + 1) if t == self.n + 1 - i else None

    def coproduct(self, a, weight, on_letter=None):
        acc = {}
        self.items = []
        for w, c in a.terms.items():
            ws = [weight(g) for g in w]
            if on_letter is None:
                self.items.append((w, c * qpow(sum(ws))))
                add_terms(acc, {w: self.items[-1][1]})
                continue
            left, total = 0, sum(ws)
            for p, g in enumerate(w):
                hit = on_letter(g)
                if hit is not None:
                    coeff, g2 = hit
                    self.items.append((w[:p] + (g2,) + w[p + 1:], c * coeff * qpow(total - ws[p] - 2 * left)))
                    add_terms(acc, {self.items[-1][0]: self.items[-1][1]})
                left += ws[p]
        return normalize(NCPoly(acc), self.P)

    def uq_act(self, x, a):
        i = x.i
        if x.kind in ("K", "E", "F"):
            weight = lambda g: self.k_weight(i, g)
        elif x.kind == "Kinv":
            weight = lambda g: -self.k_weight(i, g)
        else:
            sign = -1 if x.kind == "K2rhoInv" else 1
            weight = lambda g: sign * self.k2rho_weight(g)
        if x.kind not in ("E", "F"):
            return self.coproduct(a, weight)
        on_letter = self.e_on_letter if x.kind == "E" else self.f_on_letter
        return self.coproduct(a, weight, lambda g: on_letter(i, g))

    def l_act(self, kind, a):
        lk = lambda g: Fraction(1, 2) if (g & 1) else Fraction(-1, 2)
        if kind == "K":
            return self.coproduct(a, lk)
        return self.coproduct(a, lambda g: -lk(g), _L_TABLES[kind].get)

    def streamed(self):
        """sum of c * (normal form of w) over the recorded items, term by term."""
        acc = {}
        for w, c in self.items:
            add_terms(acc, normalize(NCPoly.word(w), self.P).terms, c)
        return NCPoly(acc)


def _assert_same_action(got, oracle, want):
    assert got.terms == want.terms
    if len({tuple(sorted(c.den.items())) for _, c in oracle.items}) <= 1:
        assert list(got.terms) == list(oracle.streamed().terms)  # one denominator: the same word order too


def _action_cases(n):
    word = st.lists(st.integers(0, 2 * n + 1), max_size=5).map(tuple)
    terms = st.lists(st.tuples(word, st.sampled_from(COEFFS)), min_size=1, max_size=4)
    return st.tuples(st.just(n), st.booleans(), st.booleans(), terms)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3).flatmap(_action_cases))
def test_table_action_matches_parent_engine(case):
    n, sphere, normal_input, terms = case
    P = Presentation(n, sphere_reduction=sphere)
    oracle = ParentAction(P)
    a = NCPoly(dict(terms))
    if normal_input:
        a = normalize(a, P)
    for kind in KINDS:
        for i in range(1, n + 1):
            x = UqGenerator(kind, i)
            _assert_same_action(uq_act(x, a, P), oracle, oracle.uq_act(x, a))
    if n == 1:
        for kind in ("E", "F", "K"):
            _assert_same_action(l_act(kind, a, P), oracle, oracle.l_act(kind, a))
        assert dbar(a, P) == oracle.l_act("F", a).scale(-qpow(-2))


def test_streamed_word_order_when_a_partial_sum_cancels():
    # E_1 at n = 1 without sphere reduction: two items share an output word, and
    # the normal forms of the items between them cancel a word that both reach.
    # The terms equal the TermMap-then-normalize engine's; the words come out in
    # the order of the term-by-term sum of the items, as in mul.
    P = Presentation(1, sphere_reduction=False)
    a = NCPoly({(1, 2, 3): ONE, (1, 0): -qpow(1), (3, 0, 2): qpow(-2), (3,): qpow(-1), (3, 2, 1): -ONE})
    oracle = ParentAction(P)
    want = oracle.uq_act(UqGenerator("E", 1), a)
    got = uq_act(UqGenerator("E", 1), a, P)
    assert got.terms == want.terms
    assert list(got.terms) == list(oracle.streamed().terms) != list(want.terms)


# -- the U_q actions on integers against the QScalar route they replaced -------


def _coproduct_reference(a, P, weight, image=None):
    """coproduct_act as it was on QScalars: image[g] = (coeff, g2), and every item a QScalar product."""
    for w in a.terms:
        P.check_letters(w)

    def items():
        for w, c in a.terms.items():
            ws = [weight[g] for g in w]
            total = sum(ws)
            if image is None:
                yield w, c * QScalar.s_pow(total)
                continue
            left = 0
            for p, g in enumerate(w):
                hit = image.get(g)
                if hit is not None:
                    coeff, g2 = hit
                    yield w[:p] + (g2,) + w[p + 1:], c * coeff * QScalar.s_pow(total - ws[p] - 2 * left)
                left += ws[p]

    return ncpoly._collect(((w, tuple(sorted(c.den.items())), c.num) for w, c in items() if c.num), P)


def _uq_reference(x, a, P):
    """uq_act as it was: the E/F images as QScalar coefficients, through _coproduct_reference."""
    n, i = P.n, x.i
    if x.kind in ("K2rho", "K2rhoInv"):
        sign = -1 if x.kind == "K2rhoInv" else 1
        tables = [(2 * j * (n + 1 - j), ncpoly._k_weight(j, n)) for j in range(1, n + 1)]
        return _coproduct_reference(a, P, [sign * sum(c * t[g] for c, t in tables) for g in range(2 * n + 2)])
    weight = ncpoly._k_weight(i, n)
    if x.kind == "K":
        return _coproduct_reference(a, P, weight)
    if x.kind == "Kinv":
        return _coproduct_reference(a, P, [-w for w in weight])
    lo, hi = 2 * (n - i), 2 * (n + 1 - i)
    if x.kind == "E":
        return _coproduct_reference(a, P, weight, {hi: (ONE, lo), lo + 1: (-qpow(1), hi + 1)})
    return _coproduct_reference(a, P, weight, {lo: (ONE, hi), hi + 1: (-qpow(-1), lo + 1)})


def _l_reference(kind, a, P):
    if kind == "K":
        return _coproduct_reference(a, P, suq2._LK_WEIGHT)
    return _coproduct_reference(a, P, [-w for w in suq2._LK_WEIGHT], _L_TABLES[kind])


# 1/3 and 1/(1 + q^2) put non-unit denominators into the acted-on terms
ACTION_COEFFS = [ONE, -qpow(1), ONE - qpow(2), qpow(Fraction(-1, 2)), QScalar.from_fraction(Fraction(1, 3)),
                 (ONE + qpow(2)).inv(), -(ONE + qpow(2)).inv() * qpow(Fraction(3, 2))]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_integer_action_equals_the_qscalar_route(n):
    """uq_act (and l_act at n = 1) equals the per-letter QScalar route exactly, denominators included."""
    P = Presentation(n)
    rng = random.Random(320 + n)
    denominators = set()
    for _ in range(30):
        a = normalize(_rand_poly(P, rng, ACTION_COEFFS), P)
        denominators |= {tuple(sorted(c.den.items())) for c in a.terms.values()}
        for kind in ("E", "F", "K", "Kinv", "K2rho"):
            for i in range(1, n + 1):
                x = UqGenerator(kind, i)
                assert uq_act(x, a, P).terms == _uq_reference(x, a, P).terms, (x, a)
        if n == 1:
            for kind in ("E", "F", "K"):
                assert l_act(kind, a, P).terms == _l_reference(kind, a, P).terms, (kind, a)
    assert {((0, 3),), ((0, 1), (4, 1))} <= denominators  # 3 and 1 + q^2 reach the actions


def _count_qscalar_ops(monkeypatch):
    calls = {"__mul__": 0, "__add__": 0}
    for name in calls:
        original = getattr(QScalar, name)

        def counting(self, other, name=name, original=original):
            calls[name] += 1
            return original(self, other)

        monkeypatch.setattr(QScalar, name, counting)
    return calls


@pytest.mark.parametrize("n", [1, 2])
def test_actions_and_lincomb_take_no_qscalar_operation_on_laurent_input(n, monkeypatch):
    """On Laurent coefficients uq_act and lincomb multiply and add numerators only: QScalar * and + are never called."""
    P = Presentation(n)
    rng = random.Random(330 + n)
    inputs = [normalize(_rand_poly(P, rng, SUM_COEFFS[:4]), P) for _ in range(20)]
    scales = [None] + SUM_COEFFS[:4]
    want = [[uq_act(UqGenerator(kind, i), a, P) for kind in KINDS for i in range(1, n + 1)] for a in inputs]
    calls = _count_qscalar_ops(monkeypatch)
    got = [[uq_act(UqGenerator(kind, i), a, P) for kind in KINDS for i in range(1, n + 1)] for a in inputs]
    total = lincomb((b, scales[k % len(scales)]) for k, b in enumerate(itertools.chain(*got)))
    assert calls == {"__mul__": 0, "__add__": 0}
    assert got == want and total.terms
