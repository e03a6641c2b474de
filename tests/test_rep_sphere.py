"""Fock representations pi_{n,k} and the Fredholm index pairing."""

import collections
import copy
import functools
import itertools
import random

import numpy as np
import pytest

from qcpn import rep_sphere
from qcpn.ncpoly import NCPoly, Presentation, mul, normalize
from qcpn.projections import is_projection, projection, psi
from qcpn.qcoeff import ONE, qint, qpow
from qcpn.rep_sphere import (
    FockRep,
    NotLaurentError,
    RepSpec,
    character,
    _crossings,
    compose_sum,
    fock_image,
    fock_images,
    fock_states,
    fredholm_pairing,
    fredholm_pairings,
    pullback,
    rule_violations,
    scale_image,
)

Q0 = 0.5


def test_state_constraints():
    # V^2_1: m_1 free, m_2 free; V^2_2: m_1 <= m_2; V^2_0: m_1 > m_2
    s20 = fock_states(RepSpec(2, 0, 4, Q0))
    assert all(m[0] > m[1] for m in s20)
    s22 = fock_states(RepSpec(2, 2, 4, Q0))
    assert all(m[0] <= m[1] for m in s22)
    assert [len(fock_states(RepSpec(2, k, 4, Q0))) for k in range(3)] == [10, 25, 15]


@pytest.mark.parametrize("M", [1, 4, 7])
def test_fock_labels_are_the_cone_in_lexicographic_order(M):
    """The basis of V^n_k is the brute-force filter of {0..M}^n; its flat box indices strictly ascend.

    FockRep.shift finds a shifted label by searchsorted on those flat indices.
    """
    for n in range(1, 4):
        for k in range(n + 1):
            want = [m for m in itertools.product(range(M + 1), repeat=n)
                    if all(m[p] <= m[p + 1] for p in range(k - 1)) and all(m[p] > m[p + 1] for p in range(k, n - 1))]
            rep = FockRep(RepSpec(n, k, M, Q0))
            assert rep.states == fock_states(RepSpec(n, k, M, Q0)) == want, (n, k)
            assert np.all(np.diff(np.ravel_multi_index(rep.labels, (M + 1,) * n)) > 0)


def test_generator_formulas():
    spec = RepSpec(1, 1, 6, Q0)
    rep = FockRep(spec)
    z1 = rep.generator(1, False)
    for i, m in enumerate(rep.states):
        assert z1[i, i] == pytest.approx(Q0 ** m[0])
    # z_i = 0 for i > k >= 1
    spec = RepSpec(2, 1, 4, Q0)
    rep = FockRep(spec)
    assert rep.generator(2, False).nnz == 0
    # pi_{2,0}(z_0) is the indicator of strictly decreasing strings
    spec = RepSpec(2, 0, 4, Q0)
    rep = FockRep(spec)
    z0 = rep.generator(0, False)
    for i, m in enumerate(rep.states):
        assert z0[i, i] == pytest.approx(1.0 if m[0] > m[1] >= 0 else 0.0)


# (n, k): dim V^n_k at M = 4, and nnz of pi_{n,k}(z_0), .., pi_{n,k}(z_n)
FOCK_M4 = {
    (1, 0): (5, (5, 0)),
    (1, 1): (5, (4, 5)),
    (2, 0): (10, (10, 0, 0)),
    (2, 1): (25, (20, 25, 0)),
    (2, 2): (15, (10, 10, 15)),
    (3, 0): (10, (10, 0, 0, 0)),
    (3, 1): (50, (40, 50, 0, 0)),
    (3, 2): (75, (50, 50, 75, 0)),
    (3, 3): (35, (20, 20, 20, 35)),
}


def test_generator_nnz_at_box_wall():
    """Shifts past m_i = M are dropped."""
    for (n, k), (dim, nnz) in FOCK_M4.items():
        rep = FockRep(RepSpec(n, k, 4, Q0))
        assert rep.dimension == dim
        assert tuple(rep.generator(i, False).nnz for i in range(n + 1)) == nnz


@pytest.mark.parametrize("n,k", [(1, 0), (1, 1), (2, 0), (2, 1), (2, 2)])
def test_relations_on_interior_window(n, k):
    from test_ncpoly import sphere_relations

    P = Presentation(n)
    spec = RepSpec(n, k, 12, Q0)
    rep = FockRep(spec)
    win = rep.interior_window(3)
    for r in sphere_relations(P):
        mat = rep.poly(normalize(r, P))
        sub = mat[np.ix_(win, win)]
        if sub.shape[0]:
            assert abs(sub).max() < 1e-10


def test_z1_normality_example():
    P = Presentation(1)
    spec = RepSpec(1, 1, 12, Q0)
    rep = FockRep(spec)
    z1, z1s = NCPoly.gen(1), NCPoly.gen(1, True)
    diff = rep.poly(mul(z1, z1s, P)) - rep.poly(mul(z1s, z1, P))
    win = rep.interior_window(2)
    assert abs(diff[np.ix_(win, win)]).max() < 1e-12


def _embed_in_box(rep, op):
    """op, an operator on rep's V^n_k basis, as an operator on the whole box {0..M}^n (zero off V^n_k)."""
    from scipy import sparse

    shape = (rep.spec.M + 1,) * rep.spec.n
    rows = np.ravel_multi_index(rep.labels, shape)
    emb = sparse.csr_matrix((np.ones(rep.dimension), (rows, np.arange(rep.dimension))),
                            shape=(np.prod(shape), rep.dimension))
    return emb @ op @ emb.T


def test_representation_orthogonality():
    """pi_{n,j}(a) pi_{n,k}(b) = 0 for |j - k| > 1 (n = 2: j=0, k=2), composed in the box {0..10}^2."""
    P = Presentation(2)
    a = NCPoly.gen(0)
    b = mul(NCPoly.gen(0, True), NCPoly.gen(0), P)
    r0 = FockRep(RepSpec(2, 0, 10, Q0))
    r2 = FockRep(RepSpec(2, 2, 10, Q0))
    prod = _embed_in_box(r0, r0.poly(normalize(a, P))) @ _embed_in_box(r2, r2.poly(b))
    win = np.flatnonzero(np.all(np.indices((11, 11)).reshape(2, -1) <= 7, axis=0))
    assert abs(prod[np.ix_(win, win)]).max() < 1e-12


def test_pullback():
    P2 = Presentation(2)
    z2 = NCPoly.gen(2)
    assert pullback(z2, 1, 2).is_zero()
    a = mul(NCPoly.gen(0, True), NCPoly.gen(1), P2)
    assert pullback(a, 2, 2) == a
    # sum z_j z_j^* at n=2 pulled to level 1 is again 1
    acc = NCPoly.zero()
    for j in range(3):
        acc = acc + mul(NCPoly.gen(j), NCPoly.gen(j, True), P2)
    assert pullback(acc, 1, 2) == NCPoly.one()


def test_character():
    P = Presentation(2)
    a = mul(NCPoly.gen(0, True), NCPoly.gen(0), P)
    assert character(normalize(a, P)).evalf(Q0) == pytest.approx(1.0)
    assert character(NCPoly.gen(1)).evalf(Q0) == 0.0


@pytest.mark.parametrize("N", range(0, 5))
@pytest.mark.parametrize("k", range(0, 3))
def test_pairing_binomial(N, k):
    r = fredholm_pairing(N, k, 2, 40, Q0)
    assert r.error < 1e-8


def test_pairing_examples_from_statement():
    assert fredholm_pairing(2, 1, 2, 40, Q0).value == pytest.approx(2.0, abs=1e-8)
    assert fredholm_pairing(1, 2, 2, 40, Q0).value == pytest.approx(0.0, abs=1e-8)
    assert fredholm_pairing(0, 0, 2, 40, Q0).value == pytest.approx(1.0, abs=1e-12)
    assert fredholm_pairing(0, 1, 2, 40, Q0).value == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("k", [3, -1])
def test_pairing_rejects_k_outside_0_to_n(k):
    """F_k exists only for 0 <= k <= n; any other k is an input error, not a number."""
    with pytest.raises(ValueError, match="0 <= k <= n"):
        fredholm_pairing(3, k, 2, 40, Q0)


def test_geometric_convergence_in_M():
    # at q0 = 0.8 the tail is visible; differences shrink geometrically
    vals = {M: fredholm_pairing(3, 1, 2, M, 0.8).value for M in (10, 20, 30)}
    d1 = abs(vals[20] - vals[10])
    d2 = abs(vals[30] - vals[20])
    assert d2 < d1 * 0.1
    assert abs(vals[30] - 3) < 1e-4


@pytest.mark.parametrize("M", [0, 4])
def test_pairing_rejects_boxes_below_5(M):
    """The tail estimate compares the boxes M and M - 4, so M < 5 is an input error at every k."""
    for k in range(3):
        with pytest.raises(ValueError, match="M must be >= 5"):
            fredholm_pairing(2, k, 2, M, Q0)


def test_pairing_rejects_q0_outside_0_1_at_k0():
    """k = 0 builds no representation, but q0 is still checked."""
    with pytest.raises(ValueError, match="q0 must lie in"):
        fredholm_pairing(2, 0, 2, 40, 1.0)


# -- the weighted shifts against the sparse construction they replaced --------------


def _sparse_generator_reference(rep, i):
    """pi(z_i) assembled directly as a csr matrix, as FockRep built it before FockRep.shift."""
    from scipy import sparse

    n, k, M, q0 = rep.spec.n, rep.spec.k, rep.spec.M, rep.spec.q0
    dim = rep.dimension
    src = np.arange(dim)
    if k == 0:
        diag = src if i == 0 else src[:0]
        return sparse.csr_matrix((np.ones(len(diag)), (diag, diag)), shape=(dim, dim))
    if i > k:
        return sparse.csr_matrix((dim, dim))
    qpow = np.array([q0 ** e for e in range(2 * M + 3)])
    m = rep.labels[:, src]
    if i == k:
        return sparse.csr_matrix((qpow[m[k - 1]], (src, src)), shape=(dim, dim))
    mi = m[i - 1] if i >= 1 else np.zeros_like(m[i])
    amp = qpow[mi] * np.sqrt(1.0 - qpow[2 * (m[i] - mi + 1)])
    pos = np.arange(n)[:, None]
    target = m + ((pos >= i) & (pos < k))
    keep = np.all(target <= M, axis=0) & (amp != 0.0)
    shape = (M + 1,) * n
    tgt = np.searchsorted(np.ravel_multi_index(rep.labels, shape), np.ravel_multi_index(target[:, keep], shape))
    return sparse.csr_matrix((amp[keep], (tgt, src[keep])), shape=(dim, dim))


def test_generator_from_shift_matches_sparse_reference():
    """Same structure, nnz (stored zeros included) and data bits as the direct csr build.

    At q0 = 1e-60, q0^6 underflows to 0.0 inside the box M = 7.
    """
    for q0, M, n in itertools.product((0.3, 0.5, 0.8, 1e-60), (4, 7), (1, 2, 3)):
        for k in range(n + 1):
            rep = FockRep(RepSpec(n, k, M, q0))
            for i in range(n + 1):
                got, want = rep.generator(i, False), _sparse_generator_reference(rep, i)
                assert got.nnz == want.nnz
                assert np.array_equal(got.indptr, want.indptr) and np.array_equal(got.indices, want.indices)
                assert got.data.tobytes() == want.data.tobytes()


def test_shift_kills_exactly_where_amplitude_is_zero_off_the_diagonal():
    """z_k keeps every V^n_k state even where q0^{m_k} underflows to 0.0; z_{<k} drops amplitude 0.0."""
    rep = FockRep(RepSpec(2, 2, 12, 1e-30))
    tgt, amp = rep.shift(2)
    assert np.array_equal(tgt, np.arange(rep.dimension)) and np.count_nonzero(amp == 0.0) > 0
    for i in (0, 1):
        tgt, amp = rep.shift(i)
        assert np.array_equal(tgt >= 0, amp != 0.0)
        assert np.all(tgt[tgt >= 0] > np.flatnonzero(tgt >= 0))  # shifts raise labels
    tgt, amp = FockRep(RepSpec(2, 1, 12, Q0)).shift(2)
    assert np.all(tgt == -1) and np.all(amp == 0.0)


_psi = functools.lru_cache(maxsize=None)(psi)


def _sparse_pairing_reference(N, k, n, M, q0, memo):
    """(value, tail_estimate) from sparse products of the generators on one box per truncation.

    memo holds each box's labels and csc generators, and the product of each
    word suffix, so calls with the same N, k, M and q0 share them.
    """
    from scipy import sparse

    from qcpn.ncpoly import letter_index

    av = _psi(-N, n)
    terms = []
    for m, u in zip(av.monomials, av.weights):
        (w, c), = m.terms.items()
        if all(letter_index(g) <= k for g in w):
            terms.append((u.evalf_stable(q0) * c.evalf_stable(q0) ** 2, w))
    if k == 0:
        return sum(wt for wt, _ in terms), 0.0

    def box_rep(j, top):
        if (j, top) not in memo:
            rep = FockRep(RepSpec(k, j, top, q0))
            memo[j, top] = rep.labels, [_sparse_generator_reference(rep, i).tocsc() for i in range(k + 1)]
        return memo[j, top]

    def product(j, top, w):
        # right to left, as mat = gm @ mat
        if (j, top, w) not in memo:
            labels, gens = box_rep(j, top)
            if not w:
                memo[j, top, w] = sparse.identity(labels.shape[1], format="csc")
            elif len(w) == 1:
                memo[j, top, w] = gens[letter_index(w[0])]
            else:
                memo[j, top, w] = gens[letter_index(w[0])] @ product(j, top, w[1:])
        return memo[j, top, w]

    def boxed_trace(box):
        total = 0.0
        for j in range(k + 1):
            # diagonal of mat mat^dag is summed over the reporting box only
            keep = np.all(box_rep(j, box + N)[0] <= box, axis=0)
            contrib = 0.0
            for wt, w in terms:
                # a csc matrix's (indices, data) are its tocoo() (row, data), column by column
                mat = product(j, box + N, w)
                contrib += wt * float(np.sum(mat.data[keep[mat.indices]] ** 2))
            total += contrib if j % 2 == 0 else -contrib
        return total

    val, val_small = boxed_trace(M), boxed_trace(M - 4)
    r = q0 ** 8
    return val, abs(val - val_small) * r / (1.0 - r)


@pytest.mark.parametrize("q0", [0.3, 0.5, 0.9])
def test_pairing_bit_identical_to_sparse_products(q0):
    """Composing index maps on one box gives the same floats as sparse products on two."""
    for M, N, k in itertools.product((5, 8, 16), range(5), range(4)):
        memo = {}
        for n in range(max(k, 1), 4):
            r = fredholm_pairing(N, k, n, M, q0)
            assert (r.value, r.tail_estimate) == _sparse_pairing_reference(N, k, n, M, q0, memo), (n, N, k, M)


@pytest.mark.parametrize("q0", [0.3, 0.9])
@pytest.mark.parametrize("M", [5, 12])
def test_pairing_sweep_equals_single_records(q0, M):
    """One sweep over unsorted, repeated N and k gives every record bit for bit as its own call does."""
    Ns, ks = (3, 1, 1), (2, 0, 3)
    sweep = fredholm_pairings(Ns, ks, 3, M, q0)
    assert set(sweep) == set(itertools.product(Ns, ks))
    for (N, k), r in sweep.items():
        single = fredholm_pairing(N, k, 3, M, q0)
        assert (r.value, r.tail_estimate, r.target) == (single.value, single.tail_estimate, single.target), (N, k)


# -- exact images in pi_{n,n} -------------------------------------------------------


def _rules(P):
    return {(a, b): rule for a in range(2 * P.n + 2) for b in range(2 * P.n + 2)
            if (rule := P._rewrite_pair(a, b)) is not None}


def test_every_rewrite_rule_holds_on_images():
    """508 rules at n = 1..6, with and without sphere reduction: the images are a homomorphism."""
    count = 0
    for n in range(1, 7):
        for sphere in (True, False):
            assert rule_violations(n, sphere) == ()
            count += len(_rules(Presentation(n, sphere)))
    assert count == 508


@pytest.mark.parametrize("damage", ["first-term-times-q", "last-term-dropped", "constant-times-q"])
def test_damaged_rules_are_caught_on_images(damage, monkeypatch):
    """Negative controls: a flipped q-power on the first term, a dropped term, a wrong sphere constant.

    The first two damage every rule (a dropped term only the rules with two
    or more); the wrong constant hits the rules with an empty word, z_i z_i^*
    and the sphere rule z_n^* z_n under sphere reduction.
    """
    want = {}
    for n in range(1, 4):
        for sphere in (True, False):
            rules = _rules(Presentation(n, sphere))
            if damage == "first-term-times-q":
                want[n, sphere] = set(rules)
            elif damage == "last-term-dropped":
                want[n, sphere] = {ab for ab, rule in rules.items() if len(rule) > 1}
            else:
                want[n, sphere] = {ab for ab, rule in rules.items() if any(not w for _, w in rule)}
    assert all(want[n, True] for n in range(1, 4))
    original = Presentation._rewrite_pair

    def damaged(self, a, b):
        rule = original(self, a, b)
        if rule is None:
            return None
        if damage == "first-term-times-q":
            return [(rule[0][0] * qpow(1), rule[0][1])] + rule[1:]
        if damage == "last-term-dropped":
            return rule[:-1] if len(rule) > 1 else rule
        return [(c * qpow(1) if not w else c, w) for c, w in rule]

    monkeypatch.setattr(Presentation, "_rewrite_pair", damaged)
    for (n, sphere), bad in want.items():
        assert set(rule_violations.__wrapped__(n, sphere)) == bad, (n, sphere)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_words_and_their_normal_forms_have_one_image(n):
    """250 random words per n, each with the image of its normal form; this oracle reads no rule table."""
    rng = random.Random(n)
    P = Presentation(n)
    for _ in range(250):
        w = tuple(rng.randrange(2 * n + 2) for _ in range(rng.randint(0, 8)))
        a = NCPoly.word(w, qpow(rng.randint(-3, 3)))
        nf = normalize(a, P)
        assert fock_image(a, n) == fock_image(nf, n), w
    # the sphere relation maps to 1, and 1 to the unit image
    unit = {(0,) * (n + 1): {(0,) * n: {0: 1}}}
    assert fock_image(NCPoly.one(), n) == unit
    sphere = NCPoly({(2 * j + 1, 2 * j): qpow(2 * j) for j in range(n + 1)})
    assert fock_image(sphere, n) == unit


@pytest.mark.parametrize("n", [1, 2, 3])
def test_composed_images_are_the_image_of_the_product(n):
    """img(a) o img(b) = img(ab) for random sums of words, and compose_sum adds the products."""
    rng = random.Random(10 + n)

    def rand_poly():
        terms = {}
        for _ in range(rng.randint(1, 3)):
            terms[tuple(rng.randrange(2 * n + 2) for _ in range(rng.randint(0, 5)))] = qpow(rng.randint(-2, 2))
        return NCPoly(terms)

    for _ in range(60):
        a, b, c, d = (rand_poly() for _ in range(4))
        ab = NCPoly({wa + wb: ca * cb for wa, ca in a.terms.items() for wb, cb in b.terms.items()})
        assert compose_sum([(fock_image(a, n), fock_image(b, n))]) == fock_image(normalize(ab, Presentation(n)), n)
        want = fock_image(normalize(mul(a, b, Presentation(n)) + mul(c, d, Presentation(n)).scale(qpow(1)),
                                    Presentation(n)), n)
        got = compose_sum([(fock_image(a, n), fock_image(b, n)),
                           (fock_image(c, n), scale_image(fock_image(d, n), qpow(1)))])
        assert got == want


def _normal_words(n, length):
    """Every normal word z_0^*^{a_0} z_0^{b_0} ... z_n^*^{a_n} z_n^{b_n} with a_n b_n = 0 and at most length letters."""
    for ab in itertools.product(range(length + 1), repeat=2 * n + 2):
        if sum(ab) <= length and ab[-2] * ab[-1] == 0:
            yield ab, tuple(g for i in range(n + 1) for g, k in ((2 * i + 1, ab[2 * i]), (2 * i, ab[2 * i + 1]))
                            for _ in range(k))


def test_top_monomials_separate_normal_words():
    """Images of normal words are triangular: distinct (charge, top monomial) pairs, top monomial as stated.

    The top monomial bounds every monomial of the image componentwise, and
    its Y_i-exponent is sum_{j>i} (a_j + b_j) + 2 min(a_i, b_i).
    """
    seen, count = set(), 0
    for n, length in ((1, 10), (2, 7), (3, 5)):
        for ab, w in _normal_words(n, length):
            (charge, amp), = fock_image(NCPoly.word(w), n).items()
            top = tuple(max(y[i] for y in amp) for i in range(n))
            assert top in amp and all(all(yi <= ti for yi, ti in zip(y, top)) for y in amp)
            a, b = ab[0::2], ab[1::2]
            assert charge == tuple(bi - ai for ai, bi in zip(a, b))
            assert top == tuple(sum(a[j] + b[j] for j in range(i + 1, n + 1)) + 2 * min(a[i], b[i]) for i in range(n))
            assert (n, charge, top) not in seen
            seen.add((n, charge, top))
            count += 1
    assert count == 2882


def test_non_laurent_coefficient_raises_a_named_error():
    half = ONE / (ONE + qpow(1))
    for call in (lambda: fock_image(NCPoly.word((0, 1), half), 1),
                 lambda: scale_image(fock_image(NCPoly.gen(0), 1), half)):
        with pytest.raises(NotLaurentError, match="not a Laurent polynomial"):
            call()
    assert issubclass(NotLaurentError, ArithmeticError)
    # a self-adjoint core with such a coefficient reaches the images and raises there
    from dataclasses import replace

    M = projection(1, 1)
    core = [row[:] for row in M.core]
    core[0][1], core[1][0] = core[0][1].scale(half), core[1][0].scale(half)
    with pytest.raises(NotLaurentError):
        is_projection(replace(M, core=core))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_fock_images_equal_one_fock_image_per_element(n):
    """fock_images(elems, n) is [fock_image(a, n) for a in elems], on elements that share words, the zero one included.

    Composing the images leaves them as they were, though they share one word table.
    """
    rng = random.Random(30 + n)
    pool = [tuple(rng.randrange(2 * n + 2) for _ in range(rng.randint(0, 6))) for _ in range(12)]
    for _ in range(20):
        elems = [NCPoly({w: qpow(rng.randint(-3, 3)) * rng.choice((ONE, -ONE, ONE + ONE))
                         for w in rng.sample(pool, rng.randint(1, 5))}) for _ in range(6)]
        elems.insert(rng.randrange(len(elems) + 1), NCPoly({}))
        imgs = fock_images(elems, n)
        assert imgs == [fock_image(a, n) for a in elems]
        assert imgs[elems.index(NCPoly({}))] == {}
        before = copy.deepcopy(imgs)
        compose_sum(itertools.product(imgs, repeat=2))
        assert imgs == before
    half = ONE / (ONE + qpow(1))
    bad = NCPoly.word((0, 1), half)
    with pytest.raises(NotLaurentError) as one:
        fock_image(bad, n)
    with pytest.raises(NotLaurentError) as many:
        fock_images([NCPoly.word(pool[0]), bad, NCPoly.word(pool[1])], n)
    assert str(many.value) == str(one.value) == f"the coefficient {half} is not a Laurent polynomial in s"


def _count_word_images(monkeypatch):
    """Counter of the words ``rep_sphere._word_image`` is called on from now on."""
    calls = collections.Counter()
    word_image = rep_sphere._word_image

    def counted(w, n):
        calls[w] += 1
        return word_image(w, n)

    monkeypatch.setattr(rep_sphere, "_word_image", counted)
    return calls


def test_is_projection_images_each_distinct_word_once(monkeypatch):
    """Deciding P^2 = P at N = 3, n = 2 images each distinct word of the core once, and no other word."""
    M = projection(3, 2)
    rule_violations(2)  # its cache holds the rule checks, which image words of their own
    calls = _count_word_images(monkeypatch)
    assert is_projection(M)
    assert set(calls) == {w for row in M.core for e in row for w in e.terms}
    assert max(calls.values()) == 1


def test_rule_check_takes_one_cache_entry_however_it_is_called(monkeypatch):
    """rule_violations(2) and rule_violations(2, True) are one check: the second call images no word."""
    rep_sphere._rule_check.cache_clear()
    calls = _count_word_images(monkeypatch)
    assert rule_violations(2) == ()
    assert calls
    calls.clear()
    assert rule_violations(2, True) == rule_violations(2, sphere_reduction=True) == rule_violations(n=2) == ()
    assert not calls
    assert rule_violations(2, False) == ()
    assert calls  # without sphere reduction the rules differ, and so does the check


def test_tau1_pairing_images_each_distinct_word_once(monkeypatch):
    """tau_1 at N = 4 images the x, y and core entries with each distinct word once."""
    from qcpn.suq2 import tau1_pairing

    rule_violations(1, True)  # the key _haar_trace reads
    calls = _count_word_images(monkeypatch)
    assert tau1_pairing(4) == qpow(-4) * qint(4)
    assert calls and max(calls.values()) == 1


def test_steps_of_one_sign_cross_no_edge_twice():
    """_crossings(b, a) is empty whenever b * a >= 0, and otherwise the edges both steps cross, |a|, |b| <= 30."""
    def edges(start, step):  # edge t joins t - 1 and t
        return set(range(start + 1, start + step + 1)) if step > 0 else set(range(start + step + 1, start + 1))

    for a, b in itertools.product(range(-30, 31), repeat=2):
        got = _crossings(b, a)
        assert set(got) == edges(0, b) & edges(b, a), (b, a)
        if b * a >= 0:
            assert not got, (b, a)


def test_is_projection_needs_sphere_reduction():
    """Without the sphere relation the images are not injective, so the decision is refused."""
    with pytest.raises(ValueError, match="sphere reduction"):
        is_projection(projection(1, 1, Presentation(1, sphere_reduction=False)))


@pytest.mark.parametrize("n", [1, 2])
def test_images_evaluate_to_the_float_fock_operators(n):
    """S(d, d + delta) R_w(q0^d), summed over charges with one delta, is FockRep(n, n).poly(w) on an interior window."""
    rng = random.Random(20 + n)
    q0, M = 0.6, 9
    rep = FockRep(RepSpec(n, n, M, q0))
    index = {m: i for i, m in enumerate(rep.states)}
    for _ in range(40):
        w = tuple(rng.randrange(2 * n + 2) for _ in range(rng.randint(0, 4)))
        img = fock_image(NCPoly.word(w), n)
        mat = rep.poly(NCPoly.word(w)).toarray()
        want = np.zeros_like(mat)
        for m in rep.states:
            if max(m) > M - 4:
                continue
            d = [m[0]] + [m[j + 1] - m[j] for j in range(n - 1)]
            for charge, amp in img.items():
                delta = charge[:n]
                root = 1.0
                for j, dj in enumerate(delta):
                    for t in (range(1, dj + 1) if dj > 0 else range(dj + 1, 1)):
                        root *= np.sqrt(max(1.0 - q0 ** (2 * (d[j] + t)), 0.0))
                if root == 0.0:
                    continue
                r = sum(sum(k * q0 ** (e / 2) for e, k in lau.items()) * np.prod([q0 ** (d[j] * yj) for j, yj in enumerate(y)])
                        for y, lau in amp.items())
                d2 = [dj + delta[j] for j, dj in enumerate(d)]
                m2 = tuple(itertools.accumulate(d2))
                want[index[m2], index[m]] += root * r
        win = rep.interior_window(4)
        assert np.allclose(mat[np.ix_(win, win)], want[np.ix_(win, win)], atol=1e-13), w
