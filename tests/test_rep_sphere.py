"""Fock representations pi_{n,k} and the Fredholm index pairing."""

import functools
import itertools

import numpy as np
import pytest

from qcpn.ncpoly import NCPoly, Presentation, mul, normalize
from qcpn.projections import psi
from qcpn.rep_sphere import (
    FockRep,
    RepSpec,
    character,
    fock_states,
    fredholm_pairing,
    pullback,
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
