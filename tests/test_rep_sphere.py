"""Fock representations pi_{n,k} and the Fredholm index pairing."""

import numpy as np
import pytest

from qcpn.ncpoly import NCPoly, Presentation, mul, normalize
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


@pytest.mark.parametrize("full_box", [False, True])
def test_generator_nnz_at_box_wall(full_box):
    """Shifts past m_i = M are dropped; in the full box the operators still vanish off V^n_k."""
    for (n, k), (dim, nnz) in FOCK_M4.items():
        rep = FockRep(RepSpec(n, k, 4, Q0), full_box=full_box)
        assert rep.dimension == (5 ** n if full_box else dim)
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


def test_representation_orthogonality():
    """pi_{n,j}(a) pi_{n,k}(b) = 0 for |j - k| > 1 (n = 2: j=0, k=2)."""
    P = Presentation(2)
    a = NCPoly.gen(0)
    b = mul(NCPoly.gen(0, True), NCPoly.gen(0), P)
    r0 = FockRep(RepSpec(2, 0, 10, Q0), full_box=True)
    r2 = FockRep(RepSpec(2, 2, 10, Q0), full_box=True)
    prod = r0.poly(normalize(a, P)) @ r2.poly(b)
    win = r0.interior_window(3)
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


def test_geometric_convergence_in_M():
    # at q0 = 0.8 the tail is visible; differences shrink geometrically
    vals = {M: fredholm_pairing(3, 1, 2, M, 0.8).value for M in (10, 20, 30)}
    d1 = abs(vals[20] - vals[10])
    d2 = abs(vals[30] - vals[20])
    assert d2 < d1 * 0.1
    assert abs(vals[30] - 3) < 1e-4
