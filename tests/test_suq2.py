"""Left-regular machinery, spectral triples, index, Haar, tau_1."""

import math
import random

import numpy as np
import pytest
from scipy import sparse

from qcpn.ncpoly import NCPoly, Presentation, UqGenerator, mul, normalize, star, uq_act
from qcpn.qcoeff import qint, qpow
from qcpn.suq2 import (
    SUq2Box,
    _brk,
    build_triple,
    casimir_block_check,
    chain_b_vanishes,
    dbar,
    dirac_spectrum_check,
    haar_symbolic,
    holo_dim,
    index_analytic,
    index_numeric,
    l_act,
    modular_check,
    poincare_pairing,
    tau1_pairing,
    triple_axiom_suite,
)

Q0 = 0.5
P1 = Presentation(1)
Z0, Z1 = NCPoly.gen(0), NCPoly.gen(1)
Z0S, Z1S = NCPoly.gen(0, True), NCPoly.gen(1, True)
A_EL = mul(Z1S, Z1, P1)
B_EL = mul(Z1S, Z0, P1)


@pytest.fixture(scope="module")
def box():
    return SUq2Box(9, Q0)


def test_ab_match_generator_products(box):
    win = box.interior(2)
    d = (box.a_op() - box.generator("beta*") @ box.beta()).tocsr()
    assert abs(d[np.ix_(win, win)]).max() < 1e-13
    d = (box.b_op() - box.generator("beta*") @ box.alpha()).tocsr()
    assert abs(d[np.ix_(win, win)]).max() < 1e-13


def test_sphere_relations_leftreg(box):
    win = box.interior(2)
    al, als = box.alpha(), box.generator("alpha*")
    be, bes = box.beta(), box.generator("beta*")
    eye = sparse.identity(box.dim, format="csr")
    r1 = (al @ als + be @ bes - eye).tocsr()
    r2 = (als @ al + Q0 ** 2 * (bes @ be) - eye).tocsr()
    r3 = (al @ be - (1.0 / Q0) * (be @ al)).tocsr()  # z0 z1 = q^{-1} z1 z0
    for r in (r1, r2, r3):
        assert abs(r[np.ix_(win, win)]).max() < 1e-13


def test_p1_block_formula(box):
    """The defining projection in eq-P1 form: (alpha* alpha, ...) = (1-q^2 A, B^*; B, A)."""
    win = box.interior(2)
    eye = sparse.identity(box.dim, format="csr")
    al, als = box.alpha(), box.generator("alpha*")
    be, bes = box.beta(), box.generator("beta*")
    checks = [
        (als @ al, eye - Q0 ** 2 * box.a_op()),
        (als @ be, box.generator("B*")),
        (bes @ al, box.b_op()),
        (bes @ be, box.a_op()),
    ]
    for lhs, rhs in checks:
        assert abs((lhs - rhs).tocsr()[np.ix_(win, win)]).max() < 1e-13


def test_projection_spectral_property(box):
    """p^2 = p = p^* for the 2x2 operator projection on the interior window."""
    from qcpn.suq2 import _apply_p

    rng = np.random.default_rng(5)
    win = box.interior(3)
    for _ in range(4):
        v = np.zeros((box.dim, 2))
        v[win, 0] = rng.standard_normal(len(win))
        v[win, 1] = rng.standard_normal(len(win))
        pv = _apply_p(box, v)
        ppv = _apply_p(box, pv)
        assert np.abs((ppv - pv)[win]).max() < 1e-10 * max(1.0, np.abs(v).max())


def test_assembly_at_truncation_wall():
    """Operator nnz at L=5, and l = L shell columns against the scalar formulas."""
    box = SUq2Box(5, Q0)
    nnz = {"alpha": 770, "beta": 770, "alpha*": 770, "A": 1076, "B": 1010, "B*": 1010}
    for name, count in nnz.items():
        assert box.generator(name).nnz == count
    for op, count in ((box.lk, 506), (box.k_left, 506), (box.theta, 506), (box.lf, 440), (box.le, 440)):
        assert op().nnz == count
    def br(x):
        return _brk(Q0, x)

    l = 5.0
    for m2, n2 in [(0, 0), (4, -2), (-6, 2)]:
        m, n = m2 / 2, n2 / 2
        i = box.index[(10, m2, n2)]
        # the raising terms leave the box; the lowering and level terms stay
        alpha = box.alpha()[:, [i]].tocoo()
        assert alpha.nnz == 1 and alpha.row[0] == box.index[(9, m2 + 1, n2 + 1)]
        dn = Q0 ** (l + (m + n + 1) / 2) * math.sqrt(br(l - m) * br(l - n) / (br(2 * l) * br(2 * l + 1)))
        assert alpha.data[0] == pytest.approx(dn, rel=1e-14)
        a_col = box.a_op()[:, i]
        assert a_col.nnz == 2
        diag = Q0 ** (m + n - 1) * (
            br(l - m + 1) * br(l + n + 1) / (br(2 * l + 1) * br(2 * l + 2))
            + br(l + m) * br(l - n) / (br(2 * l) * br(2 * l + 1))
        )
        assert a_col[i, 0] == pytest.approx(diag, rel=1e-14)
        mid = (
            Q0 ** (m + n)
            * math.sqrt(br(l + m + 1) * br(l - m))
            / br(2 * l + 1)
            * (Q0 ** (-l - 0.5) * br(l + n + 1) / br(2 * l + 2) - Q0 ** (l + 0.5) * br(l - n) / br(2 * l))
        )
        assert box.b_op()[box.index[(10, m2 + 2, n2)], i] == pytest.approx(mid, rel=1e-14)
        assert box.lf()[box.index[(10, m2, n2 + 2)], i] == pytest.approx(
            math.sqrt(br(l - n) * br(l + n + 1)), rel=1e-14
        )
    # top weight n = l: L_F vanishes, L_E does not
    i = box.index[(10, 0, 10)]
    assert box.lf()[:, i].nnz == 0 and box.le()[:, i].nnz == 1


def test_laction_formulas(box):
    lk, le, lf = box.lk(), box.le(), box.lf()
    for (l2, m2, n2) in [(2, 0, 2), (3, 1, -1), (4, -2, 0)]:
        i = box.index[(l2, m2, n2)]
        assert lk[i, i] == pytest.approx(Q0 ** (-n2 / 2))
        # L_F amplitude sqrt([l-n][l+n+1])
        if abs(n2 + 2) <= l2:
            j = box.index[(l2, m2, n2 + 2)]
            assert lf[j, i] == pytest.approx(
                math.sqrt(_brk(Q0, (l2 - n2) / 2) * _brk(Q0, (l2 + n2) / 2 + 1))
            )
    # L_E on the highest n: |l,m,l> has L_F = 0 and L_E coeff sqrt([1][2l])
    i = box.index[(1, 1, 1)]
    assert lf[:, i].nnz == 0
    j = box.index[(1, 1, -1)]
    assert le[j, i] == pytest.approx(math.sqrt(_brk(Q0, 1.0) * _brk(Q0, 1.0)))


def test_symbolic_l_action_matches_matrices(box):
    le, lf, lk = box.le(), box.lf(), box.lk()
    rng = random.Random(2)
    for _ in range(10):
        w = tuple(rng.randrange(4) for _ in range(rng.randint(0, 4)))
        el = normalize(NCPoly.word(w), P1)
        for kind, mat in (("E", le), ("F", lf), ("K", lk)):
            lhs = box.vector(l_act(kind, el, P1))
            rhs = mat @ box.vector(el)
            assert np.abs(lhs - rhs).max() < 1e-12


def test_commutator_is_multiplication_operator(box):
    """[L_E, a] = q^n (L_E a) as multiplication operator on W_n vectors."""
    le = box.le()
    for a in (A_EL, B_EL):
        Xa = box.represent(a)
        X_lea = box.represent(l_act("E", a, P1))
        comm = le @ Xa - Xa @ le
        for n2 in (-1, 1, 3):
            sl = [i for i in box.gamma_slice(-n2) if box.states[i][0] <= 2 * box.L - 4]
            for i in sl[:: max(1, len(sl) // 7)]:
                v = np.zeros(box.dim)
                v[i] = 1.0
                lhs = comm @ v
                rhs = Q0 ** (n2 / 2) * (X_lea @ v)
                assert np.abs(lhs - rhs).max() < 1e-12


def test_star_operator_consistency(box):
    """Theta matches the element star and conjugates left into right mult."""
    th = box.theta()
    rng = random.Random(9)
    win = box.interior(3)
    for _ in range(6):
        w = tuple(rng.randrange(4) for _ in range(rng.randint(0, 3)))
        el = normalize(NCPoly.word(w), P1)
        assert np.abs(th @ box.vector(el) - box.vector(star(el, P1))).max() < 1e-12
    # right multiplication commutes with left multiplication
    R = box.right_mult(B_EL)
    L = box.represent(A_EL)
    d = (R @ L - L @ R).tocsr()
    assert abs(d[np.ix_(win, win)]).max() < 1e-12


def test_gamma_module_decomposition(box):
    """Gamma_N decomposes as one V_{2l} for each 2l >= |N| with 2l = |N| mod 2."""
    for N in (-3, -1, 0, 2):
        sl = box.gamma_slice(N)
        per_l = {}
        for i in sl:
            l2 = box.states[i][0]
            per_l[l2] = per_l.get(l2, 0) + 1
        for l2, count in per_l.items():
            assert l2 >= abs(N) and (l2 - abs(N)) % 2 == 0
            assert count == l2 + 1  # dim V_{l2}
        expect = list(range(abs(N), 2 * box.L + 1, 2))
        assert sorted(per_l) == expect


# -- spectral triple axioms ---------------------------------------------------


@pytest.mark.parametrize("j2", [1, 3])
def test_triple_axioms(j2):
    res = triple_axiom_suite(j2, 12, Q0)
    assert res["g2-1"] == 0.0
    for name, val in res.items():
        if "drift" in name:
            # boundedness proxy: ||[D,a]|| stable as L grows, not an axiom
            assert val < 1e-3, (name, val)
        else:
            assert val < 1e-9, (name, val)


def test_grading_eigenvalues():
    st = build_triple(3, 8, Q0)
    G = st.grading()
    for r, n2 in enumerate(st.slots):
        i = st.offsets[r]
        expected = 1.0 if ((st.j2 + n2) // 2 + 1) % 2 == 0 else -1.0
        assert G[i, i] == expected


def test_j_isometry():
    st = build_triple(1, 8, Q0)
    J = st.real_structure()
    rng = np.random.default_rng(3)
    v = rng.standard_normal(st.dim)
    w = rng.standard_normal(st.dim)
    # <Ja, Jb> = <b, a> for the antilinear J (real vectors here)
    assert np.dot(J @ v, J @ w) == pytest.approx(np.dot(w, v), rel=1e-12)


@pytest.mark.parametrize("j2", [1, 3])
def test_dirac_spectrum_q_integer_products(j2):
    worst, spec = dirac_spectrum_check(j2, 10, Q0)
    assert worst < 1e-10
    # eigenvalues grow ~ q^{-2l}: log-count growth in Lambda (0+ summability)
    eigs = sorted(ev for ev, mult in spec if ev > 0)
    assert eigs[-1] / eigs[0] > 1e3


def test_casimir_blocks():
    assert casimir_block_check(-2, 10, Q0) < 1e-9
    assert casimir_block_check(1, 10, Q0) < 1e-9


# -- index ---------------------------------------------------------------------


def test_index_analytic_values():
    assert [index_analytic(j2) for j2 in (1, 3, 5, 7, 9)] == [-1, 1, 2, 6, 9]


def test_index_analytic_matches_branch_formulas():
    from qcpn.cli import _index_branch_formula

    for j2 in (1, 3, 5, 7, 9, 11, 13):
        assert index_analytic(j2) == _index_branch_formula(j2)


def test_chain_b_pattern():
    # B vanishes exactly at the H^- bottom edge l = n + 1/2 with n > 0
    assert chain_b_vanishes(2, 1)
    assert not chain_b_vanishes(4, 1)
    assert not chain_b_vanishes(2, -1)
    assert not chain_b_vanishes(4, -3)


def test_index_numeric_is_q0_independent_and_stable():
    vals = {}
    for q0 in (0.3, 0.5, 0.8):
        rep = [index_numeric(j2, 9, q0) for j2 in (1, 3, 5)]
        assert not any(r.unstable for r in rep)
        vals[q0] = [r.value for r in rep]
    assert vals[0.3] == vals[0.5] == vals[0.8]


def test_index_numeric_agrees_at_half():
    assert index_numeric(1, 8, Q0).value == index_analytic(1) == -1


@pytest.mark.xfail(
    strict=True,
    reason=(
        "the closed-form branch count 1/2 (j^2 - 9/4 or 1/4) assumes the "
        "w-chain kernel/cokernel vectors cancel in pairs, which fails at "
        "chain boundaries; three independent computations (sector ranks, "
        "regularized trace of the grading-signed projection, equivariant "
        "multiplicity counting) all give -(j+1/2) for the operators as built"
    ),
)
def test_index_numeric_agrees_with_analytic_beyond_half():
    for j2 in (3, 5, 7, 9):
        assert index_numeric(j2, 9, Q0).value == index_analytic(j2)


def test_index_numeric_honest_values():
    # the honest sector count gives -(j+1/2); documented discrepancy
    assert [index_numeric(j2, 9, Q0).value for j2 in (1, 3, 5, 7, 9)] == [-1, -2, -3, -4, -5]


def test_index_regularized_trace_cross_check():
    """Second, basis-free route to the numeric index (no v/w constructions)."""
    from qcpn.suq2 import index_regularized_trace

    for j2 in (1, 3, 5):
        tr = index_regularized_trace(j2, 13, Q0)
        assert tr == pytest.approx(index_numeric(j2, 9, Q0).value, abs=1e-4)


def test_index_numeric_sector_pattern():
    """Sector contributions follow the equivariant multiplicity telescope."""
    rep = index_numeric(5, 9, Q0)  # j = 5/2
    # (l, m) sectors contribute -1 at l=0, +1 at l=1, -1 at l=2 (each m)
    expect = {}
    for l2s, sign in ((0, -1), (2, 1), (4, -1)):
        for m2s in range(-l2s, l2s + 1, 2):
            expect[(l2s, m2s)] = sign
    assert rep.sectors == expect


def test_poincare_pairing():
    assert poincare_pairing((1, 1), (1, 0), 3) == 1 * index_analytic(3)
    for c in ((0, 1), (2, 3)):
        assert poincare_pairing(c, c, 5) == 0
    i, k = 2, 1
    assert poincare_pairing((i, k), (k, -i), 3) == (i * i + k * k) * index_analytic(3)


# -- Haar, modular, holomorphic, tau_1 ------------------------------------------


def test_haar_examples(box):
    assert box.haar(box.represent(NCPoly.one())) == pytest.approx(1.0)
    assert box.haar(box.represent(B_EL)) == pytest.approx(0.0, abs=1e-14)
    # h(A): invariance oracle h(E|>a) = h(F|>a) = 0 on degree-<=2 span
    # fixes h(A) = q^{-1}/[2] given h(1) = 1
    hA = box.haar(box.represent(A_EL))
    target = (qpow(-1) / qint(2)).evalf_stable(Q0)
    assert hA == pytest.approx(target, rel=1e-12)


def test_haar_invariance_oracle(box):
    """Solve h from invariance on the degree-<=2 module span and compare."""
    elems = [NCPoly.one(), A_EL, B_EL, star(B_EL, P1)]
    vals = [box.haar(box.represent(e)) for e in elems]
    for x in (UqGenerator("E", 1), UqGenerator("F", 1)):
        for e, v in zip(elems, vals):
            acted = uq_act(x, e, P1)
            hv = box.haar(box.represent(acted))
            assert hv == pytest.approx(0.0, abs=1e-12)  # epsilon(E) = epsilon(F) = 0
    for e, v in zip(elems, vals):
        acted = uq_act(UqGenerator("K", 1), e, P1)
        hv = box.haar(box.represent(acted))
        assert hv == pytest.approx(v, rel=1e-12, abs=1e-12)


def test_haar_symbolic_matches_vacuum(box):
    rng = random.Random(3)
    for _ in range(15):
        w = tuple(rng.randrange(4) for _ in range(rng.randint(0, 6)))
        el = normalize(NCPoly.word(w, qpow(1)) + NCPoly.word((0, 1)), P1)
        hv = box.haar(box.represent(el))
        hs = haar_symbolic(el, P1).evalf_stable(Q0)
        assert hv == pytest.approx(hs, abs=1e-12)


def test_modular_property():
    assert modular_check(NCPoly.one(), NCPoly.one()).is_zero()
    assert modular_check(A_EL, A_EL).is_zero()
    assert modular_check(B_EL, star(B_EL, P1)).is_zero()
    assert modular_check(A_EL, B_EL).is_zero()


@pytest.mark.parametrize(
    "N,expected", [(0, 1), (-1, 2), (-2, 3), (-3, 4), (-4, 5), (1, 0), (2, 0)]
)
def test_holo_dim(N, expected):
    r = holo_dim(N, 8, Q0)
    assert r.dimension == expected
    assert r.boundary_safe


def test_dbar_kills_holomorphic_generators():
    """Components of Psi_N (N<0) are degree-|N| z-monomials, killed by dbar."""
    from qcpn.projections import psi

    av = psi(-2, 1, P1)
    for m in av.monomials:
        assert dbar(m, P1).is_zero()
    # positive-N components are not
    av = psi(2, 1, P1)
    assert any(not dbar(m, P1).is_zero() for m in av.monomials)


@pytest.mark.parametrize("N,scale", [(0, 0.0), (1, 16.0), (2, 40.0)])
def test_tau1_values(N, scale):
    assert tau1_pairing(N).evalf_stable(Q0) == pytest.approx(scale, rel=1e-12)


def test_tau1_exact():
    for N in range(5):
        assert tau1_pairing(N) == qpow(-4) * qint(N)
