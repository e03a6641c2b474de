"""Left-regular machinery, spectral triples, index, Haar, tau_1."""

import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse import csgraph

from qcpn.ncpoly import NCPoly, Presentation, UqGenerator, letter, lincomb, mul, normalize, star, uq_act
from qcpn.qcoeff import ONE, ZERO, QScalar, is_positive_at_q, qint, qpow
from qcpn.suq2 import (
    HoloReport,
    SUq2Box,
    _CLOSED_FORM_WT,
    _block_norm,
    _closed_forms,
    _brk,
    _hplus,
    _hplus_slots,
    _ladder_args,
    _maxabs,
    _slice_labels,
    _window,
    build_triple,
    casimir_block_check,
    chain_b_vanishes,
    dbar,
    dirac_spectrum_check,
    haar_symbolic,
    holo_dim,
    index_analytic,
    index_exact,
    index_min_L,
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
BS_EL = mul(Z0S, Z1, P1)


def _at(box, l2, m2, n2):
    """Basis index of the doubled label (l2, m2, n2), which must lie in the box."""
    i = int(box._locate(np.array(l2), np.array(m2), np.array(n2)))
    assert i >= 0, (l2, m2, n2)
    return i


@pytest.fixture(scope="module")
def box():
    return SUq2Box(9, Q0)


def test_box_tables_hold_overflow_as_inf():
    """Past the float range the q0-power table holds +inf and the bracket table +-inf with the sign of x;
    every other entry is the scalar q0 ** x."""
    box = SUq2Box(110, 0.1)
    xs = np.arange(-box._half0, box._half0 + 1) / 2
    over = xs < -308  # 0.1 ** -308 = 1e308 is the last finite power
    assert over.any() and np.all(box._qpow[over] == np.inf)
    assert box._qpow[~over].tolist() == [0.1 ** x for x in xs[~over].tolist()]
    big = np.abs(xs) > 308
    assert np.all(box._qbrk[big] == np.sign(xs[big]) * np.inf)
    assert np.all(np.isfinite(box._qbrk[~big]))


def test_box_refuses_more_states_than_the_limit():
    """L = 143 has 7,921,200 states, L = 144 has 8,087,665: the larger is refused before anything is built."""
    with pytest.raises(ValueError, match=r"^the box l <= L = 144 has \(2L\+1\)\(2L\+2\)\(4L\+3\)/6 = 8087665 states, "
                                         r"more than the limit 8000000$"):
        SUq2Box(144, 0.5)


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
    from qcpn.suq2 import _p_operator

    p = _p_operator(box)  # on box (x) C^2, spinor 0 first
    assert p.shape == (2 * box.dim, 2 * box.dim)
    rng = np.random.default_rng(5)
    win = box.interior(3)
    win2 = np.concatenate([win, box.dim + win])
    for _ in range(4):
        v = np.zeros(2 * box.dim)
        v[win] = rng.standard_normal(len(win))
        v[box.dim + win] = rng.standard_normal(len(win))
        pv = p @ v
        ppv = p @ pv
        assert np.abs((ppv - pv)[win2]).max() < 1e-10 * max(1.0, np.abs(v).max())
    # p is real, so p^* = p^T; this holds on the whole box, wall included
    assert abs(p - p.T).max() < 1e-14


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
        i = _at(box, 10, m2, n2)
        # the raising terms leave the box; the lowering and level terms stay
        alpha = box.alpha()[:, [i]].tocoo()
        assert alpha.nnz == 1 and alpha.row[0] == _at(box, 9, m2 + 1, n2 + 1)
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
        assert box.b_op()[_at(box, 10, m2 + 2, n2), i] == pytest.approx(mid, rel=1e-14)
        assert box.lf()[_at(box, 10, m2, n2 + 2), i] == pytest.approx(
            math.sqrt(br(l - n) * br(l + n + 1)), rel=1e-14
        )
    # top weight n = l: L_F vanishes, L_E does not
    i = _at(box, 10, 0, 10)
    assert box.lf()[:, i].nnz == 0 and box.le()[:, i].nnz == 1


def test_laction_formulas(box):
    lk, le, lf = box.lk(), box.le(), box.lf()
    for (l2, m2, n2) in [(2, 0, 2), (3, 1, -1), (4, -2, 0)]:
        i = _at(box, l2, m2, n2)
        assert lk[i, i] == pytest.approx(Q0 ** (-n2 / 2))
        # L_F amplitude sqrt([l-n][l+n+1])
        if abs(n2 + 2) <= l2:
            j = _at(box, l2, m2, n2 + 2)
            assert lf[j, i] == pytest.approx(
                math.sqrt(_brk(Q0, (l2 - n2) / 2) * _brk(Q0, (l2 + n2) / 2 + 1))
            )
    # L_E on the highest n: |l,m,l> has L_F = 0 and L_E coeff sqrt([1][2l])
    i = _at(box, 1, 1, 1)
    assert lf[:, i].nnz == 0
    j = _at(box, 1, 1, -1)
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
            sl = [i for i in box.gamma_slice(-n2) if box.lmn[0][i] <= 2 * box.L - 4]
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
            l2 = int(box.lmn[0][i])
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


def test_commutator_norm_drift_is_truncation_only():
    """The exact norms drift by at most 1.1e-7 from L = 16 to 19 at q0 = 0.5."""
    for j2 in (1, 3):
        drifts = {k: v for k, v in triple_axiom_suite(j2, 16, Q0).items() if "drift" in k}
        assert len(drifts) == 3
        for name, val in drifts.items():
            assert val < 1e-6, (j2, name, val)


@pytest.mark.parametrize("j2", [1, 3, 5])
@pytest.mark.parametrize("L", [8, 16, 19])
def test_triple_operators_on_hj_are_the_box_slices(j2, L):
    """D_j, A, B, B^* and Theta assembled on H_j equal the box-wide operators sliced to H_j, bit for bit."""
    for q0 in (0.3, 0.5, 0.8):
        st = build_triple(j2, L, q0)
        box, sel = st.box, st.sel
        got = dict(_closed_forms(st), theta=st.assemble(box._theta_terms), D=st.dirac())
        assert box._ops == {}  # nothing above built a box-wide operator
        cut = np.ix_(sel, sel)
        rows = sel + box.dim * _hplus(j2, st.labels[2])  # the rows of H_j^+ read L_F, stacked under L_E
        want = {nm: box.generator(nm)[cut] for nm in ("A", "B", "B*")}
        want["theta"] = box.theta()[cut]
        want["D"] = sparse.vstack([box.le(), box.lf()], format="csr")[np.ix_(rows, sel)]
        for nm, X in got.items():
            Y = want[nm]
            assert X.shape == Y.shape == (st.dim, st.dim)
            assert X.nnz == Y.nnz > 0 and (X != Y).nnz == 0, (q0, nm)


@pytest.mark.parametrize("j2", [1, 3, 5])
def test_triple_residuals_at_rounding_level(j2):
    """With no word product, every residual but the drift is rounding: A's sphere-reduced normal
    form q^-2 - q^-2 z0^* z0 made order1[A, B] reach 3.9e-8 at L = 19, q0 = 0.3."""
    for L in (8, 12, 16, 19):
        for q0 in (0.3, 0.5, 0.8):
            for name, val in triple_axiom_suite(j2, L, q0).items():
                if "drift" not in name:
                    assert val < 1e-13, (L, q0, name, val)


def test_triple_suite_builds_no_box_operator(monkeypatch):
    """Every SUq2Box the suite creates keeps an empty operator cache: all is assembled on H_j."""
    boxes = []
    init = SUq2Box.__init__

    def recording(self, *args):
        init(self, *args)
        boxes.append(self)

    monkeypatch.setattr(SUq2Box, "__init__", recording)
    triple_axiom_suite(3, 16, 0.3)
    assert [b.L for b in boxes] == [19]
    assert all(b._ops == {} for b in boxes)


def test_triple_suite_takes_no_word_product(monkeypatch):
    """The float suite reads the K-weights off the closed forms: it runs with the product rewriter
    (ncpoly.mul_sum, behind mul), uq_act and Presentation unusable."""
    from qcpn import ncpoly, suq2

    want = triple_axiom_suite(3, 8, 0.3)

    def forbidden(*args, **kwargs):
        raise AssertionError("triple_axiom_suite took a symbolic step")

    monkeypatch.setattr(ncpoly, "mul_sum", forbidden)
    for name in ("uq_act", "Presentation"):
        monkeypatch.setattr(suq2, name, forbidden)
    assert triple_axiom_suite(3, 8, 0.3) == want


def _two_triple_reference(j2, L, q0):
    """The suite as it was on two boxes: residuals on the box L, the drift from its window to the box L + 3's."""
    st = build_triple(j2, L, q0)
    win = st.interior(3)
    if not len(win):
        raise ValueError(f"the interior window l <= L - 3 = {L - 3} holds no state of H_j at j = {j2}/2")
    D, G, J = st.dirac(), st.grading(), st.real_structure()
    eye = sparse.identity(st.dim, format="csr")
    res = {
        "J2+1": _maxabs(J @ J + eye, win),
        "JD-DJ": _maxabs(J @ D - D @ J, win),
        "Jg+gJ": _maxabs(J @ G + G @ J, win),
        "g2-1": _maxabs(G @ G - eye, win),
        "gD+Dg": _maxabs(G @ D + D @ G, win),
    }
    reps = _closed_forms(st)
    th = st.assemble(st.box._theta_terms)
    rights = {nm: qpow(-_CLOSED_FORM_WT[nm]).evalf_stable(q0) * (th @ mb @ th) for nm, mb in reps.items()}
    jbs = {nb: J @ mb @ J.transpose() for nb, mb in reps.items()}
    for nb, jb in jbs.items():
        res[f"JbJ-rightmult[{nb}]"] = _maxabs(jb - rights[nb], win)
    das = {na: D @ ma - ma @ D for na, ma in reps.items()}
    for na, ma in reps.items():
        for nb, jb in jbs.items():
            res[f"order0[{na},{nb}]"] = _maxabs(ma @ jb - jb @ ma, win)
            res[f"order1[{na},{nb}]"] = _maxabs(das[na] @ jb - jb @ das[na], win)
    big = build_triple(j2, L + 3, q0)
    Db, winb = big.dirac(), big.interior(3)
    for nm, ab in _closed_forms(big).items():
        norms = [
            _block_norm(comm.tocsr()[np.ix_(w, w)], tri.labels[:, w], j2)
            for tri, comm, w in ((st, das[nm], win), (big, Db @ ab - ab @ Db, winb))
        ]
        res[f"commutator_norm_drift[{nm}]"] = abs(norms[1] - norms[0]) / max(norms[0], 1e-12)
    return res


def _outcome(fn, *args):
    """fn(*args), or the type and message of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return ValueError, str(exc)


@pytest.mark.parametrize("j2", [1, 3, 5, 7])
def test_triple_suite_on_one_box_equals_two_boxes(j2):
    """On the one box L + 3 the suite gives the two-box dicts exactly, and the same ValueError where it rejects."""
    for L in (4, 5, 6, 8, 11, 16, 23, 30):
        for q0 in (0.1, 0.3, 0.5, 0.8, 0.9):
            assert _outcome(triple_axiom_suite, j2, L, q0) == _outcome(_two_triple_reference, j2, L, q0), (L, q0)


@pytest.mark.parametrize("j2", [1, 3])
def test_closed_form_m_shift_is_the_k_weight(j2):
    """Each closed form shifts m by _CLOSED_FORM_WT, the K-exponent of its element: K |> b = q^wt b term by term."""
    st = build_triple(j2, 8, Q0)
    m2 = st.labels[1]
    elems = {"A": A_EL, "B": B_EL, "B*": mul(Z0S, Z1, P1)}
    for nm, mat in _closed_forms(st).items():
        rows, cols = mat.nonzero()
        assert len(rows) and set((m2[rows] - m2[cols]).tolist()) == {2 * _CLOSED_FORM_WT[nm]}, nm
        e = elems[nm]
        kb = uq_act(UqGenerator("K"), e, P1)
        assert kb.terms.keys() == e.terms.keys(), nm
        assert all(kb.terms[w] == qpow(_CLOSED_FORM_WT[nm]) * c for w, c in e.terms.items()), nm


@pytest.mark.parametrize("j2", [1, 3, 5])
@pytest.mark.parametrize("L", [8, 12])
def test_real_structure_matches_the_per_state_formula(j2, L):
    """J_j, entry by entry: |l,m,n> -> (-1)^{j+m-2n} |l,-m,-n>, from integer labels, with exact equality."""
    st = build_triple(j2, L, Q0)
    where = {lmn: k for k, lmn in enumerate(zip(*st.labels.tolist()))}
    want = np.zeros((st.dim, st.dim))
    for k, (l2, m2, n2) in enumerate(zip(*st.labels.tolist())):
        want[where[(l2, -m2, -n2)], k] = (-1) ** ((j2 + m2) // 2 - n2)
    J = st.real_structure()
    assert J.shape == (st.dim, st.dim) and J.nnz == st.dim
    assert np.array_equal(J.toarray(), want)


def _component_norm(mat):
    """np.linalg.norm(mat.toarray(), 2), taken over the connected components of mat.

    The 2-norm of a direct sum is the largest 2-norm of its summands.  The
    components come from the bipartite row/column graph of the entries, not
    from slot or m labels; one dense SVD of a whole window costs seconds at
    the largest boxes here.
    """
    coo = mat.tocoo()
    _, comp = csgraph.connected_components(sparse.bmat([[None, coo], [coo.T, None]]), directed=False)
    rc, cc = comp[: mat.shape[0]], comp[mat.shape[0]:]
    dense = mat.toarray()
    return max(np.linalg.norm(dense[np.ix_(rc == i, cc == i)], 2) for i in np.unique(cc[coo.col]))


@pytest.mark.parametrize("j2", [1, 3, 5])
@pytest.mark.parametrize("L", [12, 16, 19])
def test_block_norm_is_the_dense_norm(j2, L):
    """||[D, a]|| on the interior window, on the L and L + 3 boxes: the dense 2-norm, and
    ||[D, B]|| = ||[D, B^*]|| since [D, B^*] = -[D, B]^T."""
    for q0 in (0.3, 0.5, 0.8):
        for box_L in (L, L + 3):
            st = build_triple(j2, box_L, q0)
            D, win = st.dirac(), st.interior(3)
            norms = {}
            for nm, e in (("A", A_EL), ("B", B_EL), ("B*", BS_EL)):
                a = st.represent(e)
                comm = (D @ a - a @ D).tocsr()[np.ix_(win, win)]
                norms[nm] = _block_norm(comm, st.labels[:, win], j2)
                assert norms[nm] == pytest.approx(_component_norm(comm), rel=1e-13, abs=0), (q0, box_L, nm)
            assert norms["B*"] == pytest.approx(norms["B"], rel=1e-13, abs=0), (q0, box_L)


def test_block_norm_rejects_other_structure():
    """An entry off the slot blocks (slot s to its partner s ^ 1), or a second m-shift, is an error.

    The third stray stays in one slot with the right m-shift, inside one slot pair: a check on pairs would
    pass it.  No entries give 0.
    """
    st = build_triple(3, 8, Q0)
    D, win = st.dirac(), st.interior(3)
    lab = st.labels[:, win]
    _, m2, n2 = lab
    slot = (n2 + 3) // 2
    pair = slot // 2

    def comm(e):
        a = st.represent(e)
        return (D @ a - a @ D).tocsr()[np.ix_(win, win)]

    ca = comm(A_EL)
    assert _block_norm(ca, lab, 3) > 0
    s = int(np.flatnonzero(pair == 0)[0])
    in_slot = (slot == 0) & (m2 == m2[s]) & (np.arange(len(m2)) != s)
    for other in (pair == 1) & (m2 == m2[s]), (pair == 0) & (m2 == m2[s] + 2), in_slot:
        stray = sparse.csr_matrix(([1.0], ([int(np.flatnonzero(other)[0])], [s])), shape=ca.shape)
        with pytest.raises(ArithmeticError, match="not block diagonal"):
            _block_norm(ca + stray, lab, 3)
    with pytest.raises(ArithmeticError, match="m-shift is not constant"):
        _block_norm(ca + comm(B_EL), lab, 3)
    assert _block_norm(sparse.csr_matrix((0, 0)), np.zeros((3, 0), dtype=int), 3) == 0.0
    assert _block_norm(sparse.csr_matrix(ca.shape), lab, 3) == 0.0


def test_grading_eigenvalues():
    st = build_triple(3, 8, Q0)
    G = st.grading()
    expected = [1.0 if ((st.j2 + n2) // 2 + 1) % 2 == 0 else -1.0 for n2 in st.labels[2].tolist()]
    assert G.nnz == st.dim
    assert G.diagonal().tolist() == expected


@pytest.mark.parametrize("j2, L", [(1, 5), (3, 8), (7, 12)])
def test_triple_locator_is_the_inverse_of_its_labels(j2, L):
    """_locate reads each label of H_j back to its position; a box label off H_j or past the wall, or no
    label at all, gives -1."""
    st = build_triple(j2, L, Q0)
    assert np.array_equal(st._locate(*st.labels), np.arange(st.dim))
    where = {lmn: k for k, lmn in enumerate(zip(*st.labels.tolist()))}
    wide = SUq2Box(L + 2, Q0).lmn  # the wall shells 2L + 1 .. 2L + 4, and the slots |n| > j
    want = [where.get(lmn, -1) for lmn in zip(*wide.tolist())]
    assert st._locate(*wide).tolist() == want and want.count(-1) == wide.shape[1] - st.dim
    # columns: l < 0, |m| > l, |n| > l, an even 2n, |n| > j
    off = np.array([[-1, 1, 3, 1, 1], [1, 5, 1, 0, 0], [1, 1, 5, 0, -j2 - 2]])
    assert st._locate(*off).tolist() == [-1] * 5


@pytest.mark.parametrize("L", [3, 6])
def test_box_layout_is_its_slices_in_turn(L):
    """The box is the slices 2n = -2L..2L in turn, each in ``_slice_labels`` order; _locate reads each label
    back to its position and gives -1 where l < 0, |m| > l, |n| > l or l is past the wall; vac is |0,0,0>."""
    box = SUq2Box(L, Q0)
    assert np.array_equal(box._locate(*box.lmn), np.arange(box.dim))
    assert np.array_equal(box.lmn, np.concatenate([_slice_labels(n2, L) for n2 in range(-2 * L, 2 * L + 1)], axis=1))
    # columns: l < 0, |m| > l, |n| > l, l past the wall (at n = 0 and at |n| = 2L)
    off = np.array([[-1, 1, 3, 2 * L + 2, 2 * L + 1], [1, 5, 1, 0, 1], [1, 1, 5, 0, 2 * L]])
    assert box._locate(*off).tolist() == [-1] * 5
    assert box.lmn[:, box.vac].tolist() == [0, 0, 0]


@pytest.mark.parametrize("j2, L", [(1, 16), (3, 16)])
def test_triple_holds_nothing_of_box_size(monkeypatch, j2, L):
    """After the suite's operators and the spectrum check, neither the triple nor its box holds an array
    or matrix with as many entries as the box has states."""
    from qcpn import suq2

    built, original = [], suq2.build_triple

    def keep(*args):
        built.append(original(*args))
        return built[-1]

    monkeypatch.setattr(suq2, "build_triple", keep)
    triple_axiom_suite(j2, L, Q0)
    dirac_spectrum_check(j2, L, Q0)
    assert len(built) == 2
    for st in built:
        big = [name for owner in (st, st.box) for name, value in vars(owner).items()
               for v in (value.values() if isinstance(value, dict) else [value])
               if (isinstance(v, np.ndarray) and v.size >= st.box.dim)
               or (sparse.issparse(v) and max(v.shape) >= st.box.dim)]
        assert big == [] and st.dim < st.box.dim // 10, big


@pytest.mark.parametrize("j2, L", [(1, 5), (3, 8), (7, 12)])
def test_triple_basis_layout(j2, L):
    """H_j is the slots n = -j..j in turn, each in ``_slice_labels`` order, as the box is laid out (so each
    slot is a contiguous run of box states); _hplus is the H_j^+ parity rule."""
    st = build_triple(j2, L, Q0)
    slices = [st.box.gamma_slice(-n2) for n2 in range(-j2, j2 + 1, 2)]
    assert st.sel.tolist() == np.concatenate(slices).tolist()
    assert np.array_equal(st.labels, np.concatenate([st.box.lmn[:, sl] for sl in slices], axis=1))
    assert st.dim == st.labels.shape[1] == sum(len(sl) for sl in slices)
    for odd_j2 in range(1, 18, 2):
        n2s = np.arange(-odd_j2, odd_j2 + 1, 2)
        old = [((odd_j2 + n2) // 2) % 2 == 1 for n2 in n2s.tolist()]
        assert [_hplus(odd_j2, n2) for n2 in n2s.tolist()] == old
        assert _hplus(odd_j2, n2s).tolist() == old
        assert _hplus_slots(odd_j2) == [n2 for n2, up in zip(n2s.tolist(), old) if up]
    # represent is block diagonal: z0 z1 moves n by 1 (between slots), A keeps n
    z0z1 = mul(Z0, Z1, P1)
    assert st.box.represent(z0z1)[np.ix_(st.sel, st.sel)].nnz > 0
    assert st.represent(z0z1).nnz == 0
    assert (st.represent(A_EL) != st.box.represent(A_EL)[np.ix_(st.sel, st.sel)]).nnz == 0


def _csr_with_duplicates(rng, n, nnz):
    """An n x n CSR matrix storing nnz entries as they come: repeated (i, j), explicit zeros, unsorted columns.

    The values are quarters of small integers, so every sum of duplicates is exact in any order.
    """
    rows = np.sort(rng.integers(0, n, nnz))
    cols = rng.integers(0, n, nnz)
    data = rng.integers(-8, 9, nnz) / 4.0
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n))))
    return sparse.csr_matrix((data, cols, indptr), shape=(n, n))


def test_maxabs_matches_dense():
    """_maxabs and _window, read off the CSR arrays by one mask, equal the dense and the fancy-indexed windows."""
    rng = np.random.default_rng(5)
    dense = np.where(rng.random((9, 9)) < 0.3, -1.0 - rng.random((9, 9)), 0.0)
    keep = np.array([0, 2, 3, 7])
    assert _maxabs(sparse.csr_matrix(dense), keep) == np.abs(dense[np.ix_(keep, keep)]).max() > 1.0
    assert _maxabs(sparse.csr_matrix((9, 9)), keep) == 0.0
    for n, nnz in ((1, 3), (6, 40), (13, 30), (40, 200)):
        for _ in range(20):
            mat = _csr_with_duplicates(rng, n, nnz)
            want = mat.toarray()  # sums the duplicates
            keep = np.flatnonzero(rng.random(n) < 0.5)
            ref = mat.copy().tocsr()[np.ix_(keep, keep)]
            assert _maxabs(mat.copy(), keep) == np.abs(want[np.ix_(keep, keep)]).max(initial=0.0)
            win = _window(mat.copy(), keep)
            assert win.shape == ref.shape == (len(keep), len(keep)) and win.has_canonical_format
            assert np.array_equal(win.toarray(), ref.toarray())
            assert np.array_equal(win.toarray(), want[np.ix_(keep, keep)])
    # entries that cancel, an explicit zero, and a window that holds no stored entry read 0.0
    mat = sparse.csr_matrix(([1.5, -1.5, 0.0, -2.0], [1, 1, 2, 5], [0, 2, 3, 3, 3, 3, 4]), shape=(6, 6))
    assert _maxabs(mat.copy(), np.array([0, 1, 2])) == 0.0
    assert _maxabs(mat.copy(), np.array([0, 2, 3, 4])) == 0.0
    assert _maxabs(mat.copy(), np.array([], dtype=int)) == 0.0
    assert _maxabs(mat.copy(), np.array([0, 5])) == 2.0


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


def _closed_form_ladder(box, dn2, radicand):
    """L_E or L_F written out as the displayed closed form sqrt(radicand(br, l, n)), target n + dn2/2."""
    l2, m2, n2 = box.lmn
    amp = np.sqrt(np.maximum(radicand(box._br, l2 / 2.0, n2 / 2.0), 0.0))
    tgt = box._locate(l2, m2, n2 + dn2)
    keep = (tgt >= 0) & (amp != 0.0)
    return sparse.csr_matrix((amp[keep], (tgt[keep], np.flatnonzero(keep))), shape=(box.dim, box.dim))


@pytest.mark.parametrize("q0", (0.3, 0.5, 0.8))
@pytest.mark.parametrize("L", (5, 9))
def test_ladders_equal_closed_forms_bit_for_bit(L, q0):
    """le() and lf() read _ladder_args; their floats equal the closed forms exactly, the wall shell included."""
    box = SUq2Box(L, q0)
    le = _closed_form_ladder(box, -2, lambda br, l, n: br(l - n + 1) * br(l + n))
    lf = _closed_form_ladder(box, 2, lambda br, l, n: br(l - n) * br(l + n + 1))
    for got, want in ((box.le(), le), (box.lf(), lf)):
        assert got.nnz == want.nnz and (got != want).nnz == 0
        assert np.any(box.lmn[0][got.tocoo().col] == 2 * L)


def test_dirac_and_casimir_exact_at_large_L():
    """The float D^2 residual at L = 16 is 3.7e-9 from rounding alone; the label decision has no such floor."""
    bad, spec = dirac_spectrum_check(3, 16, Q0)
    assert bad == 0 and max(ev for ev, _ in spec) > 1e8
    assert casimir_block_check(-3, 16, Q0) == casimir_block_check(2, 16, Q0) == 0


def test_wrong_ladder_bracket_is_caught(monkeypatch):
    """An L_E bracket [l-n+2][l+n] fails both exact checks, and qcpn spectrum exits 1."""
    import contextlib
    import io

    from qcpn import suq2
    from qcpn.cli import main

    right = suq2._ladder_args
    monkeypatch.setattr(
        suq2, "_ladder_args", lambda kind, l2, n2: (l2 - n2 + 4, l2 + n2) if kind == "E" else right(kind, l2, n2)
    )
    assert dirac_spectrum_check(3, 10, Q0)[0] > 0
    assert casimir_block_check(-2, 10, Q0) > 0
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["spectrum", "--j", "1/2,3/2", "--L", "10", "--csv"]) == 1


def test_missing_dirac_entry_is_caught(monkeypatch):
    """A D with one entry dropped leaves that state and its partner without a round trip."""
    from qcpn.suq2 import SpectralTriple

    full = SpectralTriple.dirac

    def dropped(self):
        D = full(self).tocoo()
        keep = np.arange(D.nnz) != D.nnz // 2
        return sparse.csr_matrix((D.data[keep], (D.row[keep], D.col[keep])), shape=D.shape)

    monkeypatch.setattr(SpectralTriple, "dirac", dropped)
    assert dirac_spectrum_check(3, 10, Q0)[0] == 2


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


def _chain_b_vanishes_qs(l2, n2):
    """chain_b_vanishes decided in Q(s): both radicands as q-integer products, their signs by is_positive_at_q."""
    x = qint(Fraction(l2 - n2 - 1, 2)) * qint(Fraction(l2 + n2 + 1, 2))
    if not x.is_zero() and is_positive_at_q(x):
        return False
    p12a = qint(Fraction(l2 + n2 + 1, 2)) * qint(Fraction(l2 - n2 + 1, 2))
    p12b = qint(Fraction(l2 + n2 + 3, 2)) * qint(Fraction(l2 - n2 - 1, 2))
    y = p12a * p12b
    return y.is_zero() or not is_positive_at_q(y)


def test_chain_b_vanishes_matches_qs_signs():
    """The sign rule on the q-integer arguments agrees with the Q(s) computation on 800 labels."""
    cases = [(l2, n2) for n2 in range(-39, 40, 2) for l2 in range(abs(n2) + 1, abs(n2) + 40, 2)]
    assert len(cases) == 800
    assert [chain_b_vanishes(l2, n2) for l2, n2 in cases] == [_chain_b_vanishes_qs(l2, n2) for l2, n2 in cases]


def test_index_exact_triangular_counts():
    """kernel T_{(2j-1)/2} and cokernel T_{(2j+1)/2}, triangular numbers, so the index is -(j + 1/2)."""
    tri = [k * (k + 1) // 2 for k in range(10)]
    for j2 in range(1, 18, 2):
        ex = index_exact(j2)
        assert (ex.kernel, ex.cokernel) == (tri[(j2 - 1) // 2], tri[(j2 + 1) // 2])


@pytest.mark.parametrize("q0", (0.3, 0.5, 0.8))
def test_index_exact_equals_index_numeric(q0):
    for j2 in range(1, 18, 2):
        ex = index_exact(j2)
        assert ex.kernel - ex.cokernel == index_numeric(j2, index_min_L(j2), q0).value


def _float_links(j2, q0):
    """(2l, 2n) of the domain and of the codomain vectors joined by a nonzero entry of G = C^T p (L_E (+) L_E) D."""
    from qcpn.suq2 import _hminus_slots, _p_operator, _sector_columns, _sector_labels

    box = SUq2Box(index_min_L(j2), q0)
    sec_l, sec_m = _sector_labels(j2 + 5)
    D, dsec = _sector_columns(box, sec_l, sec_m, _hplus_slots(j2))
    C, csec = _sector_columns(box, sec_l, sec_m, _hminus_slots(j2))
    le = box.le()
    G = (C.T @ _p_operator(box) @ sparse.block_diag([le, le], format="csr") @ D).tocoo()
    big = np.abs(G.data) > 1e-8
    assert np.abs(G.data[~big]).max(initial=0.0) < 1e-12  # no entry near the threshold

    def slot(mat):  # the third label shared by a column's box entries
        col = mat.tocoo()
        n2 = np.full(mat.shape[1], 99)
        n2[col.col] = box.lmn[2][col.row % box.dim]
        return n2

    dn2, cn2 = slot(D), slot(C)
    rows, cols = G.row[big], G.col[big]
    assert np.array_equal(csec[rows], dsec[cols]) and np.array_equal(cn2[rows], dn2[cols] - 2)
    return ({(int(sec_l[dsec[c]]), int(dn2[c])) for c in cols},
            {(int(sec_l[csec[r]]), int(cn2[r])) for r in rows})


@pytest.mark.parametrize("q0", (0.3, 0.5, 0.8))
def test_index_exact_links_match_float_pattern(q0):
    """The exact links are the nonzero pattern of the float sector matrix G, at both ends."""
    for j2 in range(1, 18, 2):
        table = index_exact(j2).table
        linked = {key for key, (_, on) in table.items() if on}
        dom = {key for key in linked if _hplus(j2, key[1])}
        assert _float_links(j2, q0) == (dom, linked - dom)


def test_index_exact_checks_raise(monkeypatch):
    """A codomain vector left out trips the link check; links all zero trip the beyond-j check."""
    from qcpn import suq2

    monkeypatch.setattr(suq2, "_sector_kinds", lambda l2, n2: (l2 >= abs(n2) + 1 and n2 != 1, (n2 < 0) & (l2 == abs(n2) - 1)))
    with pytest.raises(ArithmeticError, match="leaves the codomain"):
        index_exact(3)
    monkeypatch.setattr(suq2, "_qint_sign", lambda *args2: -1)
    with pytest.raises(ArithmeticError, match="beyond j"):
        index_exact(3)


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


def _reference_sector_vectors(box, l2s, m2s, slots):
    """Sector vectors of one (l, m) sector from the scalar formulas, as {(spinor, l2, m2, n2): amp}."""
    q0, l, m = box.q0, l2s / 2.0, m2s / 2.0
    out = []
    for n2 in slots:
        is_w = l2s >= abs(n2) + 1
        if not (is_w or (n2 < 0 and l2s == abs(n2) - 1)) or l2s + 1 > 2 * box.L:
            continue
        dn = math.sqrt(_brk(q0, 2 * l + 2))
        vec = {
            (0, l2s + 1, m2s - 1): math.sqrt(max(q0 ** (l + m + 1) * _brk(q0, l - m + 1), 0.0)) / dn,
            (1, l2s + 1, m2s + 1): -math.sqrt(max(q0 ** (-l + m - 1) * _brk(q0, l + m + 1), 0.0)) / dn,
        }
        if is_w:  # w^{n,||} = sqrt(P11) v_up + P12 / sqrt(P11) v_down
            n = n2 / 2.0
            pref = q0 ** n / _brk(q0, 2 * l + 1)
            p11 = pref * q0 ** (-l - 0.5) * _brk(q0, l + n + 0.5)
            p12 = pref * math.sqrt(max(_brk(q0, l + n + 0.5) * _brk(q0, l - n + 0.5), 0.0))
            up = math.sqrt(_brk(q0, 2 * l))
            a1 = math.sqrt(max(q0 ** (-l + m) * _brk(q0, l + m), 0.0)) / up
            a2 = math.sqrt(max(q0 ** (l + m) * _brk(q0, l - m), 0.0)) / up
            vec = {key: (p12 / math.sqrt(p11)) * a for key, a in vec.items()}
            vec[(0, l2s - 1, m2s - 1)] = math.sqrt(p11) * a1
            vec[(1, l2s - 1, m2s + 1)] = math.sqrt(p11) * a2
        out.append({(s, l2, m2, n2): a for (s, l2, m2), a in vec.items() if a and abs(m2) <= l2 and abs(n2) <= l2})
    return out


@pytest.mark.parametrize("q0", [0.3, 0.8])
def test_sector_columns_match_scalar_formulas(q0):
    """The vectorised sector columns equal the per-vector scalar construction bit for bit."""
    from qcpn.suq2 import _hminus_slots, _hplus_slots, _sector_columns, _sector_labels

    box = SUq2Box(6, q0)
    sec_l, sec_m = _sector_labels(2 * box.L)  # reaches the wall, where v^{n,down} is cut
    for j2 in (1, 3, 5):
        for slots in (_hplus_slots(j2), _hminus_slots(j2)):
            mat, sec = _sector_columns(box, sec_l, sec_m, slots)
            mat = mat.tocsc()
            got = []
            for c in range(mat.shape[1]):
                rows = mat.indices[mat.indptr[c]: mat.indptr[c + 1]]
                vals = mat.data[mat.indptr[c]: mat.indptr[c + 1]]
                labels = box.lmn[:, rows % box.dim].T
                got.append({(int(r // box.dim), *map(int, lab)): v for r, lab, v in zip(rows, labels, vals)})
            want = []
            for k, (l2s, m2s) in enumerate(zip(sec_l.tolist(), sec_m.tolist())):
                ref = _reference_sector_vectors(box, l2s, m2s, slots)
                want += ref
                assert np.count_nonzero(sec == k) == len(ref)
            assert got == want


def test_index_numeric_sectors_q0_independent():
    """Sector contributions, not only their sum, agree at three q0, with kept singular values > 1."""
    for j2 in (1, 3, 5, 7, 9):
        reps = [index_numeric(j2, 9, q0) for q0 in (0.3, 0.5, 0.8)]
        assert reps[0].sectors == reps[1].sectors == reps[2].sectors
        assert sum(reps[0].sectors.values()) == -(j2 + 1) // 2
        assert all(r.min_sv_gap > 1 for r in reps)
    assert index_numeric(17, 14, 0.5).value == -9


def test_index_numeric_rejects_cross_sector_leak(monkeypatch):
    """An L_E entry that moves a state into another (l, m) sector trips the leak check."""
    le = SUq2Box.le

    def leaky(self):
        mat = le(self).tolil()
        mat[_at(self, 3, 1, -1), _at(self, 1, 1, 1)] = 1.0  # l 1/2 -> 3/2
        return mat.tocsr()

    monkeypatch.setattr(SUq2Box, "le", leaky)
    with pytest.raises(ArithmeticError, match="leaks"):
        index_numeric(1, 8, Q0)


@pytest.mark.parametrize("damage, match", [("scale", "orthonormal"), ("drop", "span")])
def test_index_numeric_rejects_bad_codomain_basis(monkeypatch, damage, match):
    """A codomain basis that is not orthonormal, or misses a sector's vectors, is refused."""
    from qcpn import suq2

    build = suq2._sector_columns

    def damaged(box, sec_l, sec_m, slots):
        mat, sec = build(box, sec_l, sec_m, slots)
        if slots != suq2._hminus_slots(3):
            return mat, sec
        if damage == "scale":
            return mat * 1.001, sec
        keep = np.flatnonzero(sec != 2)  # the codomain vectors of sector (l, m) = (1, 0)
        return mat.tocsc()[:, keep], sec[keep]

    monkeypatch.setattr(suq2, "_sector_columns", damaged)
    with pytest.raises(ArithmeticError, match=match):
        index_numeric(3, 8, Q0)


def test_index_numeric_sector_pattern():
    """Sector contributions follow the equivariant multiplicity telescope."""
    rep = index_numeric(5, 9, Q0)  # j = 5/2
    # (l, m) sectors contribute -1 at l=0, +1 at l=1, -1 at l=2 (each m)
    expect = {}
    for l2s, sign in ((0, -1), (2, 1), (4, -1)):
        for m2s in range(-l2s, l2s + 1, 2):
            expect[(l2s, m2s)] = sign
    assert rep.sectors == expect


def _svd_index(j2, L, q0, tol=1e-8):
    """Reference index: each sector's T as a dense block, its rank from np.linalg.svd.

    Returns the report fields and every sector's singular values.
    """
    from qcpn.suq2 import _hminus_slots, _p_operator, _sector_columns, _sector_labels

    box = SUq2Box(L, q0)
    sec_l, sec_m = _sector_labels(j2 + 5)
    D, dsec = _sector_columns(box, sec_l, sec_m, _hplus_slots(j2))
    C, csec = _sector_columns(box, sec_l, sec_m, _hminus_slots(j2))
    le = box.le()
    img = _p_operator(box) @ (sparse.block_diag([le, le], format="csr") @ D)
    Gc = (C.T @ img).tocsr().tocoo()
    own = csec[Gc.row] == dsec[Gc.col]
    total, sectors, min_gap, unstable, svs = 0, {}, float("inf"), False, []
    for k, (l2s, m2s) in enumerate(zip(sec_l.tolist(), sec_m.tolist())):
        dom, cod = np.flatnonzero(dsec == k), np.flatnonzero(csec == k)
        rank = 0
        if len(dom) and len(cod):
            T = np.zeros((len(cod), len(dom)))
            mine = own & (dsec[Gc.col] == k)
            T[np.searchsorted(cod, Gc.row[mine]), np.searchsorted(dom, Gc.col[mine])] = Gc.data[mine]
            sv = np.linalg.svd(T, compute_uv=False)
            svs.append(sv)
            rank = int(np.sum(sv > tol))
            unstable = unstable or bool(np.any((tol / 10 < sv) & (sv < tol * 10)))
            min_gap = min(min_gap, float(sv[sv > tol].min(initial=float("inf"))))
        contrib = (len(dom) - rank) - (len(cod) - rank)
        if contrib:
            sectors[(l2s, m2s)] = contrib
        total += contrib
    return (total, sectors, min_gap, unstable), np.concatenate(svs)


def _svd_holo(N, L, q0):
    """Reference holo_dim: a dense SVD of the L_F slice, and boundary safety read off its null-vector basis."""
    tol = 1e-9
    box = SUq2Box(L, q0)
    sl = box.gamma_slice(N)
    mat = box.lf()[np.ix_(box.gamma_slice(N - 2), sl)].toarray()
    _, sv, vt = np.linalg.svd(mat)
    rank = int(np.sum(sv > tol))
    null_vecs = vt[rank:].T
    smallest_kept = float(min((s for s in sv if s > tol), default=float("inf")))
    largest_dropped = float(max((s for s in sv if s <= tol), default=0.0))
    safe = not np.any(np.abs(null_vecs[box.lmn[0][sl] != abs(N)]) > 1e-7)
    return len(sl) - rank, safe, smallest_kept, largest_dropped


ORACLE_Q0 = (0.3, 0.5, 0.8)


def _assert_index_matches(rep, ref):
    value, sectors, min_gap, unstable = ref
    assert (rep.value, rep.sectors, rep.unstable) == (value, sectors, unstable)
    assert rep.min_sv_gap == pytest.approx(min_gap, rel=1e-15, abs=0)


@pytest.mark.parametrize("q0", ORACLE_Q0)
def test_index_numeric_matches_dense_svd(q0):
    """Ranks read off the matching give the dense-SVD reports, at the default tol and at one among kept values."""
    for j2 in range(1, 18, 2):
        L = (j2 + 7) // 2
        ref, sv = _svd_index(j2, L, q0)
        _assert_index_matches(index_numeric(j2, L, q0), ref)
        kept = np.unique(np.round(sv[sv > 1e-8], 9))  # rounded, so that values one ulp apart are one
        tol = float(np.sqrt(kept[0] * kept[1]))  # between the two smallest kept values
        ref, _ = _svd_index(j2, L, q0, tol)
        assert ref[2] == pytest.approx(kept[1], rel=1e-9) and ref[3] == (kept[1] < 10 * tol)
        _assert_index_matches(index_numeric(j2, L, q0, tol), ref)


@pytest.mark.parametrize("q0", ORACLE_Q0)
def test_holo_dim_matches_dense_svd(q0):
    for N in range(-10, 4):
        L = (abs(N) + 7) // 2
        dimension, safe, smallest_kept, largest_dropped = _svd_holo(N, L, q0)
        rep = holo_dim(N, L, q0)
        assert (rep.dimension, rep.boundary_safe, rep.largest_dropped) == (dimension, safe, largest_dropped)
        assert rep.smallest_kept == pytest.approx(smallest_kept, rel=1e-15, abs=0)


@pytest.mark.parametrize("q0", ORACLE_Q0)
def test_index_and_holo_reports_do_not_depend_on_L(q0):
    """Beyond its guard, L changes no field of either report, not even in the last bit."""
    for j2 in range(1, 18, 2):
        guard = (j2 + 7) // 2
        reps = [index_numeric(j2, L, q0) for L in range(guard, guard + 5)]
        assert all(r == reps[0] for r in reps), j2
    for N in range(-10, 4):
        guard = (abs(N) + 7) // 2
        reps = [holo_dim(N, L, q0) for L in range(guard, guard + 5)]
        assert all(r == reps[0] for r in reps), N


@pytest.mark.parametrize("rows, cols", [([0, 0], [0, 1]), ([0, 1], [2, 2])], ids=["row", "column"])
def test_matching_values_rejects_two_entries_in_a_line(rows, cols):
    from qcpn.suq2 import _matching_values

    with pytest.raises(ArithmeticError, match="partial matching"):
        _matching_values(np.array(rows), np.array(cols), np.array([1.0, -2.0]))
    # an explicit zero shares its row and column with nothing
    got = _matching_values(np.array(rows), np.array(cols), np.array([0.0, -2.0]))
    assert got.tolist() == [0.0, 2.0]


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


def _haar_n1_reference(a):
    """The n = 1 normal-word rule: of the normal words only z0*^k z0^k count, with h = (1 - q^2)/(1 - q^{2k+2})."""
    by_k = {}
    for w, c in normalize(a, P1).terms.items():
        b0, a0, b1, a1 = (w.count(g) for g in range(4))
        if not (a1 or b1 or a0 != b0):
            by_k[a0] = by_k.get(a0, ZERO) + c
    return sum((c * (ONE - qpow(2)) / (ONE - qpow(2 * k + 2)) for k, c in by_k.items()), ZERO)


def test_haar_symbolic_equals_the_n1_rule_to_length_6():
    """The weighted Fock trace is the normal-word rule at n = 1 on all 5,461 words of length <= 6."""
    words = [w for k in range(7) for w in itertools.product(range(4), repeat=k)]
    assert len(words) == 5461
    bad = [w for w in words if haar_symbolic(NCPoly.word(w), P1) != _haar_n1_reference(NCPoly.word(w))]
    assert not bad, bad[:5]


def _random_two_term(rng, P):
    """A seeded random normal form c1 w1 + c2 w2, words of length <= 4, coefficients in Z[q, q^-1]."""
    def word():
        return [rng.randrange(2 * P.n + 2) for _ in range(rng.randint(0, 4))]
    a = NCPoly.word(word(), qpow(rng.randint(-2, 2))) + NCPoly.word(word(), QScalar.from_int(rng.randint(1, 3)))
    return normalize(a, P)


@pytest.mark.parametrize("n", [2, 3])
def test_haar_symbolic_is_the_invariant_state(n):
    """h(1) = 1, h(E_i |> a) = h(F_i |> a) = 0 and h(K_i |> a) = h(a) for i = 1..n on 60 random elements."""
    P = Presentation(n)
    assert haar_symbolic(NCPoly.one(), P).is_one()
    rng = random.Random(30 + n)
    for _ in range(60):
        a = _random_two_term(rng, P)
        h = haar_symbolic(a, P)
        for i in range(1, n + 1):
            assert haar_symbolic(uq_act(UqGenerator("E", i), a, P), P).is_zero(), (i, a)
            assert haar_symbolic(uq_act(UqGenerator("F", i), a, P), P).is_zero(), (i, a)
            assert haar_symbolic(uq_act(UqGenerator("K", i), a, P), P) == h, (i, a)


@pytest.mark.parametrize("n", [2, 3])
def test_haar_symbolic_is_positive(n):
    """h(a^* a) > 0 at q0 = 1/2, exactly, on 60 random nonzero elements."""
    P = Presentation(n)
    rng = random.Random(40 + n)
    for _ in range(60):
        a = _random_two_term(rng, P)
        assert not a.is_zero()
        assert haar_symbolic(mul(star(a, P), a, P), P).eval_q_exact(Fraction(1, 2)) > 0, a


def test_modular_property():
    assert modular_check(NCPoly.one(), NCPoly.one()).is_zero()
    assert modular_check(A_EL, A_EL).is_zero()
    assert modular_check(B_EL, star(B_EL, P1)).is_zero()
    assert modular_check(A_EL, B_EL).is_zero()


@pytest.mark.parametrize("b", [Z0S, mul(mul(Z0S, Z1S, P1), Z1, P1)], ids=["z0*", "z0* z1* z1"])
def test_modular_check_needs_charge_zero(b):
    """A b of nonzero U(1) charge is outside the domain of the left-only twist: ValueError, not a residual."""
    with pytest.raises(ValueError, match="charge 0"):
        modular_check(Z0, b)


def _modular_pair(rng, P):
    """A random word a and a two-term b of total U(1) charge 0 whose per-index charge is the opposite of a's.

    b's two words hold the same letters in two orders; a holds one letter per unit of charge it needs,
    plus, half the time, a pair z_j z_j^*.
    """
    n = P.n
    half = [rng.randrange(n + 1) for _ in range(rng.randint(0, 2))]
    bl = [letter(i, False) for i in half] + [letter(rng.randrange(n + 1), True) for _ in half]
    rng.shuffle(bl)
    bl2 = rng.sample(bl, len(bl))
    charge = Counter()
    for g in bl:
        charge[g >> 1] += -1 if g & 1 else 1
    al = [letter(i, c > 0) for i, c in charge.items() for _ in range(abs(c))]
    if rng.random() < 0.5:
        j = rng.randrange(n + 1)
        al += [letter(j, False), letter(j, True)]
    rng.shuffle(al)
    b = NCPoly.word(bl, qpow(rng.randint(-1, 1))) + NCPoly.word(bl2, QScalar.from_int(rng.randint(1, 3)))
    return normalize(NCPoly.word(al), P), normalize(b, P)


_DENOMINATORS = (QScalar.from_fraction(Fraction(1, 3)), (ONE + qpow(2)).inv(), qpow(1) / (ONE - qpow(4)))


@pytest.mark.parametrize("n", [1, 2])
def test_haar_and_modular_check_are_linear_over_q_of_s(n):
    """Coefficients with denominators: h(c a) = c h(a) for c in {1/3, 1/(1 + q^2), q/(1 - q^4)}, also on a sum
    with three denominators, and modular_check of scaled pairs is exactly 0."""
    P = Presentation(n)
    rng = random.Random(60 + n)
    for _ in range(10):
        terms = [_random_two_term(rng, P) for _ in _DENOMINATORS]
        hs = [haar_symbolic(a, P) for a in terms]
        for a, h in zip(terms, hs):
            for c in _DENOMINATORS:
                assert haar_symbolic(a.scale(c), P) == c * h, (a, c)
        mixed = lincomb(zip(terms, _DENOMINATORS))
        assert haar_symbolic(mixed, P) == sum((c * h for c, h in zip(_DENOMINATORS, hs)), ZERO)
        a, b = _modular_pair(rng, P)
        for ca, cb in itertools.product(_DENOMINATORS, repeat=2):
            assert modular_check(a.scale(ca), b.scale(cb), P).is_zero(), (a, b, ca, cb)


@pytest.mark.parametrize("n", [2, 3])
def test_modular_property_beyond_n1(n):
    """h(ab) = h(eta(b) a) exactly on 60 random pairs, while the untwisted h(ab) - h(ba) is not always 0."""
    P = Presentation(n)
    rng = random.Random(50 + n)
    untwisted = 0
    for _ in range(60):
        a, b = _modular_pair(rng, P)
        assert modular_check(a, b, P).is_zero(), (a, b)
        untwisted += not haar_symbolic(mul(a, b, P) - mul(b, a, P), P).is_zero()
    assert untwisted > 0


@pytest.mark.parametrize(
    "N,expected", [(0, 1), (-1, 2), (-2, 3), (-3, 4), (-4, 5), (1, 0), (2, 0)]
)
def test_holo_dim(N, expected):
    r = holo_dim(N, 8, Q0)
    assert r.dimension == expected
    assert r.boundary_safe


def test_holo_dim_kernel_never_reaches_the_wall():
    """An L_F argument (l2 + N, l2 - N + 2) is zero only at l2 = |N| with N <= 0, so no zero link sits at
    the wall: boundary_safe holds and largest_dropped is exactly 0.0 whatever N, L and q0, also at
    N = -620, L = 313, q0 = 0.1, where the other bracket of the kernel link, [621/2], is inf."""
    cases = [(N, L, q0) for N in range(-20, 21) for L in (13, 16, 25) for q0 in (0.1, 0.5, 0.9)]
    for N, L, q0 in cases + [(-620, 313, 0.1)]:
        r = holo_dim(N, L, q0)
        assert (r.boundary_safe, r.largest_dropped) == (True, 0.0), (N, L, q0)


def _per_state_holo(N, L, q0):
    """holo_dim's earlier body: the slice with one entry per state, two scalar brackets each off the kernel,
    and 0.0 on it by its label."""
    l2 = np.repeat(np.arange(abs(N), 2 * L + 1, 2), np.arange(abs(N) + 1, 2 * L + 2, 2))  # each l once per m
    a, b = _ladder_args("F", l2, -N)
    zero = (a == 0) | (b == 0)
    brackets = [_brk(q0, x / 2) * _brk(q0, y / 2) for x, y in zip(a.tolist(), b.tolist())]
    links = np.where(zero, 0.0, np.sqrt(brackets))
    return HoloReport(int(zero.sum()), bool(np.all(l2[zero] == abs(N))),
                      float(links[~zero].min(initial=float("inf"))), float(links[zero].max(initial=0.0)))


def test_holo_dim_per_shell_equals_per_state():
    """One link per shell gives the per-state report on all four fields, bit for bit, also where the
    brackets overflow: at q0 = 0.1 and L = 320, at q0 = 0.5 and L = 1030, and at N = -620, where the
    kernel link is 0.0 by its label although its other bracket is inf, so no field is nan."""
    cases = [(N, L, q0) for N in range(-10, 4) for q0 in (0.1, 0.5, 0.9) for L in ((abs(N) + 7) // 2, 16)]
    cases += [(N, 320, 0.1) for N in (-10, -3, 0, 3)] + [(0, 1030, 0.5), (-2, 1030, 0.5), (-620, 313, 0.1)]
    overflow = 0
    for N, L, q0 in cases:
        got, want = holo_dim(N, L, q0), _per_state_holo(N, L, q0)
        assert vars(got) == vars(want), (N, L, q0, got, want)
        overflow += _brk(q0, L + 1) == math.inf  # [L + 1], a bracket of the top shell at N = 0
    assert overflow == 7


@pytest.mark.parametrize("N, L, states", [(0, 2828, 2829 ** 2), (-3, 2828, 2827 * 2830), (3, 2828, 2827 * 2830)])
def test_holo_dim_refuses_a_slice_past_the_limit(N, L, states):
    """The slice holds the sum of l2 + 1 over l2 = |N|, |N| + 2, .., 2L states; at L = 2828 that passes
    8,000,000 (by one shell) and is refused before anything is built."""
    with pytest.raises(ValueError, match=rf"has {states} states at N = {N}, L = {L}, more than the limit 8000000$"):
        holo_dim(N, L, Q0)
    assert holo_dim(N, 12, Q0).dimension == (abs(N) + 1 if N <= 0 else 0)


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
    for N in range(9):
        assert tau1_pairing(N) == qpow(-4) * qint(N)


def _tau1_triple_sum(N):
    """tau_1 as one sum over the k^3 index triples (i0, i1, i2), each core[i0][i1] x[i1][i2] multiplied out."""
    from qcpn.ncpoly import mul_sum
    from qcpn.projections import k2rho_eigenvalues, projection, psi

    P = Presentation(1)
    M = projection(N, 1, P)
    k = len(M)
    rho_inv = [x.inv() for x in k2rho_eigenvalues(psi(N, 1, P))]
    y = [[dbar(M.core[i][j], P) for j in range(k)] for i in range(k)]
    x = [[star(y[j][i], P) for j in range(k)] for i in range(k)]
    u = M.weights
    triples = (
        (mul(M.core[i0][i1], x[i1][i2], P), y[i2][i0], u[i0] * u[i1] * u[i2] * rho_inv[i0])
        for i0, i1, i2 in itertools.product(range(k), repeat=3)
    )
    return haar_symbolic(mul_sum(triples, P), P)


@pytest.mark.parametrize("N", [0, 1, 2, 3])
def test_tau1_equals_the_triple_sum(N):
    """Summing (XY)[i1][i0] first is associativity only: the value is the k^3-triple sum's, exactly."""
    assert tau1_pairing(N) == _tau1_triple_sum(N)


def test_tau1_exact_to_N5_on_one_presentation():
    """One shared presentation, as qcpn tau1 passes it, gives q^{-4}[N] for N <= 5 and leaves modular_check exact."""
    P = Presentation(1)
    for N in range(6):
        assert tau1_pairing(N, P) == qpow(-4) * qint(N)
    assert modular_check(A_EL, B_EL, P).is_zero()
    assert modular_check(B_EL, star(B_EL, P1), P).is_zero()


def test_tau1_and_modular_check_rewrite_no_product(monkeypatch):
    """tau_1 for N <= 3 and modular_check on the pairs of qcpn tau1 compose Fock images: no mul_sum or mul call.

    P_N is built before counting: its core, the products m_i m_j^* in the algebra, stays ncpoly's."""
    from qcpn import ncpoly, projections, suq2

    P = Presentation(1)
    built = {N: projections.projection(N, 1, P) for N in range(4)}
    monkeypatch.setattr(projections, "_projection", lambda av: built[av.N])
    calls = []

    def counting(original):
        def wrapped(*args, **kwargs):
            calls.append(original.__name__)
            return original(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(ncpoly, "mul_sum", counting(ncpoly.mul_sum))
    for name in ("mul_sum", "mul"):
        monkeypatch.setattr(suq2, name, counting(getattr(suq2, name, None)), raising=False)
    for N in range(4):
        assert tau1_pairing(N, P) == qpow(-4) * qint(N)
    for a, b in ((A_EL, A_EL), (B_EL, star(B_EL, P1)), (A_EL, B_EL)):
        assert modular_check(a, b, P).is_zero()
    assert calls == []


def test_tau1_builds_psi_once_per_N(monkeypatch):
    """P_N and rho come from one Psi_N: projections.psi runs once per N."""
    from qcpn import projections

    built, psi0 = [], projections.psi

    def counting_psi(*args, **kwargs):
        built.append(args[0])
        return psi0(*args, **kwargs)

    monkeypatch.setattr(projections, "psi", counting_psi)
    P = Presentation(1)
    for N in range(4):
        assert tau1_pairing(N, P) == qpow(-4) * qint(N)
    assert built == [0, 1, 2, 3]


@pytest.mark.parametrize("N", [-1, -2, -3])
def test_tau1_rejects_negative_N(N):
    # the pairing is stated for N >= 0; below it the sum is 0, which matches no formula
    with pytest.raises(ValueError, match="N >= 0"):
        tau1_pairing(N)
