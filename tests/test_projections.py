"""Psi_N, P_N, R_N, sigma^N and the covariance identity."""

from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest

from qcpn.ncpoly import NCPoly, Presentation, UqGenerator, mul, mul_sum, normalize, star, uq_act
from qcpn.projections import (
    UqMatrixRep,
    check_equivariance,
    equivariance_residuals,
    check_rn_conjugation,
    is_projection,
    is_selfadjoint,
    k2rho_eigenvalues,
    mat_eq,
    mat_mul,
    multi_indices,
    projection,
    psi,
    psi_dagger_psi,
    qtrace,
    sigma_rep,
    weight_matrix,
)
from qcpn.qcoeff import ONE, QScalar, qint, qpow

GENS = [UqGenerator(k, 1) for k in ("E", "F", "K", "Kinv")]


def test_multi_index_order():
    # colexicographic on (j_0, ..., j_n)
    idx = multi_indices(2, 1)
    assert idx == [(2, 0), (1, 1), (0, 2)]


def test_psi_components():
    av = psi(1, 1)
    assert [m.terms for m in av.monomials] == [NCPoly.gen(0, True).terms, NCPoly.gen(1, True).terms]
    av = psi(-1, 1)
    assert av.monomials[0] == NCPoly.gen(0)
    assert av.monomials[1] == NCPoly.gen(1).scale(qpow(1))
    av = psi(0, 2)
    assert len(av) == 1 and av.monomials[0] == NCPoly.one()


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("N", range(-3, 4))
def test_psi_unitarity(n, N):
    assert psi_dagger_psi(psi(N, n)) == NCPoly.one()


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("N", range(-3, 4))
def test_projection_identities(n, N):
    M = projection(N, n)
    assert is_projection(M)
    assert is_selfadjoint(M)
    assert len(M) == _binom(abs(N) + n, n)


def test_projection_checks_reject_perturbed_core():
    M = projection(1, 1)
    M.weights[0] = M.weights[0] + M.weights[0]
    assert not is_projection(M)
    M = projection(1, 1)
    M.core[0][1] = M.core[0][1].scale(qpow(1))
    assert not is_selfadjoint(M)
    assert is_projection(projection(1, 1))


def _binom(a, b):
    import math

    return math.comb(a, b)


def test_projection_entries_examples():
    P = Presentation(1)
    z, zs = [NCPoly.gen(i) for i in range(2)], [NCPoly.gen(i, True) for i in range(2)]
    M = projection(1, 1, P)
    # P_1 entries are p_ij = z_i^* z_j
    for i in range(2):
        for j in range(2):
            assert M.scaled_entry(i, j) == mul(zs[i], z[j], P)
    M = projection(-1, 1, P)
    expect = [
        [mul(z[0], zs[0], P), mul(z[0], zs[1], P).scale(qpow(1))],
        [mul(z[1], zs[0], P).scale(qpow(1)), mul(z[1], zs[1], P).scale(qpow(2))],
    ]
    for i in range(2):
        for j in range(2):
            assert M.scaled_entry(i, j) == expect[i][j]
    assert len(projection(0, 2)) == 1
    assert projection(0, 2).scaled_entry(0, 0) == NCPoly.one()


@pytest.mark.parametrize("n", [1, 2])
def test_qtrace_P1_is_one(n):
    assert qtrace(projection(1, n)) == NCPoly.one()


def test_qtrace_P_minus1_derived():
    # derived independently: Tr_q = z0 z0^* + q^4 z1 z1^* normalized
    P = Presentation(1)
    z, zs = [NCPoly.gen(i) for i in range(2)], [NCPoly.gen(i, True) for i in range(2)]
    oracle = normalize(mul(z[0], zs[0], P) + mul(z[1], zs[1], P).scale(qpow(4)), P)
    assert qtrace(projection(-1, 1, P)) == oracle


def test_weight_matrix():
    assert weight_matrix(0, 1) == [ONE]
    assert weight_matrix(-1, 1) == [qpow(Fraction(1, 2)), qpow(Fraction(-1, 2))]
    # K_2rho eigenvalue equals R^2 on the N < 0 branch
    for N in (-1, -2, -3):
        av = psi(N, 1)
        R = weight_matrix(N, 1)
        rho = k2rho_eigenvalues(av)
        assert all(r * r == p for r, p in zip(R, rho))
    # paper exponent sum_i i(n+1-i)(j_{i-1} - j_i) matches on the N<0 branch
    n = 2
    av = psi(-2, n)
    rho = k2rho_eigenvalues(av)
    for J, ev in zip(av.indices, rho):
        expo = sum(i * (n + 1 - i) * (J[i - 1] - J[i]) for i in range(1, n + 1))
        assert ev == qpow(expo)


def test_k2rho_eigenvalues_reject_an_off_diagonal_entry():
    """rho is the diagonal of sigma(K_2rho): two components on one word put an entry off it."""
    av = psi(1, 1)
    m = av.monomials[0]
    with pytest.raises(ArithmeticError, match="eigenvector"):
        k2rho_eigenvalues(replace(av, monomials=[m, m.scale(qpow(1))]))


def test_sigma_rep_examples():
    rep = sigma_rep(0, 1)
    assert rep.matrix(UqGenerator("E", 1)) == [[qpow(0) * qint(0)]]  # zero 1x1
    assert rep.matrix(UqGenerator("K", 1))[0][0] == ONE
    rep = sigma_rep(-1, 1)
    mE = rep.matrix(UqGenerator("E", 1))
    nonzero = [(i, j) for i in range(2) for j in range(2) if not mE[i][j].is_zero()]
    assert nonzero == [(0, 1)]  # single-entry nilpotent
    assert sigma_rep(2, 2).dimension == _binom(4, 2)


@pytest.mark.parametrize("N", range(-3, 4))
def test_sigma_su2_relations(N):
    rep = sigma_rep(N, 1)
    E, F = rep.matrix(UqGenerator("E", 1)), rep.matrix(UqGenerator("F", 1))
    K, Ki = rep.matrix(UqGenerator("K", 1)), rep.matrix(UqGenerator("Kinv", 1))
    lhs = mat_mul(mat_mul(K, E), Ki)
    assert mat_eq(lhs, [[qpow(1) * e for e in row] for row in E])
    comm = [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(mat_mul(E, F), mat_mul(F, E))]
    den = qpow(1) - qpow(-1)
    tgt = [
        [(a - b) / den for a, b in zip(ra, rb)]
        for ra, rb in zip(mat_mul(K, K), mat_mul(Ki, Ki))
    ]
    assert mat_eq(comm, tgt)


@pytest.mark.parametrize("N", range(-3, 4))
@pytest.mark.parametrize("g", GENS, ids=str)
def test_equivariance_exact(N, g):
    res = check_equivariance(N, 1, g)
    assert all(e.is_zero() for row in res for e in row)


def test_equivariance_trivial_at_N0_n2():
    for i in (1, 2):
        for kind in ("E", "F", "K", "Kinv"):
            res = check_equivariance(0, 2, UqGenerator(kind, i))
            assert all(e.is_zero() for row in res for e in row)


@pytest.mark.parametrize("N,n", [(2, 1), (-2, 1), (1, 2), (2, 2)])
def test_is_projection_rejects_a_perturbed_core(N, n):
    # negative controls: the fused P^2 = P check sees a one-entry change
    M = projection(N, n)
    assert is_projection(M)
    scaled = [row[:] for row in M.core]
    scaled[0][1] = scaled[0][1].scale(qpow(1))
    assert not is_projection(replace(M, core=scaled))
    swapped = [row[:] for row in M.core]
    swapped[0][1], swapped[1][0] = swapped[1][0], swapped[0][1]
    assert not is_projection(replace(M, core=swapped))
    # C_01 and C_10 scaled by the same real q-power: the core stays
    # self-adjoint, so only the upper-triangle P^2 = P entries can reject it
    both = [row[:] for row in M.core]
    both[0][1], both[1][0] = both[0][1].scale(qpow(1)), both[1][0].scale(qpow(1))
    assert is_selfadjoint(replace(M, core=both))
    assert not is_projection(replace(M, core=both))


@pytest.mark.parametrize("i", [0, 1])
def test_is_selfadjoint_checks_the_diagonal(i):
    # C_ii + z0 is in normal form and not self-adjoint; no off-diagonal pair changes
    M = projection(1, 1)
    core = [row[:] for row in M.core]
    core[i][i] = core[i][i] + NCPoly.gen(0)
    bad = replace(M, core=core)
    assert not is_selfadjoint(bad)
    assert not is_projection(bad)


def test_is_projection_rejects_an_idempotent_core_that_is_not_selfadjoint():
    # [[1, z0], [0, 0]] with unit weights squares to itself, but is not P = P^dag
    M = projection(1, 1)
    one, zero = NCPoly.one(), NCPoly({})
    bad = replace(M, core=[[one, NCPoly.gen(0)], [zero, zero]], weights=[ONE, ONE])
    assert _full_square(bad) == bad.core
    assert not is_selfadjoint(bad)
    assert not is_projection(bad)


@pytest.mark.parametrize("N,n", [(3, 1), (-2, 2), (3, 2)])
def test_is_projection_forms_the_upper_triangle_only(N, n, monkeypatch):
    from qcpn import projections

    M = projection(N, n)
    k, calls, original = len(M), [], projections.compose_sum

    def counting(*args):
        calls.append(None)
        return original(*args)

    monkeypatch.setattr(projections, "compose_sum", counting)
    assert is_projection(M)
    assert len(calls) == k * (k + 1) // 2  # one image comparison per entry with i <= j


def _full_square(M):
    """Every entry of core * U * core, k^2 normal forms (the test-side oracle)."""
    k, P, C, u = len(M), M.presentation, M.core, M.weights
    return [[mul_sum(((C[i][l], C[l][j], u[l]) for l in range(k)), P) for j in range(k)] for i in range(k)]


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("N", range(-3, 4))
def test_is_projection_agrees_with_the_full_square(n, N):
    # criterion-1 sizes; on each core and on its self-adjoint perturbation,
    # is_projection agrees with the entrywise k^2 check, and the lower
    # triangle of C U C is the star of the upper one
    P = Presentation(n)
    M = projection(N, n, P)
    cores = [M.core]
    if len(M) > 1:
        scaled = [row[:] for row in M.core]
        scaled[0][1], scaled[1][0] = scaled[0][1].scale(qpow(-1)), scaled[1][0].scale(qpow(-1))
        cores.append(scaled)
    for core in cores:
        C = replace(M, core=core)
        sq, k = _full_square(C), len(C)
        assert is_projection(C) == (sq == core)
        for i in range(k):
            for j in range(i + 1, k):
                assert star(sq[i][j], P) == sq[j][i]
    assert is_projection(M)


@pytest.mark.parametrize("N,n", [(2, 1), (-2, 1), (1, 2)])
def test_equivariance_residuals_match_one_generator_at_a_time(N, n):
    gens = [UqGenerator(k, i) for i in range(1, n + 1) for k in ("E", "F", "K", "Kinv")]
    for order in (gens, gens[::-1]):  # every x |> p is built once and shared
        batch = equivariance_residuals(N, n, order)
        assert list(batch) == order
        for g in gens:
            assert batch[g] == check_equivariance(N, n, g)
            assert all(e.is_zero() for row in batch[g] for e in row)


@pytest.mark.parametrize("N,n", [(2, 1), (-1, 2)])
def test_equivariance_residuals_build_psi_and_each_sigma_once(N, n, monkeypatch):
    """One call builds Psi_N once (P_N reuses it) and conjugates sigma(y)^t once per generator y.

    The calls are recorded with the matrices they return or receive, so each
    conjugation is matched to the generator whose sigma it conjugates."""
    from qcpn import projections

    gens = [UqGenerator(k, i) for i in range(1, n + 1) for k in ("E", "F", "K", "Kinv")]
    want = equivariance_residuals(N, n, gens)
    built, matrices, conjugated = [], [], []
    psi0, matrix0, diag_conj0 = projections.psi, UqMatrixRep.matrix, projections.diag_conj

    def counting_psi(*args, **kwargs):
        built.append(args[0])
        return psi0(*args, **kwargs)

    def recording_matrix(self, x):
        A = matrix0(self, x)
        matrices.append((x, A))
        return A

    def recording_diag_conj(d, A):
        conjugated.append([x for x, B in matrices if B is A])
        return diag_conj0(d, A)

    monkeypatch.setattr(projections, "psi", counting_psi)
    monkeypatch.setattr(UqMatrixRep, "matrix", recording_matrix)
    monkeypatch.setattr(projections, "diag_conj", recording_diag_conj)
    assert equivariance_residuals(N, n, gens) == want
    assert built == [N]
    assert Counter(x for x, _ in matrices) == Counter(gens + [UqGenerator("K2rho")])
    assert all(len(xs) == 1 for xs in conjugated)
    assert Counter(xs[0] for xs in conjugated) == Counter(gens)  # sigma(y^*) for each y: every generator once


@pytest.mark.parametrize("n", [1, 2, 3])
def test_component_matrices_divide_nothing(n, monkeypatch):
    """sigma(x) for E_i, F_i, K_i, K_i^-1 and K_2rho multiplies by inverse prefactors taken when
    the representation is built: no QScalar division."""
    gens = [UqGenerator(k, i) for i in range(1, n + 1) for k in ("E", "F", "K", "Kinv")] + [UqGenerator("K2rho")]
    vectors = [psi(N, n) for N in (-2, 0, 2)]
    want = [[UqMatrixRep(av).matrix(x) for x in gens] for av in vectors]
    reps = [UqMatrixRep(av) for av in vectors]  # the inverse prefactors are taken here, before counting
    divisions, div0 = [], QScalar.__truediv__

    def counting_div(a, b):
        divisions.append((a, b))
        return div0(a, b)

    monkeypatch.setattr(QScalar, "__truediv__", counting_div)
    assert [[rep.matrix(x) for x in gens] for rep in reps] == want
    assert divisions == []


@pytest.mark.parametrize("bad", [UqGenerator("K2rho"), UqGenerator("E", 2)], ids=str)
def test_equivariance_residuals_validate_every_generator_first(bad, monkeypatch):
    from qcpn import projections

    def fail(*args):
        raise AssertionError("built psi before validating the generators")

    monkeypatch.setattr(projections, "psi", fail)
    with pytest.raises(ValueError):
        equivariance_residuals(1, 1, [UqGenerator("E", 1), bad])


@pytest.mark.parametrize("N", range(-3, 4))
@pytest.mark.parametrize("g", GENS, ids=str)
def test_rn_conjugation_identity(N, g):
    assert check_rn_conjugation(N, 1, g)


def test_sigma_action_closes_and_matches_action():
    """sigma is exactly the matrix of uq_act on the component monomials."""
    av = psi(-2, 1)
    rep = sigma_rep(-2, 1)
    P = av.presentation
    for g in GENS:
        M = rep.matrix(g)
        for j, m in enumerate(av.monomials):
            img = uq_act(g, m, P)
            recon = NCPoly.zero()
            for i, mi in enumerate(av.monomials):
                recon = recon + mi.scale(M[i][j])
            assert normalize(img - recon, P).is_zero()
