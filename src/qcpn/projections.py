"""K-theory generators Psi_N, P_N, R_N and the component representations.

The components of Psi_N carry square roots of q-multinomials, which do not
live in Q(s).  Everything here therefore works with the factored form

    psi_J = sqrt(u_J) * m_J,      u_J = [J]!  (a Laurent polynomial),

where m_J is a plain monomial with a q-power prefactor.  All identities of
interest (Psi^dag Psi = 1, P^2 = P = P^dag, equivariance) only ever involve
the squares u_J, so they stay exact in Q(s).  The equivariant pair
(P'_N, sigma^N) appears here conjugated by a constant diagonal matrix,
which changes no identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from .ncpoly import (
    NCPoly,
    Presentation,
    UqGenerator,
    letter,
    lincomb,
    mul,
    mul_sum,
    star,
    uq_act,
)
from .qcoeff import ZERO, QScalar, qmultinomial, qpow
from .rep_sphere import compose_sum, fock_images, rule_violations, scale_image

MultiIndex = Tuple[int, ...]


def multi_indices(total: int, n: int) -> List[MultiIndex]:
    """All (j_0,...,j_n) >= 0 with sum = total, in colexicographic order."""
    out: List[MultiIndex] = []

    def rec(slots: int, rem: int, acc: List[int]):
        if slots == 1:
            out.append(tuple(acc + [rem]))
            return
        for j in range(rem + 1):
            rec(slots - 1, rem - j, acc + [j])

    rec(n + 1, total, [])
    out.sort(key=lambda J: tuple(reversed(J)))
    return out


@dataclass
class AlgebraVector:
    """Factored Psi_N: components psi_J = sqrt(weights[J]) * monomials[J]."""

    N: int
    presentation: Presentation
    indices: List[MultiIndex]
    monomials: List[NCPoly]
    weights: List[QScalar]

    def __len__(self) -> int:
        return len(self.indices)


@dataclass
class AlgebraMatrix:
    """Factored P_N = U^{1/2} core U^{1/2} with U = diag(weights)."""

    N: int
    presentation: Presentation
    indices: List[MultiIndex]
    core: List[List[NCPoly]]
    weights: List[QScalar]

    def __len__(self) -> int:
        return len(self.indices)

    def scaled_entry(self, i: int, j: int) -> NCPoly:
        """Entry of the diagonally rescaled idempotent U * core (exact)."""
        return self.core[i][j].scale(self.weights[i])

    def to_json(self) -> str:
        """JSON form with entries in canonical text (factored: core + weights)."""
        import json

        from .parser import print_expr

        return json.dumps(
            {
                "N": self.N,
                "n": self.presentation.n,
                "indices": [list(J) for J in self.indices],
                "weights": [str(u) for u in self.weights],
                "core": [[print_expr(e) for e in row] for row in self.core],
            },
            indent=1,
        )


def _psi_monomial(J: MultiIndex, N: int) -> Tuple[Fraction, Tuple[int, ...]]:
    """q-power exponent and word of the component monomial for index J."""
    n = len(J) - 1
    cross = sum(J[r] * J[s] for r in range(n + 1) for s in range(r + 1, n + 1))
    if N >= 0:
        e = Fraction(-cross, 2)
        w = tuple(letter(i, True) for i in range(n + 1) for _ in range(J[i]))
    else:
        e = Fraction(cross, 2) + sum(r * J[r] for r in range(n + 1))
        w = tuple(letter(i, False) for i in range(n + 1) for _ in range(J[i]))
    return e, w


def psi(N: int, n: int, P: Presentation | None = None) -> AlgebraVector:
    """The vector Psi_N over the level-n sphere, in factored form."""
    P = P or Presentation(n)
    idxs = multi_indices(abs(N), n)
    monos, weights = [], []
    for J in idxs:
        e, w = _psi_monomial(J, N)
        monos.append(NCPoly.word(w, qpow(e)))
        weights.append(qmultinomial(list(J)))
    return AlgebraVector(N, P, idxs, monos, weights)


def psi_dagger_psi(av: AlgebraVector) -> NCPoly:
    """Normal form of Psi_N^dag Psi_N (should be 1)."""
    P = av.presentation
    return mul_sum(((star(m), m, u) for m, u in zip(av.monomials, av.weights)), P)


def projection(N: int, n: int, P: Presentation | None = None) -> AlgebraMatrix:
    """P_N = Psi_N Psi_N^dag in factored form (core_IJ = nf(m_I m_J^*))."""
    return _projection(psi(N, n, P))


def _projection(av: AlgebraVector) -> AlgebraMatrix:
    """P_N = Psi_N Psi_N^dag for a Psi_N already built."""
    P = av.presentation
    k = len(av)
    stars = [star(m) for m in av.monomials]
    core = [[mul(av.monomials[i], stars[j], P) for j in range(k)] for i in range(k)]
    return AlgebraMatrix(av.N, P, av.indices, core, av.weights)


def is_projection(M: AlgebraMatrix) -> bool:
    """Check P_N^2 = P_N, i.e. core * U * core == core, on exact Fock images.

    The core must first be self-adjoint (``is_selfadjoint``); a core that is
    not is rejected.  Then only the entries with i <= j of C U C are
    decided, each by comparing sum_l u_l img(C_il) o img(C_lj) with
    img(C_ij), where img is ``rep_sphere.fock_image`` in pi_{n,n} and o is
    ``rep_sphere.compose_sum``.  The images are taken of the core entries
    as they stand, in one ``rep_sphere.fock_images`` call that images each
    distinct word of the core once: no product is rewritten, and nothing
    is reassociated through Psi^dag Psi = 1.  The lower triangle follows:
    star is an antilinear anti-automorphism, Q(s) coefficients are real,
    and the weights u_l are real and central, so with C = C^dag, for i > j

        (CUC)_ij = sum_l C_il u_l C_lj = sum_l star(C_li) u_l star(C_jl)
                 = star((CUC)_ji) = star(C_ji) = C_ij.

    The images decide equality in the algebra, for two reasons.

    (i) img is an algebra homomorphism: every rule of
    ``Presentation._rewrite_pair`` holds on images.  There are finitely many
    rules at each n, and ``rep_sphere.rule_violations`` checks them all
    exactly before the first decision at that n.  So img(x) = img(nf(x)) for
    every x, and sum_l u_l img(C_il) o img(C_lj) is the image of the normal
    form of (CUC)_ij.

    (ii) img is injective on the span of the normal words.  Let w =
    z_0^*^{a_0} z_0^{b_0} ... z_n^*^{a_n} z_n^{b_n} be a normal word (a_n b_n
    = 0 under sphere reduction), of charge c_i = b_i - a_i.  Its image is
    one monomial times a product of factors 1 - q^{2t} Y_i^2, min(a_i, b_i)
    of them per i < n (z_i^b raises d_i by b, then z_i^*^a lowers it back
    over min(a, b) of those edges), so its monomials are all at most the
    componentwise-maximal one, whose Y_i-exponent is sum_{j>i} (a_j + b_j) +
    2 min(a_i, b_i).  Within one charge, c_n and a_n b_n = 0 fix a_n and
    b_n, and then each Y_i-exponent fixes min(a_i, b_i), and with c_i both
    a_i and b_i, from i = n-1 down.  So distinct normal words of one charge
    have distinct top monomials.  In a nonzero combination, the word whose
    top monomial is lexicographically largest is the only one with that
    monomial: its coefficient survives, and the image is not 0.

    So img((CUC)_ij) = img(C_ij) iff nf((CUC)_ij) = C_ij for a core in
    normal form.  Injectivity needs the sphere relation, so a presentation
    without sphere reduction is a ValueError; a coefficient that is not
    Laurent raises ``rep_sphere.NotLaurentError``.
    """
    if not M.presentation.sphere_reduction:
        raise ValueError("is_projection decides P^2 = P on the sphere: the presentation needs sphere reduction")
    return is_selfadjoint(M) and _selfadjoint_is_idempotent(M)


def _selfadjoint_is_idempotent(M: AlgebraMatrix) -> bool:
    """P^2 = P for a core already known to be self-adjoint, decided on the images (``is_projection``)."""
    n, k = M.presentation.n, len(M)
    if rule_violations(n):
        raise ArithmeticError(f"the Fock images break the rewrite rules at n={n} (bug)")
    flat = fock_images([e for row in M.core for e in row], n)
    img = [flat[i * k:(i + 1) * k] for i in range(k)]
    weighted = [[scale_image(img[l][j], M.weights[l]) for j in range(k)] for l in range(k)]  # U * core
    for i in range(k):
        for j in range(i, k):
            if compose_sum((img[i][l], weighted[l][j]) for l in range(k)) != img[i][j]:
                return False
    return True


def is_selfadjoint(M: AlgebraMatrix) -> bool:
    """Check core_IJ == star(core_JI) for I <= J, i.e. P_N = P_N^dag (core entries in normal form).

    Star is an involution on normal forms, so the pairs with I > J repeat
    the check of their transposes.
    """
    P = M.presentation
    k = len(M)
    for i in range(k):
        for j in range(i, k):
            if M.core[i][j] != star(M.core[j][i], P):
                return False
    return True


def qtrace(M: AlgebraMatrix) -> NCPoly:
    """q-trace sum_i q^{2i} u_i core_ii with positional weights (Tr_q(P_1) = 1)."""
    return lincomb((M.core[i][i], M.weights[i] * qpow(2 * i)) for i in range(len(M)))


def weight_matrix(N: int, n: int) -> List[QScalar]:
    """Diagonal of R_N: q^{(1/2) sum_i (n - 2i) j_i} at position J."""
    out = []
    for J in multi_indices(abs(N), n):
        e = Fraction(sum((n - 2 * i) * J[i] for i in range(n + 1)), 2)
        out.append(qpow(e))
    return out


def k2rho_eigenvalues(av: AlgebraVector) -> List[QScalar]:
    """Eigenvalues rho_J of K_2rho on the components of Psi_N: the diagonal of sigma(K_2rho).

    A nonzero off-diagonal entry (a component that is no eigenvector) raises ArithmeticError.
    """
    K = UqMatrixRep(av).matrix(UqGenerator("K2rho"))
    if any(not c.is_zero() for i, row in enumerate(K) for j, c in enumerate(row) if i != j):
        raise ArithmeticError("component is not a K_2rho eigenvector (bug)")
    return [K[i][i] for i in range(len(K))]


class UqMatrixRep:
    """Matrices of the component representation on span{m_J} (exact).

    sigma(x)_{J'J} is defined by x |> m_J = sum_{J'} sigma(x)_{J'J} m_{J'};
    it satisfies the U_q(su(n+1)) relations and is a constant diagonal
    conjugate of the representation on the normalized components.  Entries
    are word coefficients times the inverse prefactors of the m_{J'}, taken
    once per component, so ``matrix`` divides nothing.  rho is the diagonal
    of sigma(K_2rho) (``k2rho_eigenvalues``).
    """

    def __init__(self, av: AlgebraVector):
        self.av = av
        self._word_pos = {next(iter(m.terms)): i for i, m in enumerate(av.monomials)}
        self._inv_prefactor = [next(iter(m.terms.values())).inv() for m in av.monomials]

    @property
    def dimension(self) -> int:
        return len(self.av)

    def matrix(self, x: UqGenerator) -> List[List[QScalar]]:
        k = len(self.av)
        out = [[ZERO] * k for _ in range(k)]
        for j, m in enumerate(self.av.monomials):
            img = uq_act(x, m, self.av.presentation)
            for w, c in img.terms.items():
                if w not in self._word_pos:
                    raise ArithmeticError("action does not close on the component span")
                jp = self._word_pos[w]
                out[jp][j] = c * self._inv_prefactor[jp]
        return out


def sigma_rep(N: int, n: int) -> UqMatrixRep:
    """Component matrix representation of the U_q(su(n+1)) generators."""
    return UqMatrixRep(psi(N, n))


# ---------------------------------------------------------------------------
# scalar-matrix helpers
# ---------------------------------------------------------------------------


def mat_mul(A: Sequence[Sequence[QScalar]], B: Sequence[Sequence[QScalar]]) -> List[List[QScalar]]:
    k = len(A)
    return [
        [sum((A[i][l] * B[l][j] for l in range(k)), ZERO) for j in range(k)]
        for i in range(k)
    ]


def mat_transpose(A: Sequence[Sequence[QScalar]]) -> List[List[QScalar]]:
    k = len(A)
    return [[A[j][i] for j in range(k)] for i in range(k)]


def mat_eq(A, B) -> bool:
    return all(a == b for ra, rb in zip(A, B) for a, b in zip(ra, rb))


def diag_conj(d: Sequence[QScalar], A: Sequence[Sequence[QScalar]]) -> List[List[QScalar]]:
    """d A d^{-1} for a diagonal d, from one inverse vector (pass d^{-1} for d^{-1} A d)."""
    d_inv = [x.inv() for x in d]
    return [[a if a.is_zero() else d[i] * a * d_inv[j] for j, a in enumerate(row)] for i, row in enumerate(A)]


# ---------------------------------------------------------------------------
# equivariance
# ---------------------------------------------------------------------------

_STAR = {"E": "F", "F": "E", "K": "K", "Kinv": "Kinv"}
_S = {"E": ("E", -1, 1), "F": ("F", -1, -1), "K": ("Kinv", 1, 0), "Kinv": ("K", 1, 0)}


def gen_star(x: UqGenerator) -> UqGenerator:
    return UqGenerator(_STAR[x.kind], x.i)


def gen_antipode(x: UqGenerator, inverse: bool = False) -> Tuple[QScalar, UqGenerator]:
    """S(x) (or S^{-1}(x)) as (coefficient, generator)."""
    kind, sgn, qexp = _S[x.kind]
    if inverse:
        qexp = -qexp
    return QScalar.from_int(sgn) * qpow(qexp), UqGenerator(kind, x.i)


def equivariance_residuals(
    N: int, n: int, gens: Sequence[UqGenerator], P: Presentation | None = None
) -> Dict[UqGenerator, List[List[NCPoly]]]:
    """Residual of the covariance identity for (P'_N, sigma^N), entrywise, per generator.

    Works with the diagonally rescaled pair p = U*core and
    sigma(y)^t = diag_conj(rho^{-1}, sigma_comp(y^*)) = rho^{-1} sigma_comp(y^*) rho,
    where rho is the diagonal of sigma_comp(K_2rho); this is the normalized
    pair conjugated by a constant diagonal matrix, so the residual vanishes
    iff the original one does.  Each generator's value is the matrix of
    normalized residual entries (empty == equivariant): each entry is one
    linear combination of normal forms.  Psi_N, P_N, the component
    representation, every sigma(y)^t (one ``matrix`` call each) and every
    x |> p are built once for all of gens, over P (a fresh Presentation(n)
    if None).
    """
    for x in gens:
        if x.kind not in _STAR:
            raise ValueError("equivariance check supports E, F, K, K^-1")
        if not 1 <= x.i <= n:
            raise ValueError(f"U_q generator index {x.i} out of range 1..{n}")
    av = psi(N, n, P)
    P = av.presentation
    M = _projection(av)
    rep = UqMatrixRep(av)
    rho_inv = [r.inv() for r in k2rho_eigenvalues(av)]
    k = len(av)
    pmat = [[M.scaled_entry(i, j) for j in range(k)] for i in range(k)]
    acted: Dict[UqGenerator, List[List[NCPoly]]] = {}
    sigmas: Dict[UqGenerator, List[List[QScalar]]] = {}

    def sigma_t(y: UqGenerator) -> List[List[QScalar]]:
        if y not in sigmas:
            sigmas[y] = diag_conj(rho_inv, rep.matrix(gen_star(y)))
        return sigmas[y]

    def act(gen: UqGenerator) -> List[List[NCPoly]]:
        if gen not in acted:
            acted[gen] = [[uq_act(gen, e, P) for e in row] for row in pmat]
        return acted[gen]

    def residuals(x: UqGenerator) -> List[List[NCPoly]]:
        # sum over the coproduct of x of (x_(1) |> p) sigma_t(x_(2)), minus sigma_t(x) p
        if x.kind in ("K", "Kinv"):
            lhs = [(act(x), sigma_t(x))]
        else:  # Delta(x) = x (x) K + K^{-1} (x) x
            lhs = [(act(x), sigma_t(UqGenerator("K", x.i))), (act(UqGenerator("Kinv", x.i)), sigma_t(x))]
        neg_sigma = [[-c for c in row] for row in sigma_t(x)]

        def entry(i: int, j: int) -> NCPoly:
            pairs = [(A[i][l], S[l][j]) for A, S in lhs for l in range(k)]
            pairs += [(pmat[l][j], neg_sigma[i][l]) for l in range(k)]
            return lincomb((a, c) for a, c in pairs if not c.is_zero())

        return [[entry(i, j) for j in range(k)] for i in range(k)]

    return {x: residuals(x) for x in gens}


def check_equivariance(N: int, n: int, x: UqGenerator) -> List[List[NCPoly]]:
    """Residual matrix of the covariance identity for one generator (see equivariance_residuals)."""
    return equivariance_residuals(N, n, [x])[x]


def check_rn_conjugation(N: int, n: int, x: UqGenerator) -> bool:
    """rho sigma(S(x))^t rho^{-1} == sigma(S^{-1}(x))^t on the component rep.

    rho = sigma(K_2rho) is the squared weight diagonal; the transposes make
    the conjugation implement S^{-2} rather than S^2.
    """
    av = psi(N, n)
    rho = k2rho_eigenvalues(av)
    cs, g = gen_antipode(x)
    ci, _ = gen_antipode(x, inverse=True)  # S^{-1}(x) is a multiple of the same generator g
    sigma_t = mat_transpose(UqMatrixRep(av).matrix(g))
    lhs = [[cs * e for e in row] for row in diag_conj(rho, sigma_t)]
    rhs = [[ci * e for e in row] for row in sigma_t]
    return mat_eq(lhs, rhs)
