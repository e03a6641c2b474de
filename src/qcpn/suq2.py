"""SU_q(2) left-regular machinery: Gamma_N modules, spectral triples, index.

Basis |l,m,n> of A(SU_q(2)) with l in N/2, |m|,|n| <= l; labels are stored
doubled (l2 = 2l etc.) so everything stays integral.  W_n (the completion of
Gamma_{-2n}) is the slice with fixed third label.  All operators are built
on the truncated box l <= L; the generators shift l by at most 1/2 and n by
at most 1, so identities hold exactly on interior windows.

Conventions locked against the displayed matrix actions:
  L_K|l,m,n> = q^{-n}|lmn>,  L_F -> n+1,  L_E -> n-1,
  K|>|l,m,n> = q^m |lmn>,
  star:  |l,m,n>^* = (-q)^{m-n} q^{2n} |l,-m,-n>  (antilinear),
derived from t^l_{nm}-algebra and verified in the tests against products of
the generator matrices.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Callable, Dict, List, Tuple

import numpy as np
from scipy import sparse

from .ncpoly import NCPoly, Presentation, UqGenerator, coproduct_act, letter, mul, normalize, star, uq_act
from .qcoeff import ONE, ZERO, QScalar, is_positive_at_q, qint, qpow

Lmn = Tuple[int, int, int]  # doubled (2l, 2m, 2n)


def _shell_offset(l2: np.ndarray) -> np.ndarray:
    """Basis index of the first state of shell l2: the sum of (k+1)^2 for k < l2."""
    return l2 * (l2 + 1) * (2 * l2 + 1) // 6


def _brk(q0: float, x: float) -> float:
    """Numeric q-bracket [x] at q0."""
    if x == 0:
        return 0.0
    return (q0 ** x - q0 ** (-x)) / (q0 - 1.0 / q0)


class SUq2Box:
    """Truncated left-regular representation of A(SU_q(2)) with l <= L.

    The basis is ordered by l, then m, then n.  ``lmn`` holds its doubled
    labels as a (3, dim) integer array; ``states`` and ``index`` give the
    same labels as tuples.
    """

    def __init__(self, L: int, q0: float):
        if not (0.0 < q0 < 1.0):
            raise ValueError("q0 must lie in (0,1)")
        self.L = L
        self.q0 = q0
        shell = np.arange(2 * L + 1)
        l2 = np.repeat(shell, (shell + 1) ** 2)
        pos = np.arange(len(l2)) - _shell_offset(l2)
        self.lmn = np.stack([l2, 2 * (pos // (l2 + 1)) - l2, 2 * (pos % (l2 + 1)) - l2])
        self.dim = len(l2)
        self.vac = 0  # |0,0,0> is the whole l = 0 shell
        # q0^x and [x] at every half-integer |x| <= 3L + 4 (the largest operator
        # exponent), indexed by 2x + _half0; the scalar values, so the vectorised
        # amplitudes equal the displayed formulas bit for bit
        self._half0 = 6 * L + 8
        xs = [k / 2 for k in range(-self._half0, self._half0 + 1)]
        self._qpow = np.array([q0 ** x for x in xs])
        self._qbrk = np.array([_brk(q0, x) for x in xs])
        self._ops: Dict[str, sparse.csr_matrix] = {}

    @cached_property
    def states(self) -> List[Lmn]:
        return list(zip(*self.lmn.tolist()))

    @cached_property
    def index(self) -> Dict[Lmn, int]:
        return {s: i for i, s in enumerate(self.states)}

    def _q(self, x: np.ndarray) -> np.ndarray:
        """q0 ** x at a half-integer array x."""
        return self._qpow[(2 * x).astype(np.intp) + self._half0]

    def _br(self, x: np.ndarray) -> np.ndarray:
        """The q-bracket [x] at a half-integer array x."""
        return self._qbrk[(2 * x).astype(np.intp) + self._half0]

    def _locate(self, l2: np.ndarray, m2: np.ndarray, n2: np.ndarray) -> np.ndarray:
        """Basis index of each doubled label, or -1 past the wall or off the shell."""
        ok = (l2 >= 0) & (l2 <= 2 * self.L) & (np.abs(m2) <= l2) & (np.abs(n2) <= l2)
        return np.where(ok, _shell_offset(l2) + (m2 + l2) // 2 * (l2 + 1) + (n2 + l2) // 2, -1)

    # -- generic builder -------------------------------------------------------

    def _build(self, name: str, entries: Callable[..., List[Tuple[Lmn, np.ndarray]]]) -> sparse.csr_matrix:
        """Assemble and cache the operator ``name``.

        ``entries(l, m, n)`` receives the basis labels as float arrays and
        returns (shift, amplitude) terms: each column |l,m,n> maps to the
        doubled label plus ``shift`` with that amplitude.  Zero amplitudes and
        targets past the truncation wall are dropped; amplitudes at dropped
        targets may be inf or nan.
        """
        if name in self._ops:
            return self._ops[name]
        l2, m2, n2 = self.lmn
        rows, cols, vals = [], [], []
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = entries(l2 / 2.0, m2 / 2.0, n2 / 2.0)
        for (dl2, dm2, dn2), amp in terms:
            tgt = self._locate(l2 + dl2, m2 + dm2, n2 + dn2)
            keep = (tgt >= 0) & (amp != 0.0)
            rows.append(tgt[keep])
            cols.append(np.flatnonzero(keep))
            vals.append(amp[keep])
        mat = sparse.csr_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(self.dim, self.dim)
        )
        self._ops[name] = mat
        return mat

    # -- left regular representation of the generators -------------------------

    def alpha(self) -> sparse.csr_matrix:
        q, br = self._q, self._br

        def entries(l, m, n):
            up = q(-l + (m + n - 1) / 2.0) * np.sqrt(
                np.maximum(br(l + m + 1) * br(l + n + 1), 0.0) / (br(2 * l + 1) * br(2 * l + 2))
            )
            dn = q(l + (m + n + 1) / 2.0) * np.sqrt(
                np.maximum(br(l - m) * br(l - n), 0.0) / (br(2 * l) * br(2 * l + 1))
            )
            return [((1, 1, 1), up), ((-1, 1, 1), dn)]

        return self._build("alpha", entries)

    def beta(self) -> sparse.csr_matrix:
        q, br = self._q, self._br

        def entries(l, m, n):
            up = q((m + n - 1) / 2.0) * np.sqrt(
                np.maximum(br(l - m + 1) * br(l + n + 1), 0.0) / (br(2 * l + 1) * br(2 * l + 2))
            )
            dn = -q((m + n - 1) / 2.0) * np.sqrt(
                np.maximum(br(l + m) * br(l - n), 0.0) / (br(2 * l) * br(2 * l + 1))
            )
            return [((1, -1, 1), up), ((-1, -1, 1), dn)]

        return self._build("beta", entries)

    def a_op(self) -> sparse.csr_matrix:
        """A = beta^* beta via its closed three-term form."""
        q, br = self._q, self._br

        def entries(l, m, n):
            pref = q(m + n - 1)
            up = (
                -pref
                / br(2 * l + 2)
                * np.sqrt(
                    np.maximum(br(l + m + 1) * br(l - m + 1) * br(l + n + 1) * br(l - n + 1), 0.0)
                    / (br(2 * l + 1) * br(2 * l + 3))
                )
            )
            diag = pref * (
                br(l - m + 1) * br(l + n + 1) / (br(2 * l + 1) * br(2 * l + 2))
                + np.where(l > 0, br(l + m) * br(l - n) / (br(2 * l) * br(2 * l + 1)), 0.0)
            )
            dn = (
                -pref
                / br(2 * l)
                * np.sqrt(
                    np.maximum(br(l + m) * br(l - m) * br(l + n) * br(l - n), 0.0)
                    / (br(2 * l - 1) * br(2 * l + 1))
                )
            )
            return [((2, 0, 0), up), ((0, 0, 0), diag), ((-2, 0, 0), dn)]

        return self._build("A", entries)

    def b_op(self) -> sparse.csr_matrix:
        """B = beta^* alpha via its closed three-term form."""
        q, br = self._q, self._br

        def entries(l, m, n):
            up = (
                -q(-l + m + n - 0.5)
                / br(2 * l + 2)
                * np.sqrt(
                    np.maximum(br(l + m + 1) * br(l + m + 2) * br(l + n + 1) * br(l - n + 1), 0.0)
                    / (br(2 * l + 1) * br(2 * l + 3))
                )
            )
            mid = (
                q(m + n)
                * np.sqrt(np.maximum(br(l + m + 1) * br(l - m), 0.0))
                / br(2 * l + 1)
                * (
                    q(-l - 0.5) * br(l + n + 1) / br(2 * l + 2)
                    - np.where(l > 0, q(l + 0.5) * br(l - n) / br(2 * l), 0.0)
                )
            )
            dn = (
                q(l + m + n + 0.5)
                / br(2 * l)
                * np.sqrt(
                    np.maximum(br(l - m) * br(l - m - 1) * br(l + n) * br(l - n), 0.0)
                    / (br(2 * l - 1) * br(2 * l + 1))
                )
            )
            return [((2, 2, 0), up), ((0, 2, 0), mid), ((-2, 2, 0), dn)]

        return self._build("B", entries)

    def adjoint(self, mat: sparse.csr_matrix) -> sparse.csr_matrix:
        return mat.conjugate().transpose().tocsr()

    def generator(self, name: str) -> sparse.csr_matrix:
        """alpha, beta, alpha*, beta*, A, B, B* by name."""
        table = {
            "alpha": self.alpha,
            "beta": self.beta,
            "A": self.a_op,
            "B": self.b_op,
        }
        if name in table:
            return table[name]()
        if name.endswith("*") and name[:-1] in table:
            key = "adj_" + name[:-1]
            if key not in self._ops:
                self._ops[key] = self.adjoint(table[name[:-1]]())
            return self._ops[key]
        raise ValueError(f"unknown generator {name}")

    # -- L action (right action turned into a left action) ---------------------

    def lk(self) -> sparse.csr_matrix:
        return self._build("LK", lambda l, m, n: [((0, 0, 0), self._q(-n))])

    def lf(self) -> sparse.csr_matrix:
        br = self._br
        return self._build(
            "LF", lambda l, m, n: [((0, 0, 2), np.sqrt(np.maximum(br(l - n) * br(l + n + 1), 0.0)))]
        )

    def le(self) -> sparse.csr_matrix:
        br = self._br
        return self._build(
            "LE", lambda l, m, n: [((0, 0, -2), np.sqrt(np.maximum(br(l - n + 1) * br(l + n), 0.0)))]
        )

    def k_left(self) -> sparse.csr_matrix:
        """Diagonal of the canonical left action K|> (eigenvalue q^m)."""
        return self._build("Kleft", lambda l, m, n: [((0, 0, 0), self._q(m))])

    def theta(self) -> sparse.csr_matrix:
        """Matrix of the antilinear star map (apply with complex conjugation)."""
        _, m2, n2 = self.lmn  # the shift (0, -2 m2, -2 n2) reflects |l,m,n> to |l,-m,-n>
        return self._build(
            "theta", lambda l, m, n: [((0, -2 * m2, -2 * n2), np.where((m - n) % 2, -1.0, 1.0) * self._q(m + n))]
        )

    # -- elements of the sphere algebra as operators ---------------------------

    def z_letter(self, g: int) -> sparse.csr_matrix:
        i, starred = g >> 1, bool(g & 1)
        name = ("alpha" if i == 0 else "beta") + ("*" if starred else "")
        return self.generator(name)

    def represent(self, a: NCPoly) -> sparse.csr_matrix:
        """Left multiplication operator of a z-word polynomial (n = 1)."""
        out = sparse.csr_matrix((self.dim, self.dim))
        for w, c in a.terms.items():
            mat = sparse.identity(self.dim, format="csr")
            for g in w:
                mat = mat @ self.z_letter(g)
            out = out + c.evalf_stable(self.q0) * mat
        return out

    def vector(self, a: NCPoly) -> np.ndarray:
        """The vector a|000> representing the element a."""
        v = np.zeros(self.dim)
        v[self.vac] = 1.0
        return self.represent(a) @ v

    def right_mult(self, a: NCPoly) -> sparse.csr_matrix:
        """Right multiplication by a: Theta X_{a^*} Theta (real coefficients)."""
        th = self.theta()
        return th @ self.represent(star(a)) @ th

    def haar(self, op: sparse.csr_matrix) -> float:
        """Vacuum expectation <000| op |000> (the Haar state on elements)."""
        return float(op[self.vac, self.vac])

    def interior(self, margin_l: int, max_n2: int | None = None) -> np.ndarray:
        l2, _, n2 = self.lmn
        keep = l2 <= 2 * self.L - 2 * margin_l
        if max_n2 is not None:
            keep &= np.abs(n2) <= max_n2
        return np.flatnonzero(keep)

    def gamma_slice(self, N: int) -> np.ndarray:
        """Basis indices of (truncated) Gamma_N: states with n = -N/2, ascending."""
        return np.flatnonzero(self.lmn[2] == -N)


# ---------------------------------------------------------------------------
# symbolic L action on z-words (n = 1), used as an independent oracle
# ---------------------------------------------------------------------------

_Z0, _Z1 = letter(0, False), letter(1, False)
_Z0S, _Z1S = letter(0, True), letter(1, True)

_LE_TABLE = {_Z0: (-ONE, _Z1S), _Z1: (qpow(-1), _Z0S)}
_LF_TABLE = {_Z0S: (qpow(1), _Z1), _Z1S: (-ONE, _Z0)}


def _lk_weight(g: int) -> Fraction:
    return Fraction(1, 2) if (g & 1) else Fraction(-1, 2)


def l_act(kind: str, a: NCPoly, P: Presentation) -> NCPoly:
    """Symbolic L_E / L_F / L_K on z-word polynomials at n = 1.

    Letter tables are fixed by the left-regular matrix action; products
    follow L_E(ab) = (L_E a)(L_{K^{-1}} b) + (L_K a)(L_E b), same shape
    for L_F: the coproduct of uq_act with L_{K^{-1}} in the role of K.
    """
    if P.n != 1:
        raise ValueError("symbolic L action implemented for n = 1 only")
    if kind == "K":
        return coproduct_act(a, P, _lk_weight)
    table = {"E": _LE_TABLE, "F": _LF_TABLE}[kind]
    return coproduct_act(a, P, lambda g: -_lk_weight(g), table.get)


def dbar(a: NCPoly, P: Presentation, N: int = 0) -> NCPoly:
    """Holomorphic-connection component: q^{N/2-1} a <| F = -q^{N/2-2} L_F a."""
    return l_act("F", a, P).scale(-qpow(Fraction(N, 2) - 2))


# ---------------------------------------------------------------------------
# spectral triples
# ---------------------------------------------------------------------------


@dataclass
class SpectralTriple:
    """(A(CP^1_q), H_j, D_j, gamma_j, J_j) on the truncated box.

    H_j = (+)_{n=-j..j} W_n; a global index enumerates (slot, box state).
    J is stored as a real matrix to be applied together with complex
    conjugation (all our data is real).
    """

    j2: int  # 2j, odd
    box: SUq2Box
    slots: List[int] = field(init=False)  # doubled n
    slot_states: List[np.ndarray] = field(init=False)
    offsets: List[int] = field(init=False)
    dim: int = field(init=False)

    def __post_init__(self):
        if self.j2 % 2 == 0 or self.j2 < 1:
            raise ValueError("j must be a positive half-integer")
        if 2 * self.box.L < self.j2 + 4:
            raise ValueError("truncation L too small for this j")
        self.slots = list(range(-self.j2, self.j2 + 1, 2))
        self.slot_states = [self.box.gamma_slice(-n2) for n2 in self.slots]
        self.offsets = []
        off = 0
        for sl in self.slot_states:
            self.offsets.append(off)
            off += len(sl)
        self.dim = off

    def slot_of(self, n2: int) -> int:
        return self.slots.index(n2)

    def embed(self, slot: int, vec_box: np.ndarray) -> np.ndarray:
        out = np.zeros(self.dim)
        sl = self.slot_states[slot]
        out[self.offsets[slot]: self.offsets[slot] + len(sl)] = vec_box[sl]
        return out

    def _block(self, mat: sparse.csr_matrix, dst_slot: int, src_slot: int) -> sparse.csr_matrix:
        rows = self.slot_states[dst_slot]
        cols = self.slot_states[src_slot]
        return mat[np.ix_(rows, cols)]

    def _box_labels(self) -> np.ndarray:
        """Doubled box labels (3, dim) of the global basis, slot by slot."""
        return self.box.lmn[:, np.concatenate(self.slot_states)]

    def dirac(self) -> sparse.csr_matrix:
        """D_j: L_E into even-offset slots, L_F into their partners."""
        le, lf = self.box.le(), self.box.lf()
        blocks: List[List[sparse.csr_matrix | None]] = [[None] * len(self.slots) for _ in self.slots]
        for r, n2 in enumerate(self.slots):
            if (n2 + self.j2) % 4 == 0:  # paired slot (n, n+1): this is n
                blocks[r][r + 1] = self._block(le, r, r + 1)
            else:
                blocks[r][r - 1] = self._block(lf, r, r - 1)
        return sparse.bmat(blocks, format="csr")

    def grading(self) -> sparse.csr_matrix:
        diag = np.zeros(self.dim)
        for r, n2 in enumerate(self.slots):
            sgn = 1.0 if ((self.j2 + n2) // 2) % 2 == 1 else -1.0
            diag[self.offsets[r]: self.offsets[r] + len(self.slot_states[r])] = sgn
        return sparse.diags(diag).tocsr()

    def real_structure(self) -> sparse.csr_matrix:
        """J_j as a real matrix (antilinear: conjugate, then apply)."""
        rows, cols, vals = [], [], []
        for r, n2 in enumerate(self.slots):
            rp = self.slot_of(-n2)
            l2, m2, _ = self.box.lmn[:, self.slot_states[r]]
            # |l,m,n> -> |l,-m,-n>, located inside slot rp (its box indices ascend)
            tgt = np.searchsorted(self.slot_states[rp], self.box._locate(l2, -m2, np.full_like(l2, -n2)))
            # (J a)_{-n} = (-1)^{j+m-2n} |l,-m,-n>
            expo = (self.j2 + m2) // 2 - n2
            rows.append(self.offsets[rp] + tgt)
            cols.append(self.offsets[r] + np.arange(len(l2)))
            vals.append(np.where(expo % 2, -1.0, 1.0))
        return sparse.csr_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(self.dim, self.dim)
        )

    def _diagonal_blocks(self, mat: sparse.csr_matrix) -> sparse.csr_matrix:
        return sparse.block_diag([self._block(mat, r, r) for r in range(len(self.slots))], format="csr")

    def represent(self, a: NCPoly) -> sparse.csr_matrix:
        """Block-diagonal left multiplication by a in A(CP^1_q)."""
        return self._diagonal_blocks(self.box.represent(a))

    def right_represent(self, a: NCPoly) -> sparse.csr_matrix:
        return self._diagonal_blocks(self.box.right_mult(a))

    def interior(self, margin_l: int) -> np.ndarray:
        return np.flatnonzero(self._box_labels()[0] <= 2 * self.box.L - 2 * margin_l)


def build_triple(j2: int, L: int, q0: float) -> SpectralTriple:
    """Assemble the spectral triple for j = j2/2 on a box of size L."""
    return SpectralTriple(j2, SUq2Box(L, q0))


def leftreg(gen: str, L: int, q0: float) -> sparse.csr_matrix:
    """Left-regular matrix of alpha, beta, alpha*, beta*, A, B or B*."""
    return SUq2Box(L, q0).generator(gen)


def laction(x: str, L: int, q0: float) -> sparse.csr_matrix:
    """L_E, L_F or L_K on the truncated box (x in {"E", "F", "K"})."""
    box = SUq2Box(L, q0)
    return {"E": box.le, "F": box.lf, "K": box.lk}[x]()


@dataclass
class GammaModule:
    """Truncated line-bundle module Gamma_N: the slice L_K = q^{N/2}."""

    N: int
    box: SUq2Box
    basis: np.ndarray = field(init=False)

    def __post_init__(self):
        self.basis = self.box.gamma_slice(self.N)

    def decomposition_multiplicities(self) -> Dict[int, int]:
        """Multiplicity of each V_{2l} (keyed by 2l); all should be 1."""
        per_l: Dict[int, int] = {}
        for i in self.basis:
            l2 = self.box.states[i][0]
            per_l[l2] = per_l.get(l2, 0) + 1
        return {l2: count // (l2 + 1) for l2, count in per_l.items()}


# ---------------------------------------------------------------------------
# analytic index (sector bookkeeping of the kernel/cokernel proof)
# ---------------------------------------------------------------------------


def _hplus_slots(j2: int) -> List[int]:
    return [n2 for n2 in range(-j2, j2 + 1, 2) if ((j2 + n2) // 2) % 2 == 1]


def _hminus_slots(j2: int) -> List[int]:
    return [n2 for n2 in range(-j2, j2 + 1, 2) if ((j2 + n2) // 2) % 2 == 0]


@dataclass(frozen=True)
class IndexChainData:
    """Exact per-(l,n) data of the projection eigenbasis, radicals squared.

    p11/p22 are the diagonal projection coefficients (themselves in Q(s));
    p12_sq, a_sq, b_sq are the squared off-diagonal and chain coefficients.
    """

    p11: QScalar
    p12_sq: QScalar
    p22: QScalar
    b_sq_term1: QScalar  # [l-n-1/2][l+n+1/2]
    b_sq_term2: QScalar  # [l-n+1/2][l+n+3/2]

    def rank_one(self) -> bool:
        """Projection invariant (P11)^2 + (P12)^2 = P11, exactly."""
        return self.p11 * self.p11 + self.p12_sq == self.p11


def index_chain_data(l2: int, n2: int) -> IndexChainData:
    """Exact QScalar chain data at (2l, 2n) = (l2, n2), m-independent."""
    l_half = Fraction(l2, 2)
    n_half = Fraction(n2, 2)
    pref = qpow(n_half) / qint(l_half * 2 + 1)
    p11 = pref * qpow(-l_half - Fraction(1, 2)) * qint(l_half + n_half + Fraction(1, 2))
    p22 = pref * qpow(l_half + Fraction(1, 2)) * qint(l_half - n_half + Fraction(1, 2))
    p12_sq = pref * pref * qint(l_half + n_half + Fraction(1, 2)) * qint(
        l_half - n_half + Fraction(1, 2)
    )
    return IndexChainData(
        p11,
        p12_sq,
        p22,
        qint(l_half - n_half - Fraction(1, 2)) * qint(l_half + n_half + Fraction(1, 2)),
        qint(l_half - n_half + Fraction(1, 2)) * qint(l_half + n_half + Fraction(3, 2)),
    )


def chain_b_vanishes(l2: int, n2: int) -> bool:
    """Exact test of B_{l,m,n} = 0 from q-integer positivity (m-independent).

    B is a positive combination of sqrt([l-n-1/2][l+n+1/2]) and
    sqrt([l-n+1/2][l+n+3/2]) P12_n P12_{n+1}; it vanishes iff both
    radicands vanish, decided exactly on the q-integers.
    """
    x = qint(Fraction(l2 - n2 - 1, 2)) * qint(Fraction(l2 + n2 + 1, 2))
    if not x.is_zero() and is_positive_at_q(x):
        return False
    p12a = qint(Fraction(l2 + n2 + 1, 2)) * qint(Fraction(l2 - n2 + 1, 2))
    p12b = qint(Fraction(l2 + n2 + 3, 2)) * qint(Fraction(l2 - n2 - 1, 2))
    y = p12a * p12b
    if not y.is_zero() and is_positive_at_q(y):
        return False
    return True


def index_analytic(j2: int) -> int:
    """Index of pD_j^+p by the closed-form sector count.

    Kernel: the bottom vectors v^{n,down}_{|n|-1/2,m} with n < 0 in H_j^+
    (2|n| values of m each); cokernel: v^{-1/2,down}_{0,0} exactly when
    j is in 2N + 1/2.  This bookkeeping assumes the w-chain kernel and
    cokernel vectors cancel pairwise; nonvanishing of the chain
    coefficients B on the generic range is certified exactly by
    chain_b_vanishes.  Chain-boundary effects are NOT subtracted here,
    which is why index_numeric can disagree (see its docstring).
    """
    if j2 % 2 == 0 or j2 < 1:
        raise ValueError("j must be a positive half-integer")
    ker = sum(-n2 for n2 in _hplus_slots(j2) if n2 < 0)
    coker = 1 if j2 % 4 == 1 else 0
    # certify the generic w-chain cancellation inputs on a sample range
    for n2 in range(-j2, j2 + 1, 2):
        for l2 in range(abs(n2) + 1, abs(n2) + 9, 2):
            expected_zero = (n2 > 0 and l2 == n2 + 1)
            if chain_b_vanishes(l2, n2) != expected_zero:
                raise ArithmeticError(f"chain coefficient pattern broke at l2={l2}, n2={n2}")
    return ker - coker


def poincare_pairing(c1: Tuple[int, int], c2: Tuple[int, int], j2: int) -> int:
    """<(i,k),(i',k')>_{D_j} = (k i' - i k') <[p],[1]>_{D_j}."""
    i, k = c1
    ip, kp = c2
    return (k * ip - i * kp) * index_analytic(j2)


# ---------------------------------------------------------------------------
# numeric index (honest sector-by-sector rank computation)
# ---------------------------------------------------------------------------


class _SectorBasis:
    """v/w eigenbasis of the projection inside one integer (l, m) sector."""

    def __init__(self, box: SUq2Box, l2s: int, m2s: int):
        self.box = box
        self.l2s = l2s  # 2*l, even
        self.m2s = m2s

    def _state_vec(self, l2: int, m2: int, n2: int, spinor: int, amp: float, out: np.ndarray):
        if abs(m2) <= l2 and abs(n2) <= l2 and l2 <= 2 * self.box.L and amp != 0.0:
            out[self.box.index[(l2, m2, n2)], spinor] += amp

    def v_up(self, n2: int) -> np.ndarray | None:
        q0, l2s, m2s = self.box.q0, self.l2s, self.m2s
        if l2s < abs(n2) + 1:
            return None
        l, m = l2s / 2.0, m2s / 2.0
        out = np.zeros((self.box.dim, 2))
        norm = math.sqrt(_brk(q0, 2 * l))
        a1 = math.sqrt(max(q0 ** (-l + m) * _brk(q0, l + m), 0.0)) / norm
        a2 = math.sqrt(max(q0 ** (l + m) * _brk(q0, l - m), 0.0)) / norm
        self._state_vec(l2s - 1, m2s - 1, n2, 0, a1, out)
        self._state_vec(l2s - 1, m2s + 1, n2, 1, a2, out)
        return out

    def v_down(self, n2: int) -> np.ndarray | None:
        q0, l2s, m2s = self.box.q0, self.l2s, self.m2s
        if l2s < abs(n2) - 1 or l2s + 1 > 2 * self.box.L:
            return None
        l, m = l2s / 2.0, m2s / 2.0
        out = np.zeros((self.box.dim, 2))
        norm = math.sqrt(_brk(q0, 2 * l + 2))
        a1 = math.sqrt(max(q0 ** (l + m + 1) * _brk(q0, l - m + 1), 0.0)) / norm
        a2 = -math.sqrt(max(q0 ** (-l + m - 1) * _brk(q0, l + m + 1), 0.0)) / norm
        self._state_vec(l2s + 1, m2s - 1, n2, 0, a1, out)
        self._state_vec(l2s + 1, m2s + 1, n2, 1, a2, out)
        return out

    def p_coeffs(self, n2: int) -> Tuple[float, float, float]:
        q0 = self.box.q0
        l, n = self.l2s / 2.0, n2 / 2.0
        pref = q0 ** n / _brk(q0, 2 * l + 1)
        p11 = pref * q0 ** (-l - 0.5) * _brk(q0, l + n + 0.5)
        p22 = pref * q0 ** (l + 0.5) * _brk(q0, l - n + 0.5)
        p12 = pref * math.sqrt(max(_brk(q0, l + n + 0.5) * _brk(q0, l - n + 0.5), 0.0))
        return p11, p12, p22

    def w_par(self, n2: int) -> np.ndarray | None:
        """w^{n,||}: the p-eigenvector with eigenvalue 1 (l >= |n|+1/2)."""
        if self.l2s < abs(n2) + 1:
            return None
        vu, vd = self.v_up(n2), self.v_down(n2)
        if vu is None or vd is None:
            return None
        p11, p12, _ = self.p_coeffs(n2)
        return math.sqrt(p11) * vu + (p12 / math.sqrt(p11)) * vd


def _apply_p(box: SUq2Box, vec: np.ndarray) -> np.ndarray:
    """Defining projection p = ((1-q^2 A, B^*), (B, A)) on box (x) C^2."""
    A = box.a_op()
    B = box.b_op()
    Bs = box.generator("B*")
    q2 = box.q0 ** 2
    out = np.zeros_like(vec)
    out[:, 0] = vec[:, 0] - q2 * (A @ vec[:, 0]) + Bs @ vec[:, 1]
    out[:, 1] = B @ vec[:, 0] + A @ vec[:, 1]
    return out


@dataclass
class IndexReport:
    value: int
    sectors: Dict[Tuple[int, int], int]
    min_sv_gap: float
    unstable: bool


def index_numeric(j2: int, L: int, q0: float, tol: float = 1e-8, lmax2: int | None = None) -> IndexReport:
    """dim ker - dim coker of pD_j^+p, sector by sector in (l, m).

    Each integer (l, m) sector of p(H_j^+ (x) C^2) -> p(H_j^- (x) C^2) is a
    finite exact matrix (the operators preserve the sector), so there is no
    truncation error; ranks are decided at tolerance tol and near-ambiguous
    singular values are flagged.  Sectors with l > j + 1/2 are verified to
    contribute zero.

    For the operators as built this evaluates to -(j + 1/2), independent of
    q0: beyond j = 1/2 it disagrees with the closed-form branch count of
    index_analytic, whose pairwise w-chain cancellation drops the unpaired
    cokernel vectors w^{n,||}_{n+1/2,m} (n > 0) sitting at chain boundaries.
    The same value follows from the regularized trace of the grading-signed
    projection and from equivariant multiplicity counting, so the
    discrepancy is intrinsic, not numerical.
    """
    if 2 * L < j2 + 6:
        raise ValueError("need L >= j + 3")
    box = SUq2Box(L, q0)
    le = box.le()
    plus, minus = _hplus_slots(j2), _hminus_slots(j2)
    total = 0
    sectors: Dict[Tuple[int, int], int] = {}
    min_gap = float("inf")
    unstable = False
    top2 = (lmax2 if lmax2 is not None else j2 + 5)  # doubled l bound, verify zero tail
    for l2s in range(0, top2 + 1, 2):
        for m2s in range(-l2s, l2s + 1, 2):
            sec = _SectorBasis(box, l2s, m2s)
            dom: List[np.ndarray] = []
            cod: List[np.ndarray] = []
            for n2 in plus:
                w = sec.w_par(n2)
                if w is not None:
                    dom.append(w)
                if n2 < 0 and l2s == abs(n2) - 1:
                    v = sec.v_down(n2)
                    if v is not None:
                        dom.append(v)
            for n2 in minus:
                w = sec.w_par(n2)
                if w is not None:
                    cod.append(w)
                if n2 < 0 and l2s == abs(n2) - 1:
                    v = sec.v_down(n2)
                    if v is not None:
                        cod.append(v)
            if not dom and not cod:
                continue
            # matrix of p (D^+ (x) 1) p  from the domain basis to the codomain basis
            T = np.zeros((len(cod), len(dom)))
            for col, v in enumerate(dom):
                img = np.column_stack([le @ v[:, 0], le @ v[:, 1]])
                img = _apply_p(box, img)
                for row, u in enumerate(cod):
                    T[row, col] = float(np.sum(u * img))
            if T.size:
                sv = np.linalg.svd(T, compute_uv=False)
                rank = int(np.sum(sv > tol))
                near = [s for s in sv if tol / 10 < s < tol * 10]
                if near:
                    unstable = True
                if len(sv):
                    gaps = [s for s in sv if s > tol]
                    if gaps:
                        min_gap = min(min_gap, min(gaps))
            else:
                rank = 0
            contrib = (len(dom) - rank) - (len(cod) - rank)
            if contrib:
                sectors[(l2s, m2s)] = contrib
            if l2s > j2 + 1 and contrib:
                raise ArithmeticError(f"sector l2={l2s} beyond j+1/2 contributed {contrib}")
            total += contrib
    return IndexReport(total, sectors, min_gap, unstable)


# ---------------------------------------------------------------------------
# Haar state, modular property, holomorphic sections, tau_1
# ---------------------------------------------------------------------------


def haar_symbolic(a: NCPoly, P: Presentation) -> QScalar:
    """Exact Haar state on z-word polynomials at n = 1.

    In the sphere-reduced normal basis the only words of zero weight for
    both commuting actions are z0*^a z0^a, and
    h(z0*^a z0^a) = h((alpha^* alpha)^a) = (1-q^2)/(1-q^{2a+2});
    cross-checked numerically against the vacuum expectation in the tests.
    The coefficients are summed per a first, so each a costs one division.
    """
    if P.n != 1:
        raise ValueError("symbolic Haar implemented for n = 1 only")
    by_a: Dict[int, QScalar] = {}
    for w, c in normalize(a, P).terms.items():
        counts = [0, 0, 0, 0]
        for g in w:
            counts[g] += 1
        b0, a0, b1, a1 = counts
        if a1 or b1 or a0 != b0:
            continue
        by_a[a0] = by_a.get(a0, ZERO) + c
    one_minus_q2 = ONE - qpow(2)
    out = ZERO
    for a0, c in by_a.items():
        out = out + c * one_minus_q2 / (ONE - qpow(2 * a0 + 2))
    return out


def modular_check(a: NCPoly, b: NCPoly) -> QScalar:
    """Exact residual h(ab) - h(eta(b) a) with eta = K_2rho^{-1} |> (twisted trace)."""
    P = Presentation(1)
    eta_b = uq_act(UqGenerator("K2rhoInv"), b, P)
    return haar_symbolic(mul(a, b, P) - mul(eta_b, a, P), P)


@dataclass
class HoloReport:
    dimension: int
    boundary_safe: bool
    smallest_kept: float
    largest_dropped: float


def holo_dim(N: int, L: int, q0: float, tol: float = 1e-9) -> HoloReport:
    """Numeric kernel dimension of the holomorphic connection on Gamma_N.

    The connection is q^{N/2-1} (.) <| F, realized as -q^{N/2-2} L_F on the
    slice n = -N/2; kernel vectors are checked to sit at l = |N|/2, safely
    away from the truncation wall.
    """
    if 2 * L < abs(N) + 6:
        raise ValueError("truncation too small")
    box = SUq2Box(L, q0)
    sl = box.gamma_slice(N)
    if len(sl) == 0:
        return HoloReport(0, True, float("inf"), 0.0)
    lf = box.lf()
    tgt = box.gamma_slice(N - 2)  # L_F raises n by one
    mat = lf[np.ix_(tgt, sl)].toarray() if len(tgt) else np.zeros((0, len(sl)))
    if mat.shape[0] == 0:
        sv = np.zeros(0)
        rank = 0
        null_vecs = np.eye(len(sl))
    else:
        _, sv, vt = np.linalg.svd(mat)  # vt is (cols x cols): full null basis
        rank = int(np.sum(sv > tol))
        null_vecs = vt[rank:].T
    null_dim = len(sl) - rank
    smallest_kept = float(min((s for s in sv if s > tol), default=float("inf")))
    largest_dropped = float(max((s for s in sv if s <= tol), default=0.0))
    # boundary safety: kernel basis vectors supported at l2 = |N| only
    off_shell = box.lmn[0][sl] != abs(N)
    safe = not np.any(np.abs(null_vecs[off_shell]) > 1e-7)
    return HoloReport(null_dim, safe, smallest_kept, largest_dropped)


def tau1_pairing(N: int) -> QScalar:
    """Twisted Hochschild pairing <[tau_1], [(P'_N, sigma^N)]> at n = 1, exactly.

    Evaluates tau_1(Tr(P (x). P (x). P sigma(K_2rho^{-1})^t)) with
    tau_1(a0,a1,a2) = h(a0 (dbar a1^*)^* (dbar a2)).  The radical weights of
    P_N enter only through closed index loops, hence as exact squares, so
    the summand over (i0, i1, i2) is one polynomial with Laurent
    coefficients and the Haar state is applied to it once.
    Target value: q^{-4} [N].
    """
    from .projections import k2rho_eigenvalues, projection, psi

    P = Presentation(1)
    M = projection(N, 1, P)
    k = len(M)
    rho_inv = [x.inv() for x in k2rho_eigenvalues(psi(N, 1, P))]
    y = [[dbar(M.core[i][j], P) for j in range(k)] for i in range(k)]
    # x[i][j] = (dbar core[i][j]^*)^*, where core[i][j]^* = core[j][i] as P_N is selfadjoint
    x = [[star(y[j][i], P) for j in range(k)] for i in range(k)]
    total = NCPoly.zero()
    for i0 in range(k):
        for i1 in range(k):
            for i2 in range(k):
                c = M.weights[i0] * M.weights[i1] * M.weights[i2] * rho_inv[i0]
                total = total + mul(mul(M.core[i0][i1], x[i1][i2], P), y[i2][i0], P).scale(c)
    return haar_symbolic(total, P)


# ---------------------------------------------------------------------------
# spectral triple verification
# ---------------------------------------------------------------------------


def _maxabs(mat: sparse.spmatrix, keep: np.ndarray) -> float:
    sub = mat.tocsr()[np.ix_(keep, keep)]
    return float(np.abs(sub.toarray()).max()) if sub.shape[0] else 0.0


def triple_axiom_suite(j2: int, L: int, q0: float) -> Dict[str, float]:
    """Interior-window residuals of the real-spectral-triple axioms.

    KO-dimension 2 signs: J^2 = -1, JD = DJ, J gamma = -gamma J; order zero
    and one: [a, JbJ^{-1}] = 0 and [[D, a], JbJ^{-1}] = 0 for a, b in
    {A, B, B^*}.
    """
    st = build_triple(j2, L, q0)
    D = st.dirac()
    G = st.grading()
    J = st.real_structure()
    eye = sparse.identity(st.dim, format="csr")
    win = st.interior(3)
    res: Dict[str, float] = {}
    res["J2+1"] = _maxabs(J @ J + eye, win)
    res["JD-DJ"] = _maxabs(J @ D - D @ J, win)
    res["Jg+gJ"] = _maxabs(J @ G + G @ J, win)
    res["g2-1"] = _maxabs(G @ G - eye, win)
    res["gD+Dg"] = _maxabs(G @ D + D @ G, win)

    P1 = Presentation(1)
    z0, z1 = NCPoly.gen(0), NCPoly.gen(1)
    z0s, z1s = NCPoly.gen(0, True), NCPoly.gen(1, True)
    elems = {
        "A": mul(z1s, z1, P1),
        "B": mul(z1s, z0, P1),
        "B*": mul(z0s, z1, P1),
    }
    reps = {nm: st.represent(e) for nm, e in elems.items()}
    # JbJ^{-1} is right multiplication by b^* up to the K-weight of b in this
    # basis realization: q^{-wt(b)} R_{b^*} (wt from K |> b = q^{wt} b)
    rights = {}
    for nm, e in elems.items():
        kb = uq_act(UqGenerator("K"), e, P1)
        w0 = next(iter(e.terms))
        wt = kb.terms[w0] / e.terms[w0]
        rights[nm] = (wt ** -1).evalf_stable(q0) * st.right_represent(star(e, P1))
    for na, ma in reps.items():
        for nb, e in elems.items():
            jb = J @ reps[nb] @ J.transpose()  # J^{-1} = J^t (real orthogonal here)
            res[f"order0[{na},{nb}]"] = _maxabs(ma @ jb - jb @ ma, win)
            da = D @ ma - ma @ D
            res[f"order1[{na},{nb}]"] = _maxabs(da @ jb - jb @ da, win)
            res[f"JbJ-rightmult[{nb}]"] = _maxabs(jb - rights[nb], win)

    # boundedness proxy: the operator norm of [D, a] must be stable in L
    for nm, e in elems.items():
        norms = []
        for Luse in (L, L + 3):
            stl = build_triple(j2, Luse, q0)
            Dl = stl.dirac()
            al = stl.represent(e)
            comm = (Dl @ al - al @ Dl).tocsr()
            winl = stl.interior(3)
            norms.append(_opnorm(comm[np.ix_(winl, winl)]))
        res[f"commutator_norm_drift[{nm}]"] = abs(norms[1] - norms[0]) / max(norms[0], 1e-12)
    return res


def index_regularized_trace(j2: int, L: int, q0: float, cutoff2: int | None = None) -> float:
    """Basis-free cross-check of the numeric index.

    For the sector-exact operator pD_j^+p the index equals the regularized
    dimension difference of its domain and codomain,
    Tr(p|_{H_j^+ (x) C^2}) - Tr(p|_{H_j^- (x) C^2}) with an l-cutoff, which
    uses nothing but the generator matrices A and the grading parity (no
    eigenbasis constructions).  Converges geometrically to -(j + 1/2).
    """
    box = SUq2Box(L, q0)
    cutoff2 = cutoff2 if cutoff2 is not None else 2 * L - 4
    eye = sparse.identity(box.dim, format="csr")
    p11 = (eye - q0 ** 2 * box.a_op()).diagonal()
    p22 = box.a_op().diagonal()
    total = 0.0
    for n2 in range(-j2, j2 + 1, 2):
        sl = box.gamma_slice(-n2)
        sl = sl[box.lmn[0][sl] <= cutoff2]
        tr = float(np.sum(p11[sl]) + np.sum(p22[sl]))
        total += tr if ((j2 + n2) // 2) % 2 == 1 else -tr
    return total


def _opnorm(mat: sparse.spmatrix, iters: int = 400) -> float:
    """Largest singular value by deterministic power iteration."""
    if mat.shape[0] == 0:
        return 0.0
    rng = np.random.default_rng(12345)
    v = rng.standard_normal(mat.shape[1])
    v /= np.linalg.norm(v)
    mt = mat.transpose().tocsr()
    for _ in range(iters):
        w = mt @ (mat @ v)
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        v = w / nw
    return float(np.linalg.norm(mat @ v))


def dirac_spectrum_check(j2: int, L: int, q0: float, tol: float = 1e-10) -> Tuple[float, List[Tuple[float, int]]]:
    """Compare D_j^2 diagonal against the q-integer products, sector-wise.

    Returns (max residual, spectrum as (eigenvalue, multiplicity) list over
    the interior).  On slot n paired upward, D^2 acts as L_E L_F with
    eigenvalue [l-n][l+n+1]; on its partner as L_F L_E with [l-n+1][l+n].
    """
    st = build_triple(j2, L, q0)
    D = st.dirac()
    D2 = (D @ D).tocsr()
    diag = D2.diagonal()
    worst = float(abs(D2 - sparse.diags(diag)).max())
    win = st.interior(2)
    l2, _, n2 = st._box_labels()[:, win]
    l, n = l2 / 2.0, n2 / 2.0
    br = st.box._br
    # lower member of a pair: L_E L_F; upper member: L_F L_E
    target = np.where((n2 + j2) % 4 == 0, br(l - n) * br(l + n + 1), br(l - n + 1) * br(l + n))
    worst = max(worst, float(np.max(np.abs(diag[win] - target), initial=0.0)))
    spec = Counter(round(t, 9) for t in target.tolist())
    return worst, sorted(spec.items())


def casimir_block_check(N: int, L: int, q0: float) -> float:
    """Max residual of C_q = [(l+1/2)]^2 on the V_{2l} blocks of Gamma_N."""
    box = SUq2Box(L, q0)
    sl = box.gamma_slice(N)
    lk = box.lk()
    le, lf = box.le(), box.lf()
    pref = 1.0 / (q0 - 1.0 / q0)
    kterm = (math.sqrt(q0) * lk - (1.0 / math.sqrt(q0)) * sparse.diags(1.0 / lk.diagonal())) * pref
    cas = kterm @ kterm + lf @ le  # L_{FE} = L_F L_E
    worst = 0.0
    for i in sl:
        l2 = box.states[i][0]
        if l2 > 2 * L - 2:
            continue
        target = _brk(q0, l2 / 2.0 + 0.5) ** 2
        worst = max(worst, abs(cas[i, i] - target))
        row = cas[i].toarray().ravel()
        row[i] = 0.0
        worst = max(worst, float(np.abs(row).max()))
    return worst
