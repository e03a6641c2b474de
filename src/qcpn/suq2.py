"""SU_q(2) left-regular machinery: Gamma_N modules, spectral triples, index.

Basis |l,m,n> of A(SU_q(2)) with l in N/2, |m|,|n| <= l; labels are stored
doubled (l2 = 2l etc.) so everything stays integral.  W_n (the completion of
Gamma_{-2n}) is the slice with fixed third label.  All operators are built
on the truncated box l <= L, or on a set of its states such as H_j; the
generators shift l by at most 1/2 and n by at most 1, so identities hold
exactly on interior windows.

Conventions locked against the displayed matrix actions:
  L_K|l,m,n> = q^{-n}|lmn>,  L_F -> n+1,  L_E -> n-1,
  K|>|l,m,n> = q^m |lmn>,
  star:  |l,m,n>^* = (-q)^{m-n} q^{2n} |l,-m,-n>  (antilinear),
derived from t^l_{nm}-algebra and verified in the tests against products of
the generator matrices.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np
from scipy import sparse

from .ncpoly import NCPoly, Presentation, UqGenerator, coproduct_act, letter, star, uq_act
from .qcoeff import ONE, ZERO, QScalar, qint, qpow
from .rep_sphere import MAX_BOX_LABELS, Image, compose_sum, fock_images, rule_violations, scale_image, word_operator

Lmn = Tuple[int, int, int]  # doubled (2l, 2m, 2n)


def _slice_labels(n2: int, L: int) -> np.ndarray:
    """Doubled labels (3, count) of the slice 2n = n2 of the box l <= L, by l, then m, as every label set lays
    out its slices (``_slice_run``): shell 2l = |n2| + 2k holds |n2| + 2k + 1 states from position k(|n2| + k)."""
    a, shells = abs(n2), np.arange(max((2 * L - abs(n2)) // 2 + 1, 0))
    k = np.repeat(shells, a + 1 + 2 * shells)  # each state's shell 2l = a + 2k; 2m = 2 (position in it) - 2l
    return np.stack([a + 2 * k, 2 * (np.arange(len(k)) - k * (a + k)) - a - 2 * k, np.full_like(k, n2)])


def _slice_run(n2s: range, L: int) -> Callable[..., np.ndarray]:
    """Locator of the slices 2n in ``n2s`` (|2n| <= 2L) of the box l <= L, in turn, each as ``_slice_labels``
    orders it: doubled labels -> position, or -1 off those slices, past the wall or where |m| > l."""
    a = np.abs(np.asarray(n2s))
    s = (2 * L - a) // 2 + 1  # shells of each slice, which holds s(|2n| + s) states
    first = np.full(4 * L + 1, -1)  # position of the first state of slice 2n = -2L..2L, -1 off the run
    first[np.asarray(n2s) + 2 * L] = np.cumsum(s * (a + s)) - s * (a + s)

    def locate(l2: np.ndarray, m2: np.ndarray, n2: np.ndarray) -> np.ndarray:
        at = first[np.clip(n2 + 2 * L, 0, 4 * L)]  # shell 2l starts k(|2n| + k) = (l2^2 - n2^2)/4 further on
        ok = (at >= 0) & (np.abs(n2) <= l2) & (l2 <= 2 * L) & (np.abs(m2) <= l2)
        return np.where(ok, at + (l2 * l2 - n2 * n2) // 4 + (m2 + l2) // 2, -1)
    return locate


def _pow(q0: float, x: float) -> float:
    """q0 ** x, or inf where it overflows the float range (only x < 0 can, as 0 < q0 < 1)."""
    try:
        return q0 ** x
    except OverflowError:
        return math.inf


def _brk(q0: float, x: float) -> float:
    """Numeric q-bracket [x] at q0; +-inf, with the sign of x, where q0 ** -|x| overflows."""
    if x == 0:
        return 0.0
    return (_pow(q0, x) - _pow(q0, -x)) / (q0 - 1.0 / q0)


def _ladder_args(kind: str, l2, n2):
    """Doubled (a, b) of the radicand [a/2][b/2] of L_E, [l-n+1][l+n], or of L_F, [l-n][l+n+1]."""
    return (l2 - n2 + 2, l2 + n2) if kind == "E" else (l2 - n2, l2 + n2 + 2)


def _qint_sign(*args2: int) -> int:
    """Sign of the product of the q-integers [a/2] over doubled arguments a: [x] has the sign of x on 0 < q < 1."""
    return math.prod((a > 0) - (a < 0) for a in args2)


class SUq2Box:
    """Truncated left-regular representation of A(SU_q(2)) with l <= L.

    The basis is the slices 2n = -2L, ..., 2L in turn, each by l, then m
    (``_slice_labels``).  ``lmn`` holds its doubled labels as a (3, dim)
    integer array, built on first use; ``_locate`` (a ``_slice_run``) maps
    labels back to basis indices.  A box of more than ``MAX_BOX_LABELS``
    states is refused (ValueError) before anything is allocated.
    """

    def __init__(self, L: int, q0: float):
        if not (0.0 < q0 < 1.0):
            raise ValueError("q0 must lie in (0,1)")
        states = (2 * L + 1) * (2 * L + 2) * (4 * L + 3) // 6  # the sum of (l2 + 1)^2 for l2 <= 2L
        if states > MAX_BOX_LABELS:
            raise ValueError(f"the box l <= L = {L} has (2L+1)(2L+2)(4L+3)/6 = {states} states, "
                             f"more than the limit {MAX_BOX_LABELS}")
        self.L = L
        self.q0 = q0
        self.dim = states
        self._locate = _slice_run(range(-2 * L, 2 * L + 1), L)
        self.vac = int(self._locate(0, 0, 0))  # |0,0,0>, the first state of the slice n = 0
        # q0^x and [x] at every half-integer |x| <= 3L + 4 (the largest operator
        # exponent), indexed by 2x + _half0; the scalar values, so the vectorised
        # amplitudes equal the displayed formulas bit for bit.  Where they overflow
        # they are +-inf, which ``_assemble`` refuses only in an entry it keeps.
        self._half0 = 6 * L + 8
        xs = [k / 2 for k in range(-self._half0, self._half0 + 1)]
        self._qpow = np.array([_pow(q0, x) for x in xs])
        self._qbrk = np.array([_brk(q0, x) for x in xs])
        self._ops: Dict[str, sparse.csr_matrix] = {}

    @cached_property
    def lmn(self) -> np.ndarray:
        return np.concatenate([_slice_labels(n2, self.L) for n2 in range(-2 * self.L, 2 * self.L + 1)], axis=1)

    def _q(self, x: np.ndarray) -> np.ndarray:
        """q0 ** x at a half-integer array x."""
        return self._qpow[(2 * x).astype(np.intp) + self._half0]

    def _br(self, x: np.ndarray) -> np.ndarray:
        """The q-bracket [x] at a half-integer array x."""
        return self._qbrk[(2 * x).astype(np.intp) + self._half0]

    # -- generic builder -------------------------------------------------------

    def _assemble(self, entries: Callable[..., List[Tuple[Lmn, np.ndarray]]], lmn: np.ndarray,
                  locate: Optional[Callable[..., np.ndarray]] = None) -> sparse.csr_matrix:
        """The operator with amplitudes ``entries`` on the states with doubled labels ``lmn``, one per column.

        ``entries(l, m, n)`` receives the labels as float arrays and returns
        (shift, amplitude) terms: each column |l,m,n> maps to the doubled label
        plus ``shift`` with that amplitude.  ``locate`` (a ``_slice_run``:
        labels -> position in the basis ``lmn``, -1 outside) gives the rows of
        a square matrix; without it they are box indices (``_locate``), (box
        dim, number of columns).  Zero amplitudes and targets past the wall or
        outside the basis are dropped; amplitudes at dropped targets may be inf
        or nan.  A kept amplitude that is not finite (a q0-power past the float
        range) raises ArithmeticError.
        """
        l2, m2, n2 = lmn
        rows, cols, vals = [], [], []
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            terms = entries(l2 / 2.0, m2 / 2.0, n2 / 2.0)
        for (dl2, dm2, dn2), amp in terms:
            tgt = (locate or self._locate)(l2 + dl2, m2 + dm2, n2 + dn2)
            keep = (tgt >= 0) & (amp != 0.0)
            if not np.all(np.isfinite(amp[keep])):
                raise ArithmeticError(f"an operator entry on the box l <= L = {self.L} overflows the float range "
                                      f"at q0 = {self.q0}")
            rows.append(tgt[keep])
            cols.append(np.flatnonzero(keep))
            vals.append(amp[keep])
        shape = (lmn.shape[1] if locate else self.dim, lmn.shape[1])
        return sparse.csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=shape)

    def _build(self, name: str, entries: Callable[..., List[Tuple[Lmn, np.ndarray]]]) -> sparse.csr_matrix:
        """Assemble the operator ``name`` on the whole box (``_assemble``) and cache it."""
        if name not in self._ops:
            self._ops[name] = self._assemble(entries, self.lmn)
        return self._ops[name]

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

    def _a_terms(self, l, m, n):
        q, br = self._q, self._br
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

    def a_op(self) -> sparse.csr_matrix:
        """A = beta^* beta via its closed three-term form."""
        return self._build("A", self._a_terms)

    def _b_terms(self, l, m, n):
        q, br = self._q, self._br
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

    def b_op(self) -> sparse.csr_matrix:
        """B = beta^* alpha via its closed three-term form."""
        return self._build("B", self._b_terms)

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

    def _ladder_term(self, kind: str, l, n):
        """The (shift, amplitude) of L_E (n -> n - 1) or L_F (n -> n + 1): sqrt([a/2][b/2]) from ``_ladder_args``."""
        a, b = _ladder_args(kind, 2 * l, 2 * n)
        return (0, 0, -2 if kind == "E" else 2), np.sqrt(self._br(a / 2) * self._br(b / 2))

    def lf(self) -> sparse.csr_matrix:
        return self._build("LF", lambda l, m, n: [self._ladder_term("F", l, n)])

    def le(self) -> sparse.csr_matrix:
        return self._build("LE", lambda l, m, n: [self._ladder_term("E", l, n)])

    def k_left(self) -> sparse.csr_matrix:
        """Diagonal of the canonical left action K|> (eigenvalue q^m)."""
        return self._build("Kleft", lambda l, m, n: [((0, 0, 0), self._q(m))])

    def _theta_terms(self, l, m, n):
        """The star map |l,m,n> -> (-1)^{m-n} q^{m+n} |l,-m,-n>: the shift (0, -4m, -4n) reflects each label."""
        shift = (0, (-4 * m).astype(np.intp), (-4 * n).astype(np.intp))
        return [(shift, np.where((m - n) % 2, -1.0, 1.0) * self._q(m + n))]

    def theta(self) -> sparse.csr_matrix:
        """Matrix of the antilinear star map (apply with complex conjugation)."""
        return self._build("theta", self._theta_terms)

    # -- elements of the sphere algebra as operators ---------------------------

    def z_letter(self, g: int) -> sparse.csr_matrix:
        i, starred = g >> 1, bool(g & 1)
        name = ("alpha" if i == 0 else "beta") + ("*" if starred else "")
        return self.generator(name)

    def represent(self, a: NCPoly) -> sparse.csr_matrix:
        """Left multiplication operator of a z-word polynomial (n = 1)."""
        return word_operator(a, self.z_letter, self.dim, self.q0)

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

    def interior(self, margin_l: int) -> np.ndarray:
        return np.flatnonzero(self.lmn[0] <= 2 * self.L - 2 * margin_l)

    def gamma_slice(self, N: int) -> np.ndarray:
        """Basis indices of (truncated) Gamma_N: states with n = -N/2, ascending."""
        return self._locate(*_slice_labels(-N, self.L))


# ---------------------------------------------------------------------------
# symbolic L action on z-words (n = 1), used as an independent oracle
# ---------------------------------------------------------------------------

_Z0, _Z1 = letter(0, False), letter(1, False)
_Z0S, _Z1S = letter(0, True), letter(1, True)

# g: (g2, sign, e) for L |> g = sign s^e g2 (s = q^{1/2}): L_E |> z_0 = -z_1^*, L_E |> z_1 = q^{-1} z_0^*,
# L_F |> z_0^* = q z_1, L_F |> z_1^* = -z_0
_LE_TABLE = {_Z0: (_Z1S, -1, 0), _Z1: (_Z0S, 1, -2)}
_LF_TABLE = {_Z0S: (_Z1, 1, 2), _Z1S: (_Z0, -1, 0)}
_LK_WEIGHT = (-1, 1, -1, 1)  # L_K |> g = s^w g: q^{-1/2} on z_i, q^{1/2} on z_i^*


def l_act(kind: str, a: NCPoly, P: Presentation) -> NCPoly:
    """Symbolic L_E / L_F / L_K on z-word polynomials at n = 1.

    Letter tables are fixed by the left-regular matrix action; products
    follow L_E(ab) = (L_E a)(L_{K^{-1}} b) + (L_K a)(L_E b), same shape
    for L_F: the coproduct of uq_act with L_{K^{-1}} in the role of K.
    """
    if P.n != 1:
        raise ValueError("symbolic L action implemented for n = 1 only")
    if kind == "K":
        return coproduct_act(a, P, _LK_WEIGHT)
    table = {"E": _LE_TABLE, "F": _LF_TABLE}[kind]
    return coproduct_act(a, P, [-w for w in _LK_WEIGHT], table)


def dbar(a: NCPoly, P: Presentation) -> NCPoly:
    """Holomorphic-connection component on Gamma_0: q^{-1} a <| F = -q^{-2} L_F a."""
    return l_act("F", a, P).scale(-qpow(-2))


# ---------------------------------------------------------------------------
# spectral triples
# ---------------------------------------------------------------------------


def _hplus(j2, n2):
    """Whether slot 2n = n2 of H_j lies in H_j^+ (gamma = +1): j + n odd.  Works elementwise on arrays.

    The slots pair up as (n, n + 1) from n = -j; the lower member of each pair is in H_j^-.
    """
    return ((j2 + n2) // 2) % 2 == 1


@dataclass
class SpectralTriple:
    """(A(CP^1_q), H_j, D_j, gamma_j, J_j) on the truncated box.

    H_j = (+)_{n=-j..j} W_n, laid out as the box: the slots n = -j, ..., j in
    turn, each in ``_slice_labels`` order.  Position k has doubled labels
    ``labels[:, k]`` and is box state ``sel[k]``; ``_locate``, a ``_slice_run``
    as is ``SUq2Box._locate``, maps labels back to positions (-1 off H_j).
    Slot n lies in H_j^+ or H_j^- as ``_hplus`` says.  D_j, J_j and the closed
    forms (``assemble``) are built on H_j alone from these labels; nothing of
    box size is built.  J is stored as a real matrix to be applied together
    with complex conjugation (all our data is real).
    """

    j2: int  # 2j, odd
    box: SUq2Box
    sel: np.ndarray = field(init=False)  # box index of each basis vector of H_j
    labels: np.ndarray = field(init=False)  # (3, dim) doubled (l, m, n)
    dim: int = field(init=False)

    def __post_init__(self):
        if self.j2 % 2 == 0 or self.j2 < 1:
            raise ValueError("j must be a positive half-integer")
        if 2 * self.box.L < self.j2 + 4:
            raise ValueError("truncation L too small for this j")
        slots = range(-self.j2, self.j2 + 1, 2)
        self.labels = np.concatenate([_slice_labels(n2, self.box.L) for n2 in slots], axis=1)
        self._locate = _slice_run(slots, self.box.L)
        self.sel = self.box._locate(*self.labels)
        self.dim = self.labels.shape[1]

    def assemble(self, entries) -> sparse.csr_matrix:
        """The operator with the box amplitudes ``entries`` (e.g. ``box._a_terms``) on H_j alone."""
        return self.box._assemble(entries, self.labels, self._locate)

    def dirac(self) -> sparse.csr_matrix:
        """D_j: L_E on the columns of H_j^+ (slot n to n - 1), L_F on those of H_j^- (n to n + 1).

        So the rows of H_j^- come from L_E and those of H_j^+ from L_F, and D_j only
        joins the two slots of a pair.
        """
        up = _hplus(self.j2, self.labels[2])

        def entries(l, m, n):
            (e_shift, e_amp), (f_shift, f_amp) = (self.box._ladder_term(kind, l, n) for kind in "EF")
            return [(e_shift, np.where(up, e_amp, 0.0)), (f_shift, np.where(up, 0.0, f_amp))]

        return self.assemble(entries)

    def grading(self) -> sparse.csr_matrix:
        return sparse.diags(np.where(_hplus(self.j2, self.labels[2]), 1.0, -1.0)).tocsr()

    def real_structure(self) -> sparse.csr_matrix:
        """J_j as a real matrix (antilinear: conjugate, then apply): |l,m,n> -> (-1)^{j+m-2n} |l,-m,-n>."""

        def entries(l, m, n):  # the shift (0, -4m, -4n) reflects m and n, as in ``SUq2Box._theta_terms``
            shift = (0, (-4 * m).astype(np.intp), (-4 * n).astype(np.intp))
            return [(shift, np.where((self.j2 / 2 + m - 2 * n) % 2, -1.0, 1.0))]

        return self.assemble(entries)

    def _same_slot(self, mat: sparse.spmatrix) -> sparse.csr_matrix:
        """A box operator on H_j, keeping only the entries between states of one slot."""
        sub = mat.tocsr()[np.ix_(self.sel, self.sel)].tocoo()
        n2 = self.labels[2]
        keep = n2[sub.row] == n2[sub.col]
        return sparse.csr_matrix((sub.data[keep], (sub.row[keep], sub.col[keep])), shape=sub.shape)

    def represent(self, a: NCPoly) -> sparse.csr_matrix:
        """Block-diagonal (slot by slot) left multiplication by a in A(CP^1_q), from the box word product."""
        return self._same_slot(self.box.represent(a))

    def right_represent(self, a: NCPoly) -> sparse.csr_matrix:
        return self._same_slot(self.box.right_mult(a))

    def interior(self, margin_l: int) -> np.ndarray:
        return np.flatnonzero(self.labels[0] <= 2 * self.box.L - 2 * margin_l)


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
        l2s, counts = np.unique(self.box.lmn[0][self.basis], return_counts=True)
        return {l2: count // (l2 + 1) for l2, count in zip(l2s.tolist(), counts.tolist())}


# ---------------------------------------------------------------------------
# analytic index (sector bookkeeping of the kernel/cokernel proof)
# ---------------------------------------------------------------------------


def _hplus_slots(j2: int) -> List[int]:
    return [n2 for n2 in range(-j2, j2 + 1, 2) if _hplus(j2, n2)]


def _hminus_slots(j2: int) -> List[int]:
    return [n2 for n2 in range(-j2, j2 + 1, 2) if not _hplus(j2, n2)]


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
    """Exact test of B_{l,m,n} = 0 from q-integer signs (m-independent).

    B is a positive combination of sqrt([l-n-1/2][l+n+1/2]) and
    sqrt([l-n+1/2][l+n+3/2]) P12_n P12_{n+1}; it vanishes iff neither
    radicand is positive, decided on the signs of the q-integer arguments.
    """
    return (_qint_sign(l2 - n2 - 1, l2 + n2 + 1) <= 0
            and _qint_sign(l2 + n2 + 1, l2 - n2 + 1, l2 + n2 + 3, l2 - n2 - 1) <= 0)


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


def _sector_kinds(l2, n2):
    """(w, v): whether slot 2n = n2 carries a w^{n,||} (2l >= 2|n| + 1) or the boundary v^{n,down}
    (n < 0, l = |n| - 1/2) in the integer sector 2l = l2; at most one holds.  Works elementwise on arrays."""
    return l2 >= abs(n2) + 1, (n2 < 0) & (l2 == abs(n2) - 1)


@dataclass(frozen=True)
class ExactIndex:
    """dim ker and dim coker of pD_j^+p, and the sector vectors they are counted from.

    ``table`` maps the doubled (2l, 2n) of each sector vector with 2l <= 2j + 5
    to its kind, "w" for w^{n,||} or "v" for the boundary v^{n,down}, and
    whether a nonzero link leaves it (slot n in H_j^+) or enters it (slot n in
    H_j^-).  Each row stands for its 2l + 1 values of m.
    """

    kernel: int
    cokernel: int
    table: Dict[Tuple[int, int], Tuple[str, bool]]


def index_exact(j2: int) -> ExactIndex:
    """Kernel and cokernel of pD_j^+p, decided on the sector labels alone.

    The sector vectors are those of index_numeric (``_sector_kinds``):
    w^n = sqrt(P11) v^{n,up} + P12/sqrt(P11) v^{n,down}, and the boundary
    v^{n,down}, whose up coefficient is 0.  pD_j^+p takes the domain vector of
    slot n (in H_j^+) of a sector (l, m) to the codomain vector of slot n - 1
    (in H_j^-) of the same sector, so the sector's T is a partial matching
    whose rank is its number of nonzero links <w^{n-1}, p L_E w^n> =
    <w^{n-1}, L_E w^n>, as p fixes the codomain vectors.  v^{n,up} lives on
    the box shell l - 1/2 and v^{n,down} on l + 1/2, with spinor profiles that
    depend on (l, m) but not on n, so ``_ladder_args`` on those shells gives

        L_E v^{n,up}   = sqrt([l-n+1/2][l+n-1/2]) v^{n-1,up},
        L_E v^{n,down} = sqrt([l-n+3/2][l+n+1/2]) v^{n-1,down},

    and the link is the sum of an up and a down path term,
    c_up(n) c_up(n-1) sqrt([l-n+1/2][l+n-1/2]) + c_down(n) c_down(n-1)
    sqrt([l-n+3/2][l+n+1/2]), which does not depend on m.  On a w vector the
    arguments l +- n + 1/2 of P11 and P12 are >= 1, so both are positive;
    c_up vanishes on boundary vectors only and c_down nowhere.  Where both
    vectors exist no argument above is negative, so both terms are
    nonnegative, and the link is zero exactly when each term has a q-integer
    argument <= 0 (or, for the up term, a boundary end): [x] has the sign of
    x on 0 < q < 1 (``_qint_sign``).  kernel counts the domain vectors no link
    leaves and cokernel the codomain vectors no link enters, each 2l + 1
    times.

    Beyond l = j + 1/2 every slot carries a w vector and every argument above
    is >= 1 and grows with l, so every sector l > j + 1/2 is a perfect
    matching and contributes nothing.  The sectors 2l <= 2j + 5 are counted,
    with three checks that raise ArithmeticError:
      - each nonzero path ends on a codomain vector with that component, and
        no codomain vector is entered twice;
      - kernel - cokernel equals dim dom - dim cod in every sector;
      - no sector with l > j + 1/2 has a kernel or a cokernel.
    No SUq2Box, float or sparse matrix is built; index_numeric checks the
    same counts in floats.
    """
    if j2 % 2 == 0 or j2 < 1:
        raise ValueError("j must be a positive half-integer")
    kernel = cokernel = 0
    table: Dict[Tuple[int, int], Tuple[str, bool]] = {}
    for l2 in range(0, j2 + 6, 2):
        kinds = {}
        for n2 in range(-j2, j2 + 1, 2):
            w, v = _sector_kinds(l2, n2)
            if w or v:
                kinds[n2] = "w" if w else "v"
        dom = [n2 for n2 in kinds if _hplus(j2, n2)]
        cod = [n2 for n2 in kinds if not _hplus(j2, n2)]
        linked = {}  # slot -> whether a nonzero link leaves (domain) or enters (codomain) its vector
        entered = Counter()
        for n2 in dom:
            up = kinds[n2] == "w" and _qint_sign(*_ladder_args("E", l2 - 1, n2)) > 0
            down = _qint_sign(*_ladder_args("E", l2 + 1, n2)) > 0
            if (up and kinds.get(n2 - 2) != "w") or (down and n2 - 2 not in cod):
                raise ArithmeticError(f"L_E link from (l2={l2}, n2={n2}) leaves the codomain sector vectors")
            linked[n2] = up or down
            entered[n2 - 2] += linked[n2]
        if max(entered.values(), default=0) > 1:
            raise ArithmeticError(f"two L_E links enter one codomain vector in sector l2={l2}")
        linked.update({n2: entered[n2] == 1 for n2 in cod})
        ker = (l2 + 1) * sum(not linked[n2] for n2 in dom)
        cok = (l2 + 1) * sum(not linked[n2] for n2 in cod)
        if ker - cok != (l2 + 1) * (len(dom) - len(cod)):
            raise ArithmeticError(f"sector l2={l2}: kernel - cokernel {ker - cok} is not dim dom - dim cod")
        if l2 > j2 + 1 and (ker or cok):
            raise ArithmeticError(f"sector l2={l2} beyond j+1/2 has kernel {ker} and cokernel {cok}")
        kernel += ker
        cokernel += cok
        table.update({(l2, n2): (kinds[n2], linked[n2]) for n2 in kinds})
    return ExactIndex(kernel, cokernel, table)


def poincare_pairing(c1: Tuple[int, int], c2: Tuple[int, int], j2: int) -> int:
    """<(i,k),(i',k')>_{D_j} = (k i' - i k') <[p],[1]>_{D_j}."""
    i, k = c1
    ip, kp = c2
    return (k * ip - i * kp) * index_analytic(j2)


# ---------------------------------------------------------------------------
# numeric index (honest sector-by-sector rank computation)
# ---------------------------------------------------------------------------


def _p_operator(box: SUq2Box) -> sparse.csr_matrix:
    """Defining projection p = ((1 - q^2 A, B^*), (B, A)) on box (x) C^2, spinor 0 first."""
    A = box.a_op()
    eye = sparse.identity(box.dim, format="csr")
    return sparse.bmat([[eye - box.q0 ** 2 * A, box.generator("B*")], [box.b_op(), A]], format="csr")


def _sector_labels(top2: int) -> Tuple[np.ndarray, np.ndarray]:
    """Doubled labels (2l, 2m) of the integer sectors with 2l <= top2, ordered by l, then m: the slice n = 0."""
    return tuple(_slice_labels(0, top2 // 2)[:2])


def _sector_columns(box: SUq2Box, sec_l: np.ndarray, sec_m: np.ndarray, slots: List[int]):
    """The sector vectors of p(H (x) C^2) for the slots n, as columns of a sparse (2 dim, k) matrix.

    Sector by sector, then slot by slot: w^{n,||} = sqrt(P11) v^{n,up} + P12/sqrt(P11) v^{n,down} or the
    boundary v^{n,down}, wherever ``_sector_kinds`` puts them.  v^{n,up} lives on the box shell l - 1/2 and
    v^{n,down} on l + 1/2, each at m - 1/2 in spinor 0 and m + 1/2 in spinor 1 (one ``SUq2Box._assemble``
    each, stacked), so a column has at most 4 nonzero entries.  Returns the matrix and each column's sector.
    """
    sec = np.repeat(np.arange(len(sec_l)), len(slots))
    n2 = np.tile(slots, len(sec_l))
    l2s, m2s = sec_l[sec], sec_m[sec]
    w, v = _sector_kinds(l2s, n2)
    keep = (w | v) & (l2s + 1 <= 2 * box.L)
    sec, n2, l2s, m2s, w = sec[keep], n2[keep], l2s[keep], m2s[keep], w[keep]
    l, m, n = l2s / 2.0, m2s / 2.0, n2 / 2.0
    q, br = box._q, box._br
    with np.errstate(divide="ignore", invalid="ignore"):  # P11 = 0 and [2l] = 0 only off w
        pref = q(n) / br(2 * l + 1)
        p11 = pref * q(-l - 0.5) * br(l + n + 0.5)
        p12 = pref * np.sqrt(np.maximum(br(l + n + 0.5) * br(l - n + 0.5), 0.0))
        cu = np.sqrt(p11)
        cd = np.where(w, p12 / cu, 1.0)
        up, dn = np.sqrt(br(2 * l)), np.sqrt(br(2 * l + 2))
        terms = [  # (doubled shift, amplitude); the doubled m shift -1 is spinor 0, +1 spinor 1
            ((-1, -1, 0), np.where(w, cu * (np.sqrt(np.maximum(q(-l + m) * br(l + m), 0.0)) / up), 0.0)),
            ((-1, 1, 0), np.where(w, cu * (np.sqrt(np.maximum(q(l + m) * br(l - m), 0.0)) / up), 0.0)),
            ((1, -1, 0), cd * (np.sqrt(np.maximum(q(l + m + 1) * br(l - m + 1), 0.0)) / dn)),
            ((1, 1, 0), cd * (-np.sqrt(np.maximum(q(-l + m - 1) * br(l + m + 1), 0.0)) / dn)),
        ]
    lmn = np.stack([l2s, m2s, n2])
    spinors = [box._assemble(lambda *_, dm2=dm2: [t for t in terms if t[0][1] == dm2], lmn) for dm2 in (-1, 1)]
    return sparse.vstack(spinors, format="csr"), sec


def _column_sq(mat: sparse.spmatrix) -> np.ndarray:
    """Squared Euclidean norm of each column."""
    return np.asarray(mat.multiply(mat).sum(axis=0)).ravel()


def _matching_values(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Absolute values of the COO entries of a partial matching, in input order.

    A matrix with at most one nonzero per row and per column is, up to
    permutations and signs, diagonal, so its nonzero singular values are its
    absolute entries.  Two nonzero entries in one row or one column raise
    ArithmeticError.
    """
    nz = vals != 0
    for idx, what in ((rows, "row"), (cols, "column")):
        if np.bincount(idx[nz]).max(initial=0) > 1:
            raise ArithmeticError(f"operator is not a partial matching: two nonzero entries share a {what}")
    return np.abs(vals)


@dataclass
class IndexReport:
    value: int
    sectors: Dict[Tuple[int, int], int]
    min_sv_gap: float
    unstable: bool


def index_min_L(j2: int) -> int:
    """The smallest box index_numeric accepts at j = j2/2: L >= j + 3."""
    return (j2 + 7) // 2


def index_numeric(j2: int, L: int, q0: float, tol: float = 1e-8) -> IndexReport:
    """dim ker - dim coker of pD_j^+p, sector by sector in (l, m).

    pD_j^+p maps p(H_j^+ (x) C^2) to p(H_j^- (x) C^2) and preserves every
    integer (l, m) sector, so each sector is a finite exact matrix T with no
    truncation error.  The sector bases are the p-eigenvectors w^{n,||}
    (l >= |n| + 1/2) and the boundary vectors v^{n,down} (n < 0,
    l = |n| - 1/2) of the slots of H_j^+ (domain) and of H_j^- (codomain).
    Each is written from its <= 4 nonzero box entries as a column of a sparse
    matrix, D for the domain and C for the codomain, over all sectors with
    2l <= 2j + 5.  One product G = C^T p (L_E (+) L_E) D
    holds every T: a sector's T is the block of G on its own rows and
    columns.

    Three checks make the sector bases assertions; each raises
    ArithmeticError:
      - leak: every entry of G between two different sectors is at most
        1e-12 max|G|;
      - orthonormal codomain: max|C^T C - I| <= 1e-12;
      - completeness: every column of p L_E D lies in span(C),
        ||(I - C C^T) p L_E D|| <= 1e-12 ||p L_E D|| column by column, so
        reading off T drops no part of an image.

    Every T is a partial matching, asserted (ArithmeticError otherwise): L_E
    takes a sector vector at slot n to one vector at slot n - 1, so the
    singular values of T are its absolute entries.  Ranks are decided at
    ``tol``: values within a factor 10 of ``tol`` set ``unstable``, and
    ``min_sv_gap`` is the smallest kept one.  A sector contributes
    (dim dom - rank) - (dim cod - rank) = dim dom - dim cod, so ``value``
    and ``sectors`` depend on neither ``tol`` nor ``q0``; ``q0`` enters the
    entries of T and thereby ``unstable`` and ``min_sv_gap`` only.  ``L``
    must hold every sector vector and its image (L >= j + 3) and changes
    nothing beyond that.  Sectors with l > j + 1/2 must contribute zero;
    one that does not raises ArithmeticError.

    For the operators as built this evaluates to -(j + 1/2), independent of
    q0: beyond j = 1/2 it disagrees with the closed-form branch count of
    index_analytic, whose pairwise w-chain cancellation drops the unpaired
    cokernel vectors w^{n,||}_{n+1/2,m} (n > 0) sitting at chain boundaries.
    The same value follows from the regularized trace of the grading-signed
    projection and from equivariant multiplicity counting, so the
    discrepancy is intrinsic, not numerical.
    """
    if L < index_min_L(j2):
        raise ValueError("need L >= j + 3")
    box = SUq2Box(L, q0)
    sec_l, sec_m = _sector_labels(j2 + 5)
    D, dsec = _sector_columns(box, sec_l, sec_m, _hplus_slots(j2))
    C, csec = _sector_columns(box, sec_l, sec_m, _hminus_slots(j2))
    le = box.le()
    img = _p_operator(box) @ (sparse.block_diag([le, le], format="csr") @ D)
    G = (C.T @ img).tocsr()
    Gc = G.tocoo()
    own = csec[Gc.row] == dsec[Gc.col]
    leak = np.abs(Gc.data[~own]).max(initial=0.0)
    if leak > 1e-12 * np.abs(Gc.data).max(initial=0.0):
        raise ArithmeticError(f"p L_E leaks {leak:.3g} across (l, m) sectors")
    ortho = np.abs((C.T @ C - sparse.identity(C.shape[1])).tocoo().data).max(initial=0.0)
    if ortho > 1e-12:
        raise ArithmeticError(f"codomain sector vectors are not orthonormal: max|C^T C - I| = {ortho:.3g}")
    rest = img - C @ G
    if np.any(_column_sq(rest) > 1e-24 * _column_sq(img)):  # column norms, squared
        raise ArithmeticError("p L_E D leaves the span of the codomain sector vectors")

    sv = _matching_values(Gc.row[own], Gc.col[own], Gc.data[own])
    unstable = bool(np.any((tol / 10 < sv) & (sv < tol * 10)))
    min_gap = float(sv[sv > tol].min(initial=float("inf")))
    contrib = np.bincount(dsec, minlength=len(sec_l)) - np.bincount(csec, minlength=len(sec_l))
    beyond = np.flatnonzero((sec_l > j2 + 1) & (contrib != 0))
    if len(beyond):
        k = beyond[0]
        raise ArithmeticError(f"sector l2={sec_l[k]} beyond j+1/2 contributed {contrib[k]}")
    sectors = {(l2s, m2s): c for l2s, m2s, c in zip(sec_l.tolist(), sec_m.tolist(), contrib.tolist()) if c}
    return IndexReport(int(contrib.sum()), sectors, min_gap, unstable)


# ---------------------------------------------------------------------------
# Haar state, modular property, holomorphic sections, tau_1
# ---------------------------------------------------------------------------


def _cleared_images(elems: List[NCPoly], n: int) -> Tuple[QScalar, List[Image]]:
    """den, a common denominator of the elements' coefficients, and the Laurent images of the den * a.

    One ``fock_images`` call images them all, each distinct word once.
    """
    den = math.prod({QScalar(c.den) for a in elems for c in a.terms.values()}, start=ONE)
    return den, fock_images([a.scale(den) for a in elems], n)


def _haar_trace(img: Image, P: Presentation) -> QScalar:
    """h of the element whose image in pi_{n,n} is img, n = P.n (``haar_symbolic``)."""
    n = P.n
    if rule_violations(n, P.sphere_reduction):
        raise ArithmeticError(f"the Fock images break the rewrite rules at n={n} (bug)")
    out = ZERO
    for y, lau in img.get((0,) * (n + 1), {}).items():
        out = out + QScalar(lau) / math.prod((ONE - qpow(e + 2 * (n - j)) for j, e in enumerate(y)), start=ONE)
    return out * math.prod((ONE - qpow(2 * j) for j in range(1, n + 1)), start=ONE)


def haar_symbolic(a: NCPoly, P: Presentation) -> QScalar:
    """Exact Haar state of S^{2n+1}_q, n = P.n: the torus-averaged weighted trace in pi_{n,n}.

    h(a) = prod_{j=1}^n (1 - q^{2j}) sum_m q^{2(m_1+..+m_n)} <e_m, pi_{n,n}(a) e_m>,
    averaged over the torus (Vaksman and Soibelman, 1990).  In the d
    coordinates of ``rep_sphere`` m_k = d_0 + .. + d_{k-1}, so the weight is
    q^{2(m_1+..+m_n)} = prod_j q^{2(n-j) d_j}: c = (n, .., 1).  The average
    keeps the charge-0 part {y: c_y} of an image, and Y^y sums over d to
    prod_{j<n} 1/(1 - q^{y_j + 2(n-j)}).  h is linear: it traces the one
    ``fock_image`` of den * a (den clears a's Q(s) denominators) over den, and
    ``modular_check`` and ``tau1_pairing`` trace ``compose_sum``s of images.  h is
    well defined on the algebra since img(x) = img(nf(x)), which
    ``rep_sphere.rule_violations`` checks (a violation is an ArithmeticError).
    It is the Haar state because h(1) = 1 and U_q-invariance,
    h(X |> a) = eps(X) h(a), determine it; the tests check both.
    """
    den, (img,) = _cleared_images([a], P.n)
    return _haar_trace(img, P) / den


def modular_check(a: NCPoly, b: NCPoly, P: Presentation | None = None) -> QScalar:
    """Exact residual h(ab) - h(eta(b) a) with eta = K_2rho^{-1} |> (twisted trace), at n = P.n (1 if P is None).

    It traces one ``compose_sum`` of Fock images, img(a) o img(b) - img(eta(b)) o img(a).
    Domain: any n, and b of total U(1) charge 0, as many starred as
    unstarred letters in every term.  On a b of nonzero charge the left-only
    twist is not the modular automorphism (the residual of (z0, z0*) is
    (q^2 - q)/(q^2 + 1)), so such a b is a ValueError.
    """
    if any(2 * sum(g & 1 for g in w) != len(w) for w in b.terms):
        raise ValueError("modular_check needs b of U(1) charge 0: each term with as many z_i^* as z_i")
    P = P or Presentation(1)
    den, (ia, ib, ie) = _cleared_images([a, b, -uq_act(UqGenerator("K2rhoInv"), b, P)], P.n)
    return _haar_trace(compose_sum(((ia, ib), (ie, ia))), P) / (den * den)


@dataclass
class HoloReport:
    dimension: int
    boundary_safe: bool
    smallest_kept: float
    largest_dropped: float


def holo_dim(N: int, L: int, q0: float) -> HoloReport:
    """Kernel dimension of the holomorphic connection on Gamma_N, decided on the labels.

    The connection is q^{N/2-1} (.) <| F, realized as -q^{N/2-2} L_F on the slice n = -N/2, where L_F
    translates labels n -> n + 1.  The kernel is spanned by the states whose radicand has a zero argument,
    which must sit at l = |N|/2, away from the wall.  A link depends on l only, so the margins are one float
    link per shell, 0.0 on the kernel by its label and elsewhere the entry of ``SUq2Box.lf()`` bit for bit
    (inf past the float range), and a shell counts 2l + 1 states.  A slice of more than ``MAX_BOX_LABELS``
    states is refused (ValueError).
    """
    if 2 * L < abs(N) + 6:
        raise ValueError("truncation too small")
    if not (0.0 < q0 < 1.0):
        raise ValueError("q0 must lie in (0,1)")
    shells = (2 * L - abs(N)) // 2 + 1  # l2 = |N|, |N| + 2, .., 2L, with l2 + 1 states each
    states = shells * (abs(N) + shells)
    if states > MAX_BOX_LABELS:
        raise ValueError(f"the slice n = -N/2 of the box l <= L has {states} states at N = {N}, L = {L}, "
                         f"more than the limit {MAX_BOX_LABELS}")
    l2 = np.arange(abs(N), 2 * L + 1, 2)  # one link per shell, which holds l2 + 1 states
    a, b = _ladder_args("F", l2, -N)
    zero = (a == 0) | (b == 0)
    links = np.where(zero, 0.0, np.sqrt([_brk(q0, x / 2) * _brk(q0, y / 2) for x, y in zip(a.tolist(), b.tolist())]))
    return HoloReport(int((l2 + 1)[zero].sum()), bool(np.all(l2[zero] == abs(N))),
                      float(links[~zero].min(initial=float("inf"))), float(links[zero].max(initial=0.0)))


def tau1_pairing(N: int, P: Presentation | None = None) -> QScalar:
    """Twisted Hochschild pairing <[tau_1], [(P'_N, sigma^N)]> at n = 1, exactly.

    Evaluates tau_1(Tr(P (x). P (x). P sigma(K_2rho^{-1})^t)) with
    tau_1(a0,a1,a2) = h(a0 (dbar a1^*)^* (dbar a2)).  The radical weights of
    P_N enter only through closed index loops, hence as exact squares.  By
    associativity alone the sum over (i0, i1, i2) is
    sum_{i0,i1} u_{i0} u_{i1} rho_{i0}^{-1} core[i0][i1] (XY)[i1][i0] with
    (XY)[i1][i0] = sum_{i2} u_{i2} x[i1][i2] y[i2][i0]: k^2 sums of k
    products, then one sum of k^2, composed on the Fock images of the core, x
    and y entries and traced once.  One ``fock_images`` call takes all 3k^2
    images, each distinct word once.  P is an n = 1 presentation (a new one if None).
    Target value: q^{-4} [N].  Defined for N >= 0 only: ValueError otherwise.
    """
    from .projections import _projection, k2rho_eigenvalues, psi

    if N < 0:
        raise ValueError(f"tau1 pairing needs N >= 0, got {N}")
    av = psi(N, 1, P)
    P, M = av.presentation, _projection(av)
    k = len(M)
    rho_inv = [x.inv() for x in k2rho_eigenvalues(av)]
    y = [[dbar(M.core[i][j], P) for j in range(k)] for i in range(k)]
    # one fock_images call for the x, y and core entries, each k x k in row order;
    # x[i][j] = img (dbar core[i][j]^*)^*, where core[i][j]^* = core[j][i] as P_N is selfadjoint
    flat = fock_images([star(y[j][i], P) for i in range(k) for j in range(k)]
                       + [e for row in y for e in row] + [e for row in M.core for e in row], P.n)
    x, img_y, img_core = ([flat[b + i * k:b + (i + 1) * k] for i in range(k)] for b in range(0, 3 * k * k, k * k))
    u = M.weights
    uy = [[scale_image(img_y[i2][i0], u[i2]) for i0 in range(k)] for i2 in range(k)]
    xy = [[compose_sum((x[i1][i2], uy[i2][i0]) for i2 in range(k)) for i0 in range(k)] for i1 in range(k)]
    return _haar_trace(compose_sum(
        (img_core[i0][i1], scale_image(xy[i1][i0], u[i0] * u[i1] * rho_inv[i0]))
        for i0, i1 in itertools.product(range(k), repeat=2)
    ), P)


# ---------------------------------------------------------------------------
# spectral triple verification
# ---------------------------------------------------------------------------


def _window_entries(mat: sparse.spmatrix, keep: np.ndarray) -> Tuple[sparse.csr_matrix, np.ndarray]:
    """``mat`` (square) as CSR with duplicates summed in place, and the mask of its stored entries on keep x keep.

    One boolean mask over the states in ``keep``: repeated over ``indptr`` it
    marks the rows, read at ``indices`` it marks the columns.  No fancy
    indexing of a sparse matrix, and no copy of its arrays but the kept ones.
    """
    csr = mat.tocsr()
    csr.sum_duplicates()
    mask = np.zeros(csr.shape[0], dtype=bool)
    mask[keep] = True
    return csr, np.repeat(mask, np.diff(csr.indptr)) & mask[csr.indices]


def _window(mat: sparse.spmatrix, keep: np.ndarray) -> sparse.csr_matrix:
    """``mat`` on rows and columns ``keep`` (increasing, no repeats), as canonical CSR, from ``_window_entries``."""
    csr, take = _window_entries(mat, keep)
    before = np.concatenate(([0], np.cumsum(take)))  # window entries stored before each stored entry
    indptr = np.append(before[csr.indptr[keep]], before[-1])
    indices = np.searchsorted(keep, csr.indices[take])
    return sparse.csr_matrix((csr.data[take], indices, indptr), shape=(len(keep), len(keep)))


def _maxabs(mat: sparse.spmatrix, keep: np.ndarray) -> float:
    """max |entry| on the window keep x keep (implicit zeros count, as in the dense matrix)."""
    csr, take = _window_entries(mat, keep)
    return float(np.abs(csr.data[take]).max(initial=0.0))


def _block_norm(mat: sparse.spmatrix, labels: np.ndarray, j2: int) -> float:
    """Operator norm of a commutator [D_j, a] on a window of H_j, exactly, from its slot blocks.

    ``labels`` holds the doubled (l, m, n) of each basis state of the window,
    rows and columns alike.  Slot n2 is number (n2 + j2) // 2, and the slots
    pair up as (n, n + 1) from n = -j, so the partner of slot s is s ^ 1.
    D_j swaps the two slots of a pair and keeps m; a in {A, B, B^*} keeps the
    slot and shifts m by one fixed dm.  So every nonzero entry joins a column
    (s, m2) to a row (s ^ 1, m2 + dm), a one-to-one map of blocks: the
    operator is the direct sum of these blocks, and its norm is their largest
    singular value, from one batched SVD of the blocks zero-padded to the
    largest.  An entry that does not go to the partner slot, or a second
    m-shift, raises ArithmeticError.
    """
    _, m2, n2 = labels
    slot = (n2 + j2) // 2
    coo = sparse.coo_matrix(mat)
    coo.sum_duplicates()
    coo.eliminate_zeros()
    if not coo.nnz:
        return 0.0
    rows, cols = coo.row, coo.col
    if np.any(slot[rows] != slot[cols] ^ 1):
        raise ArithmeticError("operator is not block diagonal: an entry does not join a slot to its partner")
    dm = m2[rows] - m2[cols]
    if np.any(dm != dm[0]):
        raise ArithmeticError("operator is not block diagonal: its m-shift is not constant")
    # number the (slot, m2) blocks: m2 takes fewer than span values, so slot * span + m2 keys one block;
    # the stack is indexed by the column's block, and the row's position is in its own block
    span = 2 * int(np.abs(m2).max()) + 1
    _, block = np.unique(slot * span + m2, return_inverse=True)
    size = np.bincount(block)
    pos = np.empty_like(block)  # each state's position in its block
    pos[np.argsort(block, kind="stable")] = np.arange(len(block)) - np.repeat(np.cumsum(size) - size, size)
    stack = np.zeros((len(size), size.max(), size.max()))
    stack[block[cols], pos[rows], pos[cols]] = coo.data
    return float(np.linalg.svd(stack, compute_uv=False).max())


def _closed_forms(st: SpectralTriple) -> Dict[str, sparse.csr_matrix]:
    """A, B and B^* = B^T on H_j, from the closed forms of ``SUq2Box.a_op`` and ``b_op``."""
    A, B = st.assemble(st.box._a_terms), st.assemble(st.box._b_terms)
    return {"A": A, "B": B, "B*": B.T.tocsr()}


# the m-shift of each closed form (``_a_terms`` keeps m, ``_b_terms`` raises it by 1, B^* = B^T lowers
# it), which is its K-weight: K |> b = q^{wt(b)} b, as K|>|l,m,n> = q^m |l,m,n>
_CLOSED_FORM_WT = {"A": 0, "B": 1, "B*": -1}


def triple_axiom_suite(j2: int, L: int, q0: float) -> Dict[str, float]:
    """Interior-window residuals of the real-spectral-triple axioms.

    KO-dimension 2 signs: J^2 = -1, JD = DJ, J gamma = -gamma J; order zero
    and one: [a, JbJ^{-1}] = 0 and [[D, a], JbJ^{-1}] = 0 for a, b in
    {A, B, B^*}.  Every operator is assembled on H_j alone from its labels:
    D_j, A = z1^* z1 and B = z1^* z0 from their closed forms, B^* = B^T, and
    the right multiplications as Theta a Theta.  No word product is taken,
    so A carries none of the cancellation of its sphere-reduced normal form
    q^{-2} - q^{-2} z0^* z0, and the residuals stay at rounding level: at most
    4.0e-15 for j <= 5/2, L <= 19 and q0 in {0.3, 0.5, 0.8}.

    One triple is built, on the box L + 3, and the residuals are read on the
    window l <= L - 3.  Every product there sums over states with l <= L - 2,
    so the wall does not reach it: the window entries are those of any box
    l <= L or larger.  ``commutator_norm_drift[a]`` is the relative change of
    the exact norm of [D, a] (``_block_norm``, over the blocks from one slot
    and m to the partner slot, a structure it asserts) from that window to
    the window l <= L, a proxy for boundedness.  Every window is read off the
    CSR arrays of its operator by ``_window``.  Both norm windows are exact,
    so the drift is not a truncation error: it is how much the window norm
    still grows with the window, as ||[D, B]|| rises with l toward a supremum
    that no finite window reaches (2.5e-8 for B at j = 1/2, L = 16,
    q0 = 0.5).  L must satisfy 2L >= 2j + 4, and a window l <= L - 3 that
    holds no state of H_j is an input error (ValueError).
    """
    if 2 * L < j2 + 4:
        raise ValueError("truncation L too small for this j")
    st = build_triple(j2, L + 3, q0)
    win = st.interior(6)
    if not len(win):
        raise ValueError(f"the interior window l <= L - 3 = {L - 3} holds no state of H_j at j = {j2}/2")
    D = st.dirac()
    G = st.grading()
    J = st.real_structure()
    eye = sparse.identity(st.dim, format="csr")
    res: Dict[str, float] = {}
    res["J2+1"] = _maxabs(J @ J + eye, win)
    res["JD-DJ"] = _maxabs(J @ D - D @ J, win)
    res["Jg+gJ"] = _maxabs(J @ G + G @ J, win)
    res["g2-1"] = _maxabs(G @ G - eye, win)
    res["gD+Dg"] = _maxabs(G @ D + D @ G, win)

    reps = _closed_forms(st)
    th = st.assemble(st.box._theta_terms)
    # JbJ^{-1} is right multiplication by b^* up to the K-weight of b in this
    # basis realization: q^{-wt(b)} R_{b^*}, and R_{b^*} = Theta b Theta
    rights = {nm: qpow(-_CLOSED_FORM_WT[nm]).evalf_stable(q0) * (th @ mb @ th) for nm, mb in reps.items()}
    jbs = {nb: J @ mb @ J.transpose() for nb, mb in reps.items()}  # J^{-1} = J^t (real orthogonal here)
    for nb, jb in jbs.items():
        res[f"JbJ-rightmult[{nb}]"] = _maxabs(jb - rights[nb], win)
    das = {na: D @ ma - ma @ D for na, ma in reps.items()}
    for na, ma in reps.items():
        da = das[na]
        for nb, jb in jbs.items():
            res[f"order0[{na},{nb}]"] = _maxabs(ma @ jb - jb @ ma, win)
            res[f"order1[{na},{nb}]"] = _maxabs(da @ jb - jb @ da, win)

    # boundedness proxy: the operator norm of [D, a] must be stable as the window grows to l <= L
    wide = st.interior(3)
    for nm, da in das.items():
        norms = [_block_norm(_window(da, w), st.labels[:, w], j2) for w in (win, wide)]
        res[f"commutator_norm_drift[{nm}]"] = abs(norms[1] - norms[0]) / max(norms[0], 1e-12)
    return res


def index_regularized_trace(j2: int, L: int, q0: float) -> float:
    """Basis-free cross-check of the numeric index.

    For the sector-exact operator pD_j^+p the index equals the regularized
    dimension difference of its domain and codomain,
    Tr(p|_{H_j^+ (x) C^2}) - Tr(p|_{H_j^- (x) C^2}) with an l-cutoff, which
    uses nothing but the generator matrices A and the grading parity (no
    eigenbasis constructions).  The cutoff is l <= L - 2.  Converges
    geometrically to -(j + 1/2).
    """
    box = SUq2Box(L, q0)
    eye = sparse.identity(box.dim, format="csr")
    p11 = (eye - q0 ** 2 * box.a_op()).diagonal()
    p22 = box.a_op().diagonal()
    total = 0.0
    for n2 in range(-j2, j2 + 1, 2):
        sl = box._locate(*_slice_labels(n2, L - 2))  # the slot n on l <= L - 2
        tr = float(np.sum(p11[sl]) + np.sum(p22[sl]))
        total += tr if _hplus(j2, n2) else -tr
    return total


def _round_trip_fails(src: np.ndarray, there, back, args, back_args) -> np.ndarray:
    """Whether each state of ``src`` breaks the ladder pairing rule, decided on integer labels.

    ``there`` and ``back`` are two hops, ``args`` and ``back_args`` their doubled radicand arguments
    (a, b) at every state.  A state passes when it has no image exactly when a or b is zero, and
    otherwise its one image hops back to it with the same arguments as a multiset.  Then the round
    trip is diagonal on ``src``, with entries [a/2][b/2].
    """
    def image(mat):  # row of the one nonzero entry in each column: -1 for none, -2 for more
        rows, cols, _ = sparse.find(mat)
        img = np.full(mat.shape[1], -1)
        img[cols] = rows
        img[np.bincount(cols, minlength=mat.shape[1]) > 1] = -2
        return img

    r = image(there)[src]
    hit = np.maximum(r, 0)
    ab = np.sort(args, axis=0)[:, src]
    same = np.all(ab == np.sort(back_args, axis=0)[:, hit], axis=0)
    return ~np.where(np.any(ab == 0, axis=0), r == -1, (r >= 0) & (image(back)[hit] == src) & same)


def dirac_spectrum_check(j2: int, L: int, q0: float) -> Tuple[int, List[Tuple[float, int]]]:
    """(number of states failing ``_round_trip_fails`` under D_j, D_j^2 spectrum over the interior).

    D swaps the two slots of each pair (n, n + 1): L_F maps the lower member up, L_E the upper one
    down.  With no state failing, D^2 is diagonal, exactly [l-n][l+n+1] on the lower member and
    [l-n+1][l+n] on the upper; the spectrum lists these as (eigenvalue, multiplicity).  Each
    eigenvalue is the square of an entry of D_j, so where one would overflow the float range,
    assembling D_j has raised ArithmeticError already.
    """
    st = build_triple(j2, L, q0)
    l2, _, n2 = st.labels
    args = np.where(_hplus(j2, n2), _ladder_args("E", l2, n2), _ladder_args("F", l2, n2))
    D = st.dirac()
    bad = _round_trip_fails(np.arange(st.dim), D, D, args, args)
    a, b = args[:, st.interior(2)]
    spec = Counter(round(t, 9) for t in (st.box._br(a / 2) * st.box._br(b / 2)).tolist())
    return int(bad.sum()), sorted(spec.items())


def casimir_block_check(N: int, L: int, q0: float) -> int:
    """Number of states of Gamma_N on which C_q = [(l+1/2)]^2 fails, decided exactly.

    C_q = L_F L_E + [n-1/2]^2, the second term from L_K = q^{-n}.  The assembled L_E and L_F
    must return each state to itself with the L_E radicand [l-n+1][l+n] (``_round_trip_fails``),
    and [n-1/2]^2 + [l-n+1][l+n] = [l+1/2]^2 must hold in Q(s), decided once per l.
    """
    box = SUq2Box(L, q0)
    sl = box.gamma_slice(N)
    l2, _, n2 = box.lmn
    bad = _round_trip_fails(sl, box.le(), box.lf(), _ladder_args("E", l2, n2), _ladder_args("F", l2, n2))

    def holds(l2s):  # times (q - q^{-1})^2, each [k/2] is the Laurent polynomial s^k - s^{-k}
        a, b = _ladder_args("E", l2s, -N)
        d = [QScalar.s_pow(k) - QScalar.s_pow(-k) for k in (-N - 1, a, b, l2s + 1)]  # 2n - 1 = -N - 1
        return d[0] * d[0] + d[1] * d[2] == d[3] * d[3]

    ok = {x: holds(x) for x in set(l2[sl].tolist())}
    return int(np.sum(bad | ~np.array([ok[x] for x in l2[sl].tolist()], dtype=bool)))
