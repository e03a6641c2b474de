"""Closed-form identity suite: Laplacian spectra, Stirling, Chern maps."""

import itertools
import math
from fractions import Fraction

from qcpn.identities import (
    ChernVector,
    casimir_value,
    chern_from_phi,
    laplacian_eig,
    laplacian_gap,
    line_bundle_phi,
    monopole_curvature,
    pairing_table,
    phi_from_chern,
    stirling2,
)
from qcpn.qcoeff import ONE, ZERO, qint, qpow


def test_laplacian_eigenvalue_examples():
    assert laplacian_eig(0, 0) == ZERO
    # classical limit 2(k^2 + kN + 2k + N) on the N >= 0 branch; the N < 0
    # branch mirrors it through |N| (classical spectrum is N -> -N symmetric)
    for k in range(0, 6):
        for N in range(0, 6):
            assert laplacian_eig(k, N).limit_q1() == 2 * (k * k + k * N + 2 * k + N)
            assert laplacian_eig(k, -N).limit_q1() == 2 * (k * k + k * N + 2 * k + N)


def test_gap_identity_exact():
    target = (ONE - qpow(-3)) * qint(2)
    for N in range(0, 11):
        for k in range(0, 11):
            assert laplacian_gap(k, N) == target * qint(N)


def test_spectrum_symmetric_at_q1():
    for k in range(0, 8):
        for N in range(0, 8):
            assert laplacian_eig(k, N).limit_q1() == laplacian_eig(k, -N).limit_q1()


def test_monopole_curvature():
    assert monopole_curvature(0) == ZERO
    assert monopole_curvature(1) == ONE
    for N in range(-4, 5):
        assert monopole_curvature(N).limit_q1() == N


def test_casimir_value():
    assert casimir_value(1) == ONE
    assert casimir_value(0) == qint(Fraction(1, 2)) ** 2
    for d in range(0, 7):
        assert casimir_value(d).limit_q1() == Fraction(d + 1, 2) ** 2


def count_set_partitions(k: int, j: int) -> int:
    """Enumeration oracle: partitions of {1..k} into exactly j blocks."""
    if j == 0:
        return 1 if k == 0 else 0
    count = 0
    for assignment in itertools.product(range(j), repeat=k):
        if len(set(assignment)) != j:
            continue
        # canonical labeling: first occurrences increasing
        seen = []
        for a in assignment:
            if a not in seen:
                seen.append(a)
        if seen == sorted(seen):
            count += 1
    return count


def test_stirling_against_enumeration():
    assert stirling2(2, 1) == 1 and stirling2(2, 2) == 1
    assert stirling2(3, 2) == 3
    for k in range(0, 7):
        assert stirling2(k, k) == 1
        for j in range(0, k + 1):
            assert stirling2(k, j) == count_set_partitions(k, j)


def test_chern_examples():
    # Ch_2 = phi_2 + phi_1/2
    v = ChernVector((0, 0, 1), "phi")
    assert chern_from_phi(v).components[2] == 1
    v = ChernVector((0, 1, 0), "phi")
    assert chern_from_phi(v).components[2] == Fraction(1, 2)
    # line bundle: Ch_k(L_{-N}) = N^k/k!
    for N in range(0, 6):
        ch = chern_from_phi(line_bundle_phi(N, 4))
        for k in range(5):
            assert ch.components[k] == Fraction(N ** k, math.factorial(k))


def test_chern_round_trip():
    import random

    rng = random.Random(2)
    for _ in range(40):
        n = rng.randint(0, 4)
        v = ChernVector(
            tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n + 1)), "phi"
        )
        assert phi_from_chern(chern_from_phi(v)) == v


def test_phi2_integrality_on_line_bundles():
    for N in range(0, 9):
        ch = chern_from_phi(line_bundle_phi(N, 3))
        phi2 = ch.components[2] - Fraction(1, 2) * ch.components[1]
        assert phi2.denominator == 1
        assert phi2 == math.comb(N, 2)


def test_pairing_table():
    tbl = pairing_table(2, 4)
    assert tbl[0] == [1, 0, 0]
    assert tbl[3][2] == 3
    for N, row in enumerate(tbl):
        assert sum(math.comb(N, k) for k in range(N + 1)) == 2 ** N


def test_identities_command_evaluates_each_eigenvalue_once(monkeypatch):
    """qcpn identities evaluates laplacian_eig once per (k, N), 0 <= k <= kmax, |N| <= Nmax."""
    import collections
    import contextlib
    import io

    from qcpn import identities
    from qcpn.cli import main

    calls = collections.Counter()
    eig = identities.laplacian_eig

    def counted(k, N):
        calls[k, N] += 1
        return eig(k, N)

    monkeypatch.setattr(identities, "laplacian_eig", counted)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["identities", "--kmax", "4", "--Nmax", "3", "--json"]) == 0
    assert calls == {(k, N): 1 for k in range(5) for N in range(-3, 4)}


def test_chern_command_inverts_each_conversion_matrix_once(monkeypatch):
    """A whole qcpn chern command, 50 round trips included, inverts the n-th conversion matrix once."""
    import contextlib
    import io

    from qcpn import identities
    from qcpn.cli import main

    sizes = []
    invert = identities._invert_lower_triangular

    def counted(M):
        sizes.append(len(M))
        return invert(M)

    monkeypatch.setattr(identities, "_invert_lower_triangular", counted)
    identities._inverse_conversion_matrix.cache_clear()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["chern", "--n", "4", "--json"]) == 0
            assert main(["chern", "--n", "4", "--json"]) == 0
    finally:
        identities._inverse_conversion_matrix.cache_clear()  # no entry built by the counting wrapper stays
    assert sizes == [5]


def test_cached_conversion_matrices_are_immutable_inverses():
    from qcpn.identities import _conversion_matrix, _inverse_conversion_matrix, _invert_lower_triangular

    for n in range(6):
        M, inv = _conversion_matrix(n), _inverse_conversion_matrix(n)
        assert all(isinstance(row, tuple) for row in (M, inv, *M, *inv))
        assert [list(row) for row in inv] == _invert_lower_triangular([list(row) for row in M])
        for i in range(n + 1):
            for j in range(n + 1):
                assert sum(M[i][l] * inv[l][j] for l in range(n + 1)) == (1 if i == j else 0)
