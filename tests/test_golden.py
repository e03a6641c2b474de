"""Byte-for-byte output of the deterministic, exact-valued report commands.

Each file under tests/golden/ holds the stdout of one command, recorded when
the output was known good.  Commands whose records carry float residuals at
rounding level (pairing, verify triple) are left out: their last digits may
move with the BLAS or the operation order.  spectrum is in: its residual is a
count decided on the labels, and its eigenvalues are scalar q-bracket
products rounded to 9 digits.
"""

import contextlib
import io
import shlex
from pathlib import Path

import pytest

from qcpn.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = [
    ("identities.json", "identities --json", 0),
    ("identities_k14_N14.json", "identities --kmax 14 --Nmax 14 --json", 0),  # the benchmark's identities job
    ("chern.csv", "chern --csv", 0),
    ("verify_projections.json", "verify projections --n 1 --Nmax 2 --json", 0),
    ("verify_projections_n2.json", "verify projections --n 2 --Nmax 2 --json", 0),
    ("verify_projections_n3.json", "verify projections --n 3 --Nmax 1 --json", 0),
    ("verify_relations.json", "verify relations --n 2 --cases 40 --seed 3 --json", 0),
    ("verify_equivariance.json", "verify equivariance --n 1 --Nmax 2 --json", 0),
    ("verify_equivariance_n2.json", "verify equivariance --n 2 --Nmax 2 --json", 0),
    ("verify_equivariance_n1_N5.json", "verify equivariance --n 1 --Nmax 5 --json", 0),  # the benchmark's job
    ("tau1.csv", "tau1 --N 0..2 --csv", 0),
    ("tau1_N0_5.json", "tau1 --N 0..5 --json", 0),
    ("index.json", "index --j 1/2..5/2 --json", 1),  # index_numeric disagrees from j = 3/2 on
    ("index_to_17_2.json", "index --j 1/2..17/2 --json", 1),  # the index job of the benchmark
    ("holo_dim.csv", "holo-dim --N=-2..1 --L 7 --csv", 0),
    ("spectrum.csv", "spectrum --j 1/2,3/2 --L 16 --csv", 0),
    # normal forms: rational, q^{1/2}-power and cancelling coefficients at n = 1..3
    ("normalize_n1.txt", "normalize --n 1 '1/3 z1 z0 + 2/3 z1 z0 - q z0 z1 + 1/3 z0 z0* + 2/3 z1* z1'", 0),
    ("normalize_n2.txt", "normalize --n 2 'q^1/2 z2 z0* z1 + q^-3/2 z1* z2 z0 - 2/5 q^1/2 z1 z1* z2'", 0),
    ("normalize_n3.txt",
     "normalize --n 3 '1/2 z3* z3 z0 + 3/4 q^-1/2 z2 z1* z3 z0* - 5/7 z0 z3* z3^2 + z3 z2* - q z2* z3'", 0),
    ("normalize_zero.txt", "normalize --n 3 'z0 z0* + z1 z1* + z2 z2* + z3 z3* - 1'", 0),
    ("normalize_no_sphere.txt",
     "normalize --n 2 --no-sphere 'z0 z0* - 1/3 q^1/2 z2* z2 z1 + (1 - q^2) z1^2 z0* - 1/2 z1 z1*'", 0),
    ("normalize_powers_n3.txt", "normalize --n 3 'q^-1 z3^3 z1* z0^2 - 2/3 z2*^2 z3 z0* + z1^3 z1*^2'", 0),
]


@pytest.mark.parametrize("name, command, code", CASES, ids=[c[0] for c in CASES])
def test_golden_output(name, command, code):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        got = main(shlex.split(command))
    assert (got, err.getvalue()) == (code, "")
    assert out.getvalue() == (GOLDEN / name).read_text()


def test_index_builds_no_box(monkeypatch):
    """qcpn index decides on sector labels: with SUq2Box unusable it still prints the golden output."""
    from qcpn import suq2

    def refuse(self, L, q0):
        raise AssertionError("qcpn index built an SUq2Box")

    monkeypatch.setattr(suq2.SUq2Box, "__init__", refuse)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["index", "--j", "1/2..17/2", "--json"]) == 1
    assert out.getvalue() == (GOLDEN / "index_to_17_2.json").read_text()
