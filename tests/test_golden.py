"""Byte-for-byte output of the deterministic, exact-valued report commands.

Each file under tests/golden/ holds the stdout of one command, recorded when
the output was known good.  Commands whose records carry float residuals at
rounding level (pairing, spectrum, verify triple) are left out: their last
digits may move with the BLAS or the operation order.
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
    ("chern.csv", "chern --csv", 0),
    ("verify_projections.json", "verify projections --n 1 --Nmax 2 --json", 0),
    ("verify_relations.json", "verify relations --n 2 --cases 40 --seed 3 --json", 0),
    ("verify_equivariance.json", "verify equivariance --n 1 --Nmax 2 --json", 0),
    ("verify_equivariance_n2.json", "verify equivariance --n 2 --Nmax 2 --json", 0),
    ("tau1.csv", "tau1 --N 0..2 --csv", 0),
    ("index.json", "index --j 1/2..5/2 --L 8 --json", 1),  # index_numeric disagrees from j = 3/2 on
    ("holo_dim.csv", "holo-dim --N=-2..1 --L 7 --csv", 0),
    # normal forms: rational, q^{1/2}-power and cancelling coefficients at n = 1..3
    ("normalize_n1.txt", "normalize --n 1 '1/3 z1 z0 + 2/3 z1 z0 - q z0 z1 + 1/3 z0 z0* + 2/3 z1* z1'", 0),
    ("normalize_n2.txt", "normalize --n 2 'q^1/2 z2 z0* z1 + q^-3/2 z1* z2 z0 - 2/5 q^1/2 z1 z1* z2'", 0),
    ("normalize_n3.txt",
     "normalize --n 3 '1/2 z3* z3 z0 + 3/4 q^-1/2 z2 z1* z3 z0* - 5/7 z0 z3* z3^2 + z3 z2* - q z2* z3'", 0),
    ("normalize_zero.txt", "normalize --n 3 'z0 z0* + z1 z1* + z2 z2* + z3 z3* - 1'", 0),
    ("normalize_no_sphere.txt",
     "normalize --n 2 --no-sphere 'z0 z0* - 1/3 q^1/2 z2* z2 z1 + (1 - q^2) z1^2 z0* - 1/2 z1 z1*'", 0),
]


@pytest.mark.parametrize("name, command, code", CASES, ids=[c[0] for c in CASES])
def test_golden_output(name, command, code):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        got = main(shlex.split(command))
    assert (got, err.getvalue()) == (code, "")
    assert out.getvalue() == (GOLDEN / name).read_text()
