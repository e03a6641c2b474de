"""Byte-for-byte output of the deterministic, exact-valued report commands.

Each file under tests/golden/ holds the stdout of one command, recorded when
the output was known good.  Commands whose records carry float residuals at
rounding level (pairing, spectrum, verify triple) are left out: their last
digits may move with the BLAS or the operation order.
"""

import contextlib
import io
from pathlib import Path

import pytest

from qcpn.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = [
    ("identities.json", "identities --json", 0),
    ("chern.csv", "chern --csv", 0),
    ("verify_projections.json", "verify projections --n 1 --Nmax 2 --json", 0),
    ("verify_relations.json", "verify relations --n 2 --cases 40 --seed 3 --json", 0),
    ("tau1.csv", "tau1 --N 0..2 --csv", 0),
    ("index.json", "index --j 1/2..5/2 --L 8 --json", 1),  # index_numeric disagrees from j = 3/2 on
    ("holo_dim.csv", "holo-dim --N=-2..1 --L 7 --csv", 0),
]


@pytest.mark.parametrize("name, command, code", CASES, ids=[c[0] for c in CASES])
def test_golden_output(name, command, code):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        got = main(command.split())
    assert (got, err.getvalue()) == (code, "")
    assert out.getvalue() == (GOLDEN / name).read_text()
