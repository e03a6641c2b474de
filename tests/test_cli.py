"""Parser/printer round trips, CLI subcommands, exit codes, output stability."""

import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import qcpn
from qcpn import ncpoly
from qcpn.cli import main
from qcpn.ncpoly import NCPoly, Presentation, mul, normalize
from qcpn.parser import ParseError, parse_expr, print_expr
from qcpn.qcoeff import qpow


def test_parse_examples():
    assert parse_expr("z0* z1 - q z1 z0*", 1).is_zero()
    assert parse_expr("1", 1) == NCPoly.one()
    # q^-2 (1 - z0* z0) is the sphere-reduced normal form of z1* z1
    lhs = parse_expr("q^-2 * (1 - z0* z0)", 1)
    rhs = parse_expr("z1* z1", 1)
    assert lhs == rhs


def test_parse_rationals_and_powers():
    from fractions import Fraction

    from qcpn.qcoeff import QScalar

    P = Presentation(1)
    expected = mul(NCPoly.gen(0), NCPoly.gen(0), P).scale(QScalar.from_fraction(Fraction(3, 2)))
    assert parse_expr("3/2 z0^2", 1) == expected


def test_parse_half_exponent():
    a = parse_expr("q^1/2 z0", 1)
    from fractions import Fraction

    assert a == NCPoly.gen(0).scale(qpow(Fraction(1, 2)))
    a = parse_expr("q^-3/2", 1)
    assert a == NCPoly.scalar(qpow(Fraction(-3, 2)))


def test_parse_errors_positioned():
    with pytest.raises(ParseError):
        parse_expr("z0 + ", 1)
    with pytest.raises(ParseError):
        parse_expr("z5", 1)  # index out of range at n=1
    with pytest.raises(ParseError):
        parse_expr("z0 $ z1", 1)


def test_precedence():
    # unary minus binds weaker than juxtaposition: -z0 z1 = -(z0 z1)
    P = Presentation(1)
    a = parse_expr("-z0 z1", 1)
    assert a == -mul(NCPoly.gen(0), NCPoly.gen(1), P)
    # power above juxtaposition: z0^2 z1 = (z0^2) z1
    b = parse_expr("z0^2 z1", 1)
    c = mul(mul(NCPoly.gen(0), NCPoly.gen(0), P), NCPoly.gen(1), P)
    assert b == c


CORPUS = [
    "1",
    "0",
    "q^2 + 1 + q^-2",
    "z0* z1 - q z1 z0*",
    "q^-2 * (1 - z0* z0)",
    "(1 - q^2) z1 z1* + z0^2",
    "3/2 z0* z0 - 1/2",
    "q^1/2 z0 z1 z0*",
    "-z1*^2 z1 + q^-5 z0",
]


@pytest.mark.parametrize("text", CORPUS)
def test_print_parse_round_trip(text):
    for n in (1, 2):
        a = parse_expr(text, n)
        assert parse_expr(print_expr(a), n) == a


def test_round_trip_random():
    import random

    rng = random.Random(4)
    P = Presentation(2)
    for _ in range(40):
        out = NCPoly.zero()
        for _ in range(3):
            w = tuple(rng.randrange(6) for _ in range(rng.randint(0, 3)))
            out = out + NCPoly.word(w, qpow(rng.randint(-3, 3)))
        a = normalize(out, P)
        assert parse_expr(print_expr(a), 2) == a


# -- CLI end-to-end -------------------------------------------------------------


def run_cli(*args):
    from io import StringIO
    import contextlib

    buf, err = StringIO(), StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
        code = main(list(args))
    return code, buf.getvalue(), err.getvalue()


def test_cli_normalize():
    code, out, _ = run_cli("normalize", "z0* z1 - q z1 z0*", "--n", "1")
    assert code == 0
    assert out.strip() == "0"


@pytest.mark.parametrize(
    "argv",
    [
        ["normalize", "-1/3", "--n", "1"],
        ["normalize", "-z0 z0*", "--n", "1"],
        ["normalize", "-z0", "--n", "2", "--no-sphere"],
        ["normalize", "--n", "1", "-1/3"],
    ],
)
def test_cli_normalize_leading_minus(argv):
    """An expression that starts with '-' is the positional, not an unknown option."""
    expr = next(a for a in argv[1:] if a.startswith("-") and not a.startswith("--"))
    n = int(argv[argv.index("--n") + 1])
    P = Presentation(n, sphere_reduction="--no-sphere" not in argv)
    code, out, err = run_cli(*argv)
    assert (code, err) == (0, "")
    assert out == print_expr(parse_expr(expr, n, P)) + "\n"
    if expr == "-1/3":
        assert out == "-1/3\n"


def test_cli_normalize_parse_error_exit_2():
    code, _, err = run_cli("normalize", "z0 +", "--n", "1")
    assert code == 2
    assert "parse error" in err


def test_cli_step_budget_exit_3(monkeypatch):
    """The rewrite step budget is a tripwire: exceeding it exits 3, not with a traceback."""
    monkeypatch.setattr(ncpoly, "_MAX_STEPS", 0)
    code, out, err = run_cli("normalize", "z0 z0*", "--n", "1")
    assert (code, out) == (3, "")
    assert err == "error: rewrite step budget exceeded (rule system bug?)\n"


def test_cli_identities_pass():
    code, out, _ = run_cli("identities", "--kmax", "4", "--Nmax", "4")
    assert code == 0
    assert "ALL PASS" in out


def test_cli_verify_relations():
    code, out, _ = run_cli("verify", "relations", "--n", "2", "--cases", "60")
    assert code == 0


def test_cli_verify_relations_zero_cases():
    code, out, _ = run_cli("verify", "relations", "--n", "1", "--cases", "0", "--csv")
    assert code == 0
    assert "confluence_random,cases=0,0,0,0,pass" in out.splitlines()


def test_cli_pairing_json_byte_stable():
    args = ("pairing", "--n", "2", "--N", "0..1", "--k", "0..1", "--M", "16", "--json")
    code1, out1, _ = run_cli(*args)
    code2, out2, _ = run_cli(*args)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["pass"] is True
    assert all(r["pass"] for r in payload["records"])


def test_cli_holo_csv():
    code, out, _ = run_cli("holo-dim", "--N=-2..1", "--L", "7", "--csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "name,params,value,target,residual,pass"
    assert len(lines) == 5


def test_cli_index_reports_discrepancy():
    # analytic values match the branch formulas; numeric disagrees beyond j=1/2
    code, out, _ = run_cli("index", "--j", "1/2,3/2", "--L", "8", "--json")
    payload = json.loads(out)
    recs = {(r["name"], r["params"]["j"]): r for r in payload["records"]}
    assert recs[("index_analytic", "1/2")]["pass"]
    assert recs[("index_analytic", "3/2")]["pass"]
    assert recs[("index_numeric", "1/2")]["pass"]
    assert not recs[("index_numeric", "3/2")]["pass"]
    assert code == 1  # honest failure surfaces in the exit code


def test_cli_config_file(tmp_path, monkeypatch):
    cfg = tmp_path / "qcpn.cfg"
    cfg.write_text("q0 = 0.5\nM = 12\n")
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli("pairing", "--n", "2", "--N", "0..0", "--k", "0..0", "--json")
    assert code == 0
    assert json.loads(out)["metadata"]["M"] == "12"


PAIRING_M = ("pairing", "--n", "2", "--N", "0..0", "--k", "0..0", "--json")


@pytest.mark.parametrize(
    "argv, text, want",
    [
        (("--config=my.cfg",) + PAIRING_M, "M = 12\n", '"M": "12"'),
        (("--config", "my.cfg") + PAIRING_M, "# comment\nM = 12\n", '"M": "12"'),
        (("--conf=my.cfg",) + PAIRING_M, "M=12\n", '"M": "12"'),
        (("--config=my.cfg", "normalize", "-1/3", "--n", "1"), "L = 9\n", "-1/3\n"),
        (("--config=my.cfg",) + PAIRING_M, "tol = 1e-3\n", 2),
        (("--config=my.cfg",) + PAIRING_M, "L = notanint\n", 2),
        (("--config=my.cfg",) + PAIRING_M, "q0 = half\n", 2),
        (("--config=my.cfg",) + PAIRING_M, "M 12\n", 2),
        (PAIRING_M, "L = notanint\n", 2),  # the default ./qcpn.cfg
        (("--config", "nope.cfg") + PAIRING_M, "M = 12\n", 2),  # ./qcpn.cfg is there but not named
        (("--config=.",) + PAIRING_M, "M = 12\n", 2),  # a directory
    ],
    ids=["equals-spelling", "separate-spelling", "abbreviated", "normalize-after-config", "tol-key-unknown",
         "L-not-int", "q0-not-number", "no-equals-sign", "default-file-bad-L", "explicit-path-missing",
         "explicit-path-directory"],
)
def test_cli_config_spellings_and_errors(tmp_path, monkeypatch, argv, text, want):
    """--config is read in every spelling; an unknown key or a bad value is a usage error (exit 2)."""
    (tmp_path / ("my.cfg" if any("my.cfg" in arg for arg in argv) else "qcpn.cfg")).write_text(text)
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(*argv)
    if want == 2:
        assert (code, out) == (2, "")
        assert err.startswith("error: config ") and err.count("\n") == 1
    else:
        assert (code, err) == (0, "")
        assert want in out


@pytest.mark.parametrize(
    "argv",
    [
        ("holo-dim", "--L", "3"),
        ("verify", "triple", "--j", "7/2", "--L", "4"),
        ("pairing", "--q", "1.0"),
        ("tau1", "--q", "1.0"),
        ("tau1", "--N", "3..1"),
        ("holo-dim", "--N", "1/2"),
        ("verify", "triple", "--j", "3/4", "--L", "12"),
        ("identities", "--kmax", "-1", "--Nmax", "-1"),
        ("verify", "projections", "--n", "1", "--Nmax", "-1"),
        ("verify", "equivariance", "--Nmax", "-1"),
        ("chern", "--n", "-1"),
        ("chern", "--n", "4", "--Nmax", "-2"),
        ("verify", "relations", "--n", "0"),
        ("verify", "relations", "--cases", "-5"),
        ("verify", "equivariance", "--n", "2"),
        ("pairing", "--n", "2", "--N", "3", "--k", "3", "--csv"),
    ],
    ids=["holo-dim", "verify-triple", "pairing", "tau1", "tau1-reversed-range", "holo-dim-fraction",
         "verify-triple-quarter", "identities-negative", "projections-negative-Nmax",
         "equivariance-negative-Nmax", "chern-negative-n", "chern-negative-Nmax", "relations-n-0",
         "relations-negative-cases", "equivariance-n-2", "pairing-k-above-n"],
)
def test_cli_input_errors_exit_2(argv):
    code, _, err = run_cli(*argv)
    assert code == 2
    assert err.startswith("error:")


def test_cli_spectrum_json():
    code, out, _ = run_cli("spectrum", "--j", "3/2", "--L", "10", "--json")
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_console_script_installed():
    # the child imports qcpn from where this process found it (installed or src/)
    path = [str(Path(qcpn.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    proc = subprocess.run(
        [sys.executable, "-m", "qcpn.cli", "normalize", "1", "--n", "1"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p)),
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "1"


def _readme_cli_lines():
    """The `qcpn ...` lines of the README's CLI code block, split as a shell would, comments dropped."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```", 2)[1]
    return [shlex.split(line, comments=True) for line in block.splitlines() if line.startswith("qcpn ")]


def test_readme_cli_examples_parse():
    """Every README CLI example names a real subcommand and real flags; nothing is run."""
    from qcpn import cli

    lines = _readme_cli_lines()
    assert len(lines) >= 12
    for words in lines:
        argv = words[1:]
        _, start = cli._config_arg(argv)
        try:
            args = cli.build_parser({}).parse_args(cli._expression_last(argv, start))
        except SystemExit:
            pytest.fail(f"README example does not parse: {' '.join(words)}")
        assert callable(args.fn)
