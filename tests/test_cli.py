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
        ("verify", "equivariance", "--n", "0"),
        ("pairing", "--n", "2", "--N", "3", "--k", "3", "--csv"),
        ("tau1", "--N", "-1", "--csv"),
    ],
    ids=["holo-dim", "verify-triple", "pairing", "tau1", "tau1-reversed-range", "holo-dim-fraction",
         "verify-triple-quarter", "identities-negative", "projections-negative-Nmax",
         "equivariance-negative-Nmax", "chern-negative-n", "chern-negative-Nmax", "relations-n-0",
         "relations-negative-cases", "equivariance-n-0", "pairing-k-above-n", "tau1-negative-N"],
)
def test_cli_input_errors_exit_2(argv):
    code, _, err = run_cli(*argv)
    assert code == 2
    assert err.startswith("error:")


def test_cli_verify_equivariance_n3():
    """Every E_i, F_i, K_i and K_i^-1 of U_q(su(4)) at |N| <= 1: 3 x 3 x 4 records, all exactly 0."""
    code, out, err = run_cli("verify", "equivariance", "--n", "3", "--Nmax", "1", "--json")
    assert (code, err) == (0, "")
    records = json.loads(out)["records"]
    assert len(records) == 36
    assert {r["params"]["x"] for r in records} == {f"{g}_{i}" for g in ("E", "F", "K", "K^-1") for i in (1, 2, 3)}
    assert all(r["value"] == "0" and r["pass"] for r in records)


# -- one parser per config, reused across in-process calls ----------------------


def test_cli_each_config_gets_its_own_defaults(tmp_path, monkeypatch):
    """In one process, a call under each of two ./qcpn.cfg files reports that file's q0 and L."""
    for name, text in (("a", "q0 = 0.25\nL = 9\n"), ("b", "q0 = 0.75\nL = 10\n"), ("a", None)):
        (tmp_path / name).mkdir(exist_ok=True)
        if text is not None:
            (tmp_path / name / "qcpn.cfg").write_text(text)
        monkeypatch.chdir(tmp_path / name)
        code, out, err = run_cli("index", "--j", "1/2", "--json")
        assert (code, err) == (0, "")
        want = {"a": {"L": "9", "q0": "0.25"}, "b": {"L": "10", "q0": "0.75"}}[name]
        assert json.loads(out)["metadata"] == want


def test_cli_errors_leave_the_parser_reusable(capsys):
    """A usage error, a good call, two argparse errors and a good call in one process: each its own result."""
    golden = (Path(__file__).parent / "golden" / "tau1.csv").read_text()
    code, out, err = run_cli("tau1", "--N", "-1", "--csv")
    assert (code, out, err) == (2, "", "error: --N must be at least 0, got -1\n")
    assert run_cli("tau1", "--N", "0..2", "--csv") == (0, golden, "")
    for bad, message in ((("tau1", "--json", "--csv"), "not allowed with argument"),
                         (("tau1", "--bogus"), "unrecognized arguments: --bogus")):
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(list(bad))
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (2, "")
        assert err.startswith("usage: qcpn") and message in err
    assert run_cli("tau1", "--N", "0..2", "--csv") == (0, golden, "")


@pytest.mark.parametrize("text", ["q0 = 0.25\nL = 9\n", "q0 = nan\n"], ids=["q0-L", "q0-nan"])
def test_cli_builds_one_parser_per_config(tmp_path, monkeypatch, text):
    """Repeated calls under one config build the parser once; another config builds its own."""
    from qcpn import cli

    built, original = [], cli.build_parser

    def counting(cfg):
        built.append(dict(cfg))
        return original(cfg)

    monkeypatch.setattr(cli, "_PARSERS", {})  # an empty cache, restored afterwards
    monkeypatch.setattr(cli, "build_parser", counting)
    (tmp_path / "qcpn.cfg").write_text(text)
    (tmp_path / "other.cfg").write_text("M = 7\n")
    monkeypatch.chdir(tmp_path)
    for _ in range(3):
        assert run_cli("normalize", "z0* z1 - q z1 z0*", "--n", "1") == (0, "0\n", "")
    assert len(built) == 1
    assert run_cli("--config=other.cfg", "normalize", "1", "--n", "1") == (0, "1\n", "")
    assert run_cli("normalize", "1", "--n", "2") == (0, "1\n", "")
    assert built[1:] == [{"M": 7}]


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
