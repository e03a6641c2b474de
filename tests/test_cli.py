"""Parser/printer round trips, CLI subcommands, exit codes, output stability."""

import json
import os
import random
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import qcpn
from qcpn import cli, ncpoly
from qcpn.cli import main
from qcpn.ncpoly import NCPoly, Presentation, lincomb, mul, normalize
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


@pytest.mark.parametrize("argv, err", [
    (["z12 z3", "--n", "3"], "parse error: generator z12 out of range for n=3 (at position 0)\n"),
    (["1/0", "--n", "1"], "parse error: zero denominator in '1/0' (at position 0)\n"),
    (["q^1/0", "--n", "1"], "parse error: zero denominator in '1/0' (at position 2)\n"),
])
def test_cli_normalize_bad_literals_exit_2(argv, err):
    """A two-digit generator index past n and a zero denominator are parse errors (exit 2), not exit 3."""
    assert run_cli("normalize", *argv) == (2, "", err)


@pytest.mark.parametrize("expr, pos", [("z" + "1" * 5_000, 0), ("1" * 5_000 + " z0", 0), ("q^" + "1" * 5_000, 2)],
                         ids=["generator", "number", "exponent"])
def test_cli_normalize_long_literal_exits_2(expr, pos):
    """A literal past Python's 4,300-digit int-conversion limit is a parse error (exit 2), not a bare ValueError."""
    code, out, err = run_cli("normalize", expr, "--n", "1")
    assert (code, out) == (2, "")
    assert err.startswith("parse error: ") and err.endswith(f"(at position {pos})\n")


def test_cli_normalize_deep_nesting_exits_2():
    """5,000 nested parentheses are a parse error (exit 2), not a RecursionError traceback."""
    code, out, err = run_cli("normalize", "(" * 5_000 + "z0" + ")" * 5_000, "--n", "1")
    assert (code, out) == (2, "")
    assert err.startswith("parse error: parentheses nested deeper than")


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


def test_verify_relations_draws_the_inputs_of_the_lincomb_construction():
    # _random_poly adds up its q-power words from the same draws, in the same order, as a
    # lincomb of them: the same terms, words in the same order, and the generator left in
    # the same state
    def lincomb_poly(P, rng, deg=3, terms=2):
        return lincomb(
            (NCPoly.word(rng.randrange(2 * (P.n + 1)) for _ in range(rng.randint(0, deg))), qpow(rng.randint(-2, 2)))
            for _ in range(terms)
        )

    merged = 0
    for n in (1, 2, 3):
        P = Presentation(n)
        for seed in range(50):
            rng, ref = random.Random(seed), random.Random(seed)
            for _ in range(4):  # one case of verify relations: a, b, c and x
                got, want = cli._random_poly(P, rng), lincomb_poly(P, ref)
                assert got.terms == want.terms
                assert list(got.terms) == list(want.terms)
                merged += len(got.terms) < 2
            assert rng.random() == ref.random()
    assert merged  # some draws repeat a word, so coefficients add up


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


def test_cli_triple_drift_at_q08():
    """At q0 = 0.8 the exact commutator norms drift by 5.3e-4 from L = 16 to 19, inside the 1e-3 bound."""
    code, out, _ = run_cli("verify", "triple", "--j", "1/2", "--q", "0.8", "--L", "16", "--csv")
    assert code == 0
    drift = [line for line in out.splitlines() if line.startswith("commutator_norm_drift")]
    assert len(drift) == 3 and all(line.endswith(",pass") for line in drift)


def test_cli_triple_order_one_passes_at_q03():
    """At q0 = 0.3, L = 16 the order-one residuals of A are rounding, not the cancellation in A's normal form."""
    code, out, _ = run_cli("verify", "triple", "--j", "1/2,3/2", "--L", "16", "--q", "0.3", "--csv")
    assert code == 0
    order1 = [line for line in out.splitlines() if line.startswith('"order1[A,')]
    assert len(order1) == 6 and all(line.endswith(",pass") for line in order1)


def test_cli_index_reports_discrepancy():
    # analytic values match the branch formulas; numeric disagrees beyond j=1/2
    code, out, _ = run_cli("index", "--j", "1/2,3/2", "--json")
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
        ("spectrum", "--q", "1.0"),
        ("holo-dim", "--q", "1.0"),
        ("pairing", "--n", "2", "--N", "0..2", "--k", "0..0", "--q", "1.0", "--csv"),
        ("pairing", "--n", "2", "--N", "0..2", "--k", "0..2", "--M", "4", "--q", "0.9"),
        ("pairing", "--n", "2", "--N", "0..2", "--k", "0..0", "--M", "0", "--csv"),
        ("verify", "triple", "--j", "1/2", "--L", "3", "--csv"),
    ],
    ids=["holo-dim", "verify-triple", "pairing", "tau1", "tau1-reversed-range", "holo-dim-fraction",
         "verify-triple-quarter", "identities-negative", "projections-negative-Nmax",
         "equivariance-negative-Nmax", "chern-negative-n", "chern-negative-Nmax", "relations-n-0",
         "relations-negative-cases", "equivariance-n-0", "pairing-k-above-n", "tau1-negative-N",
         "spectrum-q-1", "holo-dim-q-1", "pairing-k0-q1", "pairing-M-4", "pairing-M-0-k0",
         "verify-triple-empty-window"],
)
def test_cli_input_errors_exit_2(argv):
    code, _, err = run_cli(*argv)
    assert code == 2
    assert err.startswith("error:")


def test_cli_normalize_same_index_run_does_not_recurse():
    """z0 crosses z0*^400, a run of its own index, in one closed-form push.

    Run under a limit 300 frames above the caller's depth, which a rewrite
    recursing once per letter of the run would exceed.
    """
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 300)
    try:
        code, out, err = run_cli("normalize", "z0 z0*^400", "--n", "1")
    finally:
        sys.setrecursionlimit(limit)
    assert (code, out, err) == (0, "(1 - q^-800) * z0*^399 + q^-800 * z0*^400 z0\n", "")


def test_cli_normalize_long_same_index_run():
    """z0 z0*^12000, a run longer than the default recursion limit, normalizes with exit 0."""
    code, out, err = run_cli("normalize", "z0 z0*^12000", "--n", "1")
    assert (code, out, err) == (0, "(1 - q^-24000) * z0*^11999 + q^-24000 * z0*^12000 z0\n", "")


def test_cli_normalize_letter_across_a_long_lower_index_run():
    """z1 crosses z0^12000 in one q-power step: no recursion per letter, so no exit 3."""
    code, out, err = run_cli("normalize", "z1 z0^12000", "--n", "1")
    assert (code, out, err) == (0, "q^12000 * z0^12000 z1\n", "")


def test_cli_verify_equivariance_n3():
    """Every E_i, F_i, K_i and K_i^-1 of U_q(su(4)) at |N| <= 1: 3 x 3 x 4 records, all exactly 0."""
    code, out, err = run_cli("verify", "equivariance", "--n", "3", "--Nmax", "1", "--json")
    assert (code, err) == (0, "")
    records = json.loads(out)["records"]
    assert len(records) == 36
    assert {r["params"]["x"] for r in records} == {f"{g}_{i}" for g in ("E", "F", "K", "K^-1") for i in (1, 2, 3)}
    assert all(r["value"] == "0" and r["pass"] for r in records)


# -- one parser per config, reused across in-process calls ----------------------


def test_cli_index_has_no_tol():
    """index decides its ranks exactly, so --tol is gone: argparse rejects it as a usage error."""
    with pytest.raises(SystemExit) as exc:
        run_cli("index", "--tol", "1e-3")
    assert exc.value.code == 2


def test_cli_index_has_no_q():
    """index reads no q0 (its counts are exact and q-independent), so --q is gone too, even a valid one."""
    for q in ("1.0", "0.5"):
        with pytest.raises(SystemExit) as exc:
            run_cli("index", "--q", q)
        assert exc.value.code == 2


def test_cli_each_config_gets_its_own_defaults(tmp_path, monkeypatch):
    """In one process, a call under each of two ./qcpn.cfg files reports that file's q0 and L."""
    for name, text in (("a", "q0 = 0.25\nL = 9\n"), ("b", "q0 = 0.75\nL = 10\n"), ("a", None)):
        (tmp_path / name).mkdir(exist_ok=True)
        if text is not None:
            (tmp_path / name / "qcpn.cfg").write_text(text)
        monkeypatch.chdir(tmp_path / name)
        code, out, err = run_cli("spectrum", "--j", "1/2", "--json")
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


def test_readme_cli_examples_parse(tmp_path, monkeypatch):
    """Every README CLI example parses and runs with its documented exit code: 0, or 1 for index, which fails by design.

    An example with an unknown subcommand or flag would exit 2.
    """
    monkeypatch.chdir(tmp_path)  # no ./qcpn.cfg, so the built-in defaults apply
    lines = _readme_cli_lines()
    assert len(lines) >= 12
    for words in lines:
        code, _, err = run_cli(*words[1:])
        assert (code, err) == (1 if words[1] == "index" else 0, ""), " ".join(words)


def test_pairing_builds_psi_once_per_n(monkeypatch):
    """pairing over N = 0..3 and k = 0..3 builds Psi_{-N} 4 times, once per N, not once per (N, k)."""
    from qcpn import projections, rep_sphere

    calls, original = [], projections.psi

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    rep_sphere._trace_terms.cache_clear()
    monkeypatch.setattr(projections, "psi", counting)
    code, _, err = run_cli("pairing", "--n", "3", "--N", "0..3", "--k", "0..3", "--M", "30", "--json")
    assert (code, err) == (0, "")
    assert sorted(calls) == [(-N, 3) for N in (3, 2, 1, 0)]


@pytest.mark.parametrize("Nmax, built", [(2, [-2, -1, 0, 1, 2]), (0, [0, 1])])
def test_verify_projections_builds_each_projection_once(monkeypatch, Nmax, built):
    """qtrace_P1 reuses the loop's P_1; only at Nmax = 0 is P_1 built for it alone."""
    calls, original = [], cli.projection

    def counting(N, n, P=None):
        calls.append(N)
        return original(N, n, P)

    monkeypatch.setattr(cli, "projection", counting)
    code, out, err = run_cli("verify", "projections", "--n", "2", "--Nmax", str(Nmax), "--json")
    assert (code, err) == (0, "")
    assert sorted(calls) == built
    assert json.loads(out)["records"][-1]["name"] == "qtrace_P1"


def test_verify_equivariance_shares_one_presentation(monkeypatch):
    """Every Psi_N of one verify equivariance run is built over the same Presentation."""
    from qcpn import projections

    calls, original = [], projections.psi

    def counting(N, n, P=None):
        calls.append((N, P))
        return original(N, n, P)

    monkeypatch.setattr(projections, "psi", counting)
    code, _, err = run_cli("verify", "equivariance", "--n", "1", "--Nmax", "2", "--json")
    assert (code, err) == (0, "")
    assert sorted({N for N, _ in calls}) == [-2, -1, 0, 1, 2]
    assert len({id(P) for _, P in calls}) == 1 and calls[0][1] is not None
