"""Command-line front end: verification commands and report emission.

Subcommands: normalize, verify {projections,relations,equivariance,triple},
pairing, index, spectrum, holo-dim, tau1, identities, chern.  Output is a
human table by default, or --json / --csv.  Exit codes: 0 all checks pass,
1 check failure, 2 usage error, 3 numerical instability.

Every report command returns a Report; main times it, prints it and maps
its exit code.  A config file (key = value lines, # comments; --config PATH
or --config=PATH, default ./qcpn.cfg) may set the defaults q0, M and L;
flags override.  An unknown key, a bad value or an explicit --config path
that is not a file is a usage error (exit 2); a missing ./qcpn.cfg is not.
main re-reads the config on every call and builds one parser per distinct
(q0, M, L), on first use, which later calls in the same process reuse: a
sweep of in-process calls (tests, notebooks, perfbench) does not pay for
the argparse tree on every job.
tau1 checks its pairings and modular residuals exactly in Q(s) and prints
their values at --q.
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Tuple

from . import identities, rep_sphere, suq2
from .ncpoly import NCPoly, Presentation, UqGenerator, mul, mul_sum, normalize, star
from .parser import ParseError, parse_expr, print_expr
from .projections import (
    _projection,
    _selfadjoint_is_idempotent,
    equivariance_residuals,
    is_selfadjoint,
    psi,
    psi_dagger_psi,
    qtrace,
)
from .qcoeff import ONE, ZERO, QScalar, qint, qpow
from .report import PairingRecord, Report


_CONFIG_KEYS = {"q0": float, "M": int, "L": int}

# one build_parser(cfg) per distinct config, keyed by the reprs of q0, M and L; main fills it on first use
_PARSERS: Dict[Tuple[str, ...], argparse.ArgumentParser] = {}


def _load_config(path: str | None) -> Dict[str, float]:
    """Typed defaults from key = value lines; an unknown key, a bad value or a missing named file is a usage error."""
    p = Path("qcpn.cfg" if path is None else path)
    if not p.is_file():
        if path is None:  # no ./qcpn.cfg: built-in defaults
            return {}
        raise ValueError(f"config {p}: not a file")
    cfg: Dict[str, float] = {}
    for line in p.read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        k, eq, v = (part.strip() for part in line.partition("="))
        if not eq or k not in _CONFIG_KEYS:
            raise ValueError(f"config {p}: expected a line 'key = value' with key q0, M or L, got {line!r}")
        try:
            cfg[k] = _CONFIG_KEYS[k](v)
        except ValueError:
            kind = "a number" if k == "q0" else "an integer"
            raise ValueError(f"config {p}: {k} must be {kind}, got {v!r}") from None
    return cfg


def _parse_range(text: str) -> List[Fraction]:
    """Parse '0..4', '1/2..9/2' or comma lists into fractions."""
    out: List[Fraction] = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if ".." in chunk:
            a, b = chunk.split("..")
            lo, hi = Fraction(a), Fraction(b)
            if lo > hi:
                raise ValueError(f"empty range {chunk}: {lo} > {hi}")
            step = Fraction(1)
            x = lo
            while x <= hi:
                out.append(x)
                x += step
        else:
            out.append(Fraction(chunk))
    return out


def _int_range(text: str, flag: str, scale: int = 1) -> List[int]:
    """scale * x for each x of a range argument; a non-integral product is a usage error."""
    out = []
    for x in _parse_range(text):
        if (scale * x).denominator != 1:
            kind = "an integer" if scale == 1 else f"a multiple of 1/{scale}"
            raise ValueError(f"{flag} must be {kind}, got {x}")
        out.append(int(scale * x))
    return out


def _at_least(args, minimum: int, *names: str) -> None:
    """Reject a size argument below minimum as a usage error, so no sweep is empty."""
    for name in names:
        value = getattr(args, name)
        if value < minimum:
            raise ValueError(f"--{name} must be at least {minimum}, got {value}")


def _positive_tol(args) -> None:
    """Reject a --tol that is not a finite positive number: NaN would fail every record and inf pass every one."""
    if not 0 < args.tol < float("inf"):
        raise ValueError(f"--tol must be a finite positive number, got {args.tol}")


def _exact(name: str, params: Dict[str, object], ok: bool, value=None, target=None) -> PairingRecord:
    """An exactly decided check: residual 0 if ok else 1 at tol 0.5; value and target default to int(ok) and 1."""
    return PairingRecord(name, params, int(ok) if value is None else value, 1 if target is None else target,
                         0.0 if ok else 1.0, 0.5)


def _tally(name: str, params: Dict[str, object], count: int, target: int = 0) -> PairingRecord:
    """An integer (by default a count of failures) against its exact target: residual |count - target| at tol 0.5."""
    return PairingRecord(name, params, count, target, float(abs(count - target)), 0.5)


def _emit(report: Report, args) -> int:
    if args.json:
        print(report.to_json())
    elif args.csv:
        print(report.to_csv(), end="")
    else:
        print(report.human())
    return report.exit_code()


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------


def cmd_normalize(args) -> int:
    _at_least(args, 1, "n")
    P = Presentation(args.n, sphere_reduction=not args.no_sphere)
    try:
        poly = parse_expr(args.expr, args.n, P)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    print(print_expr(poly))
    return 0


def cmd_verify_projections(args) -> Report:
    _at_least(args, 1, "n")
    _at_least(args, 0, "Nmax")
    rep = Report("projection suite", metadata={"n": args.n, "Nmax": args.Nmax})
    P = Presentation(args.n)
    P1 = _projection(psi(1, args.n, P)) if args.Nmax == 0 else None  # else the loop builds it at N = 1
    for N in range(-args.Nmax, args.Nmax + 1):
        av = psi(N, args.n, P)  # one Psi_N for both checks
        rep.add(_exact("psi_dag_psi", {"N": N}, psi_dagger_psi(av) == NCPoly.one()))
        M = _projection(av)
        selfadjoint = is_selfadjoint(M)  # is_projection's gate, decided once
        rep.add(_exact("P^2=P", {"N": N}, selfadjoint and _selfadjoint_is_idempotent(M)))
        rep.add(_exact("P=P^dag", {"N": N}, selfadjoint))
        if N == 1:
            P1 = M
    rep.add(_exact("qtrace_P1", {"n": args.n}, qtrace(P1) == NCPoly.one()))
    return rep


def _relations(P: Presentation) -> List[NCPoly]:
    n = P.n
    z = [NCPoly.gen(i) for i in range(n + 1)]
    zs = [NCPoly.gen(i, True) for i in range(n + 1)]
    one = NCPoly.one()
    sums = []  # each relation as (a, b, c) triples: sum of c * a * b
    for i in range(n + 1):
        for j in range(i + 1, n + 1):
            sums.append([(z[i], z[j], None), (z[j], z[i], -qpow(-1))])
    for i in range(n + 1):
        for j in range(n + 1):
            if i != j:
                sums.append([(zs[i], z[j], None), (z[j], zs[i], -qpow(1))])
    sums.append([(zs[n], z[n], None), (z[n], zs[n], -ONE)])
    for i in range(n):
        sums.append(
            [(zs[i], z[i], None), (z[i], zs[i], -ONE)]
            + [(z[j], zs[j], qpow(2) - ONE) for j in range(i + 1, n + 1)]
        )
    sums.append([(one, one, -ONE)] + [(z[j], zs[j], None) for j in range(n + 1)])
    sums.append([(one, one, -ONE)] + [(zs[j], z[j], qpow(2 * j)) for j in range(n + 1)])
    return [mul_sum(t, P) for t in sums]


def _random_poly(P: Presentation, rng: random.Random, deg: int = 3, terms: int = 2) -> NCPoly:
    """Sum of `terms` random words of up to `deg` letters, each times q^e with e drawn from -2..2."""
    acc: Dict[Tuple[int, ...], QScalar] = {}
    for _ in range(terms):
        w = tuple(rng.randrange(2 * (P.n + 1)) for _ in range(rng.randint(0, deg)))
        acc[w] = acc.get(w, ZERO) + qpow(rng.randint(-2, 2))
    return NCPoly(acc)


def cmd_verify_relations(args) -> Report:
    _at_least(args, 1, "n")
    _at_least(args, 0, "cases")
    rep = Report("rewriting suite", metadata={"nmax": args.n, "cases": args.cases, "seed": args.seed})
    rng = random.Random(args.seed)
    fails = 0
    per_level = -(-args.cases // args.n)
    for n in range(1, args.n + 1):
        P = Presentation(n)
        bad = sum(1 for r in _relations(P) if r.terms)  # mul_sum returns normal forms
        rep.add(_tally("relations_to_zero", {"n": n}, bad))
        for _ in range(per_level):
            a, b, c = (_random_poly(P, rng) for _ in range(3))
            if mul(mul(a, b, P), c, P) != mul(a, mul(b, c, P), P):
                fails += 1
            x = _random_poly(P, rng)
            if normalize(star(x), P) != star(normalize(x, P), P):
                fails += 1
    rep.add(_tally("confluence_random", {"cases": per_level * args.n}, fails))
    return rep


def cmd_verify_equivariance(args) -> Report:
    _at_least(args, 1, "n")
    _at_least(args, 0, "Nmax")
    rep = Report("equivariance suite", metadata={"n": args.n, "Nmax": args.Nmax})
    gens = [UqGenerator(k, i) for i in range(1, args.n + 1) for k in ("E", "F", "K", "Kinv")]
    P = Presentation(args.n)
    for N in range(-args.Nmax, args.Nmax + 1):
        for g, res in equivariance_residuals(N, args.n, gens, P).items():
            nz = sum(1 for row in res for e in row if not e.is_zero())
            rep.add(_tally("covariance_residual", {"N": N, "x": str(g)}, nz))
    return rep


def cmd_verify_triple(args) -> Report:
    _positive_tol(args)
    rep = Report("spectral triple axioms", metadata={"L": args.L, "q0": args.q})
    for j2 in _int_range(args.j, "--j", 2):
        res = suq2.triple_axiom_suite(j2, args.L, args.q)
        for name, val in sorted(res.items()):
            tol = 1e-3 if "drift" in name else args.tol  # drift is a stability proxy
            rep.add(PairingRecord(name, {"j": f"{j2}/2"}, val, 0.0, val, tol))
    return rep


def cmd_pairing(args) -> Report:
    _at_least(args, 1, "n")
    _positive_tol(args)
    rep = Report(
        "Fredholm pairings <[F_k],[P_-N]>",
        metadata={"n": args.n, "q0": args.q, "M": args.M},
    )
    unstable = False
    Ns, ks = _int_range(args.N, "--N"), _int_range(args.k, "--k")
    results = rep_sphere.fredholm_pairings(Ns, ks, args.n, args.M, args.q)
    for N in Ns:
        for k in ks:
            r = results[N, k]
            rep.add(PairingRecord("pairing", {"N": N, "k": k}, r.value, r.target, r.error, args.tol))
            if r.tail_estimate > args.tol:
                unstable = True
    rep.unstable = unstable
    return rep


def cmd_index(args) -> Report:
    rep = Report("index of pD_j^+ p")
    for j2 in _int_range(args.j, "--j", 2):
        ia = suq2.index_analytic(j2)
        rep.add(_tally("index_analytic", {"j": f"{j2}/2"}, ia, _index_branch_formula(j2)))
        # the record keeps its name; its value is the exact count that index_numeric checks in floats
        ex = suq2.index_exact(j2)
        rep.add(_tally("index_numeric", {"j": f"{j2}/2"}, ex.kernel - ex.cokernel, ia))
    return rep


def _index_branch_formula(j2: int) -> int:
    j = Fraction(j2, 2)
    if (j2 - 1) % 4 == 0:  # j in 2N + 1/2
        val = Fraction(1, 2) * (j * j - Fraction(9, 4))
    else:  # j in 2N + 3/2
        val = Fraction(1, 2) * (j * j - Fraction(1, 4))
    assert val.denominator == 1
    return int(val)


def cmd_spectrum(args) -> Report:
    rep = Report("Dirac spectrum vs q-integer products", metadata={"L": args.L, "q0": args.q})
    for j2 in _int_range(args.j, "--j", 2):
        bad, spec = suq2.dirac_spectrum_check(j2, args.L, args.q)
        rep.add(_tally("spectrum_residual", {"j": f"{j2}/2"}, bad))
        for ev, mult in spec:
            rep.add(PairingRecord("eigenvalue", {"j": f"{j2}/2", "D2": ev}, mult))
    return rep


def cmd_holo_dim(args) -> Report:
    rep = Report("holomorphic section dimensions", metadata={"L": args.L, "q0": args.q})
    for N in _int_range(args.N, "--N"):
        r = suq2.holo_dim(N, args.L, args.q)
        rep.add(_tally("holo_dim", {"N": N}, r.dimension, abs(N) + 1 if N <= 0 else 0))
    return rep


def cmd_tau1(args) -> Report:
    if not 0.0 < args.q < 1.0:
        raise ValueError("q0 must lie in (0,1)")
    rep = Report("twisted Hochschild pairing tau_1", metadata={"q0": args.q})
    Ns = _int_range(args.N, "--N")
    if min(Ns) < 0:
        raise ValueError(f"--N must be at least 0, got {min(Ns)}")
    P1 = Presentation(1)
    for N in Ns:
        val, target = suq2.tau1_pairing(N, P1), qpow(-4) * qint(N)
        rep.add(_exact("tau1", {"N": N}, val == target, val.evalf_stable(args.q), target.evalf_stable(args.q)))
    z0, z1 = NCPoly.gen(0), NCPoly.gen(1)
    z1s = NCPoly.gen(1, True)
    A = mul(z1s, z1, P1)
    B = mul(z1s, z0, P1)
    for a, b, nm in ((A, A, "A,A"), (B, star(B, P1), "B,B*"), (A, B, "A,B")):
        res = suq2.modular_check(a, b, P1)
        rep.add(_exact("modular_residual", {"pair": nm}, res.is_zero(), res.evalf_stable(args.q), 0.0))
    return rep


def cmd_identities(args) -> Report:
    _at_least(args, 0, "kmax", "Nmax")
    rep = Report("closed-form identity suite", metadata={"kmax": args.kmax, "Nmax": args.Nmax})
    gap_target = (qpow(0) - qpow(-3)) * qint(2)
    bad_gap = 0
    bad_limit = 0
    # one evaluation per (k, N); the gap check is laplacian_gap(k, N) on the stored values
    eig = {(k, N): identities.laplacian_eig(k, N)
           for N in range(-args.Nmax, args.Nmax + 1) for k in range(args.kmax + 1)}
    for N in range(args.Nmax + 1):
        target = gap_target * qint(N)
        for k in range(args.kmax + 1):
            if eig[k, N] - eig[k, -N] != target:
                bad_gap += 1
            lim = eig[k, N].limit_q1()
            if lim != 2 * (k * k + k * N + 2 * k + N):
                bad_limit += 1
    rep.add(_tally("gap_identity", {"kmax": args.kmax, "Nmax": args.Nmax}, bad_gap))
    rep.add(_tally("classical_limit", {}, bad_limit))
    for N in range(0, args.Nmax + 1):
        lim = identities.monopole_curvature(N).limit_q1()
        rep.add(_exact("monopole_curvature_limit", {"N": N}, lim == N, str(lim), str(N)))
    return rep


def cmd_chern(args) -> Report:
    _at_least(args, 0, "n", "Nmax")
    rep = Report("Chern character conversions", metadata={"n": args.n})
    rng = random.Random(11)
    bad = 0
    for _ in range(50):
        v = identities.ChernVector([Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(args.n + 1)], "phi")
        if identities.phi_from_chern(identities.chern_from_phi(v)) != v:
            bad += 1
    rep.add(_tally("round_trip", {"cases": 50}, bad))
    if args.n >= 2:  # phi_2 is a component only from n = 2 on: below, no record rather than a vacuous pass
        nonint = 0
        for row in identities.pairing_table(args.n, args.Nmax):
            ch = identities.chern_from_phi(identities.ChernVector(row[: args.n + 1], "phi"))
            phi2 = ch.components[2] - Fraction(1, 2) * ch.components[1]
            if phi2.denominator != 1:
                nonint += 1
        rep.add(_tally("phi2_integrality", {"rows": args.Nmax + 1}, nonint))
    return rep


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------


def build_parser(cfg: Dict[str, float]) -> argparse.ArgumentParser:
    q0, M, L = cfg.get("q0", 0.5), cfg.get("M", 40), cfg.get("L", 12)

    ap = argparse.ArgumentParser(prog="qcpn", description=__doc__)
    ap.add_argument("--config", help="key=value config file (default ./qcpn.cfg)")
    sub = ap.add_subparsers(dest="cmd", required=True)

    def report(parent, name, fn, **kw):
        """A subcommand whose handler returns a Report: a table, or --json / --csv."""
        p = parent.add_parser(name, **kw)
        fmt = p.add_mutually_exclusive_group()
        fmt.add_argument("--json", action="store_true")
        fmt.add_argument("--csv", action="store_true")
        p.set_defaults(fn=fn)
        return p

    p = sub.add_parser("normalize", help="normal form of an expression")
    p.add_argument("expr")
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--no-sphere", action="store_true", help="disable sphere reduction")
    p.set_defaults(fn=cmd_normalize)

    pv = sub.add_parser("verify", help="symbolic verification suites")
    vsub = pv.add_subparsers(dest="what", required=True)

    p = report(vsub, "projections", cmd_verify_projections)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--Nmax", type=int, default=3)

    p = report(vsub, "relations", cmd_verify_relations)
    p.add_argument("--n", type=int, default=3, help="verify levels 1..n")
    p.add_argument("--cases", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)

    p = report(vsub, "equivariance", cmd_verify_equivariance)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--Nmax", type=int, default=3)

    p = report(vsub, "triple", cmd_verify_triple)
    p.add_argument("--j", default="1/2,3/2")
    p.add_argument("--L", type=int, default=L)
    p.add_argument("--q", type=float, default=q0)
    p.add_argument("--tol", type=float, default=1e-9)

    p = report(sub, "pairing", cmd_pairing, help="Fredholm index pairings")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--N", default="0..4")
    p.add_argument("--k", default="0..2")
    p.add_argument("--q", type=float, default=q0)
    p.add_argument("--M", type=int, default=M)
    p.add_argument("--tol", type=float, default=1e-8)

    p = report(sub, "index", cmd_index, help="spectral-triple index pairings")
    p.add_argument("--j", default="1/2..9/2")

    p = report(sub, "spectrum", cmd_spectrum, help="Dirac spectrum dump and check")
    p.add_argument("--j", default="1/2")
    p.add_argument("--L", type=int, default=L)
    p.add_argument("--q", type=float, default=q0)

    p = report(sub, "holo-dim", cmd_holo_dim, help="holomorphic section dimensions")
    p.add_argument("--N", default="-4..2")
    p.add_argument("--L", type=int, default=8)
    p.add_argument("--q", type=float, default=q0)

    p = report(sub, "tau1", cmd_tau1, help="twisted Hochschild pairing")
    p.add_argument("--N", default="0..2")
    p.add_argument("--q", type=float, default=q0)

    p = report(sub, "identities", cmd_identities, help="closed-form q-identities")
    p.add_argument("--kmax", type=int, default=10)
    p.add_argument("--Nmax", type=int, default=10)

    p = report(sub, "chern", cmd_chern, help="Chern character conversions")
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--Nmax", type=int, default=6)

    return ap


def _config_arg(argv: List[str]) -> Tuple[str | None, int]:
    """The --config path ahead of the subcommand and the number of arguments that carry it.

    Reads every spelling argparse accepts: '--config PATH', '--config=PATH'
    and their abbreviations such as '--conf PATH'.
    """
    opt, eq, value = (argv[0] if argv else "").partition("=")
    if len(opt) < 3 or not "--config".startswith(opt):
        return None, 0
    if eq:
        return value, 1
    return (argv[1] if len(argv) > 1 else None), 2


def _expression_last(argv: List[str], start: int) -> List[str]:
    """Move a normalize expression that starts with '-' behind '--'.

    argparse reads '-1/3' or '-z0' as an unknown option; after '--' it is the
    positional.  An expression never starts with '-h' or '-n' after its minus
    signs, so the subcommand's own options and the value of --n stay put.
    ``start`` is the position of the subcommand.
    """
    if argv[start: start + 1] == ["normalize"]:
        for k in range(start + 1, len(argv)):
            arg = argv[k]
            if arg == "--":
                break
            if arg[:1] == "-" and arg.lstrip("-")[:1] not in ("h", "n") and argv[k - 1] != "--n":
                return argv[:k] + argv[k + 1:] + ["--", arg]
    return argv


def main(argv: List[str] | None = None) -> int:
    """Parse, run the subcommand, time it and emit its Report; returns the exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        cfg_path, start = _config_arg(argv)
        cfg = _load_config(cfg_path)
        key = tuple(repr(cfg.get(k)) for k in _CONFIG_KEYS)  # repr: a NaN q0 finds its parser too
        if key not in _PARSERS:
            _PARSERS[key] = build_parser(cfg)
        args = _PARSERS[key].parse_args(_expression_last(argv, start))
        t0 = time.time()
        rep = args.fn(args)
        if isinstance(rep, int):  # normalize prints its own result
            return rep
        rep.wall_time = time.time() - t0
        return _emit(rep, args)
    except ValueError as exc:  # input checks
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:  # instability and bug tripwires
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
