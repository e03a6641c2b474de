"""Command-line front end: verification commands and report emission.

Subcommands: normalize, verify {projections,relations,equivariance,triple},
pairing, index, spectrum, holo-dim, tau1, identities, chern.  Output is a
human table by default, or --json / --csv.  Exit codes: 0 all checks pass,
1 check failure, 2 usage error, 3 numerical instability.

A config file (simple key=value lines; --config PATH, default ./qcpn.cfg)
may set default q0, M, L, tol; flags override.  tau1 checks its pairings
and modular residuals exactly in Q(s) and prints their values at --q.
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Dict, List

from . import identities, rep_sphere, suq2
from .ncpoly import NCPoly, Presentation, UqGenerator, mul, normalize, star
from .parser import ParseError, parse_expr, print_expr
from .projections import (
    check_equivariance,
    is_projection,
    is_selfadjoint,
    projection,
    psi,
    psi_dagger_psi,
    qtrace,
)
from .qcoeff import qint, qpow
from .report import PairingRecord, Report


def _load_config(path: str | None) -> Dict[str, str]:
    cfg: Dict[str, str] = {}
    p = Path(path) if path else Path("qcpn.cfg")
    if p.is_file():
        for line in p.read_text().splitlines():
            line = line.strip()
            if not line or line.startswith("#") or "=" not in line:
                continue
            k, v = line.split("=", 1)
            cfg[k.strip()] = v.strip()
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


def _emit(report: Report, args) -> int:
    if getattr(args, "json", False):
        print(report.to_json())
    elif getattr(args, "csv", False):
        print(report.to_csv(), end="")
    else:
        print(report.human())
    return report.exit_code()


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------


def cmd_normalize(args) -> int:
    P = Presentation(args.n, sphere_reduction=not args.no_sphere)
    try:
        poly = parse_expr(args.expr, args.n, P)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    print(print_expr(poly))
    return 0


def cmd_verify_projections(args) -> int:
    t0 = time.time()
    rep = Report("projection suite", metadata={"n": args.n, "Nmax": args.Nmax})
    P = Presentation(args.n)
    for N in range(-args.Nmax, args.Nmax + 1):
        unit = psi_dagger_psi(psi(N, args.n, P)) == NCPoly.one()
        rep.add(PairingRecord("psi_dag_psi", {"N": N}, int(unit), 1, 0.0 if unit else 1.0, 0.5))
        M = projection(N, args.n, P)
        ok2 = is_projection(M)
        rep.add(PairingRecord("P^2=P", {"N": N}, int(ok2), 1, 0.0 if ok2 else 1.0, 0.5))
        oka = is_selfadjoint(M)
        rep.add(PairingRecord("P=P^dag", {"N": N}, int(oka), 1, 0.0 if oka else 1.0, 0.5))
    tr = qtrace(projection(1, args.n, P)) == NCPoly.one()
    rep.add(PairingRecord("qtrace_P1", {"n": args.n}, int(tr), 1, 0.0 if tr else 1.0, 0.5))
    rep.wall_time = time.time() - t0
    return _emit(rep, args)


def _relations(P: Presentation) -> List[NCPoly]:
    n = P.n
    z = [NCPoly.gen(i) for i in range(n + 1)]
    zs = [NCPoly.gen(i, True) for i in range(n + 1)]
    rels = []
    for i in range(n + 1):
        for j in range(i + 1, n + 1):
            rels.append(mul(z[i], z[j], P) - mul(z[j], z[i], P).scale(qpow(-1)))
    for i in range(n + 1):
        for j in range(n + 1):
            if i != j:
                rels.append(mul(zs[i], z[j], P) - mul(z[j], zs[i], P).scale(qpow(1)))
    rels.append(mul(zs[n], z[n], P) - mul(z[n], zs[n], P))
    for i in range(n):
        acc = mul(zs[i], z[i], P) - mul(z[i], zs[i], P)
        for j in range(i + 1, n + 1):
            acc = acc - mul(z[j], zs[j], P).scale(qpow(0) - qpow(2))
        rels.append(acc)
    sphere = NCPoly.one().scale(-(qpow(0)))
    for j in range(n + 1):
        sphere = sphere + mul(z[j], zs[j], P)
    rels.append(sphere)
    qsphere = NCPoly.one().scale(-(qpow(0)))
    for j in range(n + 1):
        qsphere = qsphere + mul(zs[j], z[j], P).scale(qpow(2 * j))
    rels.append(qsphere)
    return rels


def _random_poly(P: Presentation, rng: random.Random, deg: int = 3, terms: int = 2) -> NCPoly:
    out = NCPoly.zero()
    for _ in range(terms):
        w = tuple(rng.randrange(2 * (P.n + 1)) for _ in range(rng.randint(0, deg)))
        out = out + NCPoly.word(w, qpow(rng.randint(-2, 2)))
    return out


def cmd_verify_relations(args) -> int:
    t0 = time.time()
    rep = Report("rewriting suite", metadata={"nmax": args.n, "cases": args.cases, "seed": args.seed})
    for n in range(1, args.n + 1):
        P = Presentation(n)
        bad = sum(1 for r in _relations(P) if normalize(r, P).terms)
        rep.add(PairingRecord("relations_to_zero", {"n": n}, bad, 0, float(bad), 0.5))
    rng = random.Random(args.seed)
    fails = 0
    per_level = max(1, -(-args.cases // max(1, args.n)))
    for n in range(1, args.n + 1):
        P = Presentation(n)
        for _ in range(per_level):
            a, b, c = (_random_poly(P, rng) for _ in range(3))
            if mul(mul(a, b, P), c, P) != mul(a, mul(b, c, P), P):
                fails += 1
            x = _random_poly(P, rng)
            if normalize(star(x), P) != star(normalize(x, P), P):
                fails += 1
    rep.add(PairingRecord("confluence_random", {"cases": per_level * args.n}, fails, 0, float(fails), 0.5))
    rep.wall_time = time.time() - t0
    return _emit(rep, args)


def cmd_verify_equivariance(args) -> int:
    t0 = time.time()
    if args.n != 1:
        print("equivariance verification is implemented for n=1", file=sys.stderr)
        return 2
    rep = Report("equivariance suite", metadata={"n": 1, "Nmax": args.Nmax})
    gens = [UqGenerator(k, 1) for k in ("E", "F", "K", "Kinv")]
    for N in range(-args.Nmax, args.Nmax + 1):
        for g in gens:
            res = check_equivariance(N, 1, g)
            nz = sum(1 for row in res for e in row if not e.is_zero())
            rep.add(PairingRecord("covariance_residual", {"N": N, "x": str(g)}, nz, 0, float(nz), 0.5))
    rep.wall_time = time.time() - t0
    return _emit(rep, args)


def cmd_verify_triple(args) -> int:
    t0 = time.time()
    rep = Report("spectral triple axioms", metadata={"L": args.L, "q0": args.q})
    for j2 in _int_range(args.j, "--j", 2):
        res = suq2.triple_axiom_suite(j2, args.L, args.q)
        for name, val in sorted(res.items()):
            tol = 1e-3 if "drift" in name else args.tol  # drift is a stability proxy
            rep.add(PairingRecord(name, {"j": f"{j2}/2"}, val, 0.0, val, tol))
    rep.wall_time = time.time() - t0
    return _emit(rep, args)


def cmd_pairing(args) -> int:
    t0 = time.time()
    rep = Report(
        "Fredholm pairings <[F_k],[P_-N]>",
        metadata={"n": args.n, "q0": args.q, "M": args.M},
    )
    unstable = False
    Ns, ks = _int_range(args.N, "--N"), _int_range(args.k, "--k")
    for N in Ns:
        for k in ks:
            r = rep_sphere.fredholm_pairing(N, k, args.n, args.M, args.q)
            rep.add(PairingRecord("pairing", {"N": N, "k": k}, r.value, r.target, r.error, args.tol))
            if r.tail_estimate > args.tol:
                unstable = True
    rep.unstable = unstable
    rep.wall_time = time.time() - t0
    return _emit(rep, args)


def cmd_index(args) -> int:
    t0 = time.time()
    rep = Report("index of pD_j^+ p", metadata={"q0": args.q, "L": args.L})
    unstable = False
    for j2 in _int_range(args.j, "--j", 2):
        ia = suq2.index_analytic(j2)
        branch = _index_branch_formula(j2)
        rep.add(PairingRecord("index_analytic", {"j": f"{j2}/2"}, ia, branch, float(abs(ia - branch)), 0.5))
        L = max(args.L, (j2 + 7) // 2 + 2)
        rn = suq2.index_numeric(j2, L, args.q, tol=args.tol)
        rep.add(
            PairingRecord(
                "index_numeric",
                {"j": f"{j2}/2", "q0": args.q},
                rn.value,
                ia,
                float(abs(rn.value - ia)),
                0.5,
            )
        )
        unstable = unstable or rn.unstable
    rep.unstable = unstable
    rep.wall_time = time.time() - t0
    return _emit(rep, args)


def _index_branch_formula(j2: int) -> int:
    j = Fraction(j2, 2)
    if (j2 - 1) % 4 == 0:  # j in 2N + 1/2
        val = Fraction(1, 2) * (j * j - Fraction(9, 4))
    else:  # j in 2N + 3/2
        val = Fraction(1, 2) * (j * j - Fraction(1, 4))
    assert val.denominator == 1
    return int(val)


def cmd_spectrum(args) -> int:
    t0 = time.time()
    rep = Report("Dirac spectrum vs q-integer products", metadata={"L": args.L, "q0": args.q})
    for j2 in _int_range(args.j, "--j", 2):
        worst, spec = suq2.dirac_spectrum_check(j2, args.L, args.q)
        rep.add(PairingRecord("spectrum_residual", {"j": f"{j2}/2"}, worst, 0.0, worst, args.tol))
        for ev, mult in spec:
            rep.add(PairingRecord("eigenvalue", {"j": f"{j2}/2", "D2": ev}, mult))
    rep.wall_time = time.time() - t0
    return _emit(rep, args)


def cmd_holo_dim(args) -> int:
    t0 = time.time()
    rep = Report("holomorphic section dimensions", metadata={"L": args.L, "q0": args.q})
    unstable = False
    for N in _int_range(args.N, "--N"):
        r = suq2.holo_dim(N, args.L, args.q)
        target = abs(N) + 1 if N <= 0 else 0
        rep.add(PairingRecord("holo_dim", {"N": N}, r.dimension, target, float(abs(r.dimension - target)), 0.5))
        if not r.boundary_safe:
            unstable = True
    rep.unstable = unstable
    rep.wall_time = time.time() - t0
    return _emit(rep, args)


def cmd_tau1(args) -> int:
    t0 = time.time()
    if not 0.0 < args.q < 1.0:
        raise ValueError("q0 must lie in (0,1)")
    rep = Report("twisted Hochschild pairing tau_1", metadata={"q0": args.q})
    P1 = Presentation(1)
    for N in _int_range(args.N, "--N"):
        val, target = suq2.tau1_pairing(N), qpow(-4) * qint(N)
        ok = val == target
        rep.add(
            PairingRecord(
                "tau1", {"N": N}, val.evalf_stable(args.q), target.evalf_stable(args.q), 0.0 if ok else 1.0, 0.5
            )
        )
    z0, z1 = NCPoly.gen(0), NCPoly.gen(1)
    z1s = NCPoly.gen(1, True)
    A = mul(z1s, z1, P1)
    B = mul(z1s, z0, P1)
    for a, b, nm in ((A, A, "A,A"), (B, star(B, P1), "B,B*"), (A, B, "A,B")):
        res = suq2.modular_check(a, b)
        ok = res.is_zero()
        rep.add(PairingRecord("modular_residual", {"pair": nm}, res.evalf_stable(args.q), 0.0, 0.0 if ok else 1.0, 0.5))
    rep.wall_time = time.time() - t0
    return _emit(rep, args)


def cmd_identities(args) -> int:
    t0 = time.time()
    rep = Report("closed-form identity suite", metadata={"kmax": args.kmax, "Nmax": args.Nmax})
    gap_target = (qpow(0) - qpow(-3)) * qint(2)
    bad_gap = 0
    bad_limit = 0
    for N in range(args.Nmax + 1):
        for k in range(args.kmax + 1):
            if identities.laplacian_gap(k, N) != gap_target * qint(N):
                bad_gap += 1
            lim = identities.laplacian_eig(k, N).limit_q1()
            if lim != 2 * (k * k + k * N + 2 * k + N):
                bad_limit += 1
    rep.add(PairingRecord("gap_identity", {"kmax": args.kmax, "Nmax": args.Nmax}, bad_gap, 0, float(bad_gap), 0.5))
    rep.add(PairingRecord("classical_limit", {}, bad_limit, 0, float(bad_limit), 0.5))
    for N in range(0, args.Nmax + 1):
        cur = identities.monopole_curvature(N)
        rep.add(PairingRecord("monopole_curvature_limit", {"N": N}, str(cur.limit_q1()), str(N), float(cur.limit_q1() != N), 0.5))
    rep.wall_time = time.time() - t0
    return _emit(rep, args)


def cmd_chern(args) -> int:
    t0 = time.time()
    rep = Report("Chern character conversions", metadata={"n": args.n})
    rng = random.Random(11)
    bad = 0
    for _ in range(50):
        v = identities.ChernVector([Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(args.n + 1)], "phi")
        if identities.phi_from_chern(identities.chern_from_phi(v)) != v:
            bad += 1
    rep.add(PairingRecord("round_trip", {"cases": 50}, bad, 0, float(bad), 0.5))
    nonint = 0
    for row in identities.pairing_table(args.n, args.Nmax):
        ch = identities.chern_from_phi(identities.ChernVector(row[: args.n + 1], "phi"))
        if args.n >= 2:
            phi2 = ch.components[2] - Fraction(1, 2) * ch.components[1]
            if phi2.denominator != 1:
                nonint += 1
    rep.add(PairingRecord("phi2_integrality", {"rows": args.Nmax + 1}, nonint, 0, float(nonint), 0.5))
    rep.wall_time = time.time() - t0
    return _emit(rep, args)


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------


def build_parser(cfg: Dict[str, str]) -> argparse.ArgumentParser:
    q0 = float(cfg.get("q0", 0.5))
    M = int(cfg.get("M", 40))
    L = int(cfg.get("L", 12))
    tol = float(cfg.get("tol", 1e-9))

    ap = argparse.ArgumentParser(prog="qcpn", description=__doc__)
    ap.add_argument("--config", help="key=value config file (default ./qcpn.cfg)")
    sub = ap.add_subparsers(dest="cmd", required=True)

    def common(p, with_fmt=True):
        if with_fmt:
            g = p.add_mutually_exclusive_group()
            g.add_argument("--json", action="store_true")
            g.add_argument("--csv", action="store_true")

    p = sub.add_parser("normalize", help="normal form of an expression")
    p.add_argument("expr")
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--no-sphere", action="store_true", help="disable sphere reduction")
    p.set_defaults(fn=cmd_normalize)

    pv = sub.add_parser("verify", help="symbolic verification suites")
    vsub = pv.add_subparsers(dest="what", required=True)

    p = vsub.add_parser("projections")
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--Nmax", type=int, default=3)
    common(p)
    p.set_defaults(fn=cmd_verify_projections)

    p = vsub.add_parser("relations")
    p.add_argument("--n", type=int, default=3, help="verify levels 1..n")
    p.add_argument("--cases", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(fn=cmd_verify_relations)

    p = vsub.add_parser("equivariance")
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--Nmax", type=int, default=3)
    common(p)
    p.set_defaults(fn=cmd_verify_equivariance)

    p = vsub.add_parser("triple")
    p.add_argument("--j", default="1/2,3/2")
    p.add_argument("--L", type=int, default=L)
    p.add_argument("--q", type=float, default=q0)
    p.add_argument("--tol", type=float, default=1e-9)
    common(p)
    p.set_defaults(fn=cmd_verify_triple)

    p = sub.add_parser("pairing", help="Fredholm index pairings")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--N", default="0..4")
    p.add_argument("--k", default="0..2")
    p.add_argument("--q", type=float, default=q0)
    p.add_argument("--M", type=int, default=M)
    p.add_argument("--tol", type=float, default=1e-8)
    common(p)
    p.set_defaults(fn=cmd_pairing)

    p = sub.add_parser("index", help="spectral-triple index pairings")
    p.add_argument("--j", default="1/2..9/2")
    p.add_argument("--q", type=float, default=q0)
    p.add_argument("--L", type=int, default=L)
    p.add_argument("--tol", type=float, default=1e-8)
    common(p)
    p.set_defaults(fn=cmd_index)

    p = sub.add_parser("spectrum", help="Dirac spectrum dump and check")
    p.add_argument("--j", default="1/2")
    p.add_argument("--L", type=int, default=L)
    p.add_argument("--q", type=float, default=q0)
    p.add_argument("--tol", type=float, default=1e-10)
    common(p)
    p.set_defaults(fn=cmd_spectrum)

    p = sub.add_parser("holo-dim", help="holomorphic section dimensions")
    p.add_argument("--N", default="-4..2")
    p.add_argument("--L", type=int, default=8)
    p.add_argument("--q", type=float, default=q0)
    common(p)
    p.set_defaults(fn=cmd_holo_dim)

    p = sub.add_parser("tau1", help="twisted Hochschild pairing")
    p.add_argument("--N", default="0..2")
    p.add_argument("--q", type=float, default=q0)
    common(p)
    p.set_defaults(fn=cmd_tau1)

    p = sub.add_parser("identities", help="closed-form q-identities")
    p.add_argument("--kmax", type=int, default=10)
    p.add_argument("--Nmax", type=int, default=10)
    common(p)
    p.set_defaults(fn=cmd_identities)

    p = sub.add_parser("chern", help="Chern character conversions")
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--Nmax", type=int, default=6)
    common(p)
    p.set_defaults(fn=cmd_chern)

    return ap


def main(argv: List[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    cfg_path = None
    if "--config" in argv:
        i = argv.index("--config")
        if i + 1 < len(argv):
            cfg_path = argv[i + 1]
    cfg = _load_config(cfg_path)
    ap = build_parser(cfg)
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as exc:  # input checks
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:  # instability and bug tripwires
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
