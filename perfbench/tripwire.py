"""Determinism tripwire for the traced run.

    python3 perfbench/tripwire.py --workload all --seed 1 --other-seed 2

Runs the traced run twice with ``--seed`` and once with ``--other-seed``.
Every count metric must repeat exactly between the two same-seed runs, and
the other seed must give the same fail ratio.  Exits 1 on any mismatch.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import run


def counts(record: dict) -> dict:
    return {k: m["value"] for k, m in record["summary"]["metrics"].items() if m["unit"] == "count"}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="all", choices=run.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--other-seed", type=int, default=2)
    args = ap.parse_args(argv)

    root = Path.cwd()
    ok = True
    for w in run.WORKLOADS if args.workload == "all" else (args.workload,):
        first, second, other = (run.run_workload(root, w, s, 0, 1) for s in (args.seed, args.seed, args.other_seed))
        a, b = counts(first), counts(second)
        diff = {k: (a[k], b[k]) for k in a if a[k] != b[k]}
        same_fail = first["fail_ratio"] == other["fail_ratio"]
        ok &= not diff and same_fail
        print(f"{w:<18} counts {'repeat' if not diff else f'DIFFER {diff}'}; fail_ratio "
              f"{first['fail_ratio']:.4f} (seed {args.seed}) vs {other['fail_ratio']:.4f} (seed {args.other_seed})"
              f"{'' if same_fail else ' DIFFER'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
