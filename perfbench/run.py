"""qcpn benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload exact_laurent --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

Run from the repository root.  The workload runs in a fresh worker process
with every thread count pinned to 1.  ``--trace 0`` reports the end-to-end
metrics in reference seconds (see ``speed.py``); the table also gives each
time as measured.  Set-up time is the median over that run's worker and
``SETUP_PROBES`` more fresh processes that stop at the first timed job.
``--trace 1`` reports the per-layer metrics of one traced pass.  The last
stdout line is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  The exit status is 0 only when every reference check passed,
apart from the failures recorded in ``workloads.KNOWN_FAILURES``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("exact_laurent", "exact_rational", "numeric_operators", "rewrite_short")
SETUP_PROBES = 6
TIMEOUT_S = 170.0  # the whole run, all processes included
PINNED = {
    "QCPN_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class BenchError(RuntimeError):
    pass


def _env(root: Path) -> dict:
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(HERE)])
    return env


def _worker(root: Path, args: list, deadline: float) -> dict:
    """Run a worker to completion; return its JSON result with its set-up time added."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    spawned = time.perf_counter()  # the worker's clock: CLOCK_MONOTONIC on Linux
    try:
        proc = subprocess.run(cmd, cwd=root, env=_env(root), capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:  # run() kills and reaps the worker
        raise BenchError(f"worker timed out: {' '.join(args)}") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["raw_setup_s"] = result["ready"] - spawned - result["paused_s"]
    result["setup_s"] = result["raw_setup_s"] * result["scale"]
    return result


def _p90(samples):
    return statistics.quantiles(samples, n=10, method="inclusive")[8]


def run_workload(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + TIMEOUT_S
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        args += ["--spans", str(out_dir / f"spans-{workload}-seed{seed}.jsonl")]
    res = _worker(root, args, deadline)

    if trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in res["traced"]["metrics"].items()}
        info = {}
    else:
        setups, raw_setups = [res["setup_s"]], [res["raw_setup_s"]]
        for _ in range(SETUP_PROBES):
            probe = _worker(root, ["--workload", workload, "--seed", str(seed), "--setup-only"], deadline)
            setups.append(probe["setup_s"])
            raw_setups.append(probe["raw_setup_s"])
        jobs = [t for p in res["passes"] for t in p["job_s"]]
        metrics = {
            "wall_s": {"value": statistics.median(p["wall_s"] for p in res["passes"]), "unit": "s"},
            "job_p50_s": {"value": statistics.median(jobs), "unit": "s"},
            "job_p90_s": {"value": _p90(jobs), "unit": "s"},
            "cpu_s": {"value": statistics.median(p["cpu_s"] for p in res["passes"]), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
        }
        raw_jobs = [t for p in res["passes"] for t in p["raw"]["job_s"]]
        raw = {
            "wall_s": statistics.median(p["raw"]["wall_s"] for p in res["passes"]),
            "job_p50_s": statistics.median(raw_jobs),
            "job_p90_s": _p90(raw_jobs),
            "cpu_s": statistics.median(p["raw"]["cpu_s"] for p in res["passes"]),
            "setup_s": statistics.median(raw_setups),
        }
        info = {"passes": len(res["passes"]), "job_samples": len(jobs), "setup_samples": setups,
                "raw": raw, "probe": res["probe"]}

    failures = res["failures"]
    unexpected = [f for f in failures if not f["known"]]
    summary = {
        "correct": not unexpected,
        "attempted": res["attempted"],
        "failed": len(failures),
        "metrics": metrics,
    }
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "summary": summary,
        "fail_ratio": len(failures) / res["attempted"],
        "failures": failures,
        "info": info,
        "passes": res["passes"],
        "traced": res["traced"],
        "jobs": res["jobs"],
        "environment": res["environment"],
    }
    (out_dir / f"{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(record, indent=1))
    return record


def _print_record(record: dict) -> None:
    s = record["summary"]
    print(f"# {record['workload']} seed={record['seed']} trace={record['trace']} "
          f"attempted={s['attempted']} failed={s['failed']} fail_ratio={record['fail_ratio']:.4f} "
          f"correct={s['correct']} {json.dumps(record['info'])}")
    for f in record["failures"]:
        print(f"#   {'known' if f['known'] else 'UNEXPECTED'} failure: {f['job']}: {f['reason']}")
    raw = record["info"].get("raw", {})
    for name, m in s["metrics"].items():
        measured = f"   (as measured {raw[name]:.6f} {m['unit']})" if name in raw else ""
        print(f"{record['workload']:<18} {name:<26} {m['value']:>16.6f} {m['unit']}{measured}")
    print(f"# environment {json.dumps(record['environment'], sort_keys=True)}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "qcpn" / "cli.py").is_file():
        print("perfbench: run from the root of a qcpn checkout (src/qcpn is missing)", file=sys.stderr)
        return 2
    try:
        if args.workload == "all":
            records = [run_workload(root, w, args.seed, args.seconds, args.trace) for w in WORKLOADS]
            for record in records:
                _print_record(record)
            return 0 if all(r["summary"]["correct"] for r in records) else 1
        record = run_workload(root, args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    _print_record(record)
    print(json.dumps(record["summary"]))
    return 0 if record["summary"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
