"""afkit benchmark: batch workloads over `afkit.harness.run_suite`.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With --trace 0 the run measures set-up time in fresh probe processes,
then starts one workload child that runs batches serially for S seconds
and prints the end-to-end metrics. Times are normalized by the speed
reference (see reference.py); the raw wall times are in the info line.
With --trace 1 the child runs the batches for S/2 seconds untraced,
replays them with every public afkit function wrapped, and the run
prints the per-layer metrics. Both modes
pass every batch through the correctness checks and the golden digest
gate; on any failure the run exits nonzero and prints no result. The
last stdout line is the result object; the line before it holds the
sample counts, the failed (batch, index) pairs and the environment.
The result's `failed` counts error records, instances for which the
program gave no verdict; instances it gave a failing verdict, such as
a `bm` root outside its tolerance, are measured by `verified_frac`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import metric_units, per_layer_metrics
from reference import REFERENCE_NOMINAL_S, reference_seconds
from workloads import SPANS_FILE, TAIL_BEYOND, TAIL_PERCENTILE, WORKLOADS, batch_params, tail_rank

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SRC = ROOT / "src"

SETUP_WARMUPS = 1
SETUP_SAMPLES = 31

E2E_UNITS = {
    "instances_per_s": "1/s",
    "batch_p50_s": "s",
    "batch_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "verified_frac": "ratio",
}


def child_env() -> dict:
    """Serial, reproducible child environment: afkit from this checkout's
    src, no AFKIT_THREADS (so run_suite never forks a pool), fixed hashing."""
    env = {k: v for k, v in os.environ.items() if k != "AFKIT_THREADS"}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def measure_setup(workload: str) -> tuple:
    """Median seconds for a fresh process to import afkit and validate a
    config: raw, and normalized by the median speed reference timed
    between the probes. A probe is too short for a per-probe reference."""
    params = batch_params(workload, 0)
    cmd = [sys.executable, str(HERE / "setup_probe.py"), params["mode"], str(params["n"])]
    samples, refs = [], [reference_seconds()]
    for i in range(SETUP_WARMUPS + SETUP_SAMPLES):
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=60, check=True
        )
        refs.append(reference_seconds())
        if i >= SETUP_WARMUPS:
            samples.append(float(proc.stdout.strip().splitlines()[-1]))
    raw = statistics.median(samples)
    return raw, raw * REFERENCE_NOMINAL_S / statistics.median(refs), len(samples)


def child_timeout(seconds: float) -> float:
    """Room for the golden prefix, the timed batches, a run that goes on
    to reach its tail batches, and the traced replay (about 1.15 times
    the untraced half)."""
    return 2 * seconds + 90


def run_child(args) -> dict:
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    timeout = child_timeout(args.seconds)
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"workload child killed after its timeout of {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise RuntimeError(f"workload child exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def p50(workload: str, walls) -> float:
    """The median batch time of each batch configuration, averaged over
    the configurations. On a single-configuration workload this is the
    plain median; on matrix-mix-n6 it keeps the median from jumping
    between the three modes' clusters of batch times."""
    groups = {}
    for k, wall in enumerate(walls):
        groups.setdefault(json.dumps(batch_params(workload, k), sort_keys=True), []).append(wall)
    return statistics.fmean(statistics.median(g) for g in groups.values())


def tail(workload: str, walls) -> float:
    """The workload's fixed nearest-rank tail percentile of the batch times."""
    s = sorted(walls)
    rank = tail_rank(workload, len(s))
    if len(s) - rank < TAIL_BEYOND:
        raise ValueError(
            f"{len(s)} batches leave fewer than {TAIL_BEYOND} beyond p{TAIL_PERCENTILE[workload]}"
        )
    return s[rank - 1]


def environment() -> dict:
    h = hashlib.sha256()
    for path in sorted((SRC / "afkit").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else None
        commit = ref
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_count": os.cpu_count(),
        "afkit_commit": commit,
        "afkit_src_sha256": h.hexdigest(),
        "afkit_threads": "unset",
        "pythonhashseed": "0",
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if not (SRC / "afkit" / "__init__.py").is_file():
        print(f"run.py: no afkit sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("run.py: --seconds must be positive", file=sys.stderr)
        return 2

    t_run = time.perf_counter()
    try:
        if not args.trace:
            setup_raw, setup, setup_samples = measure_setup(args.workload)
        res = run_child(args)
        batches = res["batches"]
        norms = [b["norm_s"] for b in batches]
        walls = [b["wall_s"] for b in batches]
        if not args.trace:
            tail_s, raw_tail_s = tail(args.workload, norms), tail(args.workload, walls)
    except (RuntimeError, subprocess.SubprocessError, ValueError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    attempted = sum(b["instances"] for b in batches)
    failed_pairs = [[k, i] for k, b in enumerate(batches) for i in b["failed"]]
    errors = sum(len(b["errors"]) for b in batches)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "batches": len(batches),
    }
    if args.trace:
        traced = res["traced_batches"]
        metrics = per_layer_metrics(
            res["span_stats"],
            sum(b["instances"] for b in traced),
            sum(b["norm_s"] for b in traced) / sum(b["wall_s"] for b in traced),
            sum(b["norm_s"] for b in traced) / sum(norms),
        )
        units = metric_units()
        info["bindings_replaced"] = res["bindings_replaced"]
        info["spans_file"] = SPANS_FILE.format(workload=args.workload)
    else:
        metrics = {
            "instances_per_s": attempted / sum(norms),
            "batch_p50_s": p50(args.workload, norms),
            "batch_tail_s": tail_s,
            "setup_s": setup,
            "peak_rss_mb": res["peak_rss_kb"] / 1024,
            "verified_frac": 1 - len(failed_pairs) / attempted,
        }
        units = E2E_UNITS
        info["batch_tail_percentile"] = TAIL_PERCENTILE[args.workload]
        info["setup_samples"] = setup_samples
        info["raw_wall"] = {
            "instances_per_s": attempted / sum(walls),
            "batch_p50_s": p50(args.workload, walls),
            "batch_tail_s": raw_tail_s,
            "setup_s": setup_raw,
        }
    info.update({
        "reference_p50_s": statistics.median(b["ref_s"] for b in batches),
        "failed_frac": len(failed_pairs) / attempted,
        "failed_batch_index": failed_pairs,
        "golden_sha256": res["golden_sha256"],
        "stream_sha256": res["stream_sha256"],
        "run_wall_s": time.perf_counter() - t_run,
        "environment": environment(),
    })
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": errors,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
