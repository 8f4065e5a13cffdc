"""Workload child: runs one workload's batches serially and reports raw results.

Usage: python3 perfbench/child.py --workload NAME --seed N --seconds S --trace 0|1

The parent (run.py) starts this process with `src` on PYTHONPATH and
AFKIT_THREADS removed, so `run_suite` never forks a pool. Steps:

1. check that every span name the benchmark relies on exists;
2. run the golden prefix and pass it through the digest gate (this
   also warms the interpreter before timing);
3. run batches k = 0, 1, ... of the requested seed for S seconds
   (S/2 with --trace 1), timing each `run_suite` call and the speed
   reference between calls; an untraced run goes on until it has the
   batches its tail percentile needs;
4. with --trace 1, install the tracer, replay the same batches, require
   identical bytes, restore every binding, check the guardrails and
   write the spans to SPANS_FILE.

The last stdout line is one JSON object with the raw results; any
failed check exits nonzero without it.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

import tracer as tracing
import verify
from layers import LAYER_GROUPS
from reference import normalize, reference_seconds
from workloads import (
    EXPECTED_SPANS,
    GOLDEN_BATCHES,
    GOLDEN_SEED,
    MIN_BATCHES,
    SPANS_FILE,
    batch_params,
    tail_min_batches,
)

ROOT = Path(__file__).resolve().parent.parent


def required_spans(workload: str) -> set:
    """Span names behind the per-layer metrics and the guardrails."""
    names = {n for members, _ in LAYER_GROUPS.values() for n in members}
    names.update(EXPECTED_SPANS[workload]["fires"], EXPECTED_SPANS[workload]["silent"])
    return names


def import_afkit():
    import afkit
    from afkit import harness

    src = (ROOT / "src" / "afkit").resolve()
    if Path(afkit.__file__).resolve().parent != src:
        raise SystemExit(f"child: afkit imported from {afkit.__file__}, not from {src}")
    return harness


def run_batch(harness, workload, wseed, k, tr=None):
    """One timed `run_suite` call; returns (wall, stream bytes, instances, failed, errors)."""
    params = batch_params(workload, k)
    cfg = harness.RunConfig(seed=harness.derive_seed(wseed, k), **params)
    buf = io.StringIO()
    if tr is not None:
        tr.batch = k
    t0 = time.perf_counter()
    harness.run_suite(cfg, buf)
    wall = time.perf_counter() - t0
    text = buf.getvalue()
    instances, failed, errors = verify.check_batch(text, params, f"{workload} batch {k}")
    return wall, text.encode(), instances, failed, errors


def run_batches(harness, workload, wseed, *, seconds=None, least=MIN_BATCHES, count=None, tr=None):
    """Run batches until `seconds` have passed and at least `least` have
    run, or exactly `count` batches; returns per-batch results and the digest.
    The speed reference is timed between batches, not inside them."""
    digest = hashlib.sha256()
    batches = []
    ref = reference_seconds()
    t_start = time.perf_counter()
    k = 0
    while True:
        if count is not None:
            if k >= count:
                break
        elif k >= least and time.perf_counter() - t_start >= seconds:
            break
        wall, data, instances, failed, errors = run_batch(harness, workload, wseed, k, tr)
        ref_after = reference_seconds()
        digest.update(data)
        batches.append({
            "wall_s": wall,
            "norm_s": normalize(wall, ref, ref_after),
            "ref_s": (ref + ref_after) / 2,
            "instances": instances,
            "failed": failed,
            "errors": errors,
        })
        ref = ref_after
        k += 1
    return batches, digest.hexdigest()


def golden_gate(harness, workload):
    stream = b"".join(
        run_batch(harness, workload, GOLDEN_SEED, k)[1] for k in range(GOLDEN_BATCHES)
    )
    return verify.check_digest(workload, stream)


def traced_replay(harness, workload, wseed, count):
    tr = tracing.Tracer()
    replaced = tr.install()
    try:
        batches, digest = run_batches(harness, workload, wseed, count=count, tr=tr)
    finally:
        tr.restore()
    left = tr.leftover_bindings()
    if left:
        raise verify.CheckError(f"tracer left wrapped bindings: {left}")
    stats = tr.summary()
    expect = EXPECTED_SPANS[workload]
    dead = [n for n in expect["fires"] if stats[n]["calls"] == 0]
    live = [n for n in expect["silent"] if stats[n]["calls"] != 0]
    if dead or live:
        raise verify.CheckError(f"{workload}: expected spans silent {dead}, off-path spans fired {live}")
    spans = ROOT / SPANS_FILE.format(workload=workload)
    spans.parent.mkdir(parents=True, exist_ok=True)
    tr.write(spans)
    return batches, digest, stats, replaced


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="child.py")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    harness = import_afkit()
    missing = required_spans(args.workload) - set(tracing.public_functions())
    if missing:
        print(f"child: span names not found in afkit: {sorted(missing)}", file=sys.stderr)
        return 3
    try:
        golden = golden_gate(harness, args.workload)
        if args.trace:
            batches, digest = run_batches(harness, args.workload, args.seed, seconds=args.seconds / 2)
        else:
            batches, digest = run_batches(
                harness, args.workload, args.seed,
                seconds=args.seconds, least=tail_min_batches(args.workload),
            )
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        out = {
            "golden_sha256": golden,
            "stream_sha256": digest,
            "batches": batches,
            "peak_rss_kb": rss_kb,
        }
        if args.trace:
            tb, tdigest, stats, replaced = traced_replay(
                harness, args.workload, args.seed, len(batches)
            )
            if tdigest != digest:
                raise verify.CheckError(
                    f"traced stream sha256 {tdigest} != untraced {digest}"
                )
            out.update(traced_batches=tb, span_stats=stats, bindings_replaced=replaced)
    except verify.CheckError as exc:
        print(f"child: correctness check failed: {exc}", file=sys.stderr)
        return 4
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
