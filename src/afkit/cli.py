"""Command-line front end for the verification suite.

Exit status: 0 when every exact assertion held, 1 when any instance
failed, 2 on configuration or fixture-format errors or an --out path
that cannot be opened (reported before any work). JSONL goes to --out
or stdout; wall time goes to stderr so the data stream stays
byte-deterministic.
"""

from __future__ import annotations

import argparse
import sys

from .errors import AfkitError
from .harness import MODES, RunConfig, load_fixtures, run_suite, validate_config


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="afkit",
        description="Exact verification of Alexandrov-Fenchel type inequalities "
        "for mixed discriminants and mixed volumes.",
    )
    p.add_argument("--mode", default="all", choices=MODES, help="verification mode")
    p.add_argument("--seed", type=int, default=0, help="64-bit base seed")
    p.add_argument("--trials", type=int, default=5, help="instances per mode")
    p.add_argument("--n", type=int, default=3, help="matrix dimension / ambient dimension")
    p.add_argument("--r", type=int, default=2, help="Gram table rank parameter")
    p.add_argument("--m", type=int, default=2, help="fold parameter for m-fold checks")
    p.add_argument("--grid", type=int, default=11, help="grid size for concavity sampling")
    p.add_argument("--tol", type=float, default=1e-9, help="tolerance for concavity sampling")
    p.add_argument("--entry-bound", type=int, default=5, dest="entry_bound",
                   help="magnitude bound for generated integers")
    p.add_argument("--out", default=None, help="write JSONL here instead of stdout")
    p.add_argument("--exact-only", action="store_true", dest="exact_only",
                   help="restrict mode all to the exact checks")
    p.add_argument("--in", default=None, dest="fixture",
                   help="verify fixture instances from this JSON file")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    cfg = RunConfig(
        seed=args.seed,
        trials=args.trials,
        n=args.n,
        r=args.r,
        m=args.m,
        mode=args.mode,
        tolerance=args.tol,
        entry_bound=args.entry_bound,
        grid=args.grid,
        exact_only=args.exact_only,
    )
    try:
        validate_config(cfg)
        fixtures = None
        if args.fixture is not None:
            fixtures = load_fixtures(args.fixture, cfg.mode)
        # opened last, so a configuration error leaves no file behind
        out = sys.stdout if args.out is None else open(args.out, "w", encoding="utf-8")
    except (AfkitError, ValueError, OSError) as exc:
        print(f"afkit: configuration error: {exc}", file=sys.stderr)
        return 2
    try:
        record = run_suite(cfg, out, fixtures)
    finally:
        if out is not sys.stdout:
            out.close()
    print(
        f"afkit: {record.summary['instances']} instances, "
        f"{record.summary['failures']} failures, "
        f"elapsed {record.wall_time:.3f}s",
        file=sys.stderr,
    )
    return 0 if record.summary["failures"] == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
