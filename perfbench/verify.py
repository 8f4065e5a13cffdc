"""Correctness checks on the JSONL stream of a batch, and the digest gate.

`check_batch` parses one `run_suite` stream and checks what must hold
of any correct output: the stream is well formed, the summary agrees
with the records, every reported gap is lhs - rhs and nonnegative (the
inequality is a theorem), proportional inputs reach equality, and the
Khovanskii-Teissier numbers are log-concave. It returns the indices of
the instances the program itself counted as failed, which are a
measurement, not a benchmark error, and among them the indices of the
error records, for which the program produced no verdict at all. Any
violation raises `CheckError`.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction
from pathlib import Path

DIGESTS_FILE = Path(__file__).with_name("digests.json")

# Modes in which a proportional instance must report equality.
_EQUALITY_MODES = ("discriminant", "volume", "torus")


class CheckError(Exception):
    """The program's output is wrong; the run publishes no metrics."""


def _check_report(rep, where):
    if rep is None:
        raise CheckError(f"{where}: missing report")
    lhs, rhs, gap = Fraction(rep["lhs"]), Fraction(rep["rhs"]), Fraction(rep["gap"])
    if gap != lhs - rhs:
        raise CheckError(f"{where}: gap {gap} is not lhs - rhs")
    if gap < 0:
        raise CheckError(f"{where}: negative gap {gap}")
    if rep["equality"] != (gap == 0):
        raise CheckError(f"{where}: equality flag disagrees with gap {gap}")


def _check_record(rec, where):
    mode = rec["mode"]
    for key in ("report", "mfold", "r2"):
        rep = rec.get(key)
        if rep is None:
            continue
        if key == "mfold" and mode == "torus":
            rep = rep["report"]
        _check_report(rep, f"{where} {key}")
    if rec.get("kind") == "proportional" and mode in _EQUALITY_MODES:
        if not rec["report"]["equality"]:
            raise CheckError(f"{where}: proportional inputs without equality")
    if mode == "torus":
        kt = [Fraction(x) for x in rec["kt"]]
        if any(x <= 0 for x in kt):
            raise CheckError(f"{where}: nonpositive Khovanskii-Teissier number")
        for i in range(1, len(kt) - 1):
            if kt[i] ** 2 < kt[i - 1] * kt[i + 1]:
                raise CheckError(f"{where}: Khovanskii-Teissier sequence not log-concave")
    if mode == "bm":
        v = rec["max_violation"]
        if not (isinstance(v, float) and math.isfinite(v) and v >= 0):
            raise CheckError(f"{where}: max_violation {v!r} is not a finite nonnegative float")


def check_batch(text: str, params: dict, where: str) -> tuple:
    """Check one batch stream; returns (instances, failed indices, error indices)."""
    lines = text.split("\n")
    if lines[-1] != "":
        raise CheckError(f"{where}: stream does not end with a newline")
    try:
        objs = [json.loads(line) for line in lines[:-1]]
    except json.JSONDecodeError as exc:
        raise CheckError(f"{where}: malformed JSONL: {exc}") from None
    if not objs or objs[-1].get("type") != "summary":
        raise CheckError(f"{where}: stream has no trailing summary")
    summary, records = objs[-1], objs[:-1]
    if len(records) != params["trials"] or summary["instances"] != len(records):
        raise CheckError(f"{where}: expected {params['trials']} instances, got {len(records)}")
    for key, value in params.items():
        if summary["config"][key] != value:
            raise CheckError(f"{where}: summary config {key}={summary['config'][key]!r}, want {value!r}")
    failed, errors = [], []
    for i, rec in enumerate(records):
        if rec.get("type") != "instance" or rec.get("index") != i or rec.get("mode") != params["mode"]:
            raise CheckError(f"{where}: record {i} is out of place")
        if "error" in rec:
            failed.append(i)
            errors.append(i)
            continue
        _check_record(rec, f"{where} index {i}")
        if rec.get("within_tolerance") is False or rec.get("psd") is False or rec.get("identity") is False:
            failed.append(i)
    if summary["failed_indices"] != failed or summary["failures"] != len(failed):
        raise CheckError(f"{where}: summary failures {summary['failed_indices']} != records {failed}")
    return len(records), failed, errors


def check_digest(workload: str, stream: bytes) -> str:
    """The digest gate: the golden stream must hash to the pinned value."""
    digest = hashlib.sha256(stream).hexdigest()
    with open(DIGESTS_FILE, encoding="utf-8") as fh:
        want = json.load(fh)["sha256"].get(workload)
    if digest != want:
        raise CheckError(f"{workload}: golden stream sha256 {digest} != pinned {want}")
    return digest
