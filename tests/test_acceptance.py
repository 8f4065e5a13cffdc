"""Acceptance suite: ten end-to-end criteria, one pass line each.

Every gap comparison here is exact rational arithmetic; floats appear
only where a criterion states a numeric tolerance (concavity roots).
Run with -v to get one pass/fail line per criterion.
"""

import json
import math
import random
import time
from fractions import Fraction

import pytest

from afkit.cli import main
from afkit.convexvol import BodyTuple, mixed_volume, minkowski_expansion_check
from afkit.errors import NotBigError
from afkit.harness import gen_polytope
from afkit.ineqcheck import (
    af_gap_discriminant,
    af_gap_volume,
    af_m_fold_discriminant,
    bm_concavity_discriminant,
)
from afkit.matrixcore import HermMat, proportional
from afkit.mixdisc import MatTuple, mixed_discriminant, mixed_discriminant_polarized
from afkit.shephard import (
    GramTable,
    check_psd_shephard,
    det_identity_check,
    gram_from_discriminants,
    r2_inequality,
)
from afkit.toruskahler import (
    TorusClass,
    equality_theorem_pair,
    intersection_number,
    kt_sequence,
)
from oracles import permanent, real_det
from support import box, diag, identity, rand_herm, rand_pd, rand_psd, segment

F = Fraction


def report_pass(k, msg):
    print(f"PASS criterion {k}: {msg}")


def rand_signed_table(rng, size):
    d = [[F(0)] * size for _ in range(size)]
    for i in range(size):
        for j in range(i, size):
            d[i][j] = d[j][i] = F(rng.randint(-6, 6), rng.randint(1, 3))
    return GramTable(d)


def nonprop_pd_pair(rng, n, bound=3):
    a = rand_pd(rng, n, bound)
    b = rand_pd(rng, n, bound)
    while proportional(a, b) is not None:
        b = rand_pd(rng, n, bound)
    return a, b


def rand_scale(rng):
    return F(rng.randint(1, 9), rng.randint(1, 4))


def test_criterion_01_route_equivalence():
    rng = random.Random(101)
    start = time.monotonic()
    checked = 0
    for n in (2, 3, 4):
        for _ in range(200):
            t = MatTuple([rand_herm(rng, n, bound=3) for _ in range(n)])
            assert mixed_discriminant(t) == mixed_discriminant_polarized(t)
            checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"route equivalence took {elapsed:.1f}s"
    report_pass(1, f"permutation and polarized routes agree on {checked} tuples "
                   f"({elapsed:.1f}s)")


def test_criterion_02_af_discriminant_gap():
    rng = random.Random(102)
    start = time.monotonic()
    for n in (2, 3, 4):
        for _ in range(500):
            a = rand_pd(rng, n, bound=2)
            b = rand_pd(rng, n, bound=2)
            rest = [rand_pd(rng, n, bound=2) for _ in range(n - 2)]
            assert af_gap_discriminant(a, b, rest).gap >= 0
    for i in range(100):
        n = 2 + i % 3
        a = rand_pd(rng, n, bound=2)
        lam = rand_scale(rng)
        rest = [rand_pd(rng, n, bound=2) for _ in range(n - 2)]
        r = af_gap_discriminant(a, a.scale(lam), rest)
        assert r.gap == 0 and r.equality
        assert r.certificate == lam
    strict = 0
    for i in range(500):
        n = 2 + i % 3
        a, b = nonprop_pd_pair(rng, n, bound=2)
        rest = [rand_pd(rng, n, bound=2) for _ in range(n - 2)]
        r = af_gap_discriminant(a, b, rest)
        assert r.gap > 0 and not r.equality
        strict += 1
    elapsed = time.monotonic() - start
    assert elapsed < 120.0, f"AF discriminant sweep took {elapsed:.1f}s"
    report_pass(2, f"1500 PD instances gap >= 0, 100 scaled pairs gap = 0 with "
                   f"lambda recovered, {strict} non-proportional pairs strict "
                   f"({elapsed:.1f}s)")


def test_criterion_03_m_fold():
    rng = random.Random(103)
    n = 4
    for m in (2, 3, 4):
        for _ in range(200):
            t = MatTuple([rand_pd(rng, n, bound=2) for _ in range(n)])
            assert af_m_fold_discriminant(t, m).gap >= 0
        for _ in range(50):
            base = rand_pd(rng, n, bound=2)
            mats = [base.scale(rand_scale(rng)) for _ in range(m)]
            mats += [rand_pd(rng, n, bound=2) for _ in range(n - m)]
            r = af_m_fold_discriminant(MatTuple(mats), m)
            assert r.gap == 0 and r.certificate is not None
    report_pass(3, "n = 4, m in {2,3,4}: 200 instances each gap >= 0, "
                   "50 proportional families each gap = 0")


def test_criterion_04_mixed_volumes():
    rng = random.Random(104)
    start = time.monotonic()

    box_trials = 0
    for d, trials in ((2, 40), (3, 40), (4, 20)):
        for _ in range(trials):
            lengths = [
                [F(rng.randint(1, 5), rng.randint(1, 3)) for _ in range(d)]
                for _ in range(d)
            ]
            t = BodyTuple([box(row) for row in lengths])
            assert mixed_volume(t) == permanent(lengths) / math.factorial(d)
            box_trials += 1

    seg_trials = 0
    for d in (2, 3, 4):
        for _ in range(20):
            vecs = [
                [F(rng.randint(-3, 3)) for _ in range(d)] for _ in range(d)
            ]
            t = BodyTuple([segment(v) for v in vecs])
            assert mixed_volume(t) == abs(real_det(vecs)) / math.factorial(d)
            seg_trials += 1

    expansion_trials = 0
    for d in (2, 3):
        for m in (2, 3):
            for i in range(50):
                bodies = [
                    gen_polytope(rng.randrange(1 << 30), d, d + 3, 3)
                    for _ in range(m)
                ]
                lams = [F(rng.randint(0, 4), rng.randint(1, 3)) for _ in range(m)]
                assert minkowski_expansion_check(bodies, lams)
                expansion_trials += 1

    gap_trials = 0
    for d, trials in ((2, 100), (3, 30)):
        for _ in range(trials):
            k = gen_polytope(rng.randrange(1 << 30), d, d + 3, 4)
            l = gen_polytope(rng.randrange(1 << 30), d, d + 3, 4)
            rest = [
                gen_polytope(rng.randrange(1 << 30), d, d + 3, 4)
                for _ in range(d - 2)
            ]
            assert af_gap_volume(k, l, rest).gap >= 0
            gap_trials += 1

    elapsed = time.monotonic() - start
    assert elapsed < 300.0, f"mixed volume sweep took {elapsed:.1f}s"
    report_pass(4, f"{box_trials} box tuples match the permanent oracle, "
                   f"{seg_trials} segment tuples match |det|/d!, "
                   f"{expansion_trials} expansion checks, "
                   f"{gap_trials} AF volume gaps >= 0 ({elapsed:.1f}s)")


def test_criterion_05_shephard_psd_and_identity():
    rng = random.Random(105)
    adapter = 0
    for r in (1, 2, 3, 4):
        for n in (2, 3, 4):
            for _ in range(200):
                classes = [rand_psd(rng, n, bound=2) for _ in range(r + 1)]
                rest = [rand_psd(rng, n, bound=2) for _ in range(n - 2)]
                g = gram_from_discriminants(classes, rest)
                psd, witness = check_psd_shephard(g)
                assert psd, f"r={r} n={n} witness={witness}"
                assert det_identity_check(g)
                adapter += 1
    unconditional = 0
    for i in range(500):
        r = 1 + i % 4
        assert det_identity_check(rand_signed_table(rng, r + 1))
        unconditional += 1
    report_pass(5, f"{adapter} adapter tables PSD with exact determinant "
                   f"identity; identity holds on {unconditional} signed tables")


def test_criterion_06_r2_inequality_and_propagation():
    rng = random.Random(106)
    for i in range(200):
        n = 2 + i % 3
        classes = [rand_psd(rng, n, bound=2) for _ in range(3)]
        rest = [rand_psd(rng, n, bound=2) for _ in range(n - 2)]
        g = gram_from_discriminants(classes, rest)
        assert r2_inequality(g).gap >= 0
    for i in range(60):
        n = 2 + i % 3
        base = rand_pd(rng, n, bound=2)
        lam = rand_scale(rng)
        classes = [base, base.scale(lam), rand_pd(rng, n, bound=2)]
        rest = [rand_pd(rng, n, bound=2) for _ in range(n - 2)]
        d = gram_from_discriminants(classes, rest).d
        assert d[0][1] ** 2 == d[0][0] * d[1][1]
        # equality in the 2 x 2 corner forces the cross relation
        assert d[0][1] * d[0][2] == d[0][0] * d[1][2]
    report_pass(6, "200 r = 2 tables gap >= 0; 60 constructed equality tables "
                   "propagate d01*d02 = d00*d12")


def test_criterion_07_torus_bridge_and_kt():
    rng = random.Random(107)
    assert intersection_number([TorusClass(identity(2))] * 2) == 8
    for n in (2, 3):
        for _ in range(25):
            mats = [rand_psd(rng, n, bound=2) for _ in range(n)]
            want = (
                math.factorial(n)
                * 2 ** n
                * mixed_discriminant(MatTuple(mats)).re
            )
            assert intersection_number([TorusClass(m) for m in mats]) == want
    pairs = 0
    for n in (2, 3, 4, 5):
        for _ in range(125):
            seq = kt_sequence(
                TorusClass(rand_psd(rng, n, bound=2)),
                TorusClass(rand_psd(rng, n, bound=2)),
            )
            for m in range(1, n):
                assert seq[m] ** 2 >= seq[m - 1] * seq[m + 1]
            pairs += 1
    report_pass(7, f"bridge factor n!*2^n spot-checked (value 8 at n = 2); "
                   f"KT log-concavity exact on {pairs} PSD pairs up to n = 5")


def test_criterion_08_equality_theorems():
    rng = random.Random(108)
    constructed = strict = 0
    for n in (3, 4):
        for _ in range(50):
            g1 = TorusClass(rand_pd(rng, n, bound=2))
            g2 = TorusClass(g1.mat.scale(rand_scale(rng)))
            rest = [TorusClass(rand_pd(rng, n, bound=2)) for _ in range(n - 2)]
            v = equality_theorem_pair(g1, g2, rest)
            assert v.report.gap == 0
            assert v.adjugates_proportional and v.matrices_proportional
            constructed += 1
        for _ in range(100):
            a, b = nonprop_pd_pair(rng, n, bound=2)
            rest = [TorusClass(rand_pd(rng, n, bound=2)) for _ in range(n - 2)]
            v = equality_theorem_pair(TorusClass(a), TorusClass(b), rest)
            assert v.report.gap > 0
            assert not v.adjugates_proportional
            assert not v.matrices_proportional
            strict += 1
    with pytest.raises(NotBigError):
        equality_theorem_pair(
            TorusClass(diag(1, 0, 2)),
            TorusClass(rand_pd(rng, 3)),
            [TorusClass(rand_pd(rng, 3))],
        )
    report_pass(8, f"{constructed} constructed families: gap = 0 with "
                   f"proportional adjugates and matrices; {strict} generic "
                   f"families strict; non-big inputs rejected")


def test_criterion_09_bm_concavity():
    rng = random.Random(109)
    n = 3
    for i in range(100):
        m = 1 + i % n
        a0 = rand_pd(rng, n, bound=2)
        a1 = rand_pd(rng, n, bound=2)
        rest = [rand_pd(rng, n, bound=2) for _ in range(n - m)]
        rep = bm_concavity_discriminant(a0, a1, rest, m, grid_size=11)
        assert rep.max_violation <= 1e-9
    for i in range(30):
        m = 1 + i % n
        a0 = rand_pd(rng, n, bound=2)
        a1 = a0.scale(rand_scale(rng))
        rest = [rand_pd(rng, n, bound=2) for _ in range(n - m)]
        rep = bm_concavity_discriminant(a0, a1, rest, m, grid_size=11)
        v0, v1 = rep.values[0], rep.values[-1]
        for t, v in zip(rep.grid, rep.values):
            chord = (1 - float(t)) * v0 + float(t) * v1
            assert abs(v - chord) <= 1e-9
    report_pass(9, "100 PD instances: concavity violations <= 1e-9 on an "
                   "11-point grid; 30 proportional families achieve chord "
                   "equality within 1e-9")


def test_criterion_10_determinism_and_exit_codes(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    args = ["--mode", "all", "--seed", "77", "--trials", "2", "--n", "3"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()

    corrupted = tmp_path / "corrupted.json"
    corrupted.write_text(json.dumps({"r": 1, "d": [["100", "3"], ["3", "1"]]}))
    out = tmp_path / "c.jsonl"
    assert main(["--mode", "shephard", "--in", str(corrupted),
                 "--out", str(out)]) == 1
    record = json.loads(out.read_text().splitlines()[0])
    assert record["psd"] is False and record["witness"] == [1, "-91"]
    assert main(["--trials", "0"]) == 2
    report_pass(10, "byte-identical JSONL across reruns; exit codes 0/1/2 "
                    "honored including the corrupted-fixture path")
