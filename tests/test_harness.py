"""Seeded generation, config validation, and the batch suite."""

import io
import itertools
import json
import random
from fractions import Fraction

import pytest

from afkit.convexvol import BodyTuple, volume
from afkit import convexvol, harness, ineqcheck, mixdisc
from afkit.cli import main
from afkit.errors import FormatError, SizeLimitError
from afkit.harness import (
    RunConfig,
    RunRecord,
    SplitMix64,
    derive_seed,
    gen_pd_hermitian,
    gen_polytope,
    load_fixtures,
    run_suite,
    validate_config,
)
from afkit.ineqcheck import af_m_fold_discriminant, af_m_fold_volume
from afkit.jsonio import (
    body_tuple_to_json,
    dumps_canonical,
    gap_report_to_json,
    gram_to_json,
    tuple_to_json,
)
from afkit.matrixcore import is_pd, is_psd
from afkit.mixdisc import MatTuple
from afkit.shephard import GramTable
from afkit.toruskahler import equality_theorem_m

from oracles import gen_pd_hermitian_gaussrat, gen_polytope_fraction, real_det
from support import (
    DIGIT_LIMIT,
    bench_module,
    box,
    gen_psd_singular,
    layer_builds,
    needs_digit_limit,
    rand_pd,
    segment,
    shephard_table_past_the_digit_limit,
    simplex,
    zonotope,
)

F = Fraction


def test_splitmix_frozen_vectors():
    g = SplitMix64(0)
    assert [g.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]


def test_splitmix_determinism_and_masking():
    a = SplitMix64(12345)
    b = SplitMix64(12345)
    assert [a.next_u64() for _ in range(5)] == [b.next_u64() for _ in range(5)]
    assert SplitMix64(1 << 64).next_u64() == SplitMix64(0).next_u64()
    g = SplitMix64(7)
    for _ in range(100):
        assert 2 <= g.int_between(2, 9) <= 9


@pytest.mark.parametrize("seed", [0, 1, (1 << 64) - 1])
@pytest.mark.parametrize("lo, hi", [(3, 3), (-5, 5)])
def test_ints_between_is_that_many_int_between_calls(seed, lo, hi):
    # spans 1 and 11; the last seed wraps the state on its first step
    for count in (0, 1, 2, 72):
        one_loop, single = SplitMix64(seed), SplitMix64(seed)
        want = [single.int_between(lo, hi) for _ in range(count)]
        assert one_loop.ints_between(lo, hi, count) == want
        assert one_loop.state == single.state


def test_derive_seed_is_stream_position():
    assert derive_seed(0, 0) == SplitMix64(0).next_u64()
    g = SplitMix64(0)
    g.next_u64()
    assert derive_seed(0, 1) == g.next_u64()
    seeds = {derive_seed(42, i) for i in range(200)}
    assert len(seeds) == 200


def test_gen_pd_hermitian():
    for n in range(1, 7):
        for s in range(15):
            for bound in (1, 5, 1 << 40):
                m = gen_pd_hermitian(s, n, bound)
                assert m == gen_pd_hermitian_gaussrat(s, n, bound)
                assert is_pd(m)


def test_gen_psd_singular():
    for n in (2, 3, 4):
        for s in range(10):
            m = gen_psd_singular(s, n)
            assert m.det() == 0
            assert is_psd(m) and not is_pd(m)
    with pytest.raises(ValueError):
        gen_psd_singular(0, 1)


def test_gen_polytope_deterministic():
    p = gen_polytope(17, 3, 7, 4)
    q = gen_polytope(17, 3, 7, 4)
    assert p == q
    assert p.dim == 3


def test_gen_polytope_matches_the_fraction_cloud_oracle():
    for d in range(1, 5):
        for s in range(50):
            for bound in (1, 5, 1 << 40):
                for points in (1, d + 3):
                    p = gen_polytope(s, d, points, bound)
                    q = gen_polytope_fraction(s, d, points, bound)
                    assert p == q and hash(p) == hash(q)
                    assert volume(p) == volume(q)


def test_gen_polytope_rejects_empty_and_oversized_shapes():
    with pytest.raises(ValueError):
        gen_polytope(1, 0)
    with pytest.raises(ValueError):
        gen_polytope(1, 2, 0)
    with pytest.raises(SizeLimitError):
        gen_polytope(1, 5)


def test_named_generators():
    assert volume(box([2, 3, 4])) == 24
    assert volume(simplex(3)) == F(1, 6)
    assert volume(simplex(2, scale=3)) == F(9, 2)
    seg = segment((1, 2))
    assert seg.dim == 2 and volume(seg) == 0
    with pytest.raises(ValueError):
        zonotope([])


def test_zonotope_volume_matches_subset_determinants():
    rng = random.Random(401)
    for d, k in ((2, 3), (2, 4), (3, 4)):
        vecs = [tuple(F(rng.randint(-3, 3)) for _ in range(d)) for _ in range(k)]
        z = zonotope(vecs)
        want = sum(
            abs(real_det([list(v) for v in sub]))
            for sub in itertools.combinations(vecs, d)
        )
        assert volume(z) == want


def test_validate_config_rejections():
    good = RunConfig(mode="discriminant", n=3)
    validate_config(good)
    bad = [
        RunConfig(mode="nope"),
        RunConfig(trials=0),
        RunConfig(seed=-1),
        RunConfig(seed=1 << 64),
        RunConfig(entry_bound=0),
        RunConfig(entry_bound=1 << 63),
        RunConfig(entry_bound=10 ** 83),
        RunConfig(grid=2),
        RunConfig(tolerance=0.0),
        RunConfig(r=0),
        RunConfig(mode="bm", exact_only=True),
        RunConfig(mode="volume", n=5),
        RunConfig(mode="all", n=5),
        RunConfig(mode="discriminant", n=7),
        RunConfig(mode="discriminant", n=1),
        RunConfig(mode="discriminant", n=3, m=4),
        RunConfig(mode="bm", n=3, m=0),
    ]
    for cfg in bad:
        with pytest.raises(ValueError):
            validate_config(cfg)
    validate_config(RunConfig(mode="bm", n=3, m=1))
    validate_config(RunConfig(entry_bound=(1 << 63) - 1))


@pytest.mark.parametrize(
    "field, value",
    [
        ("m", 2.0),
        ("trials", True),
        ("trials", 2.5),
        ("seed", 1.5),
        ("n", 3.0),
        ("r", 2.0),
        ("grid", 11.0),
        ("entry_bound", 2.5),
        ("tolerance", "1e-9"),
        ("tolerance", True),
        ("exact_only", 1),
    ],
)
def test_wrong_typed_fields_raise_before_any_work(field, value):
    buf = io.StringIO()
    with pytest.raises(TypeError, match=f"^{field} must be"):
        run_suite(RunConfig(**{field: value}), buf)
    assert buf.getvalue() == ""


def run_to_lines(cfg, fixtures=None):
    buf = io.StringIO()
    record = run_suite(cfg, buf, fixtures)
    lines = buf.getvalue().splitlines()
    return record, lines


def test_run_suite_discriminant_records():
    cfg = RunConfig(seed=5, trials=6, n=3, mode="discriminant")
    record, lines = run_to_lines(cfg)
    assert isinstance(record, RunRecord)
    assert record.wall_time >= 0.0
    assert len(lines) == 7
    parsed = [json.loads(x) for x in lines]
    for i, obj in enumerate(parsed[:-1]):
        assert obj["type"] == "instance"
        assert obj["index"] == i
        assert obj["seed"] == derive_seed(5, i)
        assert obj["kind"] == ("proportional" if i % 3 == 2 else "generic")
        # at m = 2 the fold report must coincide with the pair report
        assert obj["mfold"] == obj["report"]
        if obj["kind"] == "proportional":
            assert obj["report"]["equality"] and obj["report"]["lambda"] is not None
        else:
            assert not obj["report"]["equality"]
    summary = parsed[-1]
    assert summary["type"] == "summary"
    assert summary["failures"] == 0 and summary["failed_indices"] == []
    assert summary["equalities"] == 2
    assert summary["min_gap"] == "0"
    assert summary["config"]["mode"] == "discriminant"


def test_run_suite_volume_homothety_certificates():
    cfg = RunConfig(seed=8, trials=3, n=2, mode="volume")
    record, lines = run_to_lines(cfg)
    assert record.summary["failures"] == 0
    prop = json.loads(lines[2])
    assert prop["kind"] == "proportional"
    assert prop["report"]["equality"]
    assert prop["report"]["lambda"] is not None


def test_run_suite_shephard_and_torus():
    cfg = RunConfig(seed=13, trials=4, n=3, r=2, mode="shephard")
    record, lines = run_to_lines(cfg)
    assert record.summary["failures"] == 0
    for obj in map(json.loads, lines[:-1]):
        assert obj["psd"] is True and obj["witness"] is None
        assert obj["identity"] is True
        assert "r2" in obj

    cfg = RunConfig(seed=13, trials=4, n=3, mode="torus", m=3)
    record, lines = run_to_lines(cfg)
    assert record.summary["failures"] == 0
    for i, obj in enumerate(map(json.loads, lines[:-1])):
        flag = obj["kind"] == "proportional"
        assert obj["pair"]["matrices_proportional"] is flag
        assert obj["pair"]["adjugates_proportional"] is flag
        assert obj["mfold"]["adjugates_proportional"] is flag
        assert len(obj["kt"]) == 4


def test_run_suite_bm_within_tolerance():
    cfg = RunConfig(seed=21, trials=6, n=3, m=2, mode="bm")
    record, lines = run_to_lines(cfg)
    assert record.summary["failures"] == 0
    for obj in map(json.loads, lines[:-1]):
        assert obj["within_tolerance"] is True
        assert obj["max_violation"] <= 1e-9


def test_run_suite_all_mode_and_exact_only():
    cfg = RunConfig(seed=2, trials=2, n=3, mode="all")
    record, lines = run_to_lines(cfg)
    assert len(lines) == 2 * 5 + 1
    modes = [json.loads(x)["mode"] for x in lines[:-1]]
    assert modes[:5] == ["discriminant", "volume", "shephard", "torus", "bm"]

    cfg = RunConfig(seed=2, trials=2, n=3, mode="all", exact_only=True)
    record, lines = run_to_lines(cfg)
    assert len(lines) == 2 * 4 + 1
    assert all(json.loads(x)["mode"] != "bm" for x in lines[:-1])


def test_run_suite_byte_determinism():
    for mode in ("discriminant", "torus"):
        cfg = RunConfig(seed=33, trials=5, n=3, mode=mode)
        buf1, buf2 = io.StringIO(), io.StringIO()
        run_suite(cfg, buf1)
        run_suite(cfg, buf2)
        assert buf1.getvalue() == buf2.getvalue()


def test_load_fixtures_and_fixture_run(tmp_path):
    rng = random.Random(409)
    t = MatTuple([rand_pd(rng, 3) for _ in range(3)])
    path = tmp_path / "tuple.json"
    path.write_text(json.dumps([tuple_to_json(t), tuple_to_json(t)]))
    fixtures = load_fixtures(str(path), "discriminant")
    assert len(fixtures) == 2
    record, lines = run_to_lines(RunConfig(mode="discriminant", n=3), fixtures)
    assert record.summary["failures"] == 0
    first = json.loads(lines[0])
    assert first["source"] == "fixture"
    assert "seed" not in first

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(gram_to_json(GramTable([[100, 3], [3, 1]]))))
    fixtures = load_fixtures(str(bad), "shephard")
    record, lines = run_to_lines(RunConfig(mode="shephard", n=3, r=1), fixtures)
    assert record.summary["failures"] == 1
    obj = json.loads(lines[0])
    assert obj["psd"] is False
    assert obj["witness"] == [1, "-91"]


def test_load_fixtures_rejections(tmp_path):
    path = tmp_path / "f.json"
    path.write_text("{not json")
    with pytest.raises(FormatError):
        load_fixtures(str(path), "shephard")
    path.write_text("[]")
    with pytest.raises(FormatError):
        load_fixtures(str(path), "shephard")
    path.write_text("{}")
    with pytest.raises(ValueError):
        load_fixtures(str(path), "all")
    with pytest.raises(ValueError):
        load_fixtures(str(path), "bm")


def test_fixture_nested_past_the_recursion_limit_is_a_format_error(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000 + "]" * 200_000)
    with pytest.raises(FormatError):
        load_fixtures(str(path), "shephard")


@needs_digit_limit
@pytest.mark.parametrize("literal", ["json integer", "string"])
def test_fixture_number_past_the_digit_limit_is_a_format_error(tmp_path, literal):
    big = "7" * (DIGIT_LIMIT + 1)
    entry = big if literal == "json integer" else f'"{big}"'
    path = tmp_path / "big.json"
    path.write_text(f'{{"r": 1, "d": [[{entry}, "0"], ["0", "1"]]}}')
    with pytest.raises(FormatError) as exc:
        load_fixtures(str(path), "shephard")
    assert len(str(exc.value)) < 200


@needs_digit_limit
def test_output_past_the_digit_limit_is_recorded_per_instance(tmp_path):
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(shephard_table_past_the_digit_limit()))
    fixtures = load_fixtures(str(path), "shephard")
    record, lines = run_to_lines(RunConfig(mode="shephard", n=3), fixtures)
    assert record.summary["failed_indices"] == [0]
    obj = json.loads(lines[0])
    # the record carries no partial verdict, only its identity and the error
    assert sorted(obj) == ["error", "index", "mode", "source", "type"]
    assert obj["error"].startswith("SizeLimitError: ")


def test_summary_matches_dumped_lines():
    cfg = RunConfig(seed=3, trials=3, n=2, mode="discriminant")
    record, lines = run_to_lines(cfg)
    assert json.loads(lines[-1]) == json.loads(dumps_canonical(record.summary))


def test_kernel_arithmetic_error_is_recorded_per_instance(monkeypatch):
    # a non-exact kernel division at one index used to abort the whole run
    generate, real, parse = harness._MODE_TABLE["discriminant"]

    def verify(cfg, items, record, fold):
        if record["index"] == 1:
            raise ArithmeticError("non-exact division in a fraction-free elimination step")
        return real(cfg, items, record, fold)

    monkeypatch.setitem(harness._MODE_TABLE, "discriminant", (generate, verify, parse))
    cfg = RunConfig(seed=46, trials=3, n=2, mode="discriminant")
    result = run_suite(cfg, io.StringIO())
    assert [r["index"] for r in result.records] == [0, 1, 2]
    assert result.records[1]["error"] == (
        "InvariantViolationError: non-exact division in a fraction-free elimination step"
    )
    assert "error" not in result.records[0] and "error" not in result.records[2]
    assert result.summary["failed_indices"] == [1]


def test_error_record_drops_fields_written_before_the_raise(monkeypatch):
    generate, real, parse = harness._MODE_TABLE["discriminant"]

    def verify(cfg, items, record, fold):
        out = real(cfg, items, record, fold)
        if record["index"] == 1:
            raise ArithmeticError("non-exact division in a fraction-free elimination step")
        return out

    monkeypatch.setitem(harness._MODE_TABLE, "discriminant", (generate, verify, parse))
    result = run_suite(RunConfig(seed=46, trials=3, n=2, mode="discriminant"), io.StringIO())
    assert sorted(result.records[1]) == ["error", "index", "kind", "mode", "seed", "type"]
    assert "report" in result.records[0] and "report" in result.records[2]


def cli_lines(argv, capsys):
    """The parsed JSONL lines of a CLI run, and its exit code."""
    code = main(argv)
    return [json.loads(line) for line in capsys.readouterr().out.splitlines()], code


FIXTURE_JSON = {
    "discriminant": tuple_to_json,
    "volume": body_tuple_to_json,
    "shephard": gram_to_json,
    "torus": tuple_to_json,
}


@pytest.mark.parametrize("mode", list(FIXTURE_JSON))
@pytest.mark.parametrize("m", [2, 3])
def test_fixture_records_match_generated_records(monkeypatch, capsys, tmp_path, mode, m):
    # the generated items, written to a fixture file, give the same
    # verdicts; only generated records carry seed, kind and the fold
    generate, verify, parse = harness._MODE_TABLE[mode]
    drawn = []

    def recording(cfg, rng, kind):
        drawn.append(generate(cfg, rng, kind))
        return drawn[-1]

    monkeypatch.setitem(harness._MODE_TABLE, mode, (recording, verify, parse))
    argv = ["--mode", mode, "--n", "3", "--r", "2", "--m", str(m), "--trials", "3"]
    generated, code = cli_lines(argv, capsys)
    assert code == 0
    assert [r["kind"] for r in generated[:-1]] == ["generic", "generic", "proportional"]
    path = tmp_path / f"{mode}.json"
    path.write_text(json.dumps([FIXTURE_JSON[mode](items) for items in drawn]))
    fixture, code = cli_lines(argv + ["--in", str(path)], capsys)
    assert code == 0
    assert fixture[-1] == generated[-1]
    for got, record in zip(fixture[:-1], generated[:-1], strict=True):
        assert ("mfold" in record) is (mode != "shephard")
        expected = {k: v for k, v in record.items() if k not in ("seed", "kind", "mfold")}
        assert got == {**expected, "source": "fixture"}


def test_config_json_lists_every_field():
    cfg = RunConfig(seed=7, trials=2, n=4, r=3, m=3, mode="bm", tolerance=1e-6,
                    entry_bound=9, grid=5, exact_only=False)
    assert harness.config_to_json(cfg) == {
        "seed": 7, "trials": 2, "n": 4, "r": 3, "m": 3, "mode": "bm",
        "tolerance": 1e-6, "entry_bound": 9, "grid": 5, "exact_only": False,
    }


PAIR_CHECKS = {
    "discriminant": "af_gap_discriminant",
    "volume": "af_gap_volume",
    "torus": "equality_theorem_pair",
}


def spy_on_pairs(monkeypatch, mode):
    """Patch the runner's pair check for mode to record its items."""
    name = PAIR_CHECKS[mode]
    seen = []
    real = getattr(harness, name)

    def spy(first, second, rest):
        seen.append([first, second, *rest])
        return real(first, second, rest)

    monkeypatch.setattr(harness, name, spy)
    return seen


def fresh_fold(mode, items, m):
    if mode == "discriminant":
        return gap_report_to_json(af_m_fold_discriminant(MatTuple(items), m))
    if mode == "volume":
        return gap_report_to_json(af_m_fold_volume(BodyTuple(items), m))
    fold = equality_theorem_m(items, m)
    return {
        "report": gap_report_to_json(fold.report),
        "adjugates_proportional": fold.adjugates_proportional,
    }


# matrix seeds whose proportional instance 2 draws lambda = 1, so two
# leading items are equal; a drawn homothety L = lam K + t is another body
@pytest.mark.parametrize("mode, n, seed, equal_lead", [
    pytest.param("discriminant", 4, 7, True, id="discriminant-7"),
    pytest.param("torus", 4, 4, True, id="torus-4"),
    pytest.param("volume", 3, 0, False, id="volume-0"),
])
@pytest.mark.parametrize("m", [2, 3])
def test_mfold_record_matches_a_fresh_fold(monkeypatch, mode, n, seed, equal_lead, m):
    # at m = 2 the runner reuses its pair verdict as the fold; at m = 3 it must not
    seen = spy_on_pairs(monkeypatch, mode)
    run = run_suite(RunConfig(mode=mode, n=n, m=m, trials=6, seed=seed))
    assert run.summary["failures"] == 0
    assert len(seen) == len(run.records) == 6
    for record, items in zip(run.records, seen):
        assert record["mfold"] == fresh_fold(mode, items, m)
    kinds = [r["kind"] for r in run.records]
    assert kinds.count("generic") == 4 and kinds.count("proportional") == 2
    assert (seen[2][0] == seen[2][1]) is equal_lead


def test_m2_instance_runs_the_adjugate_sweep_twice(monkeypatch):
    # the pair theorem builds W(g1, rest) and W(g2, rest); at m = 2 the
    # fold record is that verdict, so no adjugate is built again
    calls = []
    sweep = mixdisc.mixed_adjugate_sum

    def counted(mats):
        calls.append(1)
        return sweep(mats)

    monkeypatch.setattr(mixdisc, "mixed_adjugate_sum", counted)
    run = run_suite(RunConfig(mode="torus", n=4, m=2, trials=1))
    assert run.summary["failures"] == 0
    assert len(calls) == 2


def test_m2_volume_instance_takes_its_fold_from_the_pair(monkeypatch):
    # three mixed volumes per instance, those of the pair check; the fold
    # asks for none. V(K, K, M) and V(L, L, M) lead with M and read the
    # facet measures of K and L, so only V(K, L, M) builds an area measure
    calls = []
    real = ineqcheck.mixed_volume

    def counted(t, *args):
        calls.append(1)
        return real(t, *args)

    monkeypatch.setattr(ineqcheck, "mixed_volume", counted)
    convexvol._rest_area.cache_clear()
    run = run_suite(RunConfig(mode="volume", n=3, trials=3, seed=0))
    assert run.summary["failures"] == 0
    info = convexvol._rest_area.cache_info()
    assert (len(calls), info.misses, info.hits) == (9, 3, 0)


@pytest.mark.parametrize("n, m, trials, misses, hits", [
    # one area measure per instance, V(K, L, M)'s; the m = 3 fold hits it
    # for V(items)
    (3, 3, 3, 3, 3),
    # all three pair values at d = 4 have a rest of two distinct bodies
    (4, 2, 2, 6, 0),
    (4, 3, 2, 6, 2),
])
def test_volume_instance_traffic_on_the_rest_sum_cache(n, m, trials, misses, hits):
    # the rest-area cache; the name predates it and keeps the test ids
    convexvol._rest_area.cache_clear()
    run = run_suite(RunConfig(mode="volume", n=n, m=m, trials=trials, seed=0))
    assert run.summary["failures"] == 0
    info = convexvol._rest_area.cache_info()
    assert (info.misses, info.hits) == (misses, hits)


@pytest.mark.parametrize("n, rests, leads", [
    pytest.param(6, 9, 21, id="6-9"), pytest.param(5, 9, 21, id="5-9"),
])
def test_torus_instance_builds_only_its_fold_rests(n, rests, leads):
    # the m = 3 fold reads three rests, g_i + tail for i < 3, the pair's
    # among them; the KT values come from determinants and build no
    # layer, so each of the three instances builds three. Its values and
    # adjugates W(g_i, g_j, tail) lead with 6 distinct (rest, g_i), and
    # with the 3 rests they outrun the 8-entry memo by one, so one
    # adjugate is built twice: 7 lead builds per instance
    with layer_builds() as builds:
        run = run_suite(RunConfig(mode="torus", n=n, m=3, trials=3, seed=0))
        assert builds() == (rests, leads)
    assert run.summary["failures"] == 0


def test_torus_instance_determinant_and_psd_calls():
    # counted through every binding by the benchmark's tracer: the KT
    # pencil's p(1), ..., p(4) are Hermitian determinants that never
    # hand over, and each TorusClass reads its flags off the
    # characteristic polynomial, not off principal minor sums
    tr = bench_module("tracer").Tracer()
    tr.install()
    try:
        run = run_suite(RunConfig(mode="torus", n=5, trials=3, seed=0))
    finally:
        tr.restore()
    assert run.summary["failures"] == 0
    calls = {name: stats["calls"] for name, stats in tr.summary().items()}
    names = ("kernels.hermitian_det", "kernels.gauss_det", "matrixcore.principal_minor_sums")
    assert [calls.get(name, 0) / 3 for name in names] == [4, 0, 0]


@pytest.mark.parametrize("mode, extra, calls", [
    ("discriminant", {}, 0), ("shephard", {"r": 3}, 1), ("bm", {}, 0), ("torus", {}, 0),
])
def test_principal_minor_sums_calls_per_instance(mode, extra, calls):
    # counted through every binding by the benchmark's tracer: every
    # positivity test compares matrixcore's integer minor sums with 0,
    # and only the Shephard witness builds their Fractions, once
    tr = bench_module("tracer").Tracer()
    tr.install()
    try:
        run = run_suite(RunConfig(mode=mode, n=6, trials=3, seed=0, **extra))
    finally:
        tr.restore()
    assert run.summary["failures"] == 0
    stats = tr.summary().get("matrixcore.principal_minor_sums", {"calls": 0})
    assert stats["calls"] / 3 == calls


# Rest-layer builds over three instances (seed 0), pinned at one build
# per distinct rest of each instance: adjugate grids share the memo
# with the rests, and too small a memo would evict a rest that a later value
# of the same instance reads (at 4 entries, torus n = 5, m = 3 rebuilt
# 21 rests of these 9). Lead builds, one per first grid over each rest,
# are pinned beside them. The torus fold reads its adjugates rest by
# rest, all leads of one rest in a run, so at m = 4 fewer of its rests
# are evicted before their last lead.
@pytest.mark.parametrize("mode, n, extra, rests, leads", [
    ("torus", 5, {"m": 3}, 9, 21),
    ("torus", 6, {"m": 4}, 36, 64),
    ("discriminant", 6, {"m": 3}, 9, 15),
    ("discriminant", 6, {"m": 4}, 15, 18),
    ("bm", 6, {"m": 3}, 6, 9),
    ("shephard", 6, {"r": 5}, 3, 18),
])
def test_rest_layer_builds_hold_per_mode(mode, n, extra, rests, leads):
    with layer_builds() as builds:
        run = run_suite(RunConfig(mode=mode, n=n, trials=3, seed=0, **extra))
        assert builds() == (rests, leads)
    assert run.summary["failures"] == 0


def test_volume_hull_work_holds(monkeypatch):
    # the last Minkowski sum of each area measure is hulled for its
    # normals only, and a two-point face takes no hull: both counted
    # through the `convexvol` bindings, recursive calls included, from a
    # cleared rest-area cache. Reading the last sum's extreme points and
    # measures again gives (354, 72).
    counts = dict.fromkeys(("int_det", "_hull_shape"), 0)
    for name in counts:
        def counted(*args, real=getattr(convexvol, name), name=name):
            counts[name] += 1
            return real(*args)

        monkeypatch.setattr(convexvol, name, counted)
    convexvol._rest_area.cache_clear()
    run = run_suite(RunConfig(mode="volume", n=3, trials=3, seed=0))
    assert run.summary["failures"] == 0
    assert (counts["int_det"], counts["_hull_shape"]) == (190, 39)


@pytest.mark.parametrize("n, adds, dots", [(3, 34, 2500), (4, 1315, 66973)])
def test_volume_rank_tests_and_dots_hold(monkeypatch, n, adds, dots):
    # the points of a one-simplex facet are vertices without a rank test,
    # and each area measure reads its faces off the last sum's facet
    # groups without scanning the rest: `_IntEchelon.add` and `_dot`
    # counted through the `convexvol` bindings from a cleared rest-area
    # cache. Ranking every listed point and scanning every face gives
    # (169, 3216) at n = 3 and (3450, 81935) at n = 4.
    counts = {"add": 0, "_dot": 0}

    def counted(owner, name):
        def call(*args, real=getattr(owner, name)):
            counts[name] += 1
            return real(*args)

        monkeypatch.setattr(owner, name, call)

    counted(convexvol._IntEchelon, "add")
    counted(convexvol, "_dot")
    convexvol._rest_area.cache_clear()
    run = run_suite(RunConfig(mode="volume", n=n, trials=3, seed=0))
    assert run.summary["failures"] == 0
    assert (counts["add"], counts["_dot"]) == (adds, dots)


@pytest.mark.parametrize("mode, n, ratio", [
    ("discriminant", 3, "proportional"),
    ("volume", 2, "homothety_ratio"),
    ("torus", 2, "proportional"),
])
def test_a_ratio_test_that_accepts_every_pair_fails_the_generic_instances(monkeypatch, mode, n, ratio):
    # every redraw of the generic second item would be proportional again:
    # the bounded redraw fails those instances and the run finishes
    monkeypatch.setattr(harness, ratio, lambda a, b: Fraction(1))
    run = run_suite(RunConfig(mode=mode, n=n, trials=3, seed=0), io.StringIO())
    assert run.summary["failed_indices"] == [0, 1]
    for record in run.records[:2]:
        assert record["kind"] == "generic"
        assert record["error"] == (
            f"InvariantViolationError: {harness._MAX_DRAWS} generic draws were all "
            "proportional to the first item"
        )
    assert run.records[2]["kind"] == "proportional" and "error" not in run.records[2]
