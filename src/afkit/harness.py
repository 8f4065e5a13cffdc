"""Seeded instance generation and the batch verification suite.

Every instance is a pure function of (config, instance index): the
index derives a child seed, the child seed drives a SplitMix64 stream,
and the stream fully determines the generated matrices or bodies.
Each mode has a generator, which draws an instance's items from its
stream, and a verifier, which checks items and writes the record;
fixture items skip the generator and go through the same verifier.
`run_suite` verifies the instances one after another in index order,
and the JSONL output is byte-identical for identical configs.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, fields
from fractions import Fraction

from . import jsonio
from .convexvol import (
    MAX_DIMENSION,
    BodyTuple,
    Polytope,
    dilate,
    translate,
)
from .errors import AfkitError, FormatError, InvariantViolationError, SizeLimitError
from .ineqcheck import (
    af_gap_discriminant,
    af_gap_volume,
    af_m_fold_discriminant,
    af_m_fold_volume,
    bm_concavity_discriminant,
    homothety_ratio,
)
from .matrixcore import GenMat, HermMat, proportional
from .mixdisc import PERMUTATION_ROUTE_MAX_N, MatTuple
from .rationals import format_rat
from .shephard import (
    check_psd_shephard,
    det_identity_check,
    gram_from_discriminants,
    r2_inequality,
)
from .toruskahler import TorusClass, equality_theorem_m, equality_theorem_pair, kt_sequence

MODES = ("discriminant", "volume", "shephard", "torus", "bm", "all")
EXACT_MODES = ("discriminant", "volume", "shephard", "torus")

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_ENTRY_BOUND_MAX = (1 << 63) - 1


class SplitMix64:
    """Deterministic 64-bit generator with a frozen algorithm.

    Reproducibility across releases is part of the contract, so the
    exact update rule (SplitMix64) is pinned here instead of delegating
    to the standard library: state advances by the golden-ratio
    constant and each output is a finalizer of the new state.
    """

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + _GOLDEN) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def int_between(self, lo: int, hi: int) -> int:
        # modulo bias is immaterial at our tiny ranges; determinism is
        # the requirement, not statistical perfection
        return lo + self.next_u64() % (hi - lo + 1)


def derive_seed(seed: int, index: int) -> int:
    """Child seed for instance `index`: the (index+1)-th output of the
    parent stream. SplitMix64's counter state makes the jump O(1)."""
    g = SplitMix64(seed)
    g.state = (g.state + index * _GOLDEN) & _MASK64
    return g.next_u64()


def gen_pd_hermitian(seed: int, n: int, entry_bound: int = 5) -> HermMat:
    """G G* + I for a random Gaussian-integer G: always positive definite."""
    rng = SplitMix64(seed)
    b = entry_bound
    # row-major draws, the real part before the imaginary part
    grid = tuple(
        tuple((rng.int_between(-b, b), rng.int_between(-b, b)) for _ in range(n))
        for _ in range(n)
    )
    return HermMat.from_gram(GenMat._of_grid(grid, 1)) + HermMat.identity(n)


# lcm(1, 2, 3): every drawn coordinate p/q, 1 <= q <= 3, lies on this grid
_POLYTOPE_DEN = 6


def gen_polytope(seed: int, d: int, points: int = 6, coord_bound: int = 5) -> Polytope:
    """Hull of `points` random rational points in dimension d."""
    if points < 1 or d < 1:
        raise ValueError("a polytope needs at least one point and one coordinate")
    if d > MAX_DIMENSION:
        raise SizeLimitError(f"dimension {d} exceeds the supported maximum {MAX_DIMENSION}")
    rng = SplitMix64(seed)
    b = coord_bound
    # per coordinate, the numerator is drawn before the denominator
    cloud = {
        tuple(rng.int_between(-b, b) * (_POLYTOPE_DEN // rng.int_between(1, 3)) for _ in range(d))
        for _ in range(points)
    }
    return Polytope._of_grid(cloud, _POLYTOPE_DEN, d)


@dataclass(frozen=True)
class RunConfig:
    """Full description of a verification run; identical configs must
    reproduce byte-identical JSONL output."""

    seed: int = 0
    trials: int = 1
    n: int = 3
    r: int = 2
    m: int = 2
    mode: str = "discriminant"
    tolerance: float = 1e-9
    entry_bound: int = 5
    grid: int = 11
    exact_only: bool = False


@dataclass(frozen=True)
class RunRecord:
    """Outcome of one suite run: config echo, per-instance records,
    aggregate summary, and the wall time (reported out of band)."""

    config: RunConfig
    records: tuple
    summary: dict
    wall_time: float


def validate_config(cfg: RunConfig) -> None:
    """Reject bad configs before any work happens: a field of the wrong type
    (a bool only for the flag) with TypeError, a bad value with ValueError."""
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        kind = {"int": int, "float": (int, float), "bool": bool}.get(f.type)
        if kind and (not isinstance(value, kind) or isinstance(value, bool) != (f.type == "bool")):
            raise TypeError(f"{f.name} must be {f.type}, got {type(value).__name__}")
    if cfg.mode not in MODES:
        raise ValueError(f"unknown mode {cfg.mode!r}; choose from {', '.join(MODES)}")
    if cfg.trials < 1:
        raise ValueError("trials must be at least 1")
    if not 0 <= cfg.seed < 1 << 64:
        raise ValueError("seed must be a 64-bit nonnegative integer")
    if cfg.entry_bound < 1:
        raise ValueError("entry bound must be at least 1")
    if cfg.entry_bound > _ENTRY_BOUND_MAX:
        # int_between draws one 64-bit word, so the span 2 bound + 1 of
        # [-bound, bound] must not exceed 2^64
        raise ValueError(f"entry bound must be at most {_ENTRY_BOUND_MAX}")
    if cfg.grid < 3:
        raise ValueError("grid size must be at least 3")
    if not cfg.tolerance > 0:
        raise ValueError("tolerance must be positive")
    if not math.isfinite(cfg.tolerance):
        # an infinite tolerance would reach the summary line, which
        # strict JSON cannot encode
        raise ValueError("tolerance must be finite")
    if cfg.r < 1:
        raise ValueError("r must be at least 1")
    if cfg.exact_only and cfg.mode == "bm":
        raise ValueError("mode bm samples floating-point roots; drop --exact-only")
    ceiling = MAX_DIMENSION if cfg.mode in ("volume", "all") else PERMUTATION_ROUTE_MAX_N
    if not 2 <= cfg.n <= ceiling:
        raise ValueError(f"mode {cfg.mode} needs n in [2, {ceiling}], got {cfg.n}")
    lo = 1 if cfg.mode == "bm" else 2
    if not lo <= cfg.m <= cfg.n:
        raise ValueError(f"mode {cfg.mode} needs m in [{lo}, {cfg.n}], got {cfg.m}")


def config_to_json(cfg: RunConfig) -> dict:
    return asdict(cfg)


def _instance_modes(cfg: RunConfig):
    if cfg.mode != "all":
        return (cfg.mode,)
    if cfg.exact_only:
        return EXACT_MODES
    return EXACT_MODES + ("bm",)


def _rand_scale(rng: SplitMix64) -> Fraction:
    return Fraction(rng.int_between(1, 6), rng.int_between(1, 3))


# A random generic item is almost never proportional to the first, so
# this many proportional draws in a row mean the ratio test accepts
# every pair: the instance fails instead of the run spinning.
_MAX_DRAWS = 64


def _generic(draw, ratio, first):
    """The first of up to _MAX_DRAWS draws for which ratio(first, item) is None."""
    for _ in range(_MAX_DRAWS):
        item = draw()
        if ratio(first, item) is None:
            return item
    raise InvariantViolationError(f"{_MAX_DRAWS} generic draws were all proportional to the first item")


def _gen_discriminant(cfg, rng, kind):
    n = cfg.n
    a = gen_pd_hermitian(rng.next_u64(), n, cfg.entry_bound)
    rest = [gen_pd_hermitian(rng.next_u64(), n, cfg.entry_bound) for _ in range(n - 2)]
    if kind == "proportional":
        b = a.scale(_rand_scale(rng))
    else:
        b = _generic(lambda: gen_pd_hermitian(rng.next_u64(), n, cfg.entry_bound), proportional, a)
    return MatTuple([a, b] + rest)


def _gen_volume(cfg, rng, kind):
    d = cfg.n
    count = d + 3
    k = gen_polytope(rng.next_u64(), d, count, cfg.entry_bound)
    rest = [gen_polytope(rng.next_u64(), d, count, cfg.entry_bound) for _ in range(d - 2)]
    if kind == "proportional":
        shift = tuple(Fraction(rng.int_between(-cfg.entry_bound, cfg.entry_bound)) for _ in range(d))
        l = translate(dilate(k, _rand_scale(rng)), shift)
    else:
        l = _generic(lambda: gen_polytope(rng.next_u64(), d, count, cfg.entry_bound), homothety_ratio, k)
    return BodyTuple([k, l] + rest)


def _verify_gap(cfg, t, record, fold):
    """Pair and m-fold AF gaps of a matrix tuple or of a body tuple."""
    if isinstance(t, MatTuple):
        items, pair_check, fold_check = t.mats, af_gap_discriminant, af_m_fold_discriminant
    else:
        items, pair_check, fold_check = t.bodies, af_gap_volume, af_m_fold_volume
    pair = pair_check(items[0], items[1], list(items[2:]))
    record["report"] = jsonio.gap_report_to_json(pair)
    if fold:
        # the m = 2 fold is the pair check on the same items
        record["mfold"] = jsonio.gap_report_to_json(pair if cfg.m == 2 else fold_check(t, cfg.m))
    return pair.gap, pair.equality, True


def _gen_shephard(cfg, rng, kind):
    n = cfg.n
    classes = [gen_pd_hermitian(rng.next_u64(), n, cfg.entry_bound) for _ in range(cfg.r + 1)]
    if kind == "proportional":
        classes[1] = classes[0].scale(_rand_scale(rng))
    rest = [gen_pd_hermitian(rng.next_u64(), n, cfg.entry_bound) for _ in range(n - 2)]
    return gram_from_discriminants(classes, rest)


def _verify_shephard(cfg, g, record, fold):
    ok, witness = check_psd_shephard(g)
    ident = det_identity_check(g)
    record["psd"] = ok
    record["witness"] = None if witness is None else [witness[0], format_rat(witness[1])]
    record["identity"] = ident
    if ok and g.r == 2:
        rep = r2_inequality(g)
        record["r2"] = jsonio.gap_report_to_json(rep)
        return rep.gap, rep.equality, ident
    return None, False, ok and ident


def _gen_torus(cfg, rng, kind):
    n = cfg.n
    g1 = gen_pd_hermitian(rng.next_u64(), n, cfg.entry_bound)
    if kind == "proportional":
        # scale the whole leading m-block so the fold verdict hits equality too
        lead = [g1.scale(_rand_scale(rng)) for _ in range(cfg.m - 1)]
        tail = [gen_pd_hermitian(rng.next_u64(), n, cfg.entry_bound) for _ in range(n - cfg.m)]
    else:
        g2 = _generic(lambda: gen_pd_hermitian(rng.next_u64(), n, cfg.entry_bound), proportional, g1)
        lead = [g2]
        tail = [gen_pd_hermitian(rng.next_u64(), n, cfg.entry_bound) for _ in range(n - 2)]
    return MatTuple([g1] + lead + tail)


def _verify_torus(cfg, t, record, fold):
    classes = [TorusClass(mat) for mat in t.mats]
    g1, g2, *rest = classes
    pair = equality_theorem_pair(g1, g2, rest)
    record["report"] = jsonio.gap_report_to_json(pair.report)
    record["pair"] = {
        "adjugates_proportional": pair.adjugates_proportional,
        "matrices_proportional": pair.matrices_proportional,
    }
    if fold:
        # the m = 2 fold is the pair theorem on the same classes
        rep = pair if cfg.m == 2 else equality_theorem_m(classes, cfg.m)
        record["mfold"] = {
            "report": jsonio.gap_report_to_json(rep.report),
            "adjugates_proportional": rep.adjugates_proportional,
        }
    # the KT values come from determinants alone and read no rest layer
    record["kt"] = [format_rat(x) for x in kt_sequence(g1, g2)]
    return pair.report.gap, pair.report.equality, True


def _gen_bm(cfg, rng, kind):
    n = cfg.n
    a0 = gen_pd_hermitian(rng.next_u64(), n, cfg.entry_bound)
    if kind == "proportional":
        a1 = a0.scale(_rand_scale(rng))
    else:
        a1 = gen_pd_hermitian(rng.next_u64(), n, cfg.entry_bound)
    rest = [gen_pd_hermitian(rng.next_u64(), n, cfg.entry_bound) for _ in range(n - cfg.m)]
    return [a0, a1] + rest


def _verify_bm(cfg, mats, record, fold):
    a0, a1, *rest = mats
    rep = bm_concavity_discriminant(a0, a1, rest, cfg.m, cfg.grid)
    ok = rep.max_violation <= cfg.tolerance
    record["max_violation"] = rep.max_violation
    record["within_tolerance"] = ok
    return None, False, ok


# mode -> (generator, verifier, fixture parser). A generator draws one
# instance's items from its stream; a verifier checks items, generated or
# from a fixture, and fills the record, with the m-fold verdict only when
# `fold` is set, as it is for generated instances. The parser names a
# jsonio function, None where a mode takes no fixtures. Generators and
# verifiers call library functions through this module's globals, so a
# rebinding of those names reaches them.
_MODE_TABLE = {
    "discriminant": (_gen_discriminant, _verify_gap, "tuple_from_json"),
    "volume": (_gen_volume, _verify_gap, "body_tuple_from_json"),
    "shephard": (_gen_shephard, _verify_shephard, "gram_from_json"),
    "torus": (_gen_torus, _verify_torus, "tuple_from_json"),
    "bm": (_gen_bm, _verify_bm, None),
}

_IDENTITY_FIELDS = ("type", "mode", "index", "seed", "kind", "source")


def _worker(cfg, mode, index, fixture):
    record = {"type": "instance", "mode": mode, "index": index}
    generate, verify, _ = _MODE_TABLE[mode]
    try:
        if fixture is None:
            seed = derive_seed(cfg.seed, index)
            record["seed"] = seed
            record["kind"] = "proportional" if index % 3 == 2 else "generic"
            items = generate(cfg, SplitMix64(seed), record["kind"])
        else:
            record["source"] = "fixture"
            items = fixture
        gap, equality, ok = verify(cfg, items, record, fixture is None)
    except (AfkitError, ArithmeticError) as exc:
        # a non-exact kernel division breaks an invariant of this instance only
        name = type(exc).__name__ if isinstance(exc, AfkitError) else "InvariantViolationError"
        # an error record carries no partial verdict: only who it is and what went wrong
        record = {k: record[k] for k in _IDENTITY_FIELDS if k in record}
        record["error"] = f"{name}: {exc}"
        return record, True, None, False
    return record, not ok, gap, equality


def _fixture_parser(mode):
    name = _MODE_TABLE[mode][2] if mode in _MODE_TABLE else None
    if name is None:
        raise ValueError(f"fixtures are not supported for mode {mode!r}")
    return getattr(jsonio, name)


def load_fixtures(path, mode: str):
    """Parse a fixture file into typed instances for the given mode.

    The file holds one JSON object (a single instance) or an array of
    objects. Structural problems raise FormatError here, before any
    verification work; semantic failures surface per instance later.
    Matrix and body tuples of dimension below 2 are structural problems:
    every pair check reads two slots.
    """
    parse = _fixture_parser(mode)
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"fixture file is not valid JSON: {exc}") from None
    except ValueError:
        # the decoder's one other ValueError: Python's int/str digit limit
        raise FormatError("fixture file holds an integer past the integer digit limit") from None
    except RecursionError:
        raise FormatError("fixture file nests JSON too deeply to parse") from None
    items = data if isinstance(data, list) else [data]
    if not items:
        raise FormatError("fixture file holds no instances")
    parsed = []
    for item in items:
        obj = parse(item)
        # matrix tuples carry n, body tuples dim; a Gram table has two classes at least
        size = getattr(obj, "n", getattr(obj, "dim", 2))
        if size < 2:
            raise FormatError(f"mode {mode} needs fixtures of dimension at least 2, got {size}")
        parsed.append(obj)
    return parsed


def run_suite(cfg: RunConfig, out=None, fixtures=None) -> RunRecord:
    """Verify `trials` instances (or the fixtures) under cfg.

    Writes one canonical JSON line per instance plus a trailing summary
    line to `out` when given. Instances run one after another in index
    order, so identical configs give byte-identical output.
    """
    validate_config(cfg)
    start = time.monotonic()
    if fixtures is not None:
        _fixture_parser(cfg.mode)  # raises for the modes that take no fixtures
        results = [_worker(cfg, cfg.mode, i, obj) for i, obj in enumerate(fixtures)]
    else:
        modes = _instance_modes(cfg) * cfg.trials
        results = [_worker(cfg, mode, i, None) for i, mode in enumerate(modes)]
    records = [record for record, _, _, _ in results]
    failed_indices = [record["index"] for record, failed, _, _ in results if failed]
    gaps = [gap for _, _, gap, _ in results if gap is not None]
    summary = {
        "type": "summary",
        "config": config_to_json(cfg),
        "instances": len(records),
        "failures": len(failed_indices),
        "failed_indices": failed_indices,
        "equalities": sum(1 for _, _, _, equality in results if equality),
        "min_gap": format_rat(min(gaps)) if gaps else None,
    }
    wall = time.monotonic() - start
    if out is not None:
        for record in records:
            out.write(jsonio.dumps_canonical(record) + "\n")
        out.write(jsonio.dumps_canonical(summary) + "\n")
    return RunRecord(cfg, tuple(records), summary, wall)
