"""Workload definitions for the afkit benchmark.

A workload is a sequence of batches. Batch k is one call of
`afkit.harness.run_suite` with `trials=3` under the seed
`derive_seed(workload_seed, k)`, so every batch holds two generic
instances and one proportional instance. The program sees only the
resulting `RunConfig`. This module does not import afkit: the parent
process that spawns the workload child must stay independent of it.
"""

TRIALS = 3

# The golden prefix: batches 0..GOLDEN_BATCHES-1 of workload seed
# GOLDEN_SEED, whose concatenated JSONL stream is pinned in digests.json.
# Three batches cover one full mode rotation of matrix-mix-n6.
GOLDEN_SEED = 0
GOLDEN_BATCHES = 3

# Every run measures at least this many batches, so that a traced run
# of matrix-mix-n6 meets each of its three modes.
MIN_BATCHES = 3

# batch_tail_s is this nearest-rank percentile of a run's batch times.
# It is fixed per workload, so that a faster or slower library is
# measured at the same percentile. An untraced run goes on past
# --seconds until at least TAIL_BEYOND batches lie beyond it; each
# percentile is low enough that a 30 s run at the seed commit has them
# anyway (it runs 29-37, 50-67 and 38-44 batches).
TAIL_PERCENTILE = {"volume-d3": 60, "torus-n5": 75, "matrix-mix-n6": 70}
TAIL_BEYOND = 10

# Where a traced run writes its spans, relative to the repository root.
SPANS_FILE = ".perfbench-out/spans-{workload}.bin"

_MIX_ROTATION = (
    {"mode": "discriminant", "n": 6, "m": 2},
    {"mode": "shephard", "n": 6, "r": 3},
    {"mode": "bm", "n": 6, "m": 2},
)

# name -> (why, batch parameters as a function of k)
WORKLOADS = {
    "volume-d3": (
        "convex engine: hulls, Minkowski sums and Bareiss int_det; no matrix code",
        lambda k: {"mode": "volume", "n": 3, "m": 2},
    ),
    "torus-n5": (
        "discriminant engine, adjugate-heavy: mixed_adjugate, mixed_perm_sum, clear_gauss_matrix",
        lambda k: {"mode": "torus", "n": 5, "m": 2},
    ),
    "matrix-mix-n6": (
        "fresh matrices evaluated few times: discriminant, shephard r=3 and bm by k mod 3; no adjugates",
        lambda k: dict(_MIX_ROTATION[k % 3]),
    ),
}

# Span names (module.function) that must fire on a workload's traced run,
# and those that must stay at zero calls. A rename in the library then
# fails the run instead of reporting 0 s.
EXPECTED_SPANS = {
    "volume-d3": {
        "fires": ("kernels.int_det", "convexvol.mixed_volume", "harness.gen_polytope"),
        "silent": ("mixdisc.mixed_adjugate", "kernels.mixed_perm_sum", "kernels.gauss_det"),
    },
    "torus-n5": {
        "fires": ("mixdisc.mixed_adjugate", "kernels.mixed_perm_sum", "kernels.clear_gauss_matrix"),
        "silent": ("kernels.int_det", "convexvol.mixed_volume"),
    },
    "matrix-mix-n6": {
        "fires": (
            "ineqcheck.bm_concavity_discriminant",
            "shephard.gram_from_discriminants",
            "shephard.check_psd_shephard",
            "ineqcheck.af_gap_discriminant",
            "kernels.mixed_perm_sum",
            "matrixcore.principal_minor_sums",
        ),
        "silent": ("kernels.int_det", "convexvol.mixed_volume", "mixdisc.mixed_adjugate"),
    },
}


def tail_rank(workload: str, n: int) -> int:
    """1-based rank of the tail percentile among n sorted batch times."""
    return -(-TAIL_PERCENTILE[workload] * n // 100)


def tail_min_batches(workload: str) -> int:
    """The fewest batches that leave TAIL_BEYOND beyond the tail rank."""
    n = TAIL_BEYOND
    while n - tail_rank(workload, n) < TAIL_BEYOND:
        n += 1
    return n


def batch_params(workload: str, k: int) -> dict:
    """RunConfig fields of batch k, apart from its seed."""
    params = WORKLOADS[workload][1](k)
    params["trials"] = TRIALS
    return params
