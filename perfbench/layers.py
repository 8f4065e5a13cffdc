"""Per-layer metrics: which spans each metric sums, and how it is computed.

A metric is named `<module>.<fn>.<stat>`. Where `<fn>` names a group
(`body_ops`, `gen`, `verdicts`, `gram`, `certify`, `encode`) the metric
sums the members' spans. Calls and self time are per instance, so runs
of different lengths compare; self time is scaled by the speed
reference like every end-to-end time (see reference.py); max_bits is
the largest result bit length seen; distinct_ratio is distinct argument
multisets over calls.
"""

from __future__ import annotations

UNITS = {
    "calls": "count/instance",
    "self_s": "s/instance",
    "max_bits": "bits",
    "distinct_ratio": "ratio",
}

# metric prefix -> (member span names, stats)
LAYER_GROUPS = {
    "kernels.mixed_perm_sum": (("kernels.mixed_perm_sum",), ("calls", "self_s", "max_bits")),
    "kernels.clear_gauss_matrix": (("kernels.clear_gauss_matrix",), ("calls", "self_s")),
    "kernels.gauss_det": (("kernels.gauss_det",), ("calls", "self_s", "max_bits")),
    "kernels.int_det": (("kernels.int_det",), ("calls", "self_s", "max_bits")),
    "matrixcore.principal_minor_sums": (("matrixcore.principal_minor_sums",), ("calls", "self_s")),
    "matrixcore.is_pd": (("matrixcore.is_pd",), ("calls", "self_s")),
    "mixdisc.mixed_discriminant": (
        ("mixdisc.mixed_discriminant",), ("calls", "self_s", "distinct_ratio"),
    ),
    "mixdisc.mixed_adjugate": (("mixdisc.mixed_adjugate",), ("calls", "self_s")),
    "convexvol.mixed_volume": (("convexvol.mixed_volume",), ("calls", "self_s", "distinct_ratio")),
    "convexvol.body_ops": (
        (
            "convexvol.convex_hull",
            "convexvol.minkowski_sum",
            "convexvol.translate",
            "convexvol.dilate",
            "convexvol.volume",
        ),
        ("calls", "self_s"),
    ),
    "harness.gen": (("harness.gen_pd_hermitian", "harness.gen_polytope"), ("calls", "self_s")),
    "ineqcheck.verdicts": (
        (
            "ineqcheck.gap_report",
            "ineqcheck.af_gap_discriminant",
            "ineqcheck.af_m_fold_discriminant",
            "ineqcheck.af_gap_volume",
            "ineqcheck.af_m_fold_volume",
            "ineqcheck.homothety_ratio",
            "ineqcheck.bm_concavity_discriminant",
        ),
        ("calls", "self_s"),
    ),
    "shephard.gram": (("shephard.gram_from_discriminants",), ("calls", "self_s")),
    "shephard.certify": (
        (
            "shephard.check_psd_shephard",
            "shephard.det_identity_check",
            "shephard.r2_inequality",
            "shephard.shephard_matrix",
        ),
        ("calls", "self_s"),
    ),
    "toruskahler.verdicts": (
        (
            "toruskahler.intersection_number",
            "toruskahler.kt_sequence",
            "toruskahler.equality_theorem_pair",
            "toruskahler.equality_theorem_m",
        ),
        ("calls", "self_s"),
    ),
    "jsonio.encode": (("jsonio.dumps_canonical", "jsonio.gap_report_to_json"), ("calls", "self_s")),
}

OVERHEAD = "trace.overhead_frac"


def metric_units() -> dict:
    """Every per-layer metric name -> unit, in report order."""
    out = {}
    for prefix, (_, stats) in LAYER_GROUPS.items():
        for stat in stats:
            out[f"{prefix}.{stat}"] = UNITS[stat]
    out[OVERHEAD] = "ratio"
    return out


def per_layer_metrics(span_stats: dict, instances: int, norm_scale: float, overhead: float) -> dict:
    """Metric name -> value from a traced run's span statistics.

    `norm_scale` is the traced batches' normalized over raw wall time,
    which scales raw span self time the same way; `overhead` is the
    traced over the untraced normalized time of the same batches."""
    out = {}
    for prefix, (members, stats) in LAYER_GROUPS.items():
        calls = sum(span_stats[m]["calls"] for m in members)
        for stat in stats:
            if stat == "calls":
                value = calls / instances
            elif stat == "self_s":
                value = sum(span_stats[m]["self_ns"] for m in members) / 1e9 * norm_scale / instances
            elif stat == "max_bits":
                value = max(span_stats[m]["max_bits"] for m in members)
            else:
                distinct = sum(span_stats[m]["distinct"] for m in members)
                value = distinct / calls if calls else 0.0
            out[f"{prefix}.{stat}"] = value
    out[OVERHEAD] = overhead
    return out
