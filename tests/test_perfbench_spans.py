"""Every span the benchmark names must be a public afkit function.

The benchmark traces public functions only, so a span that names a
renamed, removed or private function would silently read 0 calls; its
workload child refuses to run instead (`child.required_spans`). This
makes the same check per workload, so a renamed kernel fails here too.
It reads the benchmark's span tables and changes nothing there.
"""

from support import bench_module

layers = bench_module("layers")
workloads = bench_module("workloads")
PUBLIC = bench_module("tracer").public_functions()


def required_spans(workload):
    """The span names a workload's child requires: every per-layer
    metric's members and the workload's fire and silent guardrails."""
    names = {name for members, _ in layers.LAYER_GROUPS.values() for name in members}
    names.update(workloads.EXPECTED_SPANS[workload]["fires"])
    names.update(workloads.EXPECTED_SPANS[workload]["silent"])
    return names


def test_every_benchmark_span_is_a_public_function():
    missing = {w: sorted(required_spans(w) - set(PUBLIC)) for w in sorted(workloads.WORKLOADS)}
    assert all(required_spans(w) for w in missing)
    assert missing == {w: [] for w in missing}
