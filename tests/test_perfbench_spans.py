"""Every span the benchmark names must be a public afkit function.

The benchmark traces public functions only, so a span that names a
renamed, removed or private function would silently read 0 calls. This
check reads the benchmark's span tables and changes nothing there.
"""

from support import bench_module


def test_every_benchmark_span_is_a_public_function():
    public = bench_module("tracer").public_functions()
    named = set()
    for members, _ in bench_module("layers").LAYER_GROUPS.values():
        named.update(members)
    for spans in bench_module("workloads").EXPECTED_SPANS.values():
        named.update(spans["fires"])
        named.update(spans["silent"])
    assert named
    assert sorted(named - set(public)) == []
