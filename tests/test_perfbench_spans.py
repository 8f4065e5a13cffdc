"""Every span the benchmark names must be a public afkit function.

The benchmark traces public functions only, so a span that names a
renamed, removed or private function would silently read 0 calls. This
check reads the benchmark's span tables and changes nothing there.
"""

import importlib.util
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", BENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_benchmark_span_is_a_public_function():
    public = _load("tracer").public_functions()
    named = set()
    for members, _ in _load("layers").LAYER_GROUPS.values():
        named.update(members)
    for spans in _load("workloads").EXPECTED_SPANS.values():
        named.update(spans["fires"])
        named.update(spans["silent"])
    assert named
    assert sorted(named - set(public)) == []
