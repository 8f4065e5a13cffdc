"""The benchmark's golden digests and span guardrails, run as tests.

For each workload the golden batches (seed and batch count from
`perfbench/digests.json`, batch parameters from
`workloads.batch_params`) are replayed under the benchmark's tracer.
Their stream must hash to the pinned sha256, and the spans that
`workloads.EXPECTED_SPANS` lists for the workload must fire or stay
silent as listed. A library change that alters a golden byte, or moves
a kernel onto or off a workload's path, fails here as it would fail the
benchmark. This reads the benchmark's files and changes nothing there.
"""

import hashlib
import io
import json

import pytest

from afkit import harness

from support import BENCH, bench_module

workloads = bench_module("workloads")
tracer = bench_module("tracer")
GOLDEN = json.loads((BENCH / "digests.json").read_text())


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_golden_batches_keep_their_digest_and_span_guardrails(workload):
    tr = tracer.Tracer()
    tr.install()
    digest = hashlib.sha256()
    try:
        for k in range(GOLDEN["batches"]):
            seed = harness.derive_seed(GOLDEN["seed"], k)
            cfg = harness.RunConfig(seed=seed, **workloads.batch_params(workload, k))
            buf = io.StringIO()
            harness.run_suite(cfg, buf)
            digest.update(buf.getvalue().encode())
    finally:
        tr.restore()
    assert tr.leftover_bindings() == []
    assert digest.hexdigest() == GOLDEN["sha256"][workload]
    calls = {name: stats["calls"] for name, stats in tr.summary().items()}
    spans = workloads.EXPECTED_SPANS[workload]
    assert [name for name in spans["fires"] if not calls.get(name)] == []
    assert [name for name in spans["silent"] if calls.get(name)] == []
