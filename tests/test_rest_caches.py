"""The library's two caches, one test set: the kernels' rest layers
(`_kernels._rest_layer`) and the convex engine's rest area measures
(`convexvol._rest_area`, under the id `rest_sum`). Each holds "the rest
of a value", stays bounded at its size, caches no exception, and serves
threads that race its evictions."""

import random
import sys
import threading
from collections import namedtuple
from fractions import Fraction
from math import factorial

import pytest

from afkit import _kernels, convexvol
from afkit._kernels import mixed_adjugate_sum, mixed_perm_sum
from afkit.convexvol import BodyTuple, convex_hull, mixed_volume

from oracles import mixed_adjugate_minors, mixed_disc_perm, mixed_volume_polarized


def int_grid(rng, n):
    return tuple(tuple((rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(n)) for _ in range(n))


def rest_layer_calls(rng):
    """Both kernels under two leading pairs over one fresh 3 x 3 rest,
    against n! times the minor-expansion references; the value and the
    adjugate of a pair share its first grid."""
    f = factorial(3)
    rest = [int_grid(rng, 3)]
    calls = []
    for _ in range(2):
        lead = [int_grid(rng, 3), int_grid(rng, 3)]
        re, im = mixed_disc_perm(lead + rest)
        calls.append((lambda mats=lead + rest: mixed_perm_sum(mats), (f * re, f * im)))
        part = lead[:1] + rest
        want = tuple(tuple((f * re, f * im) for re, im in row) for row in mixed_adjugate_minors(part))
        calls.append((lambda mats=part: mixed_adjugate_sum(mats), want))
    return calls


def rest_area_calls(rng):
    """V(K, L, M) of three fresh tetrahedra in two orders: the rest after
    the lead holds two distinct bodies, so both read one cached measure."""
    bodies = [
        convex_hull([
            tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 2)) for _ in range(3))
            for _ in range(4)
        ])
        for _ in range(3)
    ]
    want = mixed_volume_polarized(bodies)
    return [(lambda t=BodyTuple(order): mixed_volume(t), want) for order in (bodies, bodies[::-1])]


# size: the cache's maxsize; builds: its misses per round of `calls`
Cache = namedtuple("Cache", "cached fault calls size builds")

CACHES = [
    # the rest layer and the adjugates of the two leading grids over it
    pytest.param(
        Cache(_kernels._rest_layer, (_kernels, "_add_matrix"), rest_layer_calls, 8, 3),
        id="rest_layer",
    ),
    pytest.param(
        Cache(convexvol._rest_area, (convexvol, "_area"), rest_area_calls, 4, 1), id="rest_sum"
    ),
]


@pytest.mark.parametrize("cache", CACHES)
def test_stays_bounded_at_its_size(cache):
    rng = random.Random(97)
    size = cache.cached.cache_info().maxsize
    assert size == cache.size
    cache.cached.cache_clear()
    for _ in range(2 * size):
        for run, want in cache.calls(rng):
            assert run() == want
        assert cache.cached.cache_info().currsize <= size
    info = cache.cached.cache_info()
    assert (info.misses, info.currsize) == (2 * size * cache.builds, size)


@pytest.mark.parametrize("cache", CACHES)
def test_never_caches_an_exception(monkeypatch, cache):
    (run, want), *_ = cache.calls(random.Random(101))
    cache.cached.cache_clear()
    calls = []

    def faulty(*args):
        calls.append(1)
        raise ArithmeticError("injected fault")

    monkeypatch.setattr(*cache.fault, faulty)
    for _ in range(2):
        with pytest.raises(ArithmeticError):
            run()
    assert len(calls) == 2
    assert cache.cached.cache_info().currsize == 0
    monkeypatch.undo()
    assert run() == want


@pytest.mark.parametrize("cache", CACHES)
def test_shared_across_threads(cache):
    # slightly more rests than the cache holds, each under more than one
    # call, drawn at random by more threads than cores: lookups keep
    # racing evictions of the same keys
    rng = random.Random(103)
    size = cache.cached.cache_info().maxsize
    calls = [call for _ in range(size + 3) for call in cache.calls(rng)]
    errors, done = [], []

    def work(seed):
        pick = random.Random(seed)
        try:
            for _ in range(500):
                run, want = calls[pick.randrange(len(calls))]
                assert run() == want
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)
        done.append(seed)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert len(done) == 8
    assert cache.cached.cache_info().currsize <= size
