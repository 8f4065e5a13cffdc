"""Small builders shared across the test suite.

Unlike oracles.py, these are allowed to use the public package API; they
only construct inputs, never compute expected answers.
"""

import importlib.util
import sys
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import strategies as st

from afkit import _kernels
from afkit.convexvol import Polytope, convex_hull, minkowski_sum
from afkit.harness import SplitMix64
from afkit.matrixcore import GenMat, HermMat
from afkit.rationals import GaussRat


# Python's limit on int/str conversion in decimal digits; 0 where the
# interpreter has none (before 3.10.7) or it is switched off
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
needs_digit_limit = pytest.mark.skipif(
    not DIGIT_LIMIT, reason="this interpreter has no int/str digit limit"
)


# the benchmark's directory; tests read its files and change nothing there
BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def bench_module(name):
    """A module of the benchmark, loaded from its file in BENCH."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", BENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def shephard_table_past_the_digit_limit() -> dict:
    """A well-formed r x r Shephard fixture whose witness has more digits
    than DIGIT_LIMIT: d00 = d_rr = 1, d_ii = -10^200 for 0 < i < r, and
    every other entry 0. At the 4,300-digit default r = 30."""
    r = DIGIT_LIMIT // 200 + 9
    d = [["0"] * (r + 1) for _ in range(r + 1)]
    d[0][0] = d[r][r] = "1"
    for i in range(1, r):
        d[i][i] = str(-10 ** 200)
    return {"r": r, "d": d}


@contextmanager
def layer_builds():
    """Count the kernels' DP layer builds inside the block, from a cleared
    memo: yields a function that gives (rest builds, lead builds) so far.

    A lead build is the one `_add_matrix` step from a rest layer of
    n - 2 grids to the layer of n - 1 that an adjugate is read off; the
    steps of a rest build start lower, so every other memo miss is a
    rest build.
    """
    real = _kernels._add_matrix
    leads = []

    def spy(layer, grid, n):
        if next(iter(layer[0])).bit_count() == n - 2:
            leads.append(n)
        return real(layer, grid, n)

    _kernels._rest_layer.cache_clear()
    _kernels._add_matrix = spy
    try:
        yield lambda: (_kernels._rest_layer.cache_info().misses - len(leads), len(leads))
    finally:
        _kernels._add_matrix = real


def count_calls(monkeypatch, module, name):
    """Count the calls through one module binding of a function: returns
    the list that each call appends to."""
    calls = []
    original = getattr(module, name)

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def gr(re, im=0):
    return GaussRat(re, im)


def herm(rows):
    return HermMat(rows)


def gen(rows):
    return GenMat(rows)


def diag(*vals):
    n = len(vals)
    return HermMat([[vals[i] if i == j else 0 for j in range(n)] for i in range(n)])


def identity(n):
    return diag(*([1] * n))


def rand_gauss_mat(rng, n, bound=3):
    """Gaussian-integer matrix with entries in [-bound, bound]^2."""
    return GenMat(
        [[GaussRat(rng.randint(-bound, bound), rng.randint(-bound, bound))
          for _ in range(n)] for _ in range(n)]
    )


def rand_gen(rng, n, bound=5, denom=4):
    """General matrix with rational complex entries."""
    def part():
        return Fraction(rng.randint(-bound, bound), rng.randint(1, denom))

    return GenMat([[GaussRat(part(), part()) for _ in range(n)] for _ in range(n)])


def rand_herm(rng, n, bound=4, denom=1):
    """Random Hermitian matrix, not necessarily definite."""
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = GaussRat(Fraction(rng.randint(-bound, bound), denom))
        for j in range(i + 1, n):
            z = GaussRat(
                Fraction(rng.randint(-bound, bound), denom),
                Fraction(rng.randint(-bound, bound), denom),
            )
            rows[i][j] = z
            rows[j][i] = z.conjugate()
    return HermMat(rows)


def rand_psd(rng, n, bound=3):
    """Gram matrix G G*, positive semi-definite by construction."""
    return HermMat.from_gram(rand_gauss_mat(rng, n, bound))


def rand_pd(rng, n, bound=3):
    """Gram matrix plus the identity, positive definite by construction."""
    return rand_psd(rng, n, bound) + identity(n)


rats = st.fractions(min_value=-6, max_value=6, max_denominator=6)
gauss = st.builds(GaussRat, rats, rats)


@st.composite
def gen_mats(draw, n=None):
    """A GenMat of Gaussian rationals, of size n or a drawn size 1..4."""
    n = draw(st.integers(1, 4)) if n is None else n
    return GenMat([[draw(gauss) for _ in range(n)] for _ in range(n)])


@st.composite
def herm_mats(draw, n=None):
    """A HermMat of Gaussian rationals, of size n or a drawn size 1..4."""
    n = draw(st.integers(1, 4)) if n is None else n
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = GaussRat(draw(rats))
        for j in range(i + 1, n):
            rows[i][j] = draw(gauss)
            rows[j][i] = rows[i][j].conjugate()
    return HermMat(rows)


def as_pairs(mat):
    """Convert a matrix into the (re, im) Fraction grid the oracles use."""
    return [[(e.re, e.im) for e in row] for row in mat.entries]


def gen_psd_singular(seed: int, n: int, entry_bound: int = 5) -> HermMat:
    """G G* with the last column of G zeroed: PSD with det = 0 exactly."""
    if n < 2:
        raise ValueError("a singular PSD matrix needs n >= 2")
    rng = SplitMix64(seed)

    def entry():
        re = rng.int_between(-entry_bound, entry_bound)
        return GaussRat(re, rng.int_between(-entry_bound, entry_bound))

    rows = [[entry() for _ in range(n - 1)] + [GaussRat(0)] for _ in range(n)]
    return HermMat.from_gram(GenMat(rows))


def box(lengths) -> Polytope:
    """Axis-aligned box [0, a_1] x ... x [0, a_d]."""
    sides = [Fraction(a) if isinstance(a, int) else a for a in lengths]
    verts = [()]
    for a in sides:
        verts = [v + (c,) for v in verts for c in (Fraction(0), a)]
    return convex_hull(verts)


def simplex(d: int, scale=1) -> Polytope:
    """Standard simplex conv(0, scale e_1, ..., scale e_d)."""
    zero = tuple(Fraction(0) for _ in range(d))
    verts = [zero]
    for i in range(d):
        v = list(zero)
        v[i] = Fraction(scale)
        verts.append(tuple(v))
    return convex_hull(verts)


def segment(v) -> Polytope:
    """Segment from the origin to v."""
    vec = tuple(Fraction(c) if isinstance(c, int) else c for c in v)
    origin = tuple(Fraction(0) for _ in vec)
    return convex_hull([origin, vec])


def zonotope(vectors) -> Polytope:
    """Minkowski sum of the segments [0, v_i]."""
    vectors = list(vectors)
    if not vectors:
        raise ValueError("a zonotope needs at least one generator")
    body = segment(vectors[0])
    for v in vectors[1:]:
        body = minkowski_sum(body, segment(v))
    return body
