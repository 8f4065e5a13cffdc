"""Matrix layer: construction invariants, exact determinants, positivity
tests, and proportionality detection."""

import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest

import afkit
from afkit.errors import DimensionMismatchError
from afkit.matrixcore import GenMat, HermMat, is_pd, is_psd, proportional

from oracles import det_cofactor
from support import as_pairs, diag, gen, gr, herm, identity, rand_gen, rand_herm, rand_pd, rand_psd


def test_hermitian_accepts_conjugate_pairs():
    m = herm([[2, gr(1, 3)], [gr(1, -3), 5]])
    assert m.entries[0][1].im == 3
    assert m.entries[1][0].im == -3


def test_hermitian_rejects_bad_offdiagonal():
    with pytest.raises(ValueError):
        herm([[1, gr(1, 1)], [gr(1, 1), 2]])


def test_hermitian_rejects_complex_diagonal():
    with pytest.raises(ValueError):
        herm([[gr(1, 1), 0], [0, 1]])


def test_rows_must_be_square():
    with pytest.raises(DimensionMismatchError):
        gen([[1, 2], [3]])
    with pytest.raises(ValueError):
        gen([])


def test_det_frozen_values():
    assert identity(3).det() == 1
    assert diag(2, 3, 5).det() == 30
    assert herm([[2, 1], [1, 2]]).det() == 3
    assert gen([[0, 1], [1, 0]]).det() == -1
    assert gen([[0, 0, 1], [0, 1, 0], [1, 0, 0]]).det() == -1
    assert gen([[1, 1], [1, 1]]).det() == 0


def test_det_matches_cofactor_reference():
    rng = random.Random(11)
    for _ in range(100):
        n = rng.randint(1, 4)
        m = rand_gen(rng, n)
        want = det_cofactor(as_pairs(m))
        got = m.det()
        assert (got.re, got.im) == want


def test_gram_matches_hand_value():
    g = gen([[gr(1, 1), 0], [2, gr(0, -1)]])
    a = HermMat.from_gram(g)
    assert a.entries[0][0] == 2
    assert a.entries[1][1] == 5
    assert a.entries[0][1] == gr(2, 2)


def test_matmul_and_conj_transpose():
    g = gen([[1, 2], [3, 4]])
    h = gen([[0, 1], [1, 0]])
    assert (g @ h) == gen([[2, 1], [4, 3]])
    ct = gen([[gr(1, 2)]]).conj_transpose()
    assert ct.entries[0][0] == gr(1, -2)


def test_psd_frozen_cases():
    assert is_psd(identity(4))
    assert not is_psd(diag(1, -1))
    assert is_psd(diag(0, 0, 0))
    assert is_psd(herm([[1, 1], [1, 1]]))
    assert not is_psd(herm([[1, 2], [2, 1]]))


def test_psd_on_gram_matrices_and_shifted_down():
    rng = random.Random(101)
    for _ in range(200):
        n = rng.randint(1, 5)
        a = rand_psd(rng, n)
        assert is_psd(a)
        # trace bounds the top eigenvalue of a PSD matrix, so this shift
        # drives every eigenvalue strictly negative
        shift = a.trace().re + 1
        assert not is_psd(a - identity(n).scale(shift))


def test_pd_frozen_cases():
    assert is_pd(identity(2))
    assert not is_pd(diag(1, 0))
    assert is_pd(herm([[2, 1], [1, 2]]))
    assert not is_pd(herm([[1, 2], [2, 1]]))
    assert is_pd(herm([[2, gr(0, 1)], [gr(0, -1), 2]]))


def test_pd_implies_psd():
    rng = random.Random(5)
    for _ in range(100):
        n = rng.randint(1, 5)
        a = rand_pd(rng, n)
        assert is_pd(a)
        assert is_psd(a)


def test_positivity_requires_hermitian_input():
    with pytest.raises(TypeError):
        is_psd(gen([[1, 0], [0, 1]]))
    with pytest.raises(TypeError):
        is_pd(gen([[1, 0], [0, 1]]))


def test_proportional_frozen_cases():
    i2 = identity(2)
    assert proportional(i2, i2.scale(3)) == 3
    assert proportional(diag(1, 2), diag(2, 1)) is None
    a = herm([[1, gr(2, 5)], [gr(2, -5), 7]])
    zero = diag(0, 0)
    assert proportional(a, zero) == 0
    assert proportional(zero, a) is None
    assert proportional(zero, zero) == 0


def test_proportional_requires_real_ratio():
    a = herm([[0, gr(0, 1)], [gr(0, -1), 0]])
    b = herm([[0, -1], [-1, 0]])
    assert proportional(a, b) is None


def test_proportional_rejects_partial_match():
    assert proportional(diag(1, 2), diag(3, 5)) is None


def test_proportional_inverts():
    rng = random.Random(13)
    for _ in range(50):
        n = rng.randint(1, 4)
        a = rand_herm(rng, n, denom=2)
        if a.is_zero():
            continue
        lam = Fraction(rng.randint(1, 9), rng.randint(1, 9)) * rng.choice([-1, 1])
        b = a.scale(lam)
        assert proportional(a, b) == lam
        assert proportional(b, a) == 1 / lam


def test_proportional_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        proportional(identity(2), identity(3))


def test_hermitian_closed_under_real_arithmetic():
    rng = random.Random(3)
    a = rand_herm(rng, 3)
    b = rand_herm(rng, 3)
    assert isinstance(a + b, HermMat)
    assert isinstance(a - b, HermMat)
    assert isinstance(a.scale(Fraction(-2, 3)), HermMat)
    with pytest.raises(ValueError):
        a.scale(gr(1, 1))


def test_trace():
    assert diag(1, 2, 3).trace() == 6
    assert gen([[gr(0, 1), 5], [7, gr(0, -1)]]).trace() == 0


def test_only_matrixcore_clears_a_matrix():
    # a matrix is cleared once, at construction, and every consumer reads
    # its integer grid; the GaussRat entries are a derived view
    users = set()
    slots = None
    for path in sorted(Path(afkit.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            name = getattr(node, "id", None) or getattr(node, "attr", None)
            if isinstance(node, ast.alias):
                name = node.name
            if name == "clear_gauss_matrix":
                users.add(path.stem)
            if isinstance(node, ast.ClassDef) and node.name == "GenMat":
                for stmt in node.body:
                    if isinstance(stmt, ast.Assign) and stmt.targets[0].id == "__slots__":
                        slots = ast.literal_eval(stmt.value)
    assert users == {"matrixcore"}
    assert slots is not None and "entries" not in slots
    assert set(slots) == {"n", "_rows", "_den"}
