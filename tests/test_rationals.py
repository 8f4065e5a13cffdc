"""Scalar layer: canonical rational strings and Gaussian rationals."""

import random
from fractions import Fraction

import pytest

from afkit.errors import FormatError, SizeLimitError
from afkit.rationals import GaussRat, format_rat, parse_rat

from oracles import c_add, c_mul, c_sub
from support import DIGIT_LIMIT, needs_digit_limit


def pair(z):
    return (z.re, z.im)


def test_parse_canonical_and_shorthand():
    assert parse_rat("3/4") == Fraction(3, 4)
    assert parse_rat("-3/4") == Fraction(-3, 4)
    assert parse_rat("5") == 5
    assert parse_rat("-5") == -5
    assert parse_rat("0/7") == 0
    assert parse_rat(" 2/3 ") == Fraction(2, 3)


def test_parse_normalizes():
    assert parse_rat("6/8") == Fraction(3, 4)


@pytest.mark.parametrize(
    "bad",
    ["", "1/0", "0.5", "1e3", "1/-2", "--3", "3/", "/4", "a/b", "1 / 2", "1+2i"],
)
def test_parse_rejects_garbage(bad):
    with pytest.raises(FormatError):
        parse_rat(bad)


def test_format_canonical():
    assert format_rat(Fraction(3, 4)) == "3/4"
    assert format_rat(Fraction(-1, 2)) == "-1/2"
    assert format_rat(Fraction(10, 2)) == "5"
    assert format_rat(Fraction(0)) == "0"


@needs_digit_limit
@pytest.mark.parametrize("form", ["{}", "-{}", "{}/7", "7/{}"])
def test_parse_past_the_digit_limit_is_a_format_error(form):
    with pytest.raises(FormatError) as exc:
        parse_rat(form.format("1" * (DIGIT_LIMIT + 1)))
    assert len(str(exc.value)) < 200
    assert parse_rat(form.format("1" * DIGIT_LIMIT)) != 0


def test_format_errors_do_not_echo_a_long_literal():
    for bad in ("1" * 100_000 + "x", "0" * 100_000 + "1/0"):
        with pytest.raises(FormatError) as exc:
            parse_rat(bad)
        assert len(str(exc.value)) < 200


@needs_digit_limit
@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("invert", [False, True])
def test_format_past_the_digit_limit_is_a_size_limit_error(sign, invert):
    def rat(digits):
        x = Fraction(sign * 10 ** (digits - 1))
        return 1 / x if invert else x

    with pytest.raises(SizeLimitError):
        format_rat(rat(DIGIT_LIMIT + 1))
    assert parse_rat(format_rat(rat(DIGIT_LIMIT))) == rat(DIGIT_LIMIT)


def test_format_parse_roundtrip():
    rng = random.Random(20240811)
    for _ in range(300):
        x = Fraction(rng.randint(-999, 999), rng.randint(1, 999))
        assert parse_rat(format_rat(x)) == x


def rand_rat(rng):
    return Fraction(rng.randint(-50, 50), rng.randint(1, 20))


def test_construction_accepts_exact_types():
    assert GaussRat(3).re == 3
    assert GaussRat(Fraction(1, 2), -2).im == -2
    assert GaussRat("3/4", "-1/6") == GaussRat(Fraction(3, 4), Fraction(-1, 6))


def test_construction_rejects_floats():
    with pytest.raises(TypeError):
        GaussRat(0.5)
    with pytest.raises(TypeError):
        GaussRat(1, 0.25)
    with pytest.raises(TypeError):
        GaussRat(True)


def test_arithmetic_matches_reference():
    rng = random.Random(7)
    for _ in range(200):
        a = (rand_rat(rng), rand_rat(rng))
        b = (rand_rat(rng), rand_rat(rng))
        x, y = GaussRat(*a), GaussRat(*b)
        assert pair(x + y) == c_add(a, b)
        assert pair(x - y) == c_sub(a, b)
        assert pair(x * y) == c_mul(a, b)
        if y:
            assert (x / y) * y == x


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        GaussRat(1) / GaussRat(0)


def test_conjugate_and_norm():
    z = GaussRat(Fraction(3, 4), Fraction(-2, 5))
    assert z.conjugate() == GaussRat(Fraction(3, 4), Fraction(2, 5))
    assert z.abs2() == Fraction(9, 16) + Fraction(4, 25)
    assert (z * z.conjugate()).re == z.abs2()
    assert (z * z.conjugate()).im == 0


def test_is_real_and_scalar_equality():
    assert GaussRat(3).is_real
    assert not GaussRat(3, 1).is_real
    assert GaussRat(3) == 3
    assert GaussRat(Fraction(1, 2)) == Fraction(1, 2)
    assert GaussRat(3, 1) != 3
    assert GaussRat(0) == 0 and not GaussRat(0)
    assert GaussRat(0, 1)


def test_hash_consistency_with_scalars():
    assert hash(GaussRat(3)) == hash(3)
    assert hash(GaussRat(Fraction(1, 2))) == hash(Fraction(1, 2))
    d = {GaussRat(1, 2): "a"}
    assert d[GaussRat(1, 2)] == "a"


def test_mixed_scalar_operations():
    z = GaussRat(1, 2)
    assert 2 * z == GaussRat(2, 4)
    assert z * Fraction(1, 2) == GaussRat(Fraction(1, 2), 1)
    assert 1 + z == GaussRat(2, 2)
    assert z - 1 == GaussRat(0, 2)
    assert 1 - z == GaussRat(0, -2)
    assert z / 2 == GaussRat(Fraction(1, 2), 1)
    assert 2 / GaussRat(1, 1) == GaussRat(1, -1)
    assert -z == GaussRat(-1, -2)


def test_repr_is_recognizable():
    text = repr(GaussRat(Fraction(3, 4), -1))
    assert "3/4" in text and "-1" in text
