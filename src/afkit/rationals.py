"""Exact scalars: rationals in canonical string form, and Gaussian rationals.

The whole library computes over Q and Q(i). Rat is an alias for
fractions.Fraction; GaussRat is a thin complex wrapper around two
Fractions. Floats are rejected everywhere by design.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Union

from .errors import FormatError, SizeLimitError

Rat = Fraction

RatLike = Union[int, Fraction, str]

_RAT_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")


def _brief(text) -> str:
    """repr(text), cut short so an error message never echoes a huge literal."""
    r = repr(text)
    return r if len(r) <= 40 else f"{r[:30]}... ({len(text)} characters)"


def parse_rat(text: str) -> Rat:
    """Parse "p/q" (or the integer shorthand "p") into a Fraction.

    A numerator or denominator past Python's limit on int/str
    conversion (sys.get_int_max_str_digits()) raises FormatError.
    """
    if not isinstance(text, str):
        raise FormatError(f"not a rational literal: {_brief(text)}")
    s = text.strip()
    if not _RAT_RE.match(s):
        raise FormatError(f"not a rational literal: {_brief(text)}")
    num, _, den = s.partition("/")
    try:
        p, q = int(num), int(den or 1)
    except ValueError:
        # the pattern admits only digits, so the digit limit is the one cause
        raise FormatError(
            f"rational literal of {len(s)} characters exceeds the integer digit limit"
        ) from None
    if q == 0:
        raise FormatError(f"zero denominator: {_brief(text)}")
    return Fraction(p, q)


def format_rat(x: Rat) -> str:
    """Canonical "p/q" with q > 0 and gcd(|p|, q) = 1; integers as "p".

    A numerator or denominator past Python's limit on int/str
    conversion raises SizeLimitError.
    """
    try:
        if x.denominator == 1:
            return str(x.numerator)
        return f"{x.numerator}/{x.denominator}"
    except ValueError:
        bits = max(x.numerator.bit_length(), x.denominator.bit_length())
        raise SizeLimitError(
            f"a rational of {bits} bits exceeds the integer digit limit for output"
        ) from None


def as_rat(value: RatLike) -> Rat:
    """Coerce int, Fraction, or canonical string to Fraction; reject floats."""
    if isinstance(value, bool) or isinstance(value, float):
        raise TypeError(f"expected an exact rational, got {type(value).__name__}")
    if isinstance(value, str):
        return parse_rat(value)
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


class GaussRat:
    """A Gaussian rational re + im*i with exact Fraction components."""

    __slots__ = ("re", "im")

    def __init__(self, re: RatLike = 0, im: RatLike = 0):
        self.re = as_rat(re)
        self.im = as_rat(im)

    @property
    def is_real(self) -> bool:
        return self.im == 0

    def conjugate(self) -> "GaussRat":
        return GaussRat(self.re, -self.im)

    def abs2(self) -> Rat:
        """Squared modulus re^2 + im^2, always a nonnegative rational."""
        return self.re * self.re + self.im * self.im

    @staticmethod
    def _wrap(other) -> "GaussRat | None":
        if isinstance(other, GaussRat):
            return other
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return GaussRat(other)
        return None

    def __add__(self, other):
        w = self._wrap(other)
        if w is None:
            return NotImplemented
        return GaussRat(self.re + w.re, self.im + w.im)

    __radd__ = __add__

    def __sub__(self, other):
        w = self._wrap(other)
        if w is None:
            return NotImplemented
        return GaussRat(self.re - w.re, self.im - w.im)

    def __rsub__(self, other):
        w = self._wrap(other)
        if w is None:
            return NotImplemented
        return GaussRat(w.re - self.re, w.im - self.im)

    def __mul__(self, other):
        w = self._wrap(other)
        if w is None:
            return NotImplemented
        return GaussRat(self.re * w.re - self.im * w.im, self.re * w.im + self.im * w.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        w = self._wrap(other)
        if w is None:
            return NotImplemented
        d = w.abs2()
        if d == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussRat(
            (self.re * w.re + self.im * w.im) / d,
            (self.im * w.re - self.re * w.im) / d,
        )

    def __rtruediv__(self, other):
        w = self._wrap(other)
        if w is None:
            return NotImplemented
        return w / self

    def __neg__(self):
        return GaussRat(-self.re, -self.im)

    def __pos__(self):
        return self

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __eq__(self, other):
        w = self._wrap(other)
        if w is None:
            return NotImplemented
        return self.re == w.re and self.im == w.im

    def __hash__(self):
        # real values must hash like their Fraction for dict interop
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __repr__(self):
        return f"GaussRat({format_rat(self.re)!r}, {format_rat(self.im)!r})"
