"""Exact complex scalars with rational real and imaginary parts.

All arithmetic in the package is carried out in the field Q(i) so that
results such as -85+30i are reproduced bit-exactly.  Scalars are immutable;
``fractions.Fraction`` keeps each component in lowest terms, and the public
constructor keeps the Fractions it is given.  Arithmetic runs on the
Gaussian-integer form: each operation reads its operands as (re, im, den)
and leaves through ``from_integers``, which builds one Fraction per part.
The exact sums run on the same form over one denominator: ``integer_parts``
in, ``from_integers`` out.
"""

from __future__ import annotations

import re as _re
from fractions import Fraction
from math import lcm

from .errors import ParseError

RationalLike = int | Fraction


def _frac(x: RationalLike) -> Fraction:
    if type(x) is Fraction:
        return x
    if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
        raise TypeError(f"expected an integer or Fraction, got {type(x).__name__}")
    return Fraction(x)


class GaussianRational:
    """A complex number re + im*i with exact rational components."""

    __slots__ = ("re", "im")

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0):
        object.__setattr__(self, "re", _frac(re))
        object.__setattr__(self, "im", _frac(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.re and not self.im

    def is_real(self) -> bool:
        return not self.im

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- field arithmetic ---------------------------------------------------
    # Each operation reads its operands once as Gaussian integers over one
    # denominator and leaves through from_integers: one Fraction per part.

    def _integers(self) -> tuple[int, int, int]:
        """(re, im, den) with self = (re + im*i) / den, den the lcm of the parts'
        denominators."""
        p, q = self.re.as_integer_ratio()
        r, s = self.im.as_integer_ratio()
        if q == s:
            return p, r, q
        den = lcm(q, s)
        return p * (den // q), r * (den // s), den

    @staticmethod
    def _operand(other) -> "tuple[int, int, int] | None":
        if isinstance(other, GaussianRational):
            return other._integers()
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            p, q = other.as_integer_ratio()
            return p, 0, q
        return None

    def __add__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        return _sum(self._integers(), o, 1)

    __radd__ = __add__

    def __neg__(self):
        re, im, den = self._integers()
        return from_integers(-re, -im, den)

    def __sub__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        return _sum(self._integers(), o, -1)

    def __rsub__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        return _sum(o, self._integers(), -1)

    def __mul__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        ar, ai, ad = self._integers()
        br, bi, bd = o
        return from_integers(ar * br - ai * bi, ar * bi + ai * br, ad * bd)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        return _quotient(self._integers(), o)

    def __rtruediv__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        return _quotient(o, self._integers())

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return (ONE / self) ** (-exponent)
        result = ONE
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def conjugate(self) -> "GaussianRational":
        re, im, den = self._integers()
        return from_integers(re, -im, den)

    def abs_squared(self) -> Fraction:
        """|z|^2, always an exact rational."""
        re, im, den = self._integers()
        return Fraction(re * re + im * im, den * den)

    # -- comparison / hashing -----------------------------------------------

    def __eq__(self, other):
        # parts in lowest terms over the lcm of their denominators: one form per number
        o = self._operand(other)
        if o is None:
            return NotImplemented
        return self._integers() == o

    def __hash__(self):
        # an integral component hashes as its int, equal to the Fraction's
        # hash but without Fraction.__hash__
        re = self.re.numerator if self.re.denominator == 1 else self.re
        if not self.im:
            return hash(re)
        im = self.im.numerator if self.im.denominator == 1 else self.im
        return hash((re, im))

    # -- text and JSON forms --------------------------------------------------

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        if self.re:
            parts.append(str(self.re))
        if self.im:
            sign = "-" if self.im < 0 else ("+" if parts else "")
            mag = abs(self.im)
            parts.append(f"{sign}{'' if mag == 1 else mag}i")
        return "".join(parts)

    _TERM = _re.compile(
        r"""(?:\s*(?P<sign>[+-])\s*)?     # optional sign, blanks allowed around it
            (?P<num>[0-9]+(?:/[0-9]+)?)?  # optional rational magnitude
            (?P<imag>i)?                  # imaginary marker
            """,
        _re.VERBOSE,
    )

    @classmethod
    def parse(cls, text: str) -> "GaussianRational":
        """Parse literals like "2", "-1i", "2-1i", "1/2+3/4i", "-i".

        A literal has at most one real and one imaginary term, the second
        one signed, and every denominator is nonzero; whitespace is
        allowed only around a sign.  No floating point forms are
        accepted; this keeps every CLI input inside the exact field.
        A malformed literal is a ParseError naming the first character
        that cannot be read, the repeated term or the zero denominator,
        and its column in text.
        """
        pos, end = len(text) - len(text.lstrip()), len(text.rstrip())
        if pos >= end:
            raise ParseError("empty scalar literal")
        first, terms = pos, []
        while pos < end:
            m = cls._TERM.match(text, pos, end)
            if (m["sign"] is None and pos > first) or (m["num"] is None and m["imag"] is None):
                at = pos if m["sign"] is None else m.end()
                what = repr(text[at]) if at < end else "end"
                raise ParseError(f"bad scalar literal: {text!r}: unexpected {what} at column {at + 1}")
            terms.append(m)
            pos = m.end()
        parts: dict[bool, Fraction] = {}  # keyed by "is imaginary"
        for m in terms:
            imag = m["imag"] is not None
            if imag in parts:
                raise ParseError(
                    f"bad scalar literal: {text!r}: second {'imaginary' if imag else 'real'} "
                    f"part {m[0].lstrip()!r} at column {m.start('sign') + 1}"
                )
            try:
                mag = Fraction(m["num"]) if m["num"] is not None else Fraction(1)
            except ZeroDivisionError as exc:
                den = m["num"].partition("/")[2]
                raise ParseError(
                    f"bad scalar literal: {text!r}: zero denominator {den!r} "
                    f"at column {m.end('num') - len(den) + 1}"
                ) from exc
            parts[imag] = -mag if m["sign"] == "-" else mag
        return cls(parts.get(False, 0), parts.get(True, 0))

    def to_json(self) -> dict:
        return {"re": str(self.re), "im": str(self.im)}

    _JSON_PART = _re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")

    @classmethod
    def from_json(cls, obj) -> "GaussianRational":
        """Read {"re": ..., "im": ...}, each part (0 when absent) a JSON
        integer or a string "p" or "p/q" with q nonzero; no floats."""
        if not isinstance(obj, dict) or set(obj) - {"re", "im"}:
            raise ParseError(f"bad scalar object: {obj!r}")
        parts = [obj.get("re", 0), obj.get("im", 0)]
        if not all(type(v) is int or type(v) is str and cls._JSON_PART.fullmatch(v) for v in parts):
            raise ParseError(f"bad scalar object: {obj!r}")
        try:
            return cls(*map(Fraction, parts))
        except ZeroDivisionError as exc:
            raise ParseError(f"bad scalar object: {obj!r}") from exc


# the slots' own setters: quicker than object.__setattr__, which looks the name up
_set_re, _set_im = GaussianRational.re.__set__, GaussianRational.im.__set__

ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)


def gauss(re: RationalLike = 0, im: RationalLike = 0) -> GaussianRational:
    """Shorthand constructor used heavily in tests."""
    return GaussianRational(re, im)


def integer_parts(values) -> tuple[list[int], list[int], int]:
    """A list of scalars as (real parts, imaginary parts, den), den the lcm of the
    parts' denominators and values[k] = (re[k] + im[k]*i) / den; no Fraction products."""
    re = [v.re.as_integer_ratio() for v in values]
    im = [v.im.as_integer_ratio() for v in values]
    den = lcm(*{q for _, q in re + im})
    return [p * (den // q) for p, q in re], [p * (den // q) for p, q in im], den


def from_integers(re: int, im: int, den: int) -> GaussianRational:
    """(re + im*i) / den as an exact scalar: the way back from integer_parts and
    the way out of every arithmetic operation.  Builds one normalized Fraction
    per part and skips the public constructor's type checks."""
    z = object.__new__(GaussianRational)
    _set_re(z, Fraction(re, den))
    _set_im(z, Fraction(im, den))
    return z


def _sum(x: tuple[int, int, int], y: tuple[int, int, int], sign: int) -> GaussianRational:
    """x + sign*y for Gaussian integers over denominators, sign = 1 or -1."""
    xr, xi, xd = x
    yr, yi, yd = y
    if xd == yd:
        return from_integers(xr + sign * yr, xi + sign * yi, xd)
    return from_integers(xr * yd + sign * yr * xd, xi * yd + sign * yi * xd, xd * yd)


def _quotient(x: tuple[int, int, int], y: tuple[int, int, int]) -> GaussianRational:
    """x / y for Gaussian integers over denominators: x times conj(y) over |y|^2."""
    xr, xi, xd = x
    yr, yi, yd = y
    norm = yr * yr + yi * yi
    if not norm:
        raise ZeroDivisionError("division by zero GaussianRational")
    return from_integers((xr * yr + xi * yi) * yd, (xi * yr - xr * yi) * yd, xd * norm)
