"""Exact complex scalars with rational real and imaginary parts.

All arithmetic in the package is carried out in the field Q(i) so that
results such as -85+30i are reproduced bit-exactly.  Scalars are immutable;
``fractions.Fraction`` keeps each component in lowest terms.  The exact sums
run on Gaussian integers over one denominator: ``integer_parts`` in, ``from_integers`` out.
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

    @staticmethod
    def _coerce(other) -> "GaussianRational | None":
        if isinstance(other, GaussianRational):
            return other
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return GaussianRational(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(
            self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = o.abs_squared()
        if not n:
            raise ZeroDivisionError("division by zero GaussianRational")
        return GaussianRational(
            (self.re * o.re + self.im * o.im) / n, (self.im * o.re - self.re * o.im) / n
        )

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

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
        return GaussianRational(self.re, -self.im)

    def abs_squared(self) -> Fraction:
        """|z|^2, always an exact rational."""
        return self.re * self.re + self.im * self.im

    # -- comparison / hashing -----------------------------------------------

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

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
        r"""(?P<sign>[+-]?)            # leading sign
            (?P<num>[0-9]+(?:/[0-9]+)?)?  # optional rational magnitude
            (?P<imag>i)?               # imaginary marker
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
        """
        s = _re.sub(r"\s*([+-])\s*", r"\1", text.strip())
        if not s:
            raise ParseError("empty scalar literal")
        parts: dict[bool, Fraction] = {}  # keyed by "is imaginary"
        pos = 0
        while pos < len(s):
            m = cls._TERM.match(s, pos)
            if (
                not m
                or m.end() == pos
                or (m["num"] is None and m["imag"] is None)
                or (pos and not m["sign"])
                or bool(m["imag"]) in parts
            ):
                raise ParseError(f"bad scalar literal: {text!r}")
            try:
                mag = Fraction(m["num"]) if m["num"] is not None else Fraction(1)
            except ZeroDivisionError as exc:
                raise ParseError(f"zero denominator in scalar literal: {text!r}") from exc
            parts[bool(m["imag"])] = -mag if m["sign"] == "-" else mag
            pos = m.end()
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
    """(re + im*i) / den as an exact scalar: the way back from integer_parts."""
    return GaussianRational(Fraction(re, den), Fraction(im, den))
