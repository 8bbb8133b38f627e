"""Exact scalar field: arithmetic, literals, JSON."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from permfunc.errors import ParseError
from permfunc.gaussian import (
    GaussianRational,
    I,
    ONE,
    ZERO,
    from_integers,
    gauss,
    integer_parts,
)

rationals = st.fractions(
    min_value=-20, max_value=20, max_denominator=12
)
scalars = st.builds(GaussianRational, rationals, rationals)


def test_basic_arithmetic():
    a = gauss(2, -1)
    b = gauss(Fraction(1, 2), 3)
    assert a + b == gauss(Fraction(5, 2), 2)
    assert a - b == gauss(Fraction(3, 2), -4)
    assert a * b == gauss(4, Fraction(11, 2))  # (2-i)(1/2+3i) = 1+6i-i/2+3
    assert -a == gauss(-2, 1)


def test_division_and_inverse():
    a = gauss(2, -1)
    assert a / a == ONE
    assert (ONE / a) * a == ONE
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


def test_powers_including_zero_conventions():
    assert gauss(0, -1) ** 3 == gauss(0, 1)
    assert gauss(2, -1) ** 0 == ONE
    assert ZERO**0 == ONE  # empty products count as 1
    assert ZERO**5 == ZERO
    assert gauss(2) ** -2 == gauss(Fraction(1, 4))


def test_conjugate_and_abs_squared():
    a = gauss(-85, 30)
    assert a.conjugate() == gauss(-85, -30)
    assert a.abs_squared() == Fraction(8125)
    assert (a * a.conjugate()) == gauss(8125)


def test_str_forms():
    assert str(gauss(-85, 30)) == "-85+30i"
    assert str(gauss(2, -1)) == "2-i"
    assert str(ZERO) == "0"
    assert str(I) == "i"
    assert str(gauss(0, -1)) == "-i"
    assert str(gauss(Fraction(1, 2), Fraction(-3, 4))) == "1/2-3/4i"


@pytest.mark.parametrize(
    "text,expected",
    [
        ("2", gauss(2)),
        ("-1i", gauss(0, -1)),
        ("2-1i", gauss(2, -1)),
        ("1/2+3/4i", gauss(Fraction(1, 2), Fraction(3, 4))),
        ("-i", gauss(0, -1)),
        ("i", I),
        ("0", ZERO),
        ("-3/7", gauss(Fraction(-3, 7))),
        (" 2 - 1i ", gauss(2, -1)),
    ],
)
def test_parse_literals(text, expected):
    assert GaussianRational.parse(text) == expected


@pytest.mark.parametrize(
    "bad", ["", "2+", "1.5", "2i+3i+4", "x", "1//2", "+", "2+3", "1ii", "i i", "3i+4i", "1/0", "2 3"]
)
def test_parse_rejects(bad):
    with pytest.raises(ParseError):
        GaussianRational.parse(bad)


@given(scalars)
def test_str_parse_round_trip(z):
    assert GaussianRational.parse(str(z)) == z


@given(scalars)
def test_json_round_trip(z):
    assert GaussianRational.from_json(z.to_json()) == z


@pytest.mark.parametrize(
    "obj, expected",
    [({"re": 5, "im": -2}, gauss(5, -2)), ({"re": "-3/4"}, gauss(Fraction(-3, 4))),
     ({"im": "+2"}, gauss(0, 2)), ({}, ZERO)],
)
def test_from_json_reads_integers_and_exact_text(obj, expected):
    assert GaussianRational.from_json(obj) == expected


@pytest.mark.parametrize(
    "part", [0.1, 1.0, "0.1", "1e2", "1_0", "1/0", " 1", "\u0661", "0x10", "1/2/3", True, None]
)
def test_from_json_rejects_everything_else(part):
    with pytest.raises(ParseError, match="bad scalar object"):
        GaussianRational.from_json({"re": 1, "im": part})


@given(scalars, scalars, scalars)
def test_field_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + y == y + x
    assert x * y == y * x


@given(scalars)
def test_multiplicative_inverse(z):
    if not z.is_zero():
        assert z * (ONE / z) == ONE


@given(scalars, scalars)
def test_conjugation_is_multiplicative(x, y):
    assert (x * y).conjugate() == x.conjugate() * y.conjugate()
    assert x.abs_squared() == (x * x.conjugate()).re


@given(rationals, rationals)
def test_hash_agrees_with_equal_numbers(re, im):
    z = GaussianRational(re, im)
    assert hash(z) == hash(GaussianRational(re, im))
    if not im:
        assert hash(z) == hash(re)
        if re.denominator == 1:
            assert hash(z) == hash(int(re)) == hash(Fraction(int(re)))
    else:
        assert hash(z) == hash((re, im))


def test_hash_of_integral_components():
    assert hash(gauss(3)) == hash(3) == hash(Fraction(3))
    assert hash(gauss(3, -2)) == hash((3, -2)) == hash((Fraction(3), Fraction(-2)))
    assert hash(gauss(Fraction(1, 2), 3)) == hash((Fraction(1, 2), 3))
    values = {gauss(3): "three", gauss(0, 1): "i"}
    assert values[3] == values[Fraction(3)] == "three"
    assert values[I] == "i"


class Tenth(Fraction):
    """A Fraction subclass, which a scalar must not keep."""


def test_scalar_keeps_the_fraction_it_is_given():
    x, y = Fraction(3, 4), Fraction(-1, 6)
    z = GaussianRational(x, y)
    assert z.re is x and z.im is y
    sub = GaussianRational(Tenth(1, 10))
    assert type(sub.re) is Fraction and sub.re == Fraction(1, 10)
    assert type(GaussianRational(3).re) is Fraction
    for bad in (True, 0.5):
        with pytest.raises(TypeError, match="expected an integer or Fraction"):
            GaussianRational(bad)


@given(st.lists(scalars, max_size=12))
def test_integer_parts_over_the_lcm_of_the_denominators(values):
    re, im, den = integer_parts(values)
    assert den == math.lcm(*(x.denominator for v in values for x in (v.re, v.im)))
    assert all(type(x) is int for x in re + im)
    assert [from_integers(r, i, den) for r, i in zip(re, im)] == values


def test_integer_parts_of_nothing_and_of_integers():
    assert integer_parts([]) == ([], [], 1)
    assert integer_parts([gauss(2, -3), ZERO, I]) == ([2, 0, 0], [-3, 0, 1], 1)
    assert integer_parts([gauss(Fraction(1, 2)), gauss(0, Fraction(-2, 3))]) == (
        [3, 0], [0, -4], 6
    )
    assert from_integers(-3, 4, 6) == gauss(Fraction(-1, 2), Fraction(2, 3))


# Parts up to 10^40 over denominators up to 10^6, with zero, negative and
# integral parts; each operation is checked against the plain-Fraction
# formulas below, written out as they were before the Gaussian-integer form.
big_parts = st.one_of(
    st.just(Fraction(0)),
    st.integers(-10**40, 10**40).map(Fraction),
    st.builds(Fraction, st.integers(-10**40, 10**40), st.integers(1, 10**6)),
)
big_scalars = st.builds(GaussianRational, big_parts, big_parts)


def _add(x, y):
    return x[0] + y[0], x[1] + y[1]


def _mul(x, y):
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def _div(x, y):
    n = y[0] * y[0] + y[1] * y[1]
    return (x[0] * y[0] + x[1] * y[1]) / n, (x[1] * y[0] - x[0] * y[1]) / n


def _pow(x, e):
    if e < 0:
        x, e = _div((Fraction(1), Fraction(0)), x), -e
    result = (Fraction(1), Fraction(0))
    for _ in range(e):
        result = _mul(result, x)
    return result


@settings(max_examples=200)
@given(big_scalars, big_scalars, st.one_of(st.integers(-10**40, 10**40), big_parts),
       st.integers(-3, 4))
def test_arithmetic_matches_the_plain_fraction_formulas(x, y, q, e):
    xs, ys, qs = (x.re, x.im), (y.re, y.im), (Fraction(q), Fraction(0))
    cases = [
        (x + y, _add(xs, ys)),
        (x - y, _add(xs, (-y.re, -y.im))),
        (-x, (-x.re, -x.im)),
        (x * y, _mul(xs, ys)),
        (x.conjugate(), (x.re, -x.im)),
        (x + q, _add(xs, qs)),
        (q + x, _add(qs, xs)),
        (q - x, _add(qs, (-x.re, -x.im))),
        (x * q, _mul(xs, qs)),
        (q * x, _mul(qs, xs)),
    ]
    if y:
        cases += [(x / y, _div(xs, ys)), (q / y, _div(qs, ys))]
    if q:
        cases.append((x / q, _div(xs, qs)))
    if x or e >= 0:
        cases.append((x**e, _pow(xs, e)))
    else:
        with pytest.raises(ZeroDivisionError):
            x**e
    for z, (re, im) in cases:
        assert type(z.re) is Fraction and type(z.im) is Fraction
        assert all(math.gcd(f.numerator, f.denominator) == 1 for f in (z.re, z.im))
        want = GaussianRational(re, im)
        assert (z.re, z.im) == (re, im)
        assert z == want and hash(z) == hash(want)
    n = x.abs_squared()
    assert type(n) is Fraction and n == x.re * x.re + x.im * x.im
