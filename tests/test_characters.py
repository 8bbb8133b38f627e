"""Character values: the Murnaghan-Nakayama rule against independent oracles."""

import json
import math
import random
import re
from fractions import Fraction

import pytest

from permfunc.characters import (
    CyclicRootCharacter,
    IrreducibleCharacter,
    Partition,
    SignCharacter,
    TableCharacter,
    TrivialCharacter,
    hook_length_degree,
    mn_value,
    parse_character,
    partitions,
)
from permfunc.errors import CharacterDomainError, ExactnessError, ParseError
from permfunc.gaussian import I, ONE, gauss
from permfunc.groups import CyclicGroup, enumerate_group
from permfunc.perm import Permutation, cycle_structure, parse_permutation
from support import brute_closure, frobenius_character, rand_perm


def P(text, n):
    return parse_permutation(text, n)


def full_types(n):
    """All class labels of S_n (cycle types, fixed points as 1s)."""
    return [tuple(sorted(lam, reverse=True)) for lam in partitions(n)]


def test_trivial_and_sign_basics():
    assert TrivialCharacter().evaluate(P("(1 5 3)(2 6)", 6).images) == ONE
    assert SignCharacter().evaluate(P("(1 5 3)(2 6)", 6).images) == gauss(-1)
    assert SignCharacter().evaluate(P("(1 2 3)", 3).images) == ONE
    assert TrivialCharacter().degree() == 1
    assert SignCharacter().degree() == 1


def test_two_one_character_values():
    chi = IrreducibleCharacter(Partition((2, 1)))
    values = {
        "id": chi.evaluate(Permutation.identity(3).images),
        "swap": chi.evaluate(P("(1 2)", 3).images),
        "rot": chi.evaluate(P("(1 2 3)", 3).images),
    }
    assert values == {"id": gauss(2), "swap": gauss(0), "rot": gauss(-1)}
    # column orthogonality of the S_3 table: columns (1,1,2), (1,-1,0), (1,1,-1)
    assert 1 * 1 + (-1) * 1 + 0 * 2 == 0
    assert chi.degree() == 2 == hook_length_degree((2, 1))


def test_mn_trivial_and_sign_rows():
    for n in range(1, 6):
        for mu in full_types(n):
            assert mn_value((n,), mu) == 1
            parity = (-1) ** sum(l - 1 for l in mu)
            assert mn_value(tuple([1] * n), mu) == parity


def test_mn_two_two_frozen():
    # frozen from the polynomial-coefficient oracle
    assert frobenius_character((2, 2), (2, 2)) == 2
    assert mn_value((2, 2), (2, 2)) == 2


def test_mn_against_polynomial_oracle():
    for n in range(1, 7):
        for lam in partitions(n):
            for mu in full_types(n):
                assert mn_value(lam, mu) == frobenius_character(lam, mu)


def test_mn_size_mismatch():
    with pytest.raises(ValueError):
        mn_value((2, 1), (2, 2))


@pytest.mark.parametrize("n", [600, 2000])
def test_standard_character_is_fixed_points_minus_one_at_large_degree(n):
    # chi_(n-1,1)(sigma) = fix(sigma) - 1; the recursion takes one level per
    # cycle longer than 1, none for the fixed points
    chi = IrreducibleCharacter(Partition((n - 1, 1)))
    rng = random.Random(n)
    transpositions = Permutation(tuple(x - 1 + 2 * (x % 2) if x <= 800 else x for x in range(1, n + 1)))
    for sigma in (Permutation.identity(n), P("(1 2)", n), rand_perm(rng, n), transpositions):
        fixed = sum(x == y for x, y in enumerate(sigma.images, 1))
        assert chi.evaluate(sigma.images) == gauss(fixed - 1)


@pytest.mark.parametrize("count", [401, 500, 2000])
def test_mn_answers_classes_of_many_transpositions(count):
    # closed forms at 2^k 1^m: chi_(n-1,1) = m - 1, chi_(n-2,2) = m(m-3)/2 + k
    for fixed in (0, 1, 3, 10):
        n, cycle_type = 2 * count + fixed, (2,) * count + (1,) * fixed
        assert mn_value((n - 1, 1), cycle_type) == fixed - 1
        assert mn_value((n - 2, 2), cycle_type) == fixed * (fixed - 3) // 2 + count
    # the memo holds only the pairs asked for, none of the shapes between
    mn_value.cache_clear()
    mn_value((2 * count + 1, 1), (2,) * count + (1,) * 2)
    assert mn_value.cache_info().currsize == 1


def test_first_orthogonality():
    for n in range(2, 6):
        classes = {}
        for images in __import__("itertools").permutations(range(1, n + 1)):
            sigma = Permutation(images)
            classes.setdefault(cycle_structure(sigma).full_type(), []).append(sigma)
        lams = list(partitions(n))
        for lam in lams:
            for mu in lams:
                total = sum(
                    len(members) * mn_value(lam, t) * mn_value(mu, t)
                    for t, members in classes.items()
                )
                assert total == (math.factorial(n) if lam == mu else 0)


def test_degree_square_sum():
    for n in range(1, 7):
        assert sum(hook_length_degree(lam) ** 2 for lam in partitions(n)) == math.factorial(n)


def test_bounded_by_degree_and_class_function():
    rng = random.Random(99)
    for n in range(2, 6):
        for lam in partitions(n):
            chi = IrreducibleCharacter(Partition(lam))
            top = chi.degree()
            for _ in range(10):
                sigma = rand_perm(rng, n)
                value = chi.evaluate(sigma.images)
                assert value.abs_squared() <= Fraction(top * top)
                g = rand_perm(rng, n)
                conjugated = g * sigma * g.inverse()
                assert chi.evaluate(conjugated.images) == value


class TestCyclicRoot:
    def test_order_four_exact(self):
        g = P("(1 2 3 4)", 4)
        chi = CyclicRootCharacter(g, 1)
        assert chi.evaluate(Permutation.identity(4).images) == ONE
        assert chi.evaluate(g.images) == I
        assert chi.evaluate((g * g).images) == gauss(-1)
        assert chi.evaluate(g.inverse().images) == chi.evaluate(g.images).conjugate()

    def test_order_two_exact(self):
        g = P("(1 2)", 2)
        chi = CyclicRootCharacter(g, 1)
        assert chi.evaluate(g.images) == gauss(-1)

    def test_order_three_rejected_exactly_but_floats(self):
        g = P("(1 2 3)", 3)
        chi = CyclicRootCharacter(g, 1)
        with pytest.raises(ExactnessError):
            chi.evaluate(g.images)
        value = chi.evaluate_float(g.images)
        assert abs(value - complex(-0.5, math.sqrt(3) / 2)) < 1e-12

    def test_outside_group(self):
        chi = CyclicRootCharacter(P("(1 2)", 3), 1)
        with pytest.raises(CharacterDomainError):
            chi.evaluate(P("(1 3)", 3).images)

    def test_values_match_the_root_formula(self):
        # exp(2*pi*i*k*index/order) in its exact form, for every power k
        # of generators of order 1, 2 and 4 and every index residue
        def formula(order, k, index):
            e = (k * index) % order
            if order == 1:
                return ONE
            if order == 2:
                return gauss(1 - 2 * e)
            return I**e

        for text, order in (("id", 1), ("(1 2)", 2), ("(1 2 3 4)", 4), ("(1 2 3 4)(5 6)", 4)):
            g = P(text, 6)
            powers = [Permutation.identity(6)]
            for _ in range(order - 1):
                powers.append(powers[-1] * g)
            for index in range(-9, 10):
                chi = CyclicRootCharacter(g, index)
                for k, sigma in enumerate(powers):
                    value = chi.evaluate(sigma.images)
                    assert value == formula(order, k, index)
                    assert type(value.re) is type(value.im) is Fraction
                    assert abs(chi.evaluate_float(sigma.images) - complex(value.re, value.im)) < 1e-12

    def test_is_homomorphism_order_four(self):
        g = P("(1 2 3 4)", 4)
        chi = CyclicRootCharacter(g, 3)
        powers = [Permutation.identity(4), g, g * g, g * g * g]
        for x in powers:
            for y in powers:
                assert chi.evaluate((x * y).images) == chi.evaluate(x.images) * chi.evaluate(y.images)


def conjugacy_classes(elements):
    """The conjugacy classes of a listed group, by conjugating with every member."""
    classes, seen = [], set()
    for sigma in sorted(elements, key=lambda p: p.images):
        if sigma not in seen:
            cls = {g * sigma * g.inverse() for g in elements}
            seen |= cls
            classes.append(sorted(cls, key=lambda p: p.images))
    return classes


def write_table(path, values):
    """A table file mapping each permutation's cycle notation to its value."""
    path.write_text(json.dumps({str(sigma): value.to_json() for sigma, value in values.items()}))
    return f"table:{path}"


# S_3, S_4, the dihedral group of the square and C_4 x C_2, by generators
TABLE_GROUPS = {
    "S3": (3, ["(1 2)", "(1 2 3)"]),
    "S4": (4, ["(1 2)", "(1 2 3 4)"]),
    "D4": (4, ["(1 2 3 4)", "(1 3)"]),
    "C4xC2": (6, ["(1 2 3 4)", "(5 6)"]),
}


class TestTable:
    def _cyclic4_table(self):
        g = P("(1 2 3 4)", 4)
        chi = CyclicRootCharacter(g, 1)
        return tuple((sigma, chi.evaluate(sigma.images)) for sigma in enumerate_group(CyclicGroup(g)))

    def test_valid_table(self):
        chi = TableCharacter(self._cyclic4_table())
        g = P("(1 2 3 4)", 4)
        assert chi.evaluate(g.images) == I
        assert chi.evaluate(g.inverse().images) == I.conjugate()
        assert chi.degree() == 1

    def test_table_miss(self):
        chi = TableCharacter(self._cyclic4_table())
        with pytest.raises(CharacterDomainError):
            chi.evaluate(P("(1 2)", 4).images)

    def test_rejects_value_above_degree(self):
        bad = tuple(
            (sigma, gauss(5) if not sigma.is_identity() else value)
            for sigma, value in self._cyclic4_table()
        )
        with pytest.raises(ValueError):
            TableCharacter(bad)

    def test_rejects_non_class_function(self):
        from permfunc.groups import SymmetricGroup

        swap = P("(1 2)", 3)
        bad = tuple(
            (sigma, gauss(1) if sigma == swap else (gauss(2) if sigma.is_identity() else gauss(0)))
            for sigma in enumerate_group(SymmetricGroup(3))
        )
        with pytest.raises(ValueError):
            TableCharacter(bad)

    @staticmethod
    def _class_functions(name):
        """The group's elements, its classes and class functions on it: one
        value per class, chi(id) real and above every other modulus."""
        n, gens = TABLE_GROUPS[name]
        elements = brute_closure(n, [P(g, n) for g in gens])
        classes = conjugacy_classes(elements)
        rng = random.Random(name)
        functions = []
        for _ in range(4):
            values = {}
            for cls in classes:
                value = gauss(rng.randint(-2, 2), rng.randint(-2, 2))
                if cls[0].is_identity():
                    value = gauss(rng.randint(3, 5))
                values.update(dict.fromkeys(cls, value))
            functions.append(values)
        return elements, classes, functions

    @pytest.mark.parametrize("name", list(TABLE_GROUPS))
    def test_every_class_function_loads(self, tmp_path, name):
        elements, _, functions = self._class_functions(name)
        n = TABLE_GROUPS[name][0]
        for values in functions:
            chi = parse_character(write_table(tmp_path / "chi.json", values), n)
            assert {sigma: chi.evaluate(sigma.images) for sigma in elements} == values

    # C4 x C2 is abelian: every class is a single element
    @pytest.mark.parametrize("name", [name for name in TABLE_GROUPS if name != "C4xC2"])
    def test_one_changed_entry_in_a_class_is_refused(self, tmp_path, name):
        _, classes, functions = self._class_functions(name)
        n = TABLE_GROUPS[name][0]
        shared = [cls for cls in classes if len(cls) >= 2]
        assert shared
        for values in functions:
            for cls in shared:
                for sigma in cls:
                    # moved towards 0, the value stays within chi(id), so
                    # only the class test can fail
                    step = gauss(1 if values[sigma].re < 0 else -1)
                    changed = {**values, sigma: values[sigma] + step}
                    path = tmp_path / "chi.json"
                    with pytest.raises(ParseError, match="not a class function") as info:
                        parse_character(write_table(path, changed), n)
                    assert str(path) in str(info.value)

    @pytest.mark.parametrize("name", list(TABLE_GROUPS))
    def test_one_dropped_key_is_refused(self, tmp_path, name):
        elements, _, functions = self._class_functions(name)
        n = TABLE_GROUPS[name][0]
        values = functions[0]
        for sigma in elements:
            kept = {key: value for key, value in values.items() if key != sigma}
            path = tmp_path / "chi.json"
            with pytest.raises(ParseError, match="not closed") as info:
                parse_character(write_table(path, kept), n)
            assert str(path) in str(info.value)


def test_parse_character():
    assert parse_character("trivial") == TrivialCharacter()
    assert parse_character("sign") == SignCharacter()
    assert parse_character("irr:[3,1]") == IrreducibleCharacter(Partition((3, 1)))
    with pytest.raises(ParseError):
        parse_character("irr:[1,3]")
    with pytest.raises(ParseError):
        parse_character("nope")


@pytest.mark.parametrize("n", range(1, 9))
def test_character_text_round_trip(n):
    irreducible = [IrreducibleCharacter(Partition(parts)) for parts in partitions(n)]
    for chi in [TrivialCharacter(), SignCharacter(), *irreducible]:
        assert parse_character(str(chi), n) == chi


@pytest.mark.parametrize(
    "text, degree, named",
    [
        ("irr:[3,2]", 4, "partition of 5"),
        ("irr:[3,1]", 5, "partition of 4"),
        ("irr:[]", 4, "empty"),
    ],
)
def test_parse_character_rejects_partition_of_another_size(text, degree, named):
    with pytest.raises(ParseError, match=re.escape(named)) as info:
        parse_character(text, degree)
    assert text in str(info.value)
    assert parse_character("irr:[3,1]", 4) == IrreducibleCharacter(Partition((3, 1)))


@pytest.mark.parametrize("text", ["irr:[3,,1]", "irr:[,4]", "irr:[4,]"])
def test_parse_character_rejects_empty_list_items(text):
    # used to parse as if the empty item were not there
    with pytest.raises(ParseError, match="empty list item") as info:
        parse_character(text, 4)
    assert text in str(info.value)


def test_table_character_from_json(tmp_path):
    path = tmp_path / "chi.json"
    path.write_text(
        '{"id": {"re": "1", "im": "0"},'
        ' "(1 2 3)": {"re": "1", "im": "0"},'
        ' "(1 3 2)": {"re": "1", "im": "0"}}'
    )
    chi = parse_character(f"table:{path}", 3)
    assert chi.evaluate(P("(1 2 3)", 3).images) == ONE
    with pytest.raises(ParseError):
        parse_character(f"table:{tmp_path / 'missing.json'}", 3)


@pytest.mark.parametrize(
    "body, named",
    [
        # two spellings of one transposition; the last used to win
        ('{"id": {"re": "1"}, "(1 2)": {"re": "-1"}, "(2 1)": {"re": "1"}}', "(2 1)"),
        # a literal key repeated, which json.load alone keeps silently
        ('{"id": {"re": "1"}, "(1 2)": {"re": "-1"}, "(1 2)": {"re": "1"}}', "(1 2)"),
    ],
    ids=["two-spellings", "repeated-key"],
)
def test_table_naming_a_permutation_twice_is_rejected(tmp_path, body, named):
    path = tmp_path / "chi.json"
    path.write_text(body)
    with pytest.raises(ParseError, match=re.escape(named)):
        parse_character(f"table:{path}", 2)


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition((1, 3))
    with pytest.raises(ValueError):
        Partition((0,))
    assert Partition((3, 1)).size == 4
