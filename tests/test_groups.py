"""Subgroup membership predicates against full enumeration."""

import math
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from permfunc import groups
from permfunc.errors import CapacityError, ParseError
from permfunc.groups import (
    AlternatingGroup,
    CyclicGroup,
    GeneratedSubgroup,
    PointwiseStabilizer,
    SymmetricGroup,
    enumerate_group,
    parse_group,
)
from permfunc.perm import Permutation, compose, parse_permutation
from support import brute_closure


def P(text, n):
    return parse_permutation(text, n)


def test_stabilizer_membership_reference():
    group = PointwiseStabilizer(6, frozenset({1, 3, 5}))
    assert group.contains(P("(2 4 6)", 6))
    assert not group.contains(P("(1 5 3)(2 6)", 6))


def test_alternating_contains_identity():
    assert AlternatingGroup(5).contains(Permutation.identity(5))
    assert not AlternatingGroup(5).contains(P("(1 2)", 5))


def test_generated_closure_gives_whole_group():
    group = GeneratedSubgroup(3, (P("(1 2)", 3), P("(1 2 3)", 3)))
    for images in permutations((1, 2, 3)):
        assert group.contains(Permutation(images))
    assert group.order() == 6


def test_enumerate_counts():
    assert len(enumerate_group(SymmetricGroup(3))) == 6
    assert len(enumerate_group(PointwiseStabilizer(6, frozenset({1, 3, 5})))) == 6
    assert len(enumerate_group(CyclicGroup(P("(1 2 3 4)", 4)))) == 4


def test_stabilizer_is_symmetric_copy_on_free_points():
    for sigma in enumerate_group(PointwiseStabilizer(6, frozenset({1, 3, 5}))):
        assert {1, 3, 5} <= sigma.fixed_points()
        assert sigma.support() <= {2, 4, 6}


def test_enumeration_is_sorted_and_deterministic():
    elements = enumerate_group(AlternatingGroup(4))
    images = [p.images for p in elements]
    assert images == sorted(images)
    assert elements == enumerate_group(AlternatingGroup(4))


def test_closure_properties_all_variants():
    variants = [
        SymmetricGroup(3),
        AlternatingGroup(4),
        CyclicGroup(P("(1 2 3 4)", 4)),
        PointwiseStabilizer(4, frozenset({2})),
        GeneratedSubgroup(4, (P("(1 2)(3 4)", 4), P("(1 3)(2 4)", 4))),
    ]
    for spec in variants:
        elements = set(enumerate_group(spec))
        assert Permutation.identity(spec.degree) in elements
        for g in elements:
            assert g.inverse() in elements
            for h in elements:
                assert compose(g, h) in elements
        assert math.factorial(spec.degree) % len(elements) == 0  # Lagrange


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_contains_agrees_with_enumeration(n):
    variants = [
        SymmetricGroup(n),
        AlternatingGroup(n),
        CyclicGroup(P("(1 2)", n)),
        CyclicGroup(Permutation(tuple(list(range(2, n + 1)) + [1]))),
        PointwiseStabilizer(n, frozenset({1})),
        GeneratedSubgroup(n, (P("(1 2)", n),)),
    ]
    everyone = [Permutation(images) for images in permutations(range(1, n + 1))]
    for spec in variants:
        members = set(enumerate_group(spec))
        for sigma in everyone:
            assert spec.contains(sigma) == (sigma in members)


def test_capacity_error():
    with pytest.raises(CapacityError):
        enumerate_group(SymmetricGroup(11))
    with pytest.raises(CapacityError):
        enumerate_group(parse_group("gens:(1 2),(1 2 3 4 5 6 7 8 9 10 11)@11"))


def test_order_without_enumeration():
    assert SymmetricGroup(6).order() == 720
    assert AlternatingGroup(6).order() == 360
    assert PointwiseStabilizer(6, frozenset({1, 3, 5})).order() == 6
    assert CyclicGroup(P("(1 2 3)(4 5)", 5)).order() == 6


@pytest.mark.parametrize(
    "text,expected",
    [
        ("S6", SymmetricGroup(6)),
        ("A6", AlternatingGroup(6)),
        ("stab:1,3,5@6", PointwiseStabilizer(6, frozenset({1, 3, 5}))),
        ("gens:(1,2),(1 2 3)@3", GeneratedSubgroup(3, (P("(1 2)", 3), P("(1 2 3)", 3)))),
    ],
)
def test_parse_group(text, expected):
    assert parse_group(text) == expected


def test_parse_group_with_default_degree():
    spec = parse_group("cyclic:(1 2 3 4)", 4)
    assert spec == CyclicGroup(P("(1 2 3 4)", 4))
    gens = parse_group("gens:(1 2),(1 2 3)@3")
    assert gens == GeneratedSubgroup(3, (P("(1 2)", 3), P("(1 2 3)", 3)))


def test_parse_group_errors():
    with pytest.raises(ParseError):
        parse_group("cyclic:(1 2 3)")  # no degree anywhere
    with pytest.raises(ParseError):
        parse_group("wat@4")
    with pytest.raises(ParseError):
        parse_group("stab:9@4")
    for text in ("stab:", "stab:1", "cyclic:(1 2)", "gens:(1 2)"):
        with pytest.raises(ParseError, match="degree"):
            parse_group(text, 0)  # a default degree below 1
    for text in (
        "S0",
        "A0",
        "gens:(1,2@3",
        "stab:1,,3@6",
        "stab:1,3,@6",
        "stab:,1@6",
        "gens:(1 2),,(1 2 3)@3",
        "gens:(1 2),@3",
        "cyclic:@3",
        "cyclic: @3",
    ):
        with pytest.raises(ParseError):
            parse_group(text)


@pytest.mark.parametrize("text, point", [("stab:1,1@6", 1), ("stab:2,5,3,5@6", 5)])
def test_parse_group_repeated_stabilizer_point(text, point):
    # used to parse silently as the stabilizer of the distinct points
    with pytest.raises(ParseError, match=f"point {point} repeated"):
        parse_group(text)


def test_parse_group_stabilizing_no_point():
    assert parse_group("stab:@6") == PointwiseStabilizer(6, frozenset())
    assert parse_group("stab:@6").order() == math.factorial(6)


@st.composite
def group_specs(draw, kind):
    n = draw(st.integers(1, 6))
    perms = st.permutations(range(1, n + 1)).map(lambda images: Permutation(tuple(images)))
    if kind == "S":
        return SymmetricGroup(n)
    if kind == "A":
        return AlternatingGroup(n)
    if kind == "stab":
        return PointwiseStabilizer(n, draw(st.frozensets(st.integers(1, n), max_size=n)))
    if kind == "cyclic":
        return CyclicGroup(draw(perms))
    return GeneratedSubgroup(n, tuple(draw(st.lists(perms, min_size=1, max_size=3))))


@pytest.mark.parametrize("kind", ["S", "A", "stab", "cyclic", "gens"])
@settings(max_examples=40)
@given(data=st.data())
def test_group_text_round_trip(kind, data):
    # every group's text names its degree, so it parses with no default
    group = data.draw(group_specs(kind))
    assert parse_group(str(group)) == group


def test_cyclic_group_text_names_its_degree():
    group = CyclicGroup(Permutation.from_cycles(5, [(1, 2, 3)]))
    assert str(group) == "cyclic:(1 2 3)@5"
    assert str(CyclicGroup(Permutation.identity(3))) == "cyclic:id@3"


@st.composite
def generator_lists(draw):
    """(n, generators) on n <= 6 points.

    Each generator permutes the points inside the blocks of one drawn
    partition, so two or more blocks give an intransitive group and
    one-point blocks fixed points; lists may repeat a generator, hold the
    identity, or hold nothing else.
    """
    n = draw(st.integers(min_value=1, max_value=6))
    if draw(st.integers(min_value=0, max_value=5)) == 0:
        return n, (Permutation.identity(n),) * draw(st.integers(min_value=1, max_value=3))
    block_of = draw(st.lists(st.integers(min_value=0, max_value=2), min_size=n, max_size=n))
    blocks = [[p for p in range(1, n + 1) if block_of[p - 1] == b] for b in set(block_of)]
    gens = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        images = list(range(1, n + 1))
        for block in blocks:
            for p, q in zip(block, draw(st.permutations(block))):
                images[p - 1] = q
        gens.append(Permutation(tuple(images)))
    if draw(st.booleans()):
        gens.append(gens[0])
    if draw(st.booleans()):
        gens.append(Permutation.identity(n))
    return n, tuple(gens)


def assert_matches_closure(group):
    """order(), contains on all of S_n and the enumeration against brute force."""
    n = group.degree
    closure = brute_closure(n, group.generators)
    assert group.order() == len(closure)
    for images in permutations(range(1, n + 1)):
        sigma = Permutation(images)
        assert group.contains(sigma) == (sigma in closure)
    expected = sorted(closure, key=lambda p: p.images)
    assert list(enumerate_group(group)) == expected


@given(generator_lists())
@settings(max_examples=80)
def test_generated_group_matches_its_closure(case):
    n, gens = case
    assert_matches_closure(GeneratedSubgroup(n, gens))


def cycles(n, *cycle_list):
    return Permutation.from_cycles(n, cycle_list)


def certified_presentations():
    """(n, generators) of S_n and A_n (by even generators), and of pointwise
    stabilizers by adjacent transpositions of their free points: each
    order reaches the bound set by the orbits and the generators' parity."""
    out = []
    for n in range(1, 7):
        out.append((n, (cycles(n, (1, 2)[:n]), cycles(n, tuple(range(1, n + 1))))))
        if n >= 3:
            out.append((n, tuple(cycles(n, (1, 2, k)) for k in range(3, n + 1))))
        for points in ({1}, {2, n}, set(range(2, n + 1, 2))):
            free = sorted(set(range(1, n + 1)) - points)
            pairs = tuple(cycles(n, pair) for pair in zip(free, free[1:]))
            out.append((n, pairs or (cycles(n),)))
    return out


def sifting_presentations():
    """(n, generators) of dihedral groups and products of disjoint cycles:
    orders below that bound."""
    out = []
    for n in range(4, 7):
        reflection = cycles(n, *[(k, n + 1 - k) for k in range(1, n // 2 + 1)])
        out.append((n, (cycles(n, tuple(range(1, n + 1))), reflection)))
    out.append((6, (cycles(6, (1, 2, 3)), cycles(6, (4, 5, 6)))))
    out.append((6, (cycles(6, (1, 2, 3), (4, 5)),)))
    out.append((7, (cycles(7, (1, 2, 3, 4)), cycles(7, (5, 6)), cycles(7, (1, 3)))))
    return out


@pytest.fixture
def schreier_tests(monkeypatch):
    """The chains that ran the deterministic Schreier test."""
    calls = []
    test = groups._StabilizerChain._schreier_test

    def spy(chain):
        calls.append(chain)
        return test(chain)

    monkeypatch.setattr(groups._StabilizerChain, "_schreier_test", spy)
    return calls


@pytest.mark.parametrize("n, gens", certified_presentations())
def test_orbit_bound_certifies_the_random_build(schreier_tests, n, gens):
    group = GeneratedSubgroup(n, gens)
    assert not schreier_tests
    assert_matches_closure(group)


@pytest.mark.parametrize("n, gens", sifting_presentations())
def test_smaller_groups_take_the_schreier_test(schreier_tests, n, gens):
    group = GeneratedSubgroup(n, gens)
    assert len(schreier_tests) == 1
    assert_matches_closure(group)


def test_generated_order_needs_no_element():
    # the order of S_60 comes from the base and strong generating set
    group = parse_group("gens:(1 2),(" + " ".join(map(str, range(1, 61))) + ")@60")
    assert group.order() == math.factorial(60)
    assert group.contains(parse_permutation("(1 60)(2 3 4)", 60))
    small = parse_group("gens:(1 2 3),(3 4 5)@60")
    assert small.order() == 60
    assert not small.contains(parse_permutation("(1 2)", 60))
    with pytest.raises(CapacityError, match=f"group order {math.factorial(60)} exceeds cap"):
        enumerate_group(group)


@pytest.mark.parametrize("text, labels", [
    ("S5", None),
    ("A5", None),
    ("S1", None),
    ("stab:@5", None),
    ("cyclic:(1 2 3)@3", None),
    ("cyclic:(1 2 3 4 5)@5", None),
    ("gens:(1 2),(1 2 3 4 5)@5", None),
    ("gens:(1 2 3 4 5)@5", None),
    ("stab:2@5", (0, 1, 2, 1, 1, 1)),
    ("stab:1,2,3,4,5@5", (0, 1, 2, 3, 4, 5)),
    ("cyclic:(1 3)(2 4 5)@5", (0, 1, 2, 1, 2, 2)),
    ("cyclic:(1 2)@3", (0, 1, 1, 3)),
    ("gens:(1 3),(2 5)@5", (0, 1, 2, 1, 4, 2)),
    ("gens:(1 3 5),(2 4)@5", (0, 1, 2, 1, 2, 1)),
])
def test_orbits_label_two_or_more_orbits(text, labels):
    # one orbit, Young or not, answers None, so a caller tests `if labels:`
    assert parse_group(text).orbits() == labels


@pytest.mark.parametrize("text, images", [
    ("cyclic:(1 2 3)(4 5)@6", [(2, 3, 1, 5, 4, 6)]),
    ("gens:(1 2),(3 4 5)@5", [(2, 1, 3, 4, 5), (1, 2, 4, 5, 3)]),
])
def test_generated_groups_give_their_generators(monkeypatch, text, images):
    group = parse_group(text)
    monkeypatch.setattr(type(group), "_generate", lambda self: pytest.fail("members listed"))
    assert list(group.generating_images()) == images


def test_other_groups_are_generated_by_their_members():
    for text in ("S3", "A4", "stab:2@4"):
        group = parse_group(text)
        assert sorted(group.generating_images()) == sorted(group._generate())
