"""Subgroup membership predicates against full enumeration."""

import math
from itertools import permutations

import pytest

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
    assert enumerate_group(SymmetricGroup(3)).order == 6
    assert enumerate_group(PointwiseStabilizer(6, frozenset({1, 3, 5}))).order == 6
    assert enumerate_group(CyclicGroup(P("(1 2 3 4)", 4))).order == 4


def test_stabilizer_is_symmetric_copy_on_free_points():
    sub = enumerate_group(PointwiseStabilizer(6, frozenset({1, 3, 5})))
    for sigma in sub.elements:
        assert {1, 3, 5} <= sigma.fixed_points()
        assert sigma.support() <= {2, 4, 6}


def test_enumeration_is_sorted_and_deterministic():
    sub = enumerate_group(AlternatingGroup(4))
    images = [p.images for p in sub.elements]
    assert images == sorted(images)
    assert sub.elements == enumerate_group(AlternatingGroup(4)).elements


def test_closure_properties_all_variants():
    variants = [
        SymmetricGroup(3),
        AlternatingGroup(4),
        CyclicGroup(P("(1 2 3 4)", 4)),
        PointwiseStabilizer(4, frozenset({2})),
        GeneratedSubgroup(4, (P("(1 2)(3 4)", 4), P("(1 3)(2 4)", 4))),
    ]
    for spec in variants:
        sub = enumerate_group(spec)
        elements = set(sub.elements)
        assert Permutation.identity(spec.degree) in elements
        for g in elements:
            assert g.inverse() in elements
            for h in elements:
                assert compose(g, h) in elements
        assert math.factorial(spec.degree) % sub.order == 0  # Lagrange


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
        members = set(enumerate_group(spec).elements)
        for sigma in everyone:
            assert spec.contains(sigma) == (sigma in members)


def test_capacity_error():
    with pytest.raises(CapacityError):
        enumerate_group(SymmetricGroup(5), cap=100)
    with pytest.raises(CapacityError):
        enumerate_group(
            GeneratedSubgroup(5, (P("(1 2)", 5), P("(1 2 3 4 5)", 5))), cap=100
        )


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
    for text in (
        "S0",
        "A0",
        "gens:(1,2@3",
        "stab:1,,3@6",
        "stab:1,3,@6",
        "stab:,1@6",
        "gens:(1 2),,(1 2 3)@3",
        "gens:(1 2),@3",
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
