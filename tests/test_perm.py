"""Permutation algebra: composition, cycles, pointwise mixtures."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

import permfunc.perm as perm_module
from permfunc.errors import CapacityError, DegreeMismatchError, ParseError
from permfunc.perm import (
    DEFAULT_ENUMERATION_CAP,
    Permutation,
    check_work,
    common_degree,
    compose,
    cycle_structure,
    disjoint_cycles,
    format_permutation,
    mixtures,
    orbit_labels,
    pair_cycles,
    parse_permutation,
    power_exponent,
    walk_mixtures,
)
from support import brute_closure, brute_x_set, rand_perm


def P(text: str, n: int) -> Permutation:
    return parse_permutation(text, n)


small_perms = st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.permutations(list(range(1, n + 1)))
).map(lambda images: Permutation(tuple(images)))


@pytest.mark.parametrize("images", [(), (1, 1), (0,), (2, 3)])
def test_rejects_non_permutations(images):
    with pytest.raises(ValueError, match="degree must be positive" if not images else "not a permutation"):
        Permutation(images)


@pytest.mark.parametrize(
    "cycles, message",
    [
        ([(1, 2, 1)], "point 1 repeated within its cycle"),
        ([(3, 2, 2)], "point 2 repeated within its cycle"),
        ([(1, 2), (3, 1)], "point 1 repeated across cycles"),
        ([(1, 2), (2, 2)], "point 2 repeated across cycles"),
        ([(1, 4)], r"point 4 outside \[1..3\]"),
    ],
)
def test_from_cycles_names_where_a_point_repeats(cycles, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        Permutation.from_cycles(3, cycles)


class TestCompose:
    def test_involution_squared(self):
        swap = P("(1 2)", 2)
        assert compose(swap, swap) == Permutation.identity(2)

    def test_reference_product(self):
        theta = P("(1 5 3)(2 6)", 6)
        tau = P("(2 4 6)", 6)
        assert compose(theta.inverse(), tau) == P("(1 3 5)(2 4)", 6)

    def test_inverse_pair(self):
        assert compose(P("(1 2 3)", 3), P("(1 3 2)", 3)) == Permutation.identity(3)

    def test_degree_mismatch(self):
        with pytest.raises(DegreeMismatchError):
            compose(Permutation.identity(3), Permutation.identity(4))


class TestInverse:
    def test_identity(self):
        assert Permutation.identity(4).inverse() == Permutation.identity(4)

    def test_three_cycle(self):
        assert P("(1 2 3)", 3).inverse() == P("(1 3 2)", 3)

    def test_remultiply(self):
        p = P("(1 5 3)(2 6)", 6)
        assert compose(p, p.inverse()) == Permutation.identity(6)
        assert p.inverse() == P("(1 3 5)(2 6)", 6)


class TestCycles:
    def test_reference_decomposition(self):
        dec = disjoint_cycles(P("(1 3 5)(2 4)", 6))
        assert dec.cycles == ((1, 3, 5), (2, 4))
        assert dec.fixed_points == frozenset({6})

    def test_identity_decomposition(self):
        dec = disjoint_cycles(Permutation.identity(4))
        assert dec.cycles == ()
        assert dec.fixed_points == frozenset({1, 2, 3, 4})

    def test_four_transpositions(self):
        dec = disjoint_cycles(P("(1 8)(2 7)(3 6)(4 5)", 8))
        assert len(dec.cycles) == 4
        assert all(len(c) == 2 for c in dec.cycles)
        assert not dec.fixed_points

    def test_canonical_order(self):
        # cycles start at their minimum and are sorted by it
        dec = disjoint_cycles(P("(6 2)(5 3 1)", 6))
        assert dec.cycles == ((1, 5, 3), (2, 6))

    def test_structure_reference(self):
        cs = cycle_structure(P("(1 3 5)(2 4)", 6))
        assert cs.lengths == (3, 2)
        assert cs.fixed_count == 1
        assert cs.full_type() == (3, 2, 1)

    def test_structure_identity_and_full_cycle(self):
        assert cycle_structure(Permutation.identity(5)).lengths == ()
        assert cycle_structure(Permutation.identity(5)).fixed_count == 5
        cs = cycle_structure(P("(1 2 3 4 5 6 7)", 7))
        assert cs.lengths == (7,)
        assert cs.fixed_count == 0

    @given(small_perms)
    def test_decomposition_round_trip(self, p):
        assert disjoint_cycles(p).to_permutation() == p

    @given(small_perms)
    def test_sign_matches_transposition_parity(self, p):
        # (-1)^(n - #cycles including fixed points)
        dec = disjoint_cycles(p)
        cycles_total = len(dec.cycles) + len(dec.fixed_points)
        assert p.sign() == (-1) ** (p.degree - cycles_total)


def transpositions(count, n):
    return Permutation.from_cycles(n, [(2 * k + 1, 2 * k + 2) for k in range(count)])


class TestXSet:
    def test_reference_instance(self):
        theta, tau = P("(1 5 3)(2 6)", 6), P("(2 4 6)", 6)
        elements = list(mixtures(theta, tau))
        assert [format_permutation(sigma) for sigma in elements] == [
            "(1 5 3)(2 6)",
            "(2 6)",
            "(1 5 3)(2 4 6)",
            "(2 4 6)",
        ]
        # element k follows tau on the cycles of theta^-1*tau whose bit is set in k
        moved = [len(compose(theta.inverse(), sigma).support()) for sigma in elements]
        assert moved == [0, 3, 2, 5]

    def test_equal_arguments(self):
        theta = P("(1 2 3)", 5)
        assert list(mixtures(theta, theta)) == [theta]

    def test_two_transpositions(self):
        elements = list(mixtures(Permutation.identity(4), P("(1 2)(3 4)", 4)))
        assert set(elements) == brute_x_set(Permutation.identity(4), P("(1 2)(3 4)", 4))
        assert len(elements) == 4

    def test_degree_mismatch(self):
        with pytest.raises(DegreeMismatchError):
            mixtures(Permutation.identity(3), Permutation.identity(4))

    def test_membership_against_brute_force(self):
        rng = random.Random(101)
        for _ in range(40):
            n = rng.randint(2, 6)
            theta, tau = rand_perm(rng, n), rand_perm(rng, n)
            assert set(mixtures(theta, tau)) == brute_x_set(theta, tau)

    def test_size_and_inverse_set(self):
        rng = random.Random(202)
        for _ in range(40):
            n = rng.randint(2, 7)
            theta, tau = rand_perm(rng, n), rand_perm(rng, n)
            elements = list(mixtures(theta, tau))
            r = len(disjoint_cycles(compose(theta.inverse(), tau)).cycles)
            assert len(elements) == 2**r
            inverses = {sigma.inverse() for sigma in elements}
            assert inverses == set(mixtures(theta.inverse(), tau.inverse()))

    def test_bit_j_takes_cycle_j(self):
        # the order xset prints and the weighted walk keeps
        rng = random.Random(303)
        for _ in range(30):
            n = rng.randint(2, 7)
            theta, tau = rand_perm(rng, n), rand_perm(rng, n)
            cycles = disjoint_cycles(compose(theta.inverse(), tau)).cycles
            walked = list(mixtures(theta, tau))
            assert walked[0] == theta and walked[-1] == tau
            for k, sigma in enumerate(walked):
                chosen = {p for j, cycle in enumerate(cycles) if k >> j & 1 for p in cycle}
                assert compose(theta.inverse(), sigma).support() == chosen

    def test_refuses_over_the_cap_before_building(self):
        # 2^22 > 10!: refused by the call itself, before any mixture exists
        n = 44
        with pytest.raises(CapacityError, match="exceeds cap"):
            mixtures(Permutation.identity(n), transpositions(22, n))

    def test_accepts_the_largest_walk_under_the_cap(self):
        # 2^21 <= 10!: accepted; only its first two mixtures are built here
        n = 42
        theta, tau = Permutation.identity(n), transpositions(21, n)
        walk = mixtures(theta, tau)
        assert next(walk) == theta
        assert next(walk) == transpositions(1, n)


class TestSharedHelpers:
    """The one degree check, cycle decomposition, orbit labelling and walk
    cap that every sum shares."""

    def test_common_degree(self):
        assert common_degree(P("(1 2)", 3), P("id", 3)) == 3
        with pytest.raises(DegreeMismatchError, match="degrees differ: 3 vs 4"):
            common_degree(P("(1 2)", 3), P("id", 4))

    @given(small_perms, st.randoms(use_true_random=False))
    @settings(max_examples=60)
    def test_pair_cycles_decompose_the_quotient(self, alpha, rnd):
        beta = rand_perm(rnd, alpha.degree)
        dec = pair_cycles(alpha.images, beta.images)
        assert dec == disjoint_cycles(compose(alpha.inverse(), beta))

    def test_orbit_labels_match_the_generated_group(self):
        # each point's label is the least point it reaches under <gens>
        rng = random.Random(5151)
        for _ in range(60):
            n = rng.randint(1, 6)
            gens = [rand_perm(rng, n) for _ in range(rng.randint(0, 3))]
            group = brute_closure(n, gens)
            expected = [0] + [min(sigma(x) for sigma in group) for x in range(1, n + 1)]
            assert orbit_labels(n, [g.images for g in gens]) == tuple(expected)

    def test_walk_cap_text(self):
        # work up to the cap passes and returns nothing; one step more is
        # refused with the route's own text, and the cap is read at each call
        cap = DEFAULT_ENUMERATION_CAP
        assert check_work("walk of 2^21 mixtures", 1 << 21) is None
        assert check_work("anything", cap) is None
        with pytest.raises(CapacityError) as exc:
            check_work("walk of 2^22 mixtures", 1 << 22)
        assert str(exc.value) == f"walk of 2^22 mixtures exceeds cap {cap}"
        with pytest.raises(CapacityError, match=f"^a route of {cap + 1} steps exceeds cap {cap}$"):
            check_work(f"a route of {cap + 1} steps", cap + 1)

    def test_the_walk_checks_only_its_branching_cycles(self, monkeypatch):
        # with the cap at 8, four cycles of which one has a zero factor: the
        # walk branches on the other three and enters their 8 mixtures; with
        # all four branching, 2^4 is refused before any mixture is entered
        checked = []

        def spy(what, work):
            checked.append((what, work))
            return check_work(what, work)

        monkeypatch.setattr(perm_module, "DEFAULT_ENUMERATION_CAP", 8)
        monkeypatch.setattr(perm_module, "check_work", spy)
        theta, tau = Permutation.identity(8), transpositions(4, 8)
        cycles = pair_cycles(theta.images, tau.images).cycles
        unit, zero = (1, 0), (0, 0)
        walk = walk_mixtures(theta.images, tau.images, cycles, [(unit, unit)] * 3 + [(zero, unit)])
        assert checked == [("walk of 2^3 mixtures", 8)]
        assert sum(1 for _ in walk) == 8
        with pytest.raises(CapacityError, match=r"^walk of 2\^4 mixtures exceeds cap 8$"):
            walk_mixtures(theta.images, tau.images, cycles, [(unit, unit)] * 4)

    def test_degree_over_the_cap_is_refused_before_parsing(self):
        degree = DEFAULT_ENUMERATION_CAP + 1
        for text in ("id", "(1 2)", ""):
            with pytest.raises(CapacityError, match=f"permutation degree {degree} exceeds cap"):
                parse_permutation(text, degree)


@st.composite
def weighted_pairs(draw):
    """(theta, tau, factors): one (a_c, b_c) pair of Gaussian integers per
    cycle of theta^-1*tau, each factor zero about a third of the time."""
    theta = draw(small_perms)
    tau = Permutation(tuple(draw(st.permutations(range(1, theta.degree + 1)))))
    r = len(disjoint_cycles(compose(theta.inverse(), tau)).cycles)
    part = st.integers(-2, 2)
    factor = st.one_of(st.just((0, 0)), st.tuples(part, part))
    return theta, tau, draw(st.lists(st.tuples(factor, factor), min_size=r, max_size=r))


@given(weighted_pairs())
@settings(max_examples=200)
def test_weighted_walk_keeps_the_nonzero_mixtures_in_order(instance):
    theta, tau, factors = instance
    cycles = disjoint_cycles(compose(theta.inverse(), tau)).cycles
    walked = [
        (tuple(images), (re, im))
        for images, re, im in walk_mixtures(theta.images, tau.images, cycles, factors)
    ]
    expected = []
    for k, sigma in enumerate(mixtures(theta, tau)):
        re, im = 1, 0
        for j, (a_c, b_c) in enumerate(factors):
            fr, fi = b_c if k >> j & 1 else a_c
            re, im = re * fr - im * fi, re * fi + im * fr
        if re or im:
            expected.append((sigma.images, (re, im)))
    assert walked == expected


class TestPowerExponent:
    """power_exponent against the listed powers of the generator."""

    @staticmethod
    def listed_powers(g):
        powers, current, k = {}, Permutation.identity(g.degree), 0
        while current not in powers:
            powers[current] = k
            current, k = compose(current, g), k + 1
        return powers

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_every_pair(self, n):
        group = [Permutation(images) for images in itertools.permutations(range(1, n + 1))]
        for g in group:
            powers, dec = self.listed_powers(g), disjoint_cycles(g)
            for sigma in group:
                assert power_exponent(dec, sigma.images) == powers.get(sigma)

    def test_sampled_pairs(self):
        rng = random.Random(404)
        for _ in range(600):
            n = rng.randint(6, 7)
            g = rand_perm(rng, n)
            powers, dec = self.listed_powers(g), disjoint_cycles(g)
            sigma = rng.choice([rand_perm(rng, n), rng.choice(list(powers))])
            assert power_exponent(dec, sigma.images) == powers.get(sigma)

    def test_other_degree_is_no_power(self):
        dec = disjoint_cycles(P("(1 2 3)", 3))
        assert power_exponent(dec, P("(1 2 3)", 4).images) is None


class TestTextFormat:
    @pytest.mark.parametrize(
        "text,n",
        [("(1 5 3)(2 6)", 6), ("id", 4), ("(1 2)", 5), ("(1 8)(2 7)(3 6)(4 5)", 8)],
    )
    def test_round_trip(self, text, n):
        assert format_permutation(parse_permutation(text, n)) == text

    @given(small_perms)
    def test_round_trip_random(self, p):
        assert parse_permutation(format_permutation(p), p.degree) == p

    @pytest.mark.parametrize(
        "bad", ["(1 2", "(1 2)(2 3)", "(0 1)", "(1 9)", "junk", "(1 2) x", "", "  ", "\t"]
    )
    def test_rejects(self, bad):
        with pytest.raises(ParseError):
            parse_permutation(bad, 4)

    @pytest.mark.parametrize("bad", ["(1,,2)", "(1 2,)", "(,1 2)", "(3 4)(1,2,)"])
    def test_rejects_empty_list_items(self, bad):
        # used to parse as if the empty item were not there
        with pytest.raises(ParseError, match="empty list item") as info:
            parse_permutation(bad, 4)
        assert bad in str(info.value)

    @pytest.mark.parametrize("text", ["(1,2)", "(1, 2)", "(1 ,2)"])
    def test_commas_separate_points(self, text):
        assert parse_permutation(text, 4) == parse_permutation("(1 2)", 4)

    def test_identity_spellings(self):
        assert parse_permutation("id", 3) == Permutation.identity(3)
        assert parse_permutation(" () ", 3) == Permutation.identity(3)


class TestValueSemantics:
    def test_distinct_degrees_distinct_values(self):
        assert Permutation.identity(4) != Permutation.identity(6)

    def test_not_a_permutation(self):
        with pytest.raises(ValueError):
            Permutation((1, 1, 3))

    @given(small_perms, st.randoms(use_true_random=False))
    @settings(max_examples=40)
    def test_compose_inverse_identity(self, p, rnd):
        images = list(range(1, p.degree + 1))
        rnd.shuffle(images)
        q = Permutation(tuple(images))
        assert compose(p, q).inverse() == compose(q.inverse(), p.inverse())
