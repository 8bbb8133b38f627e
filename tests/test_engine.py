"""Evaluation routes: frozen reference values and cross-route equivalences."""

import contextlib
import functools
import itertools
import math
import random
import re
import tracemalloc
from fractions import Fraction
from math import comb

import pytest
from hypothesis import example, given, settings, strategies as st

import permfunc as pf
from permfunc import engine, groups, kernels, perm
from permfunc.characters import (
    CyclicRootCharacter,
    IrreducibleCharacter,
    Partition,
    SignCharacter,
    TableCharacter,
    TrivialCharacter,
    mn_value,
    parse_character,
    partitions,
)
from permfunc.errors import (
    CapacityError,
    CharacterDomainError,
    DegreeMismatchError,
    DisjointnessError,
    ExactnessError,
)
from permfunc.gaussian import ONE, ZERO, gauss
from permfunc._record import record
from permfunc.groups import (
    AlternatingGroup,
    CyclicGroup,
    GeneratedSubgroup,
    GroupSpec,
    PointwiseStabilizer,
    SymmetricGroup,
    parse_group,
)
from permfunc.matrices import (
    BlockSpec,
    Matrix,
    block_matrix,
    integer_grid,
    linear_sum,
    mat_add,
    perm_matrix,
    s_matrix,
    scalar_mul,
)
from permfunc.perm import Permutation, compose, cycle_structure, parse_permutation
from support import (
    brute_gmf,
    brute_x_set,
    cycle_lengths,
    linear_sum_det_per,
    naive_det_expansion,
    rand_involution,
    rand_perm,
    rand_scalar,
    refuse_membership,
)


def P(text, n):
    return parse_permutation(text, n)


REF_THETA = ("(1 5 3)(2 6)", 6)
REF_TAU = ("(2 4 6)", 6)


def reference_instance():
    theta, tau = P(*REF_THETA), P(*REF_TAU)
    return gauss(2), gauss(0, -1), theta, tau


def odd_and_even_blocks(n):
    """The Young group of the odd and the even points of [n], as a gens: group."""
    odd, even = list(range(1, n + 1, 2)), list(range(2, n + 1, 2))
    return GeneratedSubgroup(n, tuple(
        Permutation.from_cycles(n, [cycle]) for block in (odd, even) for cycle in (block[:2], block)
    ))


def three_a_row(rng, labels):
    """Rows of nonzero Gaussian integers on the points of ``labels``: row x
    at x and at the next point of its orbit, and at one point of another."""
    n, rows = len(labels) - 1, []
    for x in range(1, n + 1):
        orbit = [j for j in range(1, n + 1) if labels[j] == labels[x]]
        across = [j for j in range(1, n + 1) if labels[j] != labels[x]]
        support = {x, orbit[(orbit.index(x) + 1) % len(orbit)], rng.choice(across)}
        rows.append([gauss(rng.randint(1, 3), rng.randint(-1, 1)) if j in support else ZERO
                     for j in range(1, n + 1)])
    return Matrix(rows)


class TestNaive:
    def test_identity_det(self):
        for n in (1, 2, 4):
            result = pf.gmf_naive(Matrix.identity(n), SymmetricGroup(n), SignCharacter())
            assert result.value == ONE
            assert result.term_count == math.factorial(n)

    def test_all_ones_permanent(self):
        j2 = Matrix([[ONE, ONE], [ONE, ONE]])
        assert pf.gmf_naive(j2, SymmetricGroup(2), TrivialCharacter()).value == gauss(2)

    def test_reference_value(self):
        a, b, theta, tau = reference_instance()
        result = pf.gmf_naive(linear_sum(a, b, theta, tau), SymmetricGroup(6), SignCharacter())
        assert result.value == gauss(-85, 30)
        assert result.term_count == 720

    def test_degree_checks(self):
        with pytest.raises(DegreeMismatchError):
            pf.gmf_naive(Matrix.identity(3), SymmetricGroup(4), SignCharacter())

    def test_non_square_error_names_its_shape(self):
        with pytest.raises(DegreeMismatchError, match="need a square matrix, got 2x3"):
            pf.gmf_naive(Matrix.zero(2, 3), SymmetricGroup(2), SignCharacter())

    def test_dense_matches_brute_force(self):
        rng = random.Random(913)
        nonzero = [v for v in range(-3, 4) if v]
        for n in (4, 5, 6):
            matrix = Matrix(
                [
                    [gauss(rng.choice(nonzero), rng.randint(-3, 3)) for _ in range(n)]
                    for _ in range(n)
                ]
            )
            specs = [
                AlternatingGroup(n),
                parse_group(f"stab:1,{n}@{n}"),
                parse_group(f"gens:(1 2)(3 4),(1 3 2)@{n}"),
                SymmetricGroup(n),
            ]
            characters = [
                TrivialCharacter(),
                SignCharacter(),
                parse_character(f"irr:[{n - 2},2]", n),
            ]
            for group in specs:
                for chi in characters:
                    result = pf.gmf_naive(matrix, group, chi)
                    assert result.value == brute_gmf(matrix, group, chi)
                    assert result.term_count == group.order()

    def test_sparse_input_skips_enumeration(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the naive route enumerated the group")

        monkeypatch.setattr(groups, "enumerate_group", refuse)
        monkeypatch.setattr(SymmetricGroup, "_generate", refuse)
        ident = Permutation.identity(10)
        cycle = Permutation.from_cycles(10, [tuple(range(1, 11))])
        matrix = linear_sum(ONE, ONE, ident, cycle)
        result = pf.gmf_naive(matrix, SymmetricGroup(10), TrivialCharacter())
        assert result.value == gauss(2)
        assert result.term_count == math.factorial(10)


    def test_fractional_weights_and_entries_match_brute_force(self):
        # character values +-1, +-i and non-integers, on dense matrices whose
        # entries are not Gaussian integers: the per-value sums are exact
        rng = random.Random(3131)

        def entry():
            return gauss(Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 4)),
                         Fraction(rng.randint(-3, 3), rng.randint(1, 3)))

        cycle = P("(1 2 3 4)", 4)
        cyclic = [(CyclicGroup(cycle), CyclicRootCharacter(cycle, k)) for k in range(4)]
        s4 = pf.enumerate_group(SymmetricGroup(4))
        by_type = {
            (): gauss(3),
            (2,): gauss(Fraction(1, 2)),
            (2, 2): gauss(Fraction(-2, 3), Fraction(1, 3)),
            (3,): gauss(Fraction(-1, 4)),
            (4,): gauss(0, Fraction(5, 6)),
        }
        table = TableCharacter(
            tuple((sigma, by_type[cycle_structure(sigma).lengths]) for sigma in s4)
        )
        cases = cyclic + [(SymmetricGroup(4), table), (AlternatingGroup(4), table)]
        for _ in range(5):
            matrix = Matrix([[entry() for _ in range(4)] for _ in range(4)])
            for group, chi in cases:
                result = pf.gmf_naive(matrix, group, chi)
                assert result.value == brute_gmf(matrix, group, chi)
                assert type(result.value) is pf.GaussianRational
                assert result.term_count == group.order()
        assert {chi.evaluate(cycle.images) for _, chi in cyclic} == {ONE, -ONE, gauss(0, 1), gauss(0, -1)}
        # the column-set sums of S_n, A_n and stabilizers at the smallest degrees
        for n in (1, 2, 3):
            specs = [
                SymmetricGroup(n),
                AlternatingGroup(n),
                parse_group(f"stab:{','.join(map(str, range(1, n + 1)))}@{n}"),
                parse_group(f"stab:@{n}"),
                parse_group(f"stab:1@{n}"),
            ]
            for _ in range(4):
                matrix = Matrix([[entry() for _ in range(n)] for _ in range(n)])
                for group in specs:
                    for chi in (TrivialCharacter(), SignCharacter()):
                        result = pf.gmf_naive(matrix, group, chi)
                        assert result.value == brute_gmf(matrix, group, chi)
                        assert type(result.value) is pf.GaussianRational
                        assert result.term_count == group.order()

    def test_parity_characters_need_no_member(self, monkeypatch):
        # S_n, A_n and stabilizers with the trivial or sign character are
        # summed by column set: no member is built, tested or evaluated
        rng = random.Random(4417)

        def entry():
            return gauss(Fraction(rng.randint(1, 5), rng.randint(1, 3)), rng.randint(-2, 2))

        cases = []
        for n in range(1, 7):
            matrix = Matrix([[entry() for _ in range(n)] for _ in range(n)])
            specs = [
                SymmetricGroup(n),
                AlternatingGroup(n),
                PointwiseStabilizer(n, frozenset({1, n})),
                parse_group(f"stab:@{n}"),
            ]
            for group in specs:
                for chi in (TrivialCharacter(), SignCharacter()):
                    cases.append((matrix, group, chi, brute_gmf(matrix, group, chi)))
        s8 = Matrix([[gauss(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(8)] for _ in range(8)])
        # the Laplace fold of the minor expansion, not the elimination the route runs
        s8_det = pf.det_cauchy_binet_sum(s8, Matrix.zero(8, 8)).value

        def refuse(*args, **kwargs):
            raise AssertionError("the naive route visited group members")

        monkeypatch.setattr(engine, "_support_members", refuse)
        refuse_membership(monkeypatch, refuse)
        for cls in (SymmetricGroup, AlternatingGroup, PointwiseStabilizer):
            monkeypatch.setattr(cls, "_generate", refuse)
        for cls in (TrivialCharacter, SignCharacter):
            monkeypatch.setattr(cls, "evaluate", refuse)
        for matrix, group, chi, expected in cases:
            assert pf.gmf_naive(matrix, group, chi).value == expected
        result = pf.gmf_naive(s8, SymmetricGroup(8), SignCharacter())
        assert result.value == s8_det
        assert result.term_count == math.factorial(8)

    def test_stabilizer_sums_its_free_block(self, monkeypatch):
        # 24 points, 16 of them fixed: the fixed diagonal times the 8x8 block
        # of the points the stabilizer moves.  The permanent's Laplace tables
        # hold only that block's column sets; the determinant of its dense
        # rows is one elimination of the 24 rows, with the crossing entries zeroed
        rng = random.Random(6101)
        n = 24
        fixed = frozenset(rng.sample(range(1, n + 1), 16))
        free = [k for k in range(1, n + 1) if k not in fixed]
        matrix = Matrix(
            [
                [gauss(Fraction(rng.randint(1, 4), rng.randint(1, 2)), rng.randint(-2, 2)) for _ in range(n)]
                for _ in range(n)
            ]
        )
        diagonal = math.prod((matrix.entry(p, p) for p in sorted(fixed)), start=ONE)
        block = Matrix([[matrix.entry(i, j) for j in free] for i in free])
        pre, pim, den = integer_grid(block)
        per_re = per_im = 0
        for images in itertools.permutations(range(8)):
            re, im = 1, 0
            for i, j in enumerate(images):
                re, im = re * pre[i][j] - im * pim[i][j], re * pim[i][j] + im * pre[i][j]
            per_re, per_im = per_re + re, per_im + im
        permanent = gauss(Fraction(per_re, den**8), Fraction(per_im, den**8))
        determinant = pf.det_cauchy_binet_sum(block, Matrix.zero(8, 8)).value
        sizes, eliminated = [], []

        def recorded(table, entries):
            extended = step(table, entries)
            sizes.append(len(extended))
            return extended

        def eliminate(pre, pim):
            eliminated.append(len(pre))
            return det(pre, pim)

        step, det = engine._laplace_step, kernels.det_gaussian_int
        monkeypatch.setattr(engine, "_laplace_step", recorded)
        monkeypatch.setattr(kernels, "det_gaussian_int", eliminate)
        group = PointwiseStabilizer(n, fixed)
        result = pf.gmf_naive(matrix, group, SignCharacter())
        assert result.value == diagonal * determinant
        assert result.term_count == math.factorial(8)
        assert (eliminated, sizes) == ([n], [])
        result = pf.gmf_naive(matrix, group, TrivialCharacter())
        assert result.value == diagonal * permanent
        assert result.term_count == math.factorial(8)
        assert eliminated == [n]
        # the free rows fill C(8, k) sets of free columns; a fixed row adds its own bit
        assert max(sizes) <= comb(8, 4)
        assert sum(sizes) <= 8 * 2**7

    def test_partly_sparse_matches_brute_force(self):
        # Row supports of one to n entries take the naive route through both
        # of its walks: candidates built from nonzero columns, or the group.
        rng = random.Random(2207)
        for n in (4, 5, 6):
            specs = [
                SymmetricGroup(n),
                AlternatingGroup(n),
                parse_group(f"stab:2@{n}"),
                parse_group(f"gens:(1 2 3),(3 4)@{n}"),
            ]
            characters = [SignCharacter(), parse_character(f"irr:[{n - 2},2]", n)]
            for _ in range(4):
                rows = []
                for _ in range(n):
                    support = set(rng.sample(range(n), rng.randint(1, n)))
                    rows.append(
                        [
                            gauss(rng.randint(1, 3), rng.randint(-2, 2)) if j in support else ZERO
                            for j in range(n)
                        ]
                    )
                matrix = Matrix(rows)
                for group in specs:
                    for chi in characters:
                        result = pf.gmf_naive(matrix, group, chi)
                        assert result.value == brute_gmf(matrix, group, chi)

    def test_small_group_at_high_degree_walks_the_group(self, monkeypatch):
        # 2^20 entry products are nonzero but the group has two elements.
        n = 40
        theta = Permutation.from_cycles(n, [(2 * k + 1, 2 * k + 2) for k in range(n // 2)])
        matrix = linear_sum(gauss(2), gauss(-1), theta, Permutation.identity(n))
        built = []

        def counted(images):
            built.append(images)
            assert len(built) <= 2, "the naive route searched beyond |G|"
            return Permutation(images)

        monkeypatch.setattr(engine, "Permutation", counted)
        result = pf.gmf_naive(matrix, CyclicGroup(theta), TrivialCharacter())
        assert result.value == gauss(2**n + 1)
        assert result.term_count == 2

    def test_small_stabilizer_at_high_degree(self):
        n = 24
        theta = Permutation.from_cycles(n, [(2 * k + 1, 2 * k + 2) for k in range(n // 2)])
        tau = Permutation.identity(n)
        group = PointwiseStabilizer(n, frozenset(range(1, n - 4)))
        chi = SignCharacter()
        result = pf.gmf_naive(linear_sum(gauss(2), gauss(-1), theta, tau), group, chi)
        expected = pf.gmf_linear_sum(gauss(2), gauss(-1), theta, tau, group, chi)
        assert result.value == expected.value
        assert result.term_count == 120

    def test_cap_stops_a_generated_closure_early(self, monkeypatch):
        steps = []
        image_compose = groups._compose

        def counted(p, q):
            steps.append(1)
            return image_compose(p, q)

        monkeypatch.setattr(groups, "_compose", counted)
        # (2 5) and an 11-cycle generate S11, of order 11! over the cap: the
        # identity's determinant is a Young fold, and a dense irr: sum, whose
        # 11^11 candidate tuples pass |G| too, is refused by the order
        group = GeneratedSubgroup(11, (P("(2 5)", 11), P("(1 2 3 4 5 6 7 8 9 10 11)", 11)))
        result = pf.gmf_naive(Matrix.identity(11), group, SignCharacter())
        assert (result.value, result.term_count) == (ONE, math.factorial(11))
        ones = Matrix([[ONE] * 11 for _ in range(11)])
        with pytest.raises(CapacityError, match=f"^group order {math.factorial(11)} exceeds cap"):
            pf.gmf_naive(ones, group, parse_character("irr:[10,1]", 11))
        assert len(steps) < 1000

    def test_generated_group_over_the_cap_builds_no_element(self, monkeypatch):
        # (1 2) and the 11-cycle generate S11, a Young subgroup: the identity's
        # rows fold in 11 Laplace steps; a dense irr: sum is refused by the
        # group order; neither builds an element
        n = 11
        cycle = Permutation.from_cycles(n, [tuple(range(1, n + 1))])
        group = GeneratedSubgroup(n, (P("(1 2)", n), cycle))
        placements = []
        step = engine._laplace_step

        def counted(table, entries):
            placements.append(len(table) * len(entries))
            return step(table, entries)

        def refuse(*args, **kwargs):
            raise AssertionError("an element was built before the cap was checked")

        monkeypatch.setattr(engine, "_laplace_step", counted)
        monkeypatch.setattr(GeneratedSubgroup, "_generate", refuse)
        monkeypatch.setattr(groups._StabilizerChain, "elements", refuse)
        monkeypatch.setattr(engine, "Permutation", refuse)
        result = pf.gmf_naive(Matrix.identity(n), group, SignCharacter())
        assert (result.value, result.term_count, sum(placements)) == (ONE, math.factorial(n), n)
        ones = Matrix([[ONE] * n for _ in range(n)])
        message = f"group order {math.factorial(n)} exceeds cap {math.factorial(10)}"
        with pytest.raises(CapacityError, match=message):
            pf.gmf_naive(ones, group, parse_character(f"irr:[{n - 1},1]", n))

    @pytest.mark.parametrize("n", [11, 14, 16])
    def test_young_route_answers_past_the_order_cap(self, n):
        # 2*I + 3*P_(1 2 ... n): |S_n| passes the cap, but each row keeps two
        # entries and the fold's minors use i + 1 columns after i rows
        theta = Permutation.identity(n)
        tau = Permutation.from_cycles(n, [tuple(range(1, n + 1))])
        matrix = linear_sum(gauss(2), gauss(3), theta, tau)
        for chi, closed in ((SignCharacter(), pf.det_linear_sum), (TrivialCharacter(), pf.per_linear_sum)):
            result = pf.gmf_naive(matrix, SymmetricGroup(n), chi)
            assert result.value == closed(gauss(2), gauss(3), theta, tau).value
            assert (result.method, result.term_count) == (engine.Method.NAIVE, math.factorial(n))

    def test_dense_sixteen_answers_on_s16_and_two_blocks(self, monkeypatch):
        # a dense 16x16 Gaussian-integer matrix: the sign on S16 and on the
        # Young group of the odd and the even points is one elimination each,
        # against the minor expansion's fold; the two-block permanent is the
        # product of the blocks' permanents, summed here over S8 by hand
        rng = random.Random(1616)
        n = 16
        rows = [[gauss(rng.randint(-3, 3), rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
        matrix = Matrix(rows)
        odd, even = list(range(1, n + 1, 2)), list(range(2, n + 1, 2))
        two_blocks = odd_and_even_blocks(n)
        assert two_blocks.order() == math.factorial(8) ** 2 > perm.DEFAULT_ENUMERATION_CAP
        zero = Matrix.zero(n, n)
        crossing_zeroed = Matrix([[rows[i - 1][j - 1] if (i - j) % 2 == 0 else ZERO
                                   for j in range(1, n + 1)] for i in range(1, n + 1)])
        eliminated = []
        det = kernels.det_gaussian_int

        def counted(pre, pim):
            eliminated.append(len(pre))
            return det(pre, pim)

        monkeypatch.setattr(kernels, "det_gaussian_int", counted)
        for group, expected in ((SymmetricGroup(n), matrix), (two_blocks, crossing_zeroed)):
            result = pf.gmf_naive(matrix, group, SignCharacter())
            assert result.value == pf.det_cauchy_binet_sum(expected, zero).value
            assert result.term_count == group.order()
        assert eliminated == [n, n]

        def block_permanent(points):
            total = ZERO
            for images in itertools.permutations(points):
                product = ONE
                for i, j in zip(points, images):
                    product = product * rows[i - 1][j - 1]
                total = total + product
            return total

        result = pf.gmf_naive(matrix, two_blocks, TrivialCharacter())
        assert result.value == block_permanent(odd) * block_permanent(even)


    @staticmethod
    def spy_checks(monkeypatch):
        """Record every (what, work) that perm.check_work is asked about."""
        checks = []
        check_work = perm.check_work

        def spy(what, work):
            checks.append((what, work))
            return check_work(what, work)

        monkeypatch.setattr(perm, "check_work", spy)
        return checks

    @staticmethod
    def spy_candidates(monkeypatch):
        """Record the image tuple of every candidate the member walk's
        candidate side builds (engine._injective), and, per walk, the
        prefixes it enters, one per read of a row's columns.  A walk fails
        as soon as it enters more than n times the product of the rows'
        column counts, the count the cap checks, so a runaway walk fails
        instead of running on."""
        built, entered = [], []
        injective = engine._injective

        def spy(columns):
            budget = len(columns) * math.prod(map(len, columns))
            entered.append(0)

            class Row(dict):
                def items(self):
                    entered[-1] += 1
                    assert entered[-1] <= budget, f"entered more than {budget} prefixes"
                    return super().items()

            for candidate in injective([Row(row) for row in columns]):
                built.append(candidate[0])
                yield candidate

        monkeypatch.setattr(engine, "_injective", spy)
        return built, entered

    def test_candidate_side_builds_only_injective_tuples(self, monkeypatch):
        # a*P_theta + b*P_tau on S8 with theta^-1*tau one 8-cycle: every row
        # holds two columns, so 2^8 tuples of them, of which only the two
        # mixtures are injective.  The cap still checks the 256 tuples, but
        # the rows are walked depth first past every used column, so only
        # the two mixtures are built
        theta, tau = Permutation.identity(8), P("(1 2 3 4 5 6 7 8)", 8)
        a, b, group = gauss(2), gauss(1, -1), SymmetricGroup(8)
        chi, matrix = parse_character("irr:[6,2]", 8), linear_sum(a, b, theta, tau)
        checks, (built, _) = self.spy_checks(monkeypatch), self.spy_candidates(monkeypatch)
        result = pf.gmf_naive(matrix, group, chi)
        assert checks == [("member walk of 256 candidate tuples", 256)]
        assert sorted(built) == sorted([theta.inverse().images, tau.inverse().images])
        fast = pf.gmf_linear_sum(a, b, theta, tau, group, chi)
        assert (result.value, result.term_count) == (fast.value, group.order())

    def test_a_row_with_no_column_ends_the_walk(self, monkeypatch):
        # P_id - P_tau on S81, tau the 40 transpositions (1 2)...(79 80): row
        # 81 holds 1 - 1 = 0, so the cap checks 0 candidate tuples, and the
        # walk must enter no prefix of the 2^40 injective ones the 80 rows
        # above it allow before it reaches the empty row
        theta, tau = Permutation.identity(81), transpositions(40, 81)
        matrix, group = linear_sum(ONE, gauss(-1), theta, tau), SymmetricGroup(81)
        checks, (built, entered) = self.spy_checks(monkeypatch), self.spy_candidates(monkeypatch)
        result = pf.gmf_naive(matrix, group, parse_character("irr:[80,1]", 81))
        assert checks == [("member walk of 0 candidate tuples", 0)]
        assert (built, entered) == ([], [0])
        assert (result.value, result.term_count) == (ZERO, group.order())

    def test_young_route_checks_its_laplace_steps(self, monkeypatch):
        # groups past the order cap, so the Young route counts its own work:
        # the Laplace placements of its folds (table entries times the row's
        # entries) and n^3 for an elimination stay within the one count it checks
        checks, work = self.spy_checks(monkeypatch), []
        step, det = engine._laplace_step, kernels.det_gaussian_int

        def placed(table, entries):
            work.append(len(table) * len(entries))
            return step(table, entries)

        def eliminated(pre, pim):
            work.append(len(pre) ** 3)
            return det(pre, pim)

        monkeypatch.setattr(engine, "_laplace_step", placed)
        monkeypatch.setattr(kernels, "det_gaussian_int", eliminated)
        rng = random.Random(1111)
        cases = []
        for n in range(11, 17):
            band = linear_sum(gauss(2), gauss(3), Permutation.identity(n),
                              Permutation.from_cycles(n, [tuple(range(1, n + 1))]))
            cases += [(band, SymmetricGroup(n)), (band, AlternatingGroup(n))]
        for n in (12, 13, 14):
            theta, tau = rand_perm(rng, n), rand_perm(rng, n)
            width = rng.choice([1, 2, 3])
            sparse = Matrix([[rand_scalar(rng, 2) if j in rng.sample(range(n), width) else ZERO
                              for j in range(n)] for _ in range(n)])
            young = GeneratedSubgroup(n, tuple(young_generators(rng, n, "intransitive")))
            for matrix in (linear_sum(gauss(1, 1), gauss(-2), theta, tau), sparse):
                cases += [(matrix, SymmetricGroup(n)), (matrix, PointwiseStabilizer(n, frozenset({1})))]
                if young.order() > perm.DEFAULT_ENUMERATION_CAP:
                    cases.append((matrix, young))
        dense = Matrix([[rand_scalar(rng, 2) for _ in range(12)] for _ in range(12)])
        cases += [(dense, SymmetricGroup(12)), (dense, AlternatingGroup(12))]
        for matrix, group in cases:
            assert group.order() > perm.DEFAULT_ENUMERATION_CAP
            for chi in (TrivialCharacter(), SignCharacter()):
                checks.clear()
                work.clear()
                pf.gmf_naive(matrix, group, chi)
                [(what, count)] = checks
                assert what == f"Young parity route of {count} steps"
                assert work and sum(work) <= count <= perm.DEFAULT_ENUMERATION_CAP

    def test_member_walk_checks_its_candidates(self, monkeypatch):
        # irr: characters and groups with no Young answer visit candidate
        # tuples, or the group's members when those are fewer: what is built
        # stays within the one count the member walk checks, and the
        # prefixes the candidate side enters within n times that count
        checks, (built, entered) = self.spy_checks(monkeypatch), self.spy_candidates(monkeypatch)
        for cls in (SymmetricGroup, AlternatingGroup, CyclicGroup, GeneratedSubgroup):
            def listed(self, generate=cls._generate):
                for images in generate(self):
                    built.append(images)
                    yield images

            monkeypatch.setattr(cls, "_generate", listed)
        rng = random.Random(2222)
        cases = []
        for n in (11, 12):
            theta, tau = rand_perm(rng, n), rand_perm(rng, n)
            chi = parse_character(f"irr:[{n - 2},2]", n)
            three = Matrix([[rand_scalar(rng, 2) if j in rng.sample(range(n), 3) else ZERO
                             for j in range(n)] for _ in range(n)])
            for group in (SymmetricGroup(n), AlternatingGroup(n)):
                cases += [(linear_sum(gauss(2), gauss(1, -1), theta, tau), group, chi),
                          (three, group, chi)]
        dense = Matrix([[rand_scalar(rng, 2) for _ in range(7)] for _ in range(7)])
        cases.append((dense, SymmetricGroup(7), parse_character("irr:[5,2]", 7)))
        twelve = Permutation.from_cycles(12, [tuple(range(1, 13))])
        ring = Matrix([[rand_scalar(rng, 2) for _ in range(12)] for _ in range(12)])
        cases.append((ring, CyclicGroup(twelve), TrivialCharacter()))
        apart = parse_group("gens:(1 2 3 4),(5 6 7 8)@8")
        assert apart.young() is None and apart.orbits() is not None
        eight = Matrix([[rand_scalar(rng, 2) for _ in range(8)] for _ in range(8)])
        cases += [(eight, apart, SignCharacter()), (linear_sum(ONE, ONE, P("(1 2)", 8), P("(5 6)", 8)),
                                                   apart, TrivialCharacter())]
        # rows left with no column: a zero row, and a row whose entries all
        # lie outside its orbit, after the rows above it
        zero_row = linear_sum(ONE, gauss(-1), Permutation.identity(8), P("(1 2)(3 4)(5 6)", 8))
        cases.append((zero_row, SymmetricGroup(8), parse_character("irr:[6,2]", 8)))
        across = Matrix([[ZERO if i == 8 and j > 4 else rand_scalar(rng, 2) for j in range(1, 9)]
                         for i in range(1, 9)])
        cases.append((across, apart, SignCharacter()))
        for matrix, group, chi in cases:
            checks.clear()
            built.clear()
            entered.clear()
            result = pf.gmf_naive(matrix, group, chi)
            [(what, count)] = checks
            assert what in (f"member walk of {count} candidate tuples", f"group order {count}")
            assert len(built) <= count <= perm.DEFAULT_ENUMERATION_CAP
            assert sum(entered) <= matrix.rows * count
            if matrix.rows <= 8:
                assert result.value == brute_gmf(matrix, group, chi)

    def test_member_walk_counts_only_the_columns_in_each_orbit(self, monkeypatch):
        # Young groups with irr: characters: every row has two nonzero columns
        # in its point's orbit (one when the orbit is a point) and one across,
        # and the member walk checks the product of the in-orbit counts, below
        # |G|, where counting the crossing column too would pass |G| or the cap
        checks = self.spy_checks(monkeypatch)
        rng = random.Random(3030)
        groups = [odd_and_even_blocks(8), PointwiseStabilizer(9, frozenset({2, 5})),
                  odd_and_even_blocks(16)]
        for group in groups:
            n, labels = group.degree, group.orbits()
            matrix = three_a_row(rng, labels)
            inside = math.prod(
                sum(1 for j, entry in enumerate(row, 1) if labels[j] == labels[x] and not entry.is_zero())
                for x, row in enumerate(matrix.entries, 1)
            )
            everywhere = math.prod(sum(not entry.is_zero() for entry in row) for row in matrix.entries)
            assert inside < min(group.order(), everywhere)
            checks.clear()
            result = pf.gmf_naive(matrix, group, parse_character(f"irr:[{n - 1},1]", n))
            assert checks == [(f"member walk of {inside} candidate tuples", inside)]
            if n == 8:
                assert result.value == brute_gmf(matrix, group, parse_character("irr:[7,1]", 8))

    def test_two_block_irreducible_on_sixteen_points_answers(self):
        # irr:[15,1] on the Young group of the odd and the even points, rows of
        # three entries with one across the blocks: 2^16 candidate tuples, where
        # the crossing columns made 3^16.  The character is fix - 1, so the sum
        # is, over the points j, the permanent over the members fixing j (row j
        # kept only on the diagonal), less the permanent over G: Young
        # permanents, folded by the parity route
        n = 16
        group = odd_and_even_blocks(n)
        matrix = three_a_row(random.Random(1615), group.orbits())
        result = pf.gmf_naive(matrix, group, parse_character("irr:[15,1]", n))
        assert (result.method, result.term_count) == (engine.Method.NAIVE, group.order())

        def permanent(rows):
            return pf.gmf_naive(Matrix(rows), group, TrivialCharacter()).value

        rows = matrix.entries
        expected = -permanent(rows)
        for j in range(n):
            fixing = [row if i != j else [e if k == j else ZERO for k, e in enumerate(row)]
                      for i, row in enumerate(rows)]
            expected = expected + permanent(fixing)
        assert result.value == expected != ZERO


class TestLinearSumFormula:
    def test_reference_value(self):
        a, b, theta, tau = reference_instance()
        result = pf.gmf_linear_sum(a, b, theta, tau, SymmetricGroup(6), SignCharacter())
        assert result.value == gauss(-85, 30)
        assert result.term_count == 4
        assert result.method is engine.Method.FORMULA

    def test_equal_permutations(self):
        theta = P("(1 2 3)", 4)
        chi = SignCharacter()
        inside = pf.gmf_linear_sum(gauss(2), gauss(3), theta, theta, SymmetricGroup(4), chi)
        assert inside.value == chi.evaluate(theta.inverse().images) * gauss(5) ** 4
        outside = pf.gmf_linear_sum(
            gauss(2), gauss(3), theta, theta, PointwiseStabilizer(4, frozenset({1})), chi
        )
        assert outside.value == ZERO

    def test_stabilizer_reference(self):
        # with theta, tau as in the 6x6 reference and the stabilizer of
        # {1,3,5}, only tau and (2 6) survive; for the trivial character
        # at a=1, b=2 the value is (a+b)(b^5 + a^2 b^3) = 120
        _, _, theta, tau = reference_instance()
        group = PointwiseStabilizer(6, frozenset({1, 3, 5}))
        survivors = [sigma for sigma in pf.mixtures(theta, tau) if group.contains(sigma)]
        assert set(survivors) == {tau, P("(2 6)", 6)}
        result = pf.gmf_linear_sum(gauss(1), gauss(2), theta, tau, group, TrivialCharacter())
        assert result.value == gauss(120)
        assert result.term_count == 2
        naive = pf.gmf_naive(
            linear_sum(gauss(1), gauss(2), theta, tau), group, TrivialCharacter()
        )
        assert naive.value == gauss(120)
        assert naive.term_count == 6

    def test_vanishing_overlap_short_circuit(self):
        theta = Permutation.identity(3)
        tau = P("(1 2)", 3)  # one agreement point
        result = pf.gmf_linear_sum(gauss(1), gauss(-1), theta, tau, SymmetricGroup(3), TrivialCharacter())
        assert result.value == ZERO
        assert result.term_count == 0

    def test_zero_coefficient_skips_terms(self):
        _, _, theta, tau = reference_instance()
        result = pf.gmf_linear_sum(gauss(1), ZERO, theta, tau, SymmetricGroup(6), SignCharacter())
        # only the pure-theta term has no b factor
        assert result.term_count == 1
        assert result.value == gauss(theta.sign())

    def test_no_mixture_in_group(self):
        # theta^-1*tau is one 3-cycle (F = 0) and both mixtures move 1
        theta, tau = P("(1 2 3)", 3), P("(1 3 2)", 3)
        result = pf.gmf_linear_sum(
            gauss(2), gauss(3), theta, tau, parse_group("stab:1@3"), TrivialCharacter()
        )
        assert isinstance(result.value, pf.GaussianRational)
        assert result.value == ZERO
        assert result.to_json() == {"value": {"re": "0", "im": "0"}, "method": "formula", "terms": 0}
        assert result.term_count == 0

    def test_matches_naive_on_random_instances(self):
        rng = random.Random(911)
        for _ in range(60):
            n = rng.randint(2, 5)
            theta, tau = rand_perm(rng, n), rand_perm(rng, n)
            a, b = rand_scalar(rng), rand_scalar(rng)
            group = rng.choice(
                [
                    SymmetricGroup(n),
                    AlternatingGroup(n),
                    CyclicGroup(rand_perm(rng, n)),
                    PointwiseStabilizer(n, frozenset({rng.randint(1, n)})),
                ]
            )
            lam = rng.choice(list(partitions(n)))
            chi = rng.choice(
                [TrivialCharacter(), SignCharacter(), IrreducibleCharacter(Partition(lam))]
            )
            fast = pf.gmf_linear_sum(a, b, theta, tau, group, chi)
            slow = pf.gmf_naive(linear_sum(a, b, theta, tau), group, chi)
            assert fast.value == slow.value


class TestStabilizerAsZeroedCoefficients:
    def test_irreducible_characters_need_no_membership_test(self, monkeypatch):
        # a stabilizer walks S_n with the coefficients that move its points
        # zeroed, so the walk never asks the stabilizer for membership
        rng = random.Random(6161)
        cases = []
        for _ in range(40):
            n = rng.randint(2, 6)
            theta, tau = rand_perm(rng, n), rand_perm(rng, n)
            a, b = rand_scalar(rng), rand_scalar(rng)
            group = PointwiseStabilizer(n, frozenset(rng.sample(range(1, n + 1), rng.randint(1, 2))))
            chi = IrreducibleCharacter(Partition(rng.choice(list(partitions(n)))))
            expected = brute_gmf(linear_sum(a, b, theta, tau), group, chi)
            cases.append((a, b, theta, tau, group, chi, expected))

        def refuse(*args):
            raise AssertionError("stabilizer membership tested")

        refuse_membership(monkeypatch, refuse)
        for a, b, theta, tau, group, chi, expected in cases:
            assert pf.gmf_linear_sum(a, b, theta, tau, group, chi).value == expected


class TestClosedForms:
    def test_full_cycle_specialization(self):
        # when theta^-1*tau is one n-cycle the determinant splits as
        # det(a*P_theta) + det(b*P_tau); note the b-term sign is
        # sign(theta) * (-1)^(n+1), not (-b)^n
        rng = random.Random(321)
        for n in range(2, 7):
            theta = rand_perm(rng, n)
            cycle = Permutation.from_cycles(n, [tuple(range(1, n + 1))])
            tau = compose(theta, cycle)
            a, b = rand_scalar(rng), rand_scalar(rng)
            det = pf.det_linear_sum(a, b, theta, tau).value
            split = gauss(theta.sign()) * (a**n + gauss((-1) ** (n + 1)) * b**n)
            assert det == split
            assert det == gauss(theta.sign()) * a**n + gauss(tau.sign()) * b**n
            per = pf.per_linear_sum(a, b, theta, tau).value
            assert per == a**n + b**n

    def test_equal_length_cycles(self):
        rng = random.Random(322)
        cases = [(2, 2, 1), (3, 2, 0), (2, 3, 2)]  # (cycle length, count, fixed)
        for length, count, fixed in cases:
            n = length * count + fixed
            cycles = [
                tuple(range(1 + i * length, 1 + (i + 1) * length)) for i in range(count)
            ]
            rho = Permutation.from_cycles(n, cycles)
            theta = rand_perm(rng, n)
            tau = compose(theta, rho)
            a, b = rand_scalar(rng), rand_scalar(rng)
            det = pf.det_linear_sum(a, b, theta, tau).value
            factor = a**length + gauss((-1) ** (length + 1)) * b**length
            assert det == gauss(theta.sign()) * factor**count * (a + b) ** fixed
            per = pf.per_linear_sum(a, b, theta, tau).value
            assert per == (a**length + b**length) ** count * (a + b) ** fixed

    def test_degenerate_scalars(self):
        theta, tau = P("(1 2)", 4), P("(2 3 4)", 4)
        assert pf.det_linear_sum(ZERO, ZERO, theta, tau).value == ZERO
        assert pf.det_linear_sum(ONE, ZERO, theta, tau).value == gauss(theta.sign())
        assert pf.per_linear_sum(ONE, ZERO, theta, tau).value == ONE

    def test_matches_formula_route(self):
        rng = random.Random(323)
        for _ in range(80):
            n = rng.randint(2, 6)
            theta, tau = rand_perm(rng, n), rand_perm(rng, n)
            a, b = rand_scalar(rng), rand_scalar(rng)
            a, b = rng.choice([(a, b), (ZERO, b), (a, ZERO), (a, -a)])
            for closed, chi in (
                (pf.det_linear_sum, SignCharacter()),
                (pf.per_linear_sum, TrivialCharacter()),
            ):
                fast = closed(a, b, theta, tau)
                formula = pf.gmf_linear_sum(a, b, theta, tau, SymmetricGroup(n), chi)
                assert fast.value == formula.value
                assert fast.term_count == formula.term_count


class TestCauchyBinet:
    def test_identity_plus_zero(self):
        result = pf.det_cauchy_binet_sum(Matrix.identity(3), Matrix.zero(3, 3))
        assert result.value == ONE
        assert result.term_count == sum(math.comb(3, k) ** 2 for k in range(4))

    def test_reference_value(self):
        a, b, theta, tau = reference_instance()
        result = pf.det_cauchy_binet_sum(
            scalar_mul(a, perm_matrix(theta)), scalar_mul(b, perm_matrix(tau))
        )
        assert result.value == gauss(-85, 30)
        assert result.term_count == 924

    def test_cancellation(self):
        rng = random.Random(17)
        for _ in range(5):
            n = rng.randint(2, 5)
            grid = [
                [gauss(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(n)]
                for _ in range(n)
            ]
            matrix = Matrix(grid)
            negated = scalar_mul(gauss(-1), matrix)
            assert pf.det_cauchy_binet_sum(matrix, negated).value == ZERO

    def test_prunes_vanishing_minors_on_bench_instance(self, monkeypatch):
        # no Bareiss elimination; each Laplace step's table counted
        theta = P("(1 2 3 4 5 6 7 8)", 8)
        tau = P("(1 3 5 7)(2 4 6 8)", 8)
        sizes = []
        step = engine._laplace_step

        def counted(table, entries):
            extended = step(table, entries)
            sizes.append(len(extended))
            return extended

        def refuse(pre, pim):
            raise AssertionError("the minor expansion ran an elimination")

        monkeypatch.setattr(engine, "_laplace_step", counted)
        monkeypatch.setattr(kernels, "det_gaussian_int", refuse)
        result = pf.det_cauchy_binet_sum(
            scalar_mul(gauss(3), perm_matrix(theta)), scalar_mul(gauss(2), perm_matrix(tau))
        )
        assert result.term_count == 12870
        assert result.value == pf.det_linear_sum(gauss(3), gauss(2), theta, tau).value
        # one nonzero entry per row: a dense n = 8 pair builds 1,279 entries
        assert sum(sizes) <= 2 ** (8 + 1)

    def test_prunes_vanishing_minors_at_degree_14(self, monkeypatch):
        # the 14-cycle against the two 7-cycles on the odd and the even
        # points: a branch per row side would build 32,766 entries
        theta = P("(1 2 3 4 5 6 7 8 9 10 11 12 13 14)", 14)
        tau = P("(1 3 5 7 9 11 13)(2 4 6 8 10 12 14)", 14)
        sizes = []
        step = engine._laplace_step

        def counted(table, entries):
            extended = step(table, entries)
            sizes.append(len(extended))
            return extended

        monkeypatch.setattr(engine, "_laplace_step", counted)
        result = pf.det_cauchy_binet_sum(
            scalar_mul(gauss(3), perm_matrix(theta)), scalar_mul(gauss(2), perm_matrix(tau))
        )
        assert result.term_count == comb(28, 14)
        assert result.value == pf.det_linear_sum(gauss(3), gauss(2), theta, tau).value
        assert sum(sizes) <= 14**2

    def test_grades_each_minor_size(self):
        # scaling a by t scales the pairs with |alpha| = k by t^k, so a wrong
        # grade, or den_a^k and den_b^(n-k) swapped, fails here even where
        # the t = 1 value is right; a's entries lie over 2, b's over 3
        rng = random.Random(1907)

        def entry(den, dense):
            if not dense and rng.random() < 0.5:
                return ZERO
            numerators = [x for x in range(-5, 6) if x % den]
            return gauss(Fraction(rng.choice(numerators), den), Fraction(rng.choice(numerators), den))

        for n in range(1, 9):
            for dense in (True, False):
                left = Matrix([[entry(2, dense) for _ in range(n)] for _ in range(n)])
                right = Matrix([[entry(3, dense) for _ in range(n)] for _ in range(n)])
                for t in (gauss(0), gauss(2), gauss(Fraction(1, 3)), gauss(0, 1)):
                    scaled = scalar_mul(t, left)
                    result = pf.det_cauchy_binet_sum(scaled, right)
                    assert result.value == pf.det_exact(mat_add(scaled, right))

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(DegreeMismatchError, match="got 3x3 and 3x4"):
            pf.det_cauchy_binet_sum(Matrix.identity(3), Matrix.zero(3, 4))

    def test_dense_n8_keeps_few_tables_alive(self):
        rng = random.Random(21)
        def dense():
            return Matrix(
                [[gauss(rng.randint(1, 9), rng.randint(-9, 9)) for _ in range(8)] for _ in range(8)]
            )

        left, right = dense(), dense()
        tracemalloc.start()
        try:
            result = pf.det_cauchy_binet_sum(left, right)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.value == pf.det_exact(mat_add(left, right))
        # one table alive at a time, at most C(8, 4) = 70 entries here
        assert peak < 500_000

    def test_graded_sums_of_an_all_zero_row(self):
        left = Matrix([[gauss(2, -1), gauss(3)], [ZERO, ZERO]])
        right = Matrix([[gauss(0, 5), gauss(-4, 1)], [ZERO, ZERO]])
        sums = graded_sums(left, right)
        assert sums == brute_graded_sums(left, right) == [ZERO] * 3
        assert pf.det_cauchy_binet_sum(left, right).value == ZERO

    def test_graded_sums_of_a_negated_pair(self):
        left = Matrix([[gauss(10**40 + 1, -3), gauss(Fraction(1, 3))], [gauss(-7, 10**39), gauss(2, 2)]])
        right = scalar_mul(gauss(-1), left)
        assert graded_sums(left, right) == brute_graded_sums(left, right)
        assert pf.det_cauchy_binet_sum(left, right).value == ZERO

    def test_graded_sums_of_a_1x1_pair(self):
        left, right = Matrix([[gauss(-3, 10**40)]]), Matrix([[gauss(5, -2)]])
        assert graded_sums(left, right) == [gauss(5, -2), gauss(-3, 10**40)]
        assert pf.det_cauchy_binet_sum(left, right).value == gauss(2, 10**40 - 2)

    def test_digit_at_the_bound(self):
        # B = 0 and A diagonal: the top digit is the product of A's row
        # sums, the bound the digit width is chosen from, in either part;
        # 3 * 5 * 17 * 257 = 2^16 - 1 is the widest digit that width holds
        n = 4
        for entries in (
            [3, 5, 17, 257],
            [-3, 5, 17, 257],
            [2**64 - 1, -(10**40), 3, 2**127 - 1],
            [gauss(0, 2**64 - 1), 1, -(2**100), 7],
        ):
            diagonal = [gauss(x) if isinstance(x, int) else x for x in entries]
            left = Matrix([[diagonal[i] if i == j else ZERO for j in range(n)] for i in range(n)])
            product = math.prod(diagonal, start=ONE)
            bound = math.prod(abs(int(z.re)) + abs(int(z.im)) for z in diagonal)
            sums = graded_sums(left, Matrix.zero(n, n))
            assert sums == [ZERO] * n + [product]
            assert bound in (abs(product.re), abs(product.im))
            assert pf.det_cauchy_binet_sum(left, Matrix.zero(n, n)).value == product

    def test_dense_n8_fold_holds_one_table_entry_per_column_set(self, monkeypatch):
        rng = random.Random(2208)
        left, right = (
            Matrix([[gauss(rng.randint(1, 9), rng.randint(-9, 9)) for _ in range(8)] for _ in range(8)])
            for _ in range(2)
        )
        sizes = []
        step = engine._laplace_step

        def counted(table, entries):
            extended = step(table, entries)
            sizes.append(len(extended))
            return extended

        def refuse(pre, pim):
            raise AssertionError("the minor expansion ran an elimination")

        monkeypatch.setattr(engine, "_laplace_step", counted)
        monkeypatch.setattr(kernels, "det_gaussian_int", refuse)
        result = pf.det_cauchy_binet_sum(left, right)
        monkeypatch.undo()
        assert result.value == pf.det_exact(mat_add(left, right))
        # the minors over the first r rows fill C(8, r) column sets
        assert sum(sizes) <= 2**8 - 1

    def test_matches_expansion_on_dense_random(self):
        rng = random.Random(18)
        for _ in range(8):
            n = rng.randint(2, 4)
            left = Matrix(
                [[rand_scalar(rng, 2) for _ in range(n)] for _ in range(n)]
            )
            right = Matrix(
                [[rand_scalar(rng, 2) for _ in range(n)] for _ in range(n)]
            )
            expected = naive_det_expansion(mat_add(left, right))
            assert pf.det_cauchy_binet_sum(left, right).value == expected


_SCALARS = st.builds(
    lambda p, q, r, s: gauss(Fraction(p, q), Fraction(r, s)),
    st.integers(-3, 3), st.integers(1, 4), st.integers(-3, 3), st.integers(1, 3),
)
_NONZERO_SCALARS = _SCALARS.filter(bool)


@st.composite
def minor_expansion_pairs(draw):
    """Two n x n matrices, n <= 6, dense or sparse, some rows zeroed."""
    n = draw(st.integers(1, 6))
    entry = _NONZERO_SCALARS if draw(st.booleans()) else st.one_of(st.just(ZERO), _NONZERO_SCALARS)
    pair = []
    for _ in range(2):
        zero_rows = draw(st.sets(st.integers(0, n - 1), max_size=2))
        rows = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(n)]
        pair.append(Matrix([[ZERO] * n if i in zero_rows else row for i, row in enumerate(rows)]))
    return pair


@given(minor_expansion_pairs())
@settings(max_examples=150)
def test_minor_expansion_matches_elimination(pair):
    left, right = pair
    result = pf.det_cauchy_binet_sum(left, right)
    assert result.value == pf.det_exact(mat_add(left, right))
    assert result.term_count == comb(2 * left.rows, left.rows)


def graded_sums(left, right):
    """engine._graded_minor_sums on the integer rows of two matrices, as scalars."""
    (pre_a, pim_a, _), (pre_b, pim_b, _) = integer_grid(left), integer_grid(right)
    return [gauss(re, im) for re, im in engine._graded_minor_sums(pre_a, pim_a, pre_b, pim_b)]


def brute_graded_sums(left, right):
    """For k = 0..n, the signed minor pairs with |alpha| = k summed one by one
    over the integer rows of two matrices, each minor by det_exact."""
    n = left.rows
    (pre_a, pim_a, _), (pre_b, pim_b, _) = integer_grid(left), integer_grid(right)

    def minor(pre, pim, rows, cols):
        if not rows:
            return ONE
        return pf.det_exact(Matrix([[gauss(pre[i][j], pim[i][j]) for j in cols] for i in rows]))

    sums = []
    for k in range(n + 1):
        total = ZERO
        for alpha in itertools.combinations(range(n), k):
            rest = [i for i in range(n) if i not in alpha]
            for beta in itertools.combinations(range(n), k):
                other = [j for j in range(n) if j not in beta]
                sign = gauss((-1) ** (sum(alpha) + sum(beta)))
                total += sign * minor(pre_a, pim_a, alpha, beta) * minor(pre_b, pim_b, rest, other)
        sums.append(total)
    return sums


_HUGE_PARTS = st.one_of(st.integers(-3, 3), st.integers(-(10**40), 10**40))


@st.composite
def graded_pairs(draw):
    """Two n x n matrices, n <= 5, with parts up to 10^40 in size, each over
    its own denominator, dense or sparse."""
    n = draw(st.integers(1, 5))
    pair = []
    for _ in range(2):
        den = draw(st.integers(1, 6))
        entry = st.builds(lambda p, q: gauss(Fraction(p, den), Fraction(q, den)), _HUGE_PARTS, _HUGE_PARTS)
        if draw(st.booleans()):
            entry = st.one_of(st.just(ZERO), entry)
        pair.append(Matrix([draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(n)]))
    return pair


@given(graded_pairs())
@settings(max_examples=40)
def test_graded_minor_sums_match_brute_force(pair):
    # each balanced base-2^s digit of the packed fold is one grade's sum
    left, right = pair
    assert graded_sums(left, right) == brute_graded_sums(left, right)
    assert pf.det_cauchy_binet_sum(left, right).value == pf.det_exact(mat_add(left, right))


def any_group(draw, n, perms):
    """One group of degree n of each kind: S_n, A_n, stab:, cyclic: or gens:."""
    return draw(
        st.sampled_from(
            [
                SymmetricGroup(n),
                AlternatingGroup(n),
                PointwiseStabilizer(n, draw(st.frozensets(st.integers(1, n), max_size=n))),
                CyclicGroup(draw(perms)),
                GeneratedSubgroup(n, tuple(draw(st.lists(perms, min_size=1, max_size=2)))),
            ]
        )
    )


@st.composite
def linear_sum_instances(draw):
    """(a, b, theta, tau, group, chi), n <= 6: fractional and complex
    scalars, every group kind, and the trivial, sign and irr: characters."""
    n = draw(st.integers(1, 6))
    perms = st.permutations(range(1, n + 1)).map(lambda images: Permutation(tuple(images)))
    theta, tau = draw(perms), draw(perms)
    group = any_group(draw, n, perms)
    irr = IrreducibleCharacter(Partition(draw(st.sampled_from(list(partitions(n))))))
    chi = draw(st.sampled_from([TrivialCharacter(), SignCharacter(), irr]))
    return draw(_SCALARS), draw(_SCALARS), theta, tau, group, chi


@given(linear_sum_instances())
@settings(max_examples=200)
def test_linear_sum_matches_naive(instance):
    # the mixture walk, the class sums and the parity product against the
    # naive route's member stream on the assembled matrix
    a, b, theta, tau, group, chi = instance
    fast = pf.gmf_linear_sum(a, b, theta, tau, group, chi)
    assert fast.value == pf.gmf_naive(linear_sum(a, b, theta, tau), group, chi).value


@st.composite
def block_instances(draw):
    """(spec, group, chi) for block specs of at most 6 points, with
    fractional complex coefficients, every group kind and the trivial,
    sign and irr: characters."""
    m, n = draw(st.sampled_from([(1, 1), (1, 3), (3, 1), (2, 2), (2, 3), (3, 2), (1, 6), (6, 1)]))

    def perms(k):
        return st.permutations(range(1, k + 1)).map(lambda images: Permutation(tuple(images)))

    spec = BlockSpec(
        m=m,
        n=n,
        theta=draw(perms(n)),
        tau=draw(perms(n)),
        inner_thetas=tuple(draw(st.lists(perms(m), min_size=n, max_size=n))),
        inner_taus=tuple(draw(st.lists(perms(m), min_size=n, max_size=n))),
        a=tuple(draw(st.lists(_SCALARS, min_size=n, max_size=n))),
        b=tuple(draw(st.lists(_SCALARS, min_size=n, max_size=n))),
    )
    size = m * n
    irr = IrreducibleCharacter(Partition(draw(st.sampled_from(list(partitions(size))))))
    chi = draw(st.sampled_from([TrivialCharacter(), SignCharacter(), irr]))
    return spec, any_group(draw, size, perms(size)), chi


@given(block_instances())
@settings(max_examples=100)
def test_block_matches_naive_and_round_trips(instance):
    spec, group, chi = instance
    assert BlockSpec.from_json(spec.to_json()) == spec
    block = pf.gmf_block(spec, group, chi)
    assert block.value == pf.gmf_naive(block_matrix(spec), group, chi).value


class TestDetRouteIndependence:
    def test_four_routes_and_bareiss(self):
        rng = random.Random(19)
        for _ in range(15):
            n = rng.randint(2, 6)
            theta, tau = rand_perm(rng, n), rand_perm(rng, n)
            a, b = rand_scalar(rng), rand_scalar(rng)
            matrix = linear_sum(a, b, theta, tau)
            values = {
                pf.det_linear_sum(a, b, theta, tau).value,
                pf.gmf_linear_sum(a, b, theta, tau, SymmetricGroup(n), SignCharacter()).value,
                pf.gmf_naive(matrix, SymmetricGroup(n), SignCharacter()).value,
                pf.det_cauchy_binet_sum(
                    scalar_mul(a, perm_matrix(theta)), scalar_mul(b, perm_matrix(tau))
                ).value,
                pf.det_exact(matrix),
            }
            assert len(values) == 1

    def test_det_exact_error_names_its_shape(self):
        with pytest.raises(DegreeMismatchError, match="determinant needs a square matrix, got 3x2"):
            pf.det_exact(Matrix.zero(3, 2))


def reference_block_spec():
    return BlockSpec(
        m=4,
        n=2,
        theta=Permutation.identity(2),
        tau=P("(1 2)", 2),
        inner_thetas=(P("(1 4 3)", 4), P("(1 4)(2 3)", 4)),
        inner_taus=(P("(1 3 2)", 4), Permutation.identity(4)),
        a=(gauss(0, -1), gauss(2)),
        b=(gauss(-2), gauss(3)),
    )


def random_block_spec(rng, m, n):
    return BlockSpec(
        m=m,
        n=n,
        theta=rand_perm(rng, n),
        tau=rand_perm(rng, n),
        inner_thetas=tuple(rand_perm(rng, m) for _ in range(n)),
        inner_taus=tuple(rand_perm(rng, m) for _ in range(n)),
        a=tuple(rand_scalar(rng, 2) for _ in range(n)),
        b=tuple(rand_scalar(rng, 2) for _ in range(n)),
    )


class TestBlock:
    def test_reference_values(self):
        spec = reference_block_spec()
        per = pf.gmf_block(spec, SymmetricGroup(8), TrivialCharacter())
        det = pf.gmf_block(spec, SymmetricGroup(8), SignCharacter())
        assert per.value == gauss(448, 1536)
        assert det.value == gauss(448, -1536)
        assert per.method is engine.Method.BLOCK

    def test_single_block_matches_linear_sum(self):
        rng = random.Random(23)
        for _ in range(10):
            m = rng.randint(2, 5)
            theta, tau = rand_perm(rng, m), rand_perm(rng, m)
            a, b = rand_scalar(rng), rand_scalar(rng)
            spec = BlockSpec(
                m=m,
                n=1,
                theta=Permutation.identity(1),
                tau=Permutation.identity(1),
                inner_thetas=(theta,),
                inner_taus=(tau,),
                a=(a,),
                b=(b,),
            )
            chi = SignCharacter()
            assert (
                pf.gmf_block(spec, SymmetricGroup(m), chi).value
                == pf.gmf_linear_sum(a, b, theta, tau, SymmetricGroup(m), chi).value
            )

    def test_matches_naive_on_random_specs(self):
        rng = random.Random(24)
        shapes = [(2, 2), (2, 3), (3, 2), (2, 4), (4, 2)]
        for m, n in shapes:
            for _ in range(4):
                spec = random_block_spec(rng, m, n)
                lam = rng.choice(list(partitions(m * n)))
                chi = rng.choice(
                    [TrivialCharacter(), SignCharacter(), IrreducibleCharacter(Partition(lam))]
                )
                fast = pf.gmf_block(spec, SymmetricGroup(m * n), chi)
                slow = pf.gmf_naive(block_matrix(spec), SymmetricGroup(m * n), chi)
                assert fast.value == slow.value

    def test_moved_outer_blocks_with_agreeing_columns(self):
        # regression shape: outer theta = tau = (1 2) with distinct
        # coefficient pairs puts agreement columns in a moved block, so
        # the coefficient must be read off the image block row
        spec = BlockSpec(
            m=2,
            n=2,
            theta=P("(1 2)", 2),
            tau=P("(1 2)", 2),
            inner_thetas=(Permutation.identity(2), Permutation.identity(2)),
            inner_taus=(P("(1 2)", 2), Permutation.identity(2)),
            a=(gauss(2), gauss(1)),
            b=(gauss(1), gauss(3)),
        )
        for chi in (TrivialCharacter(), SignCharacter()):
            fast = pf.gmf_block(spec, SymmetricGroup(4), chi)
            slow = pf.gmf_naive(block_matrix(spec), SymmetricGroup(4), chi)
            assert fast.value == slow.value

    def test_subgroup_filter(self):
        spec = reference_block_spec()
        group = AlternatingGroup(8)
        fast = pf.gmf_block(spec, group, TrivialCharacter())
        slow = pf.gmf_naive(block_matrix(spec), group, TrivialCharacter())
        assert fast.value == slow.value


class TestSMatrixRelations:
    def test_doubling_relation_random(self):
        rng = random.Random(25)
        for _ in range(25):
            n = rng.randint(2, 6)
            theta = rand_perm(rng, n)
            cs = cycle_structure(theta)
            twos = cs.fixed_count + 2 * sum(1 for l in cs.lengths if l == 2)
            for chi in (TrivialCharacter(), SignCharacter()):
                doubled = pf.gmf_naive(
                    linear_sum(ONE, ONE, theta, theta.inverse()), SymmetricGroup(n), chi
                ).value
                on_s = pf.gmf_naive(s_matrix(theta), SymmetricGroup(n), chi).value
                assert doubled == gauss(2**twos) * on_s
                assert pf.gmf_s_matrix(theta, SymmetricGroup(n), chi).value == on_s

    def test_closed_dets_reference_cycles(self):
        table = {2: -1, 3: 2, 5: 2, 6: -4, 10: -4, 4: 0, 8: 0}
        for order, expected in table.items():
            theta = Permutation.from_cycles(order, [tuple(range(1, order + 1))])
            assert pf.det_s_closed(theta) == gauss(expected)

    def test_closed_dets_exhaustive_s5(self):
        from itertools import permutations as iterperms

        for images in iterperms(range(1, 6)):
            theta = Permutation(images)
            assert pf.det_s_closed(theta) == pf.det_exact(s_matrix(theta))
            assert pf.det_perm_pair_closed(theta) == pf.det_exact(
                linear_sum(ONE, ONE, theta, theta.inverse())
            )

    def test_unit_degree(self):
        theta = Permutation.identity(1)
        assert pf.det_perm_pair_closed(theta) == gauss(2)
        assert pf.det_s_closed(theta) == ONE

    def test_s_product(self):
        result = pf.s_product(P("(1 2)", 5), P("(3 4 5)", 5))
        assert result == s_matrix(P("(1 2)(3 4 5)", 5))
        assert pf.s_product(Permutation.identity(3), P("(2 3)", 3)) == s_matrix(P("(2 3)", 3))

    def test_s_product_rejects_overlap(self):
        theta, tau = P("(1 2)", 3), P("(2 3)", 3)
        with pytest.raises(DisjointnessError):
            pf.s_product(theta, tau)
        # and the identity genuinely fails there
        from permfunc.matrices import mat_mul

        assert mat_mul(s_matrix(theta), s_matrix(tau)) != s_matrix(compose(theta, tau))

    def test_s_product_random_disjoint(self):
        rng = random.Random(26)
        for _ in range(20):
            n = rng.randint(4, 8)
            cut = rng.randint(1, n - 1)
            left = list(range(1, cut + 1))
            right = list(range(cut + 1, n + 1))
            rng.shuffle(left)
            rng.shuffle(right)
            theta = Permutation.from_cycles(n, [tuple(left)] if len(left) > 1 else [])
            tau = Permutation.from_cycles(n, [tuple(right)] if len(right) > 1 else [])
            assert pf.s_product(theta, tau) == s_matrix(compose(theta, tau))


class TestSingularValues:
    def test_unitary(self):
        rng = random.Random(27)
        theta, tau = rand_perm(rng, 5), rand_perm(rng, 5)
        spectrum = pf.singular_values(ONE, ZERO, theta, tau)
        assert spectrum.values == (1.0,) * 5

    def test_all_ones_two_by_two(self):
        spectrum = pf.singular_values(ONE, ONE, Permutation.identity(2), P("(1 2)", 2))
        assert spectrum.values == (2.0, 0.0)

    def test_conservation_laws(self):
        rng = random.Random(28)
        for _ in range(30):
            n = rng.randint(2, 6)
            theta, tau = rand_perm(rng, n), rand_perm(rng, n)
            a, b = rand_scalar(rng), rand_scalar(rng)
            spectrum = pf.singular_values(a, b, theta, tau)
            matrix = linear_sum(a, b, theta, tau)
            gram_trace = float(
                sum(
                    (e.abs_squared() for row in matrix.entries for e in row),
                    Fraction(0),
                )
            )
            assert spectrum.sum_squares() == pytest.approx(gram_trace, rel=1e-9, abs=1e-9)
            det_sq = float(pf.det_exact(matrix).abs_squared())
            assert spectrum.prod_squares() == pytest.approx(det_sq, rel=1e-9, abs=1e-9)


class TestSingularBound:
    def test_unitary_equality(self):
        rng = random.Random(29)
        theta, tau = rand_perm(rng, 4), rand_perm(rng, 4)
        report = pf.check_singular_bound(ONE, ZERO, theta, tau, SymmetricGroup(4), SignCharacter())
        assert report.holds
        assert report.lhs == pytest.approx(1.0)
        assert report.rhs == pytest.approx(1.0)

    def test_reference_lhs(self):
        a, b, theta, tau = reference_instance()
        report = pf.check_singular_bound(a, b, theta, tau, SymmetricGroup(6), SignCharacter())
        assert report.lhs == pytest.approx(8125.0)
        assert report.holds

    def test_random_sweep(self):
        rng = random.Random(30)
        for _ in range(60):
            n = rng.randint(2, 6)
            theta, tau = rand_perm(rng, n), rand_perm(rng, n)
            a, b = rand_scalar(rng), rand_scalar(rng)
            group = rng.choice([SymmetricGroup(n), AlternatingGroup(n)])
            chi = rng.choice([TrivialCharacter(), SignCharacter()])
            assert pf.check_singular_bound(a, b, theta, tau, group, chi).holds

    def test_rejects_non_linear(self):
        with pytest.raises(CharacterDomainError):
            pf.check_singular_bound(
                ONE, ONE, Permutation.identity(3), P("(1 2)", 3),
                SymmetricGroup(3), IrreducibleCharacter(Partition((2, 1))),
            )

    def test_float_fallback_walks_what_the_exact_route_walks(self, monkeypatch):
        # g has coprime cycles of lengths 2, 3, 5 and 7, so <g> has order 210
        # and every one of the 2^4 mixtures of id and g^-1, whose entries
        # row x of 3/2*I + (-1+2i)*P_g holds, is a power of g.  With
        # the cap at 50 the exact walk of 2^4 mixtures fits though |G| and the
        # 2^17 candidate tuples do not: the float fallback walks the same 16
        # mixtures, and equals the float sum over them built here
        g = P("(1 2)(3 4 5)(6 7 8 9 10)(11 12 13 14 15 16 17)", 17)
        identity, group, chi = Permutation.identity(17), CyclicGroup(g), CyclicRootCharacter(g, 1)
        a, b = gauss(Fraction(3, 2)), gauss(-1, 2)
        entries = linear_sum(a, b, identity, g).entries
        cycles = perm.disjoint_cycles(g.inverse()).cycles
        expected = 0j
        for taken in itertools.product((False, True), repeat=len(cycles)):
            moved = [c for c, take in zip(cycles, taken) if take]
            sigma = Permutation.from_cycles(17, moved) if moved else identity
            assert group.contains(sigma)
            product = math.prod(complex(e.re, e.im) for e in (
                entries[i][sigma.images[i] - 1] for i in range(17)))
            expected += chi.evaluate_float(sigma.images) * product
        unlowered = pf.check_singular_bound(a, b, identity, g, group, chi)
        matrix = linear_sum(a, b, identity, g)
        monkeypatch.setattr(perm, "DEFAULT_ENUMERATION_CAP", 50)
        with pytest.raises(ExactnessError):
            pf.gmf_linear_sum(a, b, identity, g, group, chi)
        with pytest.raises(CapacityError, match="^group order 210 exceeds cap 50$"):
            pf.gmf_naive(matrix, group, chi)
        report = pf.check_singular_bound(a, b, identity, g, group, chi)
        assert report == unlowered
        assert report.lhs == pytest.approx(abs(expected) ** 2, rel=1e-12)

    def test_inexact_linear_character_uses_floats(self):
        g = P("(1 2 3)", 3)
        chi = pf.CyclicRootCharacter(g, 1)
        report = pf.check_singular_bound(ONE, ONE, Permutation.identity(3), g, CyclicGroup(g), chi)
        assert report.holds
        # the value is 1 + omega^2 = -omega, of modulus 1
        assert abs(report.lhs - 1) < 1e-12

    @pytest.mark.parametrize(
        "a",
        # the second makes the weights' Gaussian integers too large for a float
        [gauss(Fraction(1, 2), Fraction(1, 3)), gauss(Fraction(1, 2), Fraction(1, 3**300))],
        ids=["denominator-30", "denominator-10-3^300"],
    )
    def test_float_fallback_with_fractional_coefficients(self, a):
        # against a float sum over the whole group
        g = P("(1 2 3)(4 5)", 5)
        group = CyclicGroup(g)
        elements = groups.enumerate_group(group)
        b = gauss(Fraction(-2, 5))
        fallbacks = 0
        for chi in (CyclicRootCharacter(g, 1), CyclicRootCharacter(g, -2)):  # orders 6 and 3
            for theta in elements:
                for tau in elements:
                    entries = linear_sum(a, b, theta, tau).entries
                    expected = sum(
                        chi.evaluate_float(sigma.images)
                        * math.prod(complex(e.re, e.im) for e in (
                            entries[i][sigma.images[i] - 1] for i in range(5)
                        ))
                        for sigma in elements
                    )
                    try:
                        pf.gmf_linear_sum(a, b, theta, tau, group, chi)
                    except ExactnessError:
                        fallbacks += 1
                    report = pf.check_singular_bound(a, b, theta, tau, group, chi)
                    assert report.lhs == pytest.approx(abs(expected) ** 2, rel=1e-9)
                    assert report.holds
        assert fallbacks == 2 * len(elements) ** 2

    @pytest.mark.parametrize("text, n", [("(1 2 3)", 3), ("(1 2 3)", 4), ("(1 2 3)", 5),
                                         ("(1 2 3)(4 5 6)", 6)])
    def test_order_three_fallback_against_exact_value_sums(self, text, n):
        # chi(g^k) = omega^(k*index), omega = exp(2*pi*i/3).  With S_e the
        # exact sum of the entry products over the members where chi = omega^e,
        # the value is S_0 + S_1*omega + S_2*omega^2, and for real a and b its
        # squared modulus is the rational below
        g = P(text, n)
        group = CyclicGroup(g)
        powers = [Permutation.identity(n), g, g * g]
        rng = random.Random(31 + n)
        fallbacks = 0
        for index in (1, 2):
            chi = CyclicRootCharacter(g, index)
            for _ in range(30):
                theta, tau = (rng.choice(powers) if rng.random() < 0.5 else rand_perm(rng, n)
                              for _ in range(2))
                a, b = (gauss(Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9)))
                        for _ in range(2))
                entries = linear_sum(a, b, theta, tau).entries
                sums = [Fraction(0)] * 3
                for k, sigma in enumerate(powers):
                    product = math.prod(entries[i][sigma.images[i] - 1] for i in range(n))
                    sums[k * index % 3] += product.re
                s0, s1, s2 = sums
                expected = float(s0 * s0 + s1 * s1 + s2 * s2 - s0 * s1 - s1 * s2 - s2 * s0)
                # the exact route evaluates chi exactly when some member weighs nonzero
                with pytest.raises(ExactnessError) if any(sums) else contextlib.nullcontext():
                    pf.gmf_linear_sum(a, b, theta, tau, group, chi)
                fallbacks += any(sums)
                report = pf.check_singular_bound(a, b, theta, tau, group, chi)
                assert report.lhs == pytest.approx(expected, rel=1e-12, abs=0)
                assert report.holds
        assert fallbacks >= 20

    def test_past_the_float_range_raises(self):
        identity, cycle = Permutation.identity(8), P("(1 2 3 4 5 6 7 8)", 8)
        sign, s8 = SignCharacter(), SymmetricGroup(8)
        # |value|^2 = (10^160 - 1)^2
        with pytest.raises(pf.PermfuncError, match=r"^\|value\|\^2 lies outside the float range"):
            pf.check_singular_bound(gauss(10**20), ONE, identity, cycle, s8, sign)
        # the value a^2 - b^2 vanishes; the singular values are 2*10^100 and 0
        big = gauss(10**100)
        with pytest.raises(pf.PermfuncError, match=r"^the mean of the singular values' 2n-th powers"):
            pf.check_singular_bound(big, big, Permutation.identity(2), P("(1 2)", 2),
                                    SymmetricGroup(2), sign)
        with pytest.raises(pf.PermfuncError, match=r"^\|a\|\^2 \+ \|b\|\^2 lies outside"):
            pf.singular_values(gauss(10**400), ONE, identity, cycle)
        # the member sum of the float fallback: (a+b)^3 at the identity
        g = P("(1 2 3)", 3)
        chi, group, identity = CyclicRootCharacter(g), CyclicGroup(g), Permutation.identity(3)
        for a, name in ((10**200, "an entry product"), (10**60, "|value|^2")):
            with pytest.raises(pf.PermfuncError, match=rf"^{re.escape(name)} lies outside"):
                pf.check_singular_bound(gauss(a), ZERO, identity, identity, group, chi)
        # underflow stays: |value|^2 = 10^-600 floats to 0.0
        tiny = gauss(Fraction(1, 10**100))
        assert pf.check_singular_bound(tiny, ZERO, identity, identity, group, chi).lhs == 0.0


class TestDominance:
    def test_identity(self):
        report = pf.check_dominance(Fraction(1), Fraction(0), Permutation.identity(3), TrivialCharacter())
        assert report.holds and report.lhs == report.rhs == Fraction(1)

    def test_two_by_two_sign(self):
        report = pf.check_dominance(Fraction(1), Fraction(1), P("(1 2)", 2), SignCharacter())
        assert (report.lhs, report.rhs, report.holds) == (Fraction(0), Fraction(2), True)

    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            pf.check_dominance(Fraction(1), Fraction(2), P("(1 2)", 2), SignCharacter())
        with pytest.raises(ValueError):
            pf.check_dominance(Fraction(2), Fraction(1), P("(1 2 3)", 3), SignCharacter())

    def test_random_sweep_small(self):
        rng = random.Random(31)
        for _ in range(20):
            n = rng.randint(2, 4)
            pi = rand_involution(rng, n)
            m = Fraction(rng.randint(-3, 3))
            k = abs(m) + rng.randint(0, 2)
            for lam in partitions(n):
                chi = IrreducibleCharacter(Partition(lam))
                assert pf.check_dominance(k, m, pi, chi).holds

    def test_every_shape_of_twenty(self):
        # permanent dominance for k*I + m*P_pi, pi eight transpositions of
        # S_20, over all 627 irreducible characters
        n, k, m = 20, Fraction(3, 2), Fraction(-1)
        pi = transpositions(8, n)
        shapes = list(partitions(n))
        assert len(shapes) == 627
        for lam in shapes:
            report = pf.check_dominance(k, m, pi, IrreducibleCharacter(Partition(lam)))
            assert report.holds, lam
            if lam == (n,):
                assert report.lhs == report.rhs == (k + m) ** 4 * (k**2 + m**2) ** 8
            if lam == (1,) * n:
                assert report.lhs == (k + m) ** 4 * (k**2 - m**2) ** 8


class TestSuperadditivity:
    def test_double_identity(self):
        for n in (1, 2, 3):
            report = pf.check_superadditivity(
                Fraction(1), Fraction(0), Permutation.identity(n),
                Fraction(1), Fraction(0), Permutation.identity(n),
                TrivialCharacter(),
            )
            assert report.combined == Fraction(2**n)
            assert report.holds

    def test_two_by_two_reference(self):
        report = pf.check_superadditivity(
            Fraction(1), Fraction(1), P("(1 2)", 2),
            Fraction(1), Fraction(0), Permutation.identity(2),
            SignCharacter(),
        )
        assert (report.combined, report.left, report.right) == (
            Fraction(3), Fraction(0), Fraction(1),
        )
        assert report.holds

    def test_random_sweep(self):
        rng = random.Random(32)
        for _ in range(15):
            n = rng.randint(2, 4)
            pi1, pi2 = rand_involution(rng, n), rand_involution(rng, n)
            m1 = Fraction(rng.randint(-2, 2)); k1 = abs(m1) + rng.randint(0, 2)
            m2 = Fraction(rng.randint(-2, 2)); k2 = abs(m2) + rng.randint(0, 2)
            for lam in partitions(n):
                chi = IrreducibleCharacter(Partition(lam))
                assert pf.check_superadditivity(k1, m1, pi1, k2, m2, pi2, chi).holds


class TestTensorOracle:
    def test_two_by_two_identity(self):
        value = pf.tensor_oracle(
            ONE, ZERO, Permutation.identity(2), Permutation.identity(2),
            SymmetricGroup(2), SignCharacter(),
        )
        assert value == ONE

    def test_three_cycle_permanent(self):
        value = pf.tensor_oracle(
            ONE, ONE, Permutation.identity(3), P("(1 2 3)", 3),
            SymmetricGroup(3), TrivialCharacter(),
        )
        assert value == gauss(2)  # a^3 + b^3 at a = b = 1

    def test_matches_formula_for_linear_characters(self):
        rng = random.Random(33)
        for _ in range(15):
            n = rng.randint(2, 3)
            theta, tau = rand_perm(rng, n), rand_perm(rng, n)
            a = rand_scalar(rng, complex_ok=False)
            b = rand_scalar(rng, complex_ok=False)
            group = rng.choice([SymmetricGroup(n), AlternatingGroup(n)])
            chi = rng.choice([TrivialCharacter(), SignCharacter()])
            tensor = pf.tensor_oracle(a, b, theta, tau, group, chi)
            formula = pf.gmf_linear_sum(a, b, theta, tau, group, chi).value
            assert tensor == formula

    def test_nonlinear_character_scaling(self):
        # the raw tensor pairing carries |G|/degree for an irreducible
        # character, so the quotient by |G| alone overcounts by degree
        chi = IrreducibleCharacter(Partition((2, 1)))
        theta, tau = Permutation.identity(3), P("(1 2 3)", 3)
        tensor = pf.tensor_oracle(gauss(2), gauss(3), theta, tau, SymmetricGroup(3), chi)
        formula = pf.gmf_linear_sum(
            gauss(2), gauss(3), theta, tau, SymmetricGroup(3), chi
        ).value
        assert tensor == formula / gauss(chi.degree())
        # restricted to the alternating group the character splits into
        # two distinct linear characters and the plain quotient is exact
        tensor_alt = pf.tensor_oracle(gauss(2), gauss(3), theta, tau, AlternatingGroup(3), chi)
        formula_alt = pf.gmf_linear_sum(
            gauss(2), gauss(3), theta, tau, AlternatingGroup(3), chi
        ).value
        assert tensor_alt == formula_alt

    def test_rejects_complex_and_large(self):
        with pytest.raises(ExactnessError):
            pf.tensor_oracle(
                gauss(0, 1), ONE, Permutation.identity(2), Permutation.identity(2),
                SymmetricGroup(2), TrivialCharacter(),
            )
        with pytest.raises(ValueError):
            pf.tensor_oracle(
                ONE, ONE, Permutation.identity(5), Permutation.identity(5),
                SymmetricGroup(5), TrivialCharacter(),
            )


class TestTermCounts:
    def test_reference_counts(self):
        _, _, theta, tau = reference_instance()
        counts = pf.term_counts(theta, tau, SymmetricGroup(6))
        assert (counts.naive, counts.formula, counts.cauchy_binet) == (720, 4, 924)

    def test_degenerate_counts(self):
        theta = P("(1 2 3)", 3)
        assert pf.term_counts(theta, theta, SymmetricGroup(3)).formula == 1
        nine = Permutation.from_cycles(9, [tuple(range(1, 10))])
        counts = pf.term_counts(Permutation.identity(9), nine, SymmetricGroup(9))
        assert counts.formula == 2

    def test_generated_symmetric_group_counts(self):
        # (1 2) and a 12-cycle generate S_12: its order comes from the base
        # and strong generating set, above the cap that bounds enumeration
        cycle = Permutation.from_cycles(12, [tuple(range(1, 13))])
        group = GeneratedSubgroup(12, (P("(1 2)", 12), cycle))
        tau = P("(1 2)(3 4)(5 6)", 12)
        counts = pf.term_counts(Permutation.identity(12), tau, group)
        expected = pf.term_counts(Permutation.identity(12), tau, SymmetricGroup(12))
        assert counts == expected
        assert counts.naive == math.factorial(12)


def gens_presentation(group):
    """The same group as a gens: closure, which reaches its orbit bound, so
    that its young() answer sends it down the same routes as ``group``."""
    n = group.degree
    if isinstance(group, AlternatingGroup):
        cycles = [(1, 2, k) for k in range(3, n + 1)]
    else:
        free = sorted(set(range(1, n + 1)) - getattr(group, "points", frozenset()))
        cycles = list(zip(free, free[1:]))
    gens = tuple(Permutation.from_cycles(n, [c]) for c in cycles)
    return GeneratedSubgroup(n, gens or (Permutation.identity(n),))


@record
class Walked(GroupSpec):
    """``group`` without a young() answer or orbits: every route reaches the
    mixtures or members by the member walk (the mixtures tested for
    membership in ``group``, or its members listed), which makes it the
    reference the Young routes are checked against."""

    group: GroupSpec

    @property
    def degree(self):
        return self.group.degree

    def contains_images(self, images):
        return self.group.contains_images(images)

    def order(self):
        return self.group.order()

    def _generate(self):
        return self.group._generate()


@record
class WalkedMixtures(Walked):
    """``group`` as Walked, but reporting the order 2^n, which no walk's
    2^k mixtures exceed, so that the fast route walks the mixtures and tests
    each for membership rather than list the members."""

    def order(self):
        return 2**self.group.degree


def walk_characters(n):
    """irr:[n] and irr:[1^n], the trivial and sign characters as the class sums see them."""
    return {
        "trivial": IrreducibleCharacter(Partition((n,))),
        "sign": IrreducibleCharacter(Partition((1,) * n)),
    }


def stabilizer_cases(alpha, beta, points):
    """How the stabilized points constrain the mixtures of alpha and beta."""
    if not points:
        return {"no points"}
    rho = compose(alpha.inverse(), beta)
    cases = set()
    if any(rho(p) == p and alpha(p) != p for p in points):
        cases.add("fixed by rho, moved by alpha")
    for cycle in pf.disjoint_cycles(rho).cycles:
        on_cycle = points & set(cycle)
        forced = any(alpha(p) != p for p in on_cycle)
        forbidden = any(beta(p) != p for p in on_cycle)
        if forced and forbidden:
            cases.add("conflicting")
        elif forced:
            cases.add("forced")
        elif forbidden:
            cases.add("forbidden")
    return cases


def draw_scalars(rng):
    """(a, b, kind) with a = 0, b = 0 and b = -a each drawn often."""
    a, b = rand_scalar(rng, 2), rand_scalar(rng, 2)
    kind = rng.choice(["a = 0", "b = 0", "b = -a", "random"])
    if kind == "a = 0":
        a = ZERO
    elif kind == "b = 0":
        b = ZERO
    elif kind == "b = -a":
        b = -a
    return a, b, kind


@st.composite
def closed_form_instances(draw):
    """(a, b, theta, tau), n <= 40, with a = 0, b = 0 and b = -a each drawn
    often, and theta^-1*tau moving a drawn subset of the points."""
    n = draw(st.one_of(st.integers(1, 6), st.integers(7, 40)))
    a = draw(st.one_of(st.just(ZERO), _SCALARS))
    b = draw(st.one_of(st.just(ZERO), st.just(-a), _SCALARS))
    theta = Permutation(tuple(draw(st.permutations(range(1, n + 1)))))
    moved = draw(st.permutations(range(1, n + 1)))[: draw(st.integers(0, n))]
    rho = list(range(1, n + 1))
    for p, q in zip(moved, draw(st.permutations(moved))):
        rho[p - 1] = q
    return a, b, theta, compose(theta, Permutation(tuple(rho)))


def parity_groups(rng, n):
    points = frozenset(rng.sample(range(1, n + 1), rng.randint(0, n)))
    return [SymmetricGroup(n), AlternatingGroup(n), PointwiseStabilizer(n, points)]


def assert_same_result(fast, slow):
    assert type(fast.value) is pf.GaussianRational
    assert type(slow.value) is pf.GaussianRational
    assert fast.value == slow.value
    assert fast.term_count == slow.term_count
    assert fast.method is slow.method


class TestParityProduct:
    """The O(r) product for trivial and sign on S_n, A_n and stabilizers
    against the class sums of irr:[n] and irr:[1^n] and the 2^r mixture
    walk of the same group, on the same instance; a gens: presentation of
    the group takes the product too."""

    @pytest.fixture
    def product_calls(self, monkeypatch):
        calls = []
        product = engine._parity_product

        def spy(*args):
            calls.append(args)
            return product(*args)

        monkeypatch.setattr(engine, "_parity_product", spy)
        return calls

    def check_routes(self, evaluate, group, product_calls):
        """Trivial and sign on ``group`` against irr:[n], irr:[1^n] and the walk,
        which never reaches the product, and against a gens: presentation;
        returns how often the presentation reached the product."""
        n = group.degree
        generated, walked, reached = gens_presentation(group), Walked(group), 0
        for name, irr in walk_characters(n).items():
            chi = TrivialCharacter() if name == "trivial" else SignCharacter()
            fast = evaluate(group, chi)
            before = len(product_calls)
            assert_same_result(fast, evaluate(group, irr))
            assert_same_result(fast, evaluate(walked, chi))
            assert len(product_calls) == before
            assert_same_result(fast, evaluate(generated, chi))
            reached += len(product_calls) - before
        return reached

    def test_linear_sum_matches_walk(self, product_calls):
        rng = random.Random(5151)
        stab_cases, scalar_kinds, reached = set(), set(), 0
        for _ in range(250):
            n = rng.randint(1, 7)
            theta, tau = rand_perm(rng, n), rand_perm(rng, n)
            a, b, kind = draw_scalars(rng)
            scalar_kinds.add(kind)
            for group in parity_groups(rng, n):
                if isinstance(group, PointwiseStabilizer):
                    stab_cases |= stabilizer_cases(theta, tau, group.points)
                reached += self.check_routes(
                    lambda g, chi: pf.gmf_linear_sum(a, b, theta, tau, g, chi),
                    group,
                    product_calls,
                )
        assert product_calls and reached
        assert scalar_kinds == {"a = 0", "b = 0", "b = -a", "random"}
        assert stab_cases == {
            "no points", "forced", "forbidden", "conflicting", "fixed by rho, moved by alpha",
        }

    def test_stabilizer_cases_by_hand(self):
        # theta^-1*tau = (1 2)(3 4 5), 6 fixed by both
        theta, tau = Permutation.identity(6), P("(1 2)(3 4 5)", 6)
        a, b = gauss(2), gauss(3)
        cases = {
            "6": (a + b) * (a**2 + b**2) * (a**3 + b**3),  # no constraint
            "1": (a + b) * a**2 * (a**3 + b**3),  # tau moves 1: (1 2) from theta
            "": (a + b) * (a**2 + b**2) * (a**3 + b**3),
        }
        for points, value in cases.items():
            group = parse_group(f"stab:{points}@6")
            result = pf.gmf_linear_sum(a, b, theta, tau, group, TrivialCharacter())
            assert result.value == value
        # theta^-1*tau = (1 2 3); theta moves 1 and 2, tau moves 2 and 3
        theta, tau = P("(1 2)", 3), P("(2 3)", 3)
        for points, terms in (("1", 1), ("3", 1), ("1,3", 0), ("2", 0)):
            result = pf.gmf_linear_sum(
                a, b, theta, tau, parse_group(f"stab:{points}@3"), SignCharacter()
            )
            slow = pf.gmf_naive(
                linear_sum(a, b, theta, tau), parse_group(f"stab:{points}@3"), SignCharacter()
            )
            assert result.value == slow.value
            assert result.term_count == terms
        # a point fixed by theta^-1*tau but moved by theta: no mixture survives
        theta = P("(1 2)", 3)
        result = pf.gmf_linear_sum(a, b, theta, theta, parse_group("stab:1@3"), SignCharacter())
        assert (result.value, result.term_count) == (ZERO, 0)
        assert type(result.value) is pf.GaussianRational

    def test_block_matches_walk(self, product_calls):
        rng = random.Random(5252)
        shapes = [(1, 3), (3, 1), (2, 2), (2, 3), (3, 2), (1, 7), (7, 1)]
        reached = 0
        for _ in range(60):
            m, blocks = rng.choice(shapes)
            spec = random_block_spec(rng, m, blocks)
            for group in parity_groups(rng, m * blocks):
                reached += self.check_routes(
                    lambda g, chi: pf.gmf_block(spec, g, chi), group, product_calls
                )
        assert product_calls and reached

    @given(closed_form_instances())
    @settings(max_examples=150)
    def test_det_and_per_closed_forms(self, instance):
        a, b, theta, tau = instance
        n = theta.degree
        det, per = pf.det_linear_sum(a, b, theta, tau), pf.per_linear_sum(a, b, theta, tau)
        assert (det.value, per.value) == linear_sum_det_per(a, b, theta, tau)
        matrix = linear_sum(a, b, theta, tau)
        assert det.value == pf.det_exact(matrix)
        if n <= 6:
            assert det.value == brute_gmf(matrix, SymmetricGroup(n), SignCharacter())
            assert per.value == brute_gmf(matrix, SymmetricGroup(n), TrivialCharacter())
        lengths = cycle_lengths(compose(theta.inverse(), tau).images)
        cycles = sum(1 for length in lengths if length > 1)
        # each cycle takes a^l or b^l, all times (a+b)^F
        terms = 0 if 1 in lengths and not a + b else (bool(a) + bool(b)) ** cycles
        assert det.term_count == per.term_count == terms
        assert det.method is per.method is pf.Method.CLOSED_FORM

    def test_term_counts_match_listing(self):
        rng = random.Random(5454)
        for _ in range(100):
            n = rng.randint(1, 7)
            theta, tau = rand_perm(rng, n), rand_perm(rng, n)
            for group in parity_groups(rng, n):
                listed = sum(1 for sigma in pf.mixtures(theta, tau) if group.contains(sigma))
                assert pf.term_counts(theta, tau, group).formula == listed
                generated = gens_presentation(group)
                assert pf.term_counts(theta, tau, generated).formula == listed


def transpositions(count, n):
    return Permutation.from_cycles(n, [(2 * k + 1, 2 * k + 2) for k in range(count)])


def prime_cycle_group(count):
    """cyclic:g on 77 points, g one cycle of each prime length 2, 3, 5, ...,
    19 on consecutive points (order 2*3*5*...*19 = 9699690), and ``count``
    (at most 35) disjoint transpositions of neighbouring points inside g's
    cycles, so that no coefficient of a*I + b*P_tau leaves an orbit."""
    cycles, pairs, start = [], [], 1
    for length in (2, 3, 5, 7, 11, 13, 17, 19):
        cycles.append(tuple(range(start, start + length)))
        pairs += [(p, p + 1) for p in range(start, start + length - 1, 2)]
        start += length
    group = CyclicGroup(Permutation.from_cycles(77, cycles))
    assert group.order() == 9699690 and len(pairs) == 35
    return group, Permutation.from_cycles(77, pairs[:count])


class TestParityProductScale:
    """The product neither walks the mixtures nor tests membership."""

    @pytest.fixture
    def no_walk(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the O(r) product must not walk the mixtures")

        monkeypatch.setattr(perm, "_depth_first", refuse)
        monkeypatch.setattr(perm, "mixtures", refuse)
        refuse_membership(monkeypatch, refuse)

    def test_sixty_points_sixteen_cycles(self, no_walk):
        theta, tau = Permutation.identity(60), transpositions(16, 60)
        a, b = gauss(1), gauss(2)
        det = pf.det_linear_sum(a, b, theta, tau).value
        per = pf.per_linear_sum(a, b, theta, tau).value
        stab_per = (a + b) ** 28 * a**2 * (a**2 + b**2) ** 15
        stab_det = (a + b) ** 28 * a**2 * (a**2 - b**2) ** 15
        expected = {
            "S60": ({"sign": det, "trivial": per}, 2**16),
            "A60": ({"sign": (det + per) / 2, "trivial": (det + per) / 2}, 2**15),
            "stab:1,40@60": ({"sign": stab_det, "trivial": stab_per}, 2**15),
        }
        spec = BlockSpec(
            m=60, n=1, theta=Permutation.identity(1), tau=Permutation.identity(1),
            inner_thetas=(theta,), inner_taus=(tau,), a=(a,), b=(b,),
        )
        for text, (values, terms) in expected.items():
            group = parse_group(text)
            for name, value in values.items():
                chi = parse_character(name)
                result = pf.gmf_linear_sum(a, b, theta, tau, group, chi)
                assert (result.value, result.term_count) == (value, terms)
                block = pf.gmf_block(spec, group, chi)
                assert (block.value, block.term_count) == (value, terms)
            assert pf.term_counts(theta, tau, group).formula == terms

    @pytest.mark.parametrize("count", [16, 28])
    def test_sixty_points_as_a_generated_group(self, no_walk, count):
        # (1 2) and the 60-cycle generate S_60, which reaches its orbit bound:
        # the gens: group takes the product, for 2^28 mixtures too
        theta, tau = Permutation.identity(60), transpositions(count, 60)
        cycle = Permutation.from_cycles(60, [tuple(range(1, 61))])
        group = GeneratedSubgroup(60, (P("(1 2)", 60), cycle))
        a, b = gauss(2), gauss(3)
        for chi in (TrivialCharacter(), SignCharacter()):
            result = pf.gmf_linear_sum(a, b, theta, tau, group, chi)
            assert result == pf.gmf_linear_sum(a, b, theta, tau, SymmetricGroup(60), chi)
            assert result.term_count == 2**count

    def test_more_cycles_than_a_bitmask_holds(self, no_walk):
        # r = 70: 2^70 mixtures are far over the cap, and the product walks none
        n = 140
        theta, tau = Permutation.identity(n), transpositions(70, n)
        a, b = gauss(2), gauss(0, -1)
        group = SymmetricGroup(n)
        det = pf.gmf_linear_sum(a, b, theta, tau, group, SignCharacter())
        closed = pf.det_linear_sum(a, b, theta, tau)
        assert (det.value, det.term_count) == (closed.value, closed.term_count)
        assert closed.term_count == 2**70


class TestWalkCap:
    """The walk refuses more mixtures than the cap before it builds anything."""

    @pytest.fixture
    def nothing_built(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("built before the cap was checked")

        monkeypatch.setattr(perm, "_depth_first", refuse)
        monkeypatch.setattr(engine, "_orbit_classes", refuse)
        refuse_membership(monkeypatch, refuse)

    def test_over_the_cap_is_refused(self, nothing_built):
        n = 60
        theta, tau = Permutation.identity(n), transpositions(28, n)
        cycle = Permutation.from_cycles(n, [tuple(range(1, n + 1))])
        # theta is one 44-cycle, so the 22 transpositions of theta^-1*tau
        # lie on one orbit of <theta, tau>, which the class sums walk whole
        long_cycle = Permutation.from_cycles(44, [tuple(range(1, 45))])
        one_orbit = compose(long_cycle, transpositions(22, 44))
        irr = parse_character("irr:[43,1]", 44)
        # the dihedral group of order 120 on the 60-gon sifts: no Young answer
        reflection = Permutation.from_cycles(n, [(k, n + 2 - k) for k in range(2, n // 2 + 1)])
        dihedral = GeneratedSubgroup(n, (cycle, reflection))
        assert dihedral.order() == 120 and dihedral.young() is None
        # the 2^28 mixtures pass the cap, but the 60 and 120 members do not:
        # they are listed and weighed, with no membership test and no walk,
        # and only the identity lies on the support, weighed (a+b)^4 = 16
        for group in (CyclicGroup(cycle), dihedral):
            result = pf.gmf_linear_sum(ONE, ONE, theta, tau, group, TrivialCharacter())
            assert (result.value, result.term_count) == (gauss(16), 1)
        assert pf.term_counts(theta, tau, CyclicGroup(cycle)) == pf.TermCounts(60, 1, comb(120, 60))
        # 2^22 mixtures and 9699690 members both pass the cap
        primes, inside = prime_cycle_group(22)
        ident = Permutation.identity(77)
        for call in (
            lambda: pf.gmf_linear_sum(ONE, ONE, long_cycle, one_orbit, SymmetricGroup(44), irr),
            lambda: pf.gmf_linear_sum(ONE, ONE, long_cycle, one_orbit, AlternatingGroup(44), irr),
            lambda: pf.gmf_linear_sum(ONE, ONE, ident, inside, primes, TrivialCharacter()),
            lambda: pf.term_counts(ident, inside, primes),
        ):
            with pytest.raises(CapacityError, match=r"^walk of 2\^22 mixtures exceeds cap 3628800$"):
                call()

    def test_class_tables_stay_under_the_cap(self, monkeypatch):
        # theta = id and tau has one cycle of each length 2..23, so every
        # orbit holds one cycle and passes alone, but the 2^22 mixtures
        # have 2^22 cycle types: the merged table stops short of the cap
        # and the walk refuses the 2^22 mixtures
        cycles, start = [], 1
        for length in range(2, 24):
            cycles.append(tuple(range(start, start + length)))
            start += length
        n = start - 1
        theta, tau = Permutation.identity(n), Permutation.from_cycles(n, cycles)
        tables = []
        convolve = engine._convolve

        def spy(left, right):
            tables.append(len(left) * len(right))
            return convolve(left, right)

        def refuse(*args, **kwargs):
            raise AssertionError("membership tested before the cap was checked")

        monkeypatch.setattr(engine, "_convolve", spy)
        refuse_membership(monkeypatch, refuse)
        chi = parse_character(f"irr:[{n - 1},1]", n)
        for group in (SymmetricGroup(n), AlternatingGroup(n)):
            with pytest.raises(CapacityError, match=r"walk of 2\^22 mixtures exceeds cap"):
                pf.gmf_linear_sum(ONE, ONE, theta, tau, group, chi)
        assert tables and n * max(tables) <= perm.DEFAULT_ENUMERATION_CAP

    def test_stabilizer_emptied_before_the_walk(self, nothing_built):
        # theta and tau both send the stabilized point 45 to 46, so no
        # mixture lies in the stabilizer: the zeroed prefactor answers
        # before the 2^22 walk is refused
        n = 46
        theta = Permutation.from_cycles(n, [(45, 46)])
        tau = compose(theta, transpositions(22, n))
        group = PointwiseStabilizer(n, frozenset({45}))
        result = pf.gmf_linear_sum(ONE, ONE, theta, tau, group, parse_character("irr:[45,1]", n))
        assert (result.value, result.term_count) == (ZERO, 0)


    def test_young_irreducible_counts_only_its_branching_cycles(self):
        # theta the 44-cycle, rho 22 transpositions and tau = theta*rho: the
        # 22 cycles of theta^-1*tau lie on one orbit of <theta, tau>, so 2^22
        # mixtures and 44 * 2^22 traced points both pass the cap; a stabilizer
        # zeroes the coefficients that leave its blocks, and the class sums
        # count only the cycles that keep both factors
        n = 44
        theta = Permutation.from_cycles(n, [tuple(range(1, n + 1))])
        tau = compose(theta, transpositions(22, n))
        chi = parse_character("irr:[43,1]", n)
        # every mixture leaves stab:1,...,40@44: zero with no term, as trivial
        group = PointwiseStabilizer(n, frozenset(range(1, 41)))
        for character in (chi, TrivialCharacter()):
            result = pf.gmf_linear_sum(ONE, ONE, theta, tau, group, character)
            assert (result.value, result.term_count) == (ZERO, 0)
        # stab:4,8,...,44@44: 11 of the 22 cycles keep both factors.  The
        # character is fix - 1, so the sum is, over the points j the group
        # moves, the permanent over the members fixing j, plus (|S| - 1) times
        # the permanent over G: Young permanents, folded by the naive route
        stabilized = frozenset(range(4, n + 1, 4))
        a, b = gauss(2), gauss(1, 1)
        matrix = linear_sum(a, b, theta, tau)

        def permanent(points):
            return pf.gmf_naive(matrix, PointwiseStabilizer(n, points), TrivialCharacter()).value

        moved = [j for j in range(1, n + 1) if j not in stabilized]
        expected = sum((permanent(stabilized | {j}) for j in moved), ZERO)
        expected = expected + gauss(len(stabilized) - 1) * permanent(stabilized)
        group = PointwiseStabilizer(n, stabilized)
        result = pf.gmf_linear_sum(a, b, theta, tau, group, chi)
        assert result.value == expected != ZERO
        assert result.term_count == 2**11
        assert pf.gmf_linear_sum(a, b, theta, tau, group, TrivialCharacter()).term_count == 2**11


class TestClassSums:
    """Irreducible characters on S_n, A_n and stabilizers, summed by cycle
    type over the orbits of <theta, tau>, against the brute-force sum and
    the mixture walk of the same group, and on a gens: presentation of it."""

    @pytest.fixture
    def no_walk(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the class sums must not walk the mixtures")

        monkeypatch.setattr(engine, "_walk", refuse)
        monkeypatch.setattr(perm, "mixtures", refuse)
        refuse_membership(monkeypatch, refuse)

    @pytest.fixture
    def class_sum_calls(self, monkeypatch):
        calls = []
        class_sums = engine._class_sums

        def spy(*args):
            calls.append(args)
            return class_sums(*args)

        monkeypatch.setattr(engine, "_class_sums", spy)
        return calls

    @staticmethod
    def binomial_sum(a, b, n, m, parts):
        """gmf of a*I + b*P_tau, tau m disjoint transpositions of S_n, at irr:parts.

        A mixture takes j of the transpositions, weight a^(2(m-j)) b^(2j),
        class 2^j 1^(n-2j); the F = n - 2m common fixed points give (a+b)^F.
        """
        total = ZERO
        for j in range(m + 1):
            value = mn_value(parts, (2,) * j + (1,) * (n - 2 * j))
            total = total + gauss(comb(m, j) * value) * a ** (2 * (m - j)) * b ** (2 * j)
        return (a + b) ** (n - 2 * m) * total

    def test_twenty_eight_transpositions(self, no_walk):
        # 2^28 mixtures exceed the cap, but each orbit holds one transposition
        n, m = 60, 28
        theta, tau = Permutation.identity(n), transpositions(m, n)
        for parts in ((59, 1), (58, 2), (30, 30)):
            chi = IrreducibleCharacter(Partition(parts))
            for a, b in ((ONE, ONE), (gauss(2), gauss(1, -1)), (gauss(Fraction(1, 2)), gauss(-3))):
                result = pf.gmf_linear_sum(a, b, theta, tau, SymmetricGroup(n), chi)
                assert result.value == self.binomial_sum(a, b, n, m, parts)
                assert result.term_count == 2**m
                assert type(result.value) is pf.GaussianRational

    @pytest.mark.parametrize("count", [16, 28])
    def test_sixty_points_as_a_generated_group(self, no_walk, count):
        # the gens: presentation of S_60 takes the class sums, as S_60 does
        theta, tau = Permutation.identity(60), transpositions(count, 60)
        cycle = Permutation.from_cycles(60, [tuple(range(1, 61))])
        group = GeneratedSubgroup(60, (P("(1 2)", 60), cycle))
        chi = parse_character("irr:[58,2]", 60)
        result = pf.gmf_linear_sum(gauss(2), gauss(3), theta, tau, group, chi)
        assert result == pf.gmf_linear_sum(gauss(2), gauss(3), theta, tau, SymmetricGroup(60), chi)
        assert result.value == self.binomial_sum(gauss(2), gauss(3), 60, count, (58, 2))
        assert result.term_count == 2**count

    def test_character_of_another_degree_is_refused_before_any_sum(self):
        # irr:[3,2] is a character of S_5: on S_6 every route refuses it
        # with the same text, whichever of its terms would vanish
        n, chi = 6, IrreducibleCharacter(Partition((3, 2)))
        ident, group = Permutation.identity(n), SymmetricGroup(n)
        spec = BlockSpec(
            m=2, n=3, theta=Permutation.identity(3), tau=Permutation.identity(3),
            inner_thetas=(Permutation.identity(2),) * 3, inner_taus=(Permutation.identity(2),) * 3,
            a=(ONE,) * 3, b=(-ONE,) * 3,
        )
        calls = [
            lambda: pf.gmf_linear_sum(ONE, -ONE, ident, ident, group, chi),
            lambda: pf.gmf_linear_sum(ONE, ONE, ident, ident, group, chi),
            lambda: pf.gmf_naive(Matrix.zero(n, n), group, chi),
            lambda: pf.gmf_naive(Matrix.identity(n), group, chi),
            lambda: pf.gmf_block(spec, group, chi),
            lambda: pf.check_dominance(Fraction(1), Fraction(1), P("(1 2)", n), chi),
        ]
        for call in calls:
            with pytest.raises(CharacterDomainError, match="degree 6 element for a character of S_5"):
                call()
        small = IrreducibleCharacter(Partition((2, 1)))
        four = Permutation.identity(4)
        with pytest.raises(CharacterDomainError, match="degree 4 element for a character of S_3"):
            pf.tensor_oracle(ONE, ONE, four, four, SymmetricGroup(4), small)

    def test_wrong_degree_is_a_domain_error(self, no_walk):
        theta, tau = Permutation.identity(4), P("(1 2)", 4)
        chi = IrreducibleCharacter(Partition((3, 2)))
        stabilizer = PointwiseStabilizer(4, frozenset({3}))
        message = "degree 4 element for a character of S_5"
        for group in (SymmetricGroup(4), AlternatingGroup(4), stabilizer):
            with pytest.raises(CharacterDomainError, match=message):
                pf.gmf_linear_sum(ONE, ONE, theta, tau, group, chi)

    @staticmethod
    def check_routes(evaluate, group, class_sum_calls):
        """``group`` against its walk, which never reaches the class sums, and
        against a gens: presentation; returns the result and how often the
        presentation reached the class sums."""
        fast = evaluate(group)
        before = len(class_sum_calls)
        assert_same_result(fast, evaluate(Walked(group)))
        assert len(class_sum_calls) == before
        assert_same_result(fast, evaluate(gens_presentation(group)))
        return fast, len(class_sum_calls) - before

    def test_linear_sum_matches_brute_force_and_walk(self, class_sum_calls):
        rng = random.Random(8181)
        scalar_kinds, reached = set(), 0
        for _ in range(120):
            n = rng.randint(1, 6)
            theta, tau = rand_perm(rng, n), rand_perm(rng, n)
            if rng.random() < 0.3:
                theta = Permutation.identity(n)
            a, b, kind = draw_scalars(rng)
            if rng.random() < 0.3:
                a, b = a / 2, b / 3
            scalar_kinds.add(kind)
            chi = IrreducibleCharacter(Partition(rng.choice(list(partitions(n)))))
            for group in parity_groups(rng, n):
                fast, calls = self.check_routes(
                    lambda g: pf.gmf_linear_sum(a, b, theta, tau, g, chi), group, class_sum_calls
                )
                reached += calls
                if n <= 5:
                    assert fast.value == brute_gmf(linear_sum(a, b, theta, tau), group, chi)
        assert scalar_kinds == {"a = 0", "b = 0", "b = -a", "random"}
        assert class_sum_calls and reached

    @staticmethod
    def bounded_tables(monkeypatch, cap):
        """Lower the cap, and record the largest n * |table| of each table
        the class sums build that holds more than one class (one class is a
        single mixture's O(n) type)."""
        monkeypatch.setattr(perm, "DEFAULT_ENUMERATION_CAP", cap)
        sizes = []
        for name in ("_orbit_classes", "_convolve"):
            build = getattr(engine, name)

            def spy(*args, build=build):
                table = build(*args)
                if len(table) > 1:
                    sizes.append(max(map(sum, table)) * len(table))
                return table

            monkeypatch.setattr(engine, name, spy)
        return sizes

    @staticmethod
    def branching_cycles(a, b, theta, tau, group) -> int:
        """k: the cycles of alpha^-1*beta whose a- and b-products are both
        nonzero once every coefficient that carries its point out of the
        point's orbit is zeroed (alpha = theta^-1, beta = tau^-1)."""
        alpha, beta = theta.inverse().images, tau.inverse().images
        labels = group.orbits() or [0] * (theta.degree + 1)

        def keeps(c, images, cycle):
            return not c.is_zero() and all(labels[images[x - 1]] == labels[x] for x in cycle)

        return sum(keeps(a, alpha, cycle) and keeps(b, beta, cycle)
                   for cycle in perm.pair_cycles(alpha, beta).cycles)

    @staticmethod
    def spy_tables(monkeypatch):
        """Count the orbit tables the class sums build and those they convolve
        into T, and record how many points the last walk of mixtures covered:
        the one that streams the orbits left untabulated."""
        calls = {"_orbit_classes": 0, "_convolve": 0}
        for name in calls:
            build = getattr(engine, name)

            def spy(*args, build=build, name=name):
                calls[name] += 1
                return build(*args)

            monkeypatch.setattr(engine, name, spy)
        walk_mixtures = engine.walk_mixtures

        def walked(alpha, *args):
            calls["walked"] = len(alpha)
            return walk_mixtures(alpha, *args)

        monkeypatch.setattr(engine, "walk_mixtures", walked)
        return calls

    @staticmethod
    def outcome(calls) -> str:
        """"streamed" when the call counted in ``calls``, which this clears,
        left an orbit over (walked in the stream, or a table not convolved
        into T), else "convolved"."""
        streamed = calls.get("walked") or calls["_orbit_classes"] > calls["_convolve"]
        calls.update(_orbit_classes=0, _convolve=0, walked=0)
        return "streamed" if streamed else "convolved"

    def test_lowered_cap_answers_whenever_the_walk_fits(self, monkeypatch):
        # the same draws with the cap lowered: the class sums check the smaller
        # of the 2^k mixtures (k the cycles that keep both factors) and the
        # points their orbit walks trace, then tabulate each orbit and convolve
        # while the tables fit, and check 2^k again before streaming the
        # tables left over; every draw they do not refuse equals the unlowered
        # call, a draw is refused only when its 2^k walk exceeds the cap,
        # the refusal names the count over the cap, and no table outgrows it
        rng = random.Random(8383)
        cases = []
        for _ in range(60):
            n = rng.randint(2, 7)
            theta, tau = rand_perm(rng, n), rand_perm(rng, n)
            if rng.random() < 0.5:
                theta = Permutation.identity(n)
            a, b, _ = draw_scalars(rng)
            chi = IrreducibleCharacter(Partition(rng.choice(list(partitions(n)))))
            for group in parity_groups(rng, n):
                expected = pf.gmf_linear_sum(a, b, theta, tau, group, chi)
                cases.append(((a, b, theta, tau, group, chi), expected))

        def refuse(*args, **kwargs):
            raise AssertionError("the class sums handed the mixtures to the walk")

        checks = TestNaive.spy_checks(monkeypatch)
        tables = self.spy_tables(monkeypatch)
        monkeypatch.setattr(engine, "_walk", refuse)
        outcomes = set()
        for cap in (0, 15, 30, 60):
            sizes = self.bounded_tables(monkeypatch, cap)
            for args, expected in cases:
                checks.clear()
                self.outcome(tables)
                try:
                    result = pf.gmf_linear_sum(*args)
                except CapacityError as exc:
                    assert 1 << self.branching_cycles(*args[:5]) > cap
                    what, work = checks[-1]
                    assert work > cap and str(exc) == f"{what} exceeds cap {cap}"
                    assert re.fullmatch(r"walk of 2\^\d+ mixtures|class sums tracing \d+ mixture points",
                                        what)
                    outcomes.add("refused")
                    continue
                assert_same_result(result, expected)
                assert all(work <= cap for _, work in checks)
                if checks:
                    outcomes.add(self.outcome(tables))
            assert all(size <= cap for size in sizes)
        assert outcomes == {"refused", "convolved", "streamed"}

    def test_checked_counts_bound_the_mixtures_walked(self, monkeypatch):
        # theta^-1*tau fixes no point and both coefficients are nonzero, so
        # every orbit of <theta, tau> branches on k_O >= 1 cycles and the
        # class sums check min(2^k, sum of |O| * 2^(k_O)) first, computed here
        # from the orbits; the mixtures every orbit walk enters stay within
        # the largest count checked
        checks = TestNaive.spy_checks(monkeypatch)
        tables = self.spy_tables(monkeypatch)
        entered = []
        walk_mixtures = engine.walk_mixtures

        def counted(alpha, *args):
            for item in walk_mixtures(alpha, *args):
                if alpha:  # with no orbit left untabulated, one empty mixture stands for T
                    entered.append(len(alpha))
                yield item

        monkeypatch.setattr(engine, "walk_mixtures", counted)
        rng = random.Random(8484)
        outcomes = set()
        for _ in range(120):
            n = rng.randint(2, 12)
            theta, rho = rand_perm(rng, n), rand_perm(rng, n)
            while any(rho(x) == x for x in range(1, n + 1)):
                rho = rand_perm(rng, n)
            tau = compose(theta, rho)
            alpha, beta = theta.inverse().images, tau.inverse().images
            labels = perm.orbit_labels(n, (alpha, beta))
            cycles = perm.pair_cycles(alpha, beta).cycles
            k = len(cycles)
            traced = sum(labels[1:].count(o) << sum(labels[c[0]] == o for c in cycles)
                         for o in set(labels[1:]))
            chi = IrreducibleCharacter(Partition(rng.choice(list(partitions(n)))))
            group = rng.choice([SymmetricGroup(n), AlternatingGroup(n)])
            cap = rng.choice([4, 16, 64, 256, perm.DEFAULT_ENUMERATION_CAP])
            monkeypatch.setattr(perm, "DEFAULT_ENUMERATION_CAP", cap)
            checks.clear()
            entered.clear()
            self.outcome(tables)
            try:
                pf.gmf_linear_sum(gauss(2), gauss(1, 1), theta, tau, group, chi)
            except CapacityError:
                assert 1 << k > cap and checks[-1][1] > cap
                assert k == self.branching_cycles(gauss(2), gauss(1, 1), theta, tau, group)
                outcomes.add("refused")
                continue
            counts = [work for _, work in checks]
            assert counts[0] == min(1 << k, traced)
            assert len(entered) <= max(counts) <= cap
            outcomes.add(self.outcome(tables))
        assert outcomes == {"refused", "convolved", "streamed"}

    def test_each_point_is_walked_once(self, monkeypatch):
        # one cycle of each length 2..16 on 135 points with theta = id: the
        # table of the 16-point orbit would take T past the cap, so it is
        # streamed from the table already built, not walked again
        cycles, start = [], 1
        for length in range(2, 17):
            cycles.append(tuple(range(start, start + length)))
            start += length
        n = start - 1
        theta, tau = Permutation.identity(n), Permutation.from_cycles(n, cycles)
        tables = self.spy_tables(monkeypatch)
        walked = []
        walk_mixtures = engine.walk_mixtures

        def spy(alpha, *args):
            walked.append(len(alpha))
            return walk_mixtures(alpha, *args)

        monkeypatch.setattr(engine, "walk_mixtures", spy)
        chi = parse_character(f"irr:[{n - 1},1]", n)
        result = pf.gmf_linear_sum(ONE, ONE, theta, tau, SymmetricGroup(n), chi)
        assert result.term_count == 2**15
        assert self.outcome(tables) == "streamed"
        assert sum(walked) == n

    def test_fixed_points_make_one_table(self, monkeypatch):
        # one cycle of each length 2..12 and 223 fixed points on 300 points
        # with theta = id: the 11 orbits of the cycles and one table of the
        # fixed points take at most 12 convolutions, not one per fixed point
        cycles, start = [], 1
        for length in range(2, 13):
            cycles.append(tuple(range(start, start + length)))
            start += length
        n = 300
        theta, tau = Permutation.identity(n), Permutation.from_cycles(n, cycles)
        chi = parse_character(f"irr:[{n - 1},1]", n)
        a, b = gauss(2), gauss(1, -1)
        expected = pf.gmf_linear_sum(a, b, theta, tau, Walked(SymmetricGroup(n)), chi)
        tables = self.spy_tables(monkeypatch)
        result = pf.gmf_linear_sum(a, b, theta, tau, SymmetricGroup(n), chi)
        assert_same_result(result, expected)
        assert result.term_count == 2**11
        assert tables["_convolve"] <= 12

    @pytest.mark.parametrize("group", [SymmetricGroup(35), AlternatingGroup(35)], ids=str)
    def test_tables_stay_within_the_cap_when_the_walk_fits(self, monkeypatch, group):
        # one cycle of each length 2..8 on 35 points with theta = id: the
        # 2^7 mixtures have 2^7 cycle types, so the convolved tables would
        # reach 35 * 2^7 entries; with the cap at 1000 the class sums
        # tabulate while the tables fit and walk the remaining orbits
        cycles, start = [], 1
        for length in range(2, 9):
            cycles.append(tuple(range(start, start + length)))
            start += length
        theta, tau = Permutation.identity(35), Permutation.from_cycles(35, cycles)
        chi = IrreducibleCharacter(Partition((34, 1)))
        a, b = gauss(2), gauss(1, -1)
        expected = pf.gmf_linear_sum(a, b, theta, tau, group, chi)
        sizes = self.bounded_tables(monkeypatch, 1000)
        monkeypatch.setattr(engine, "_walk", None)
        assert_same_result(pf.gmf_linear_sum(a, b, theta, tau, group, chi), expected)
        assert sizes and max(sizes) <= 1000
        # 2^7 = 128 mixtures: the walk's own bound
        assert expected.term_count == (128 if isinstance(group, SymmetricGroup) else 64)

    def test_block_matches_walk(self, class_sum_calls):
        rng = random.Random(8282)
        shapes = [(1, 3), (3, 1), (2, 2), (2, 3), (3, 2), (1, 6), (6, 1)]
        reached = 0
        for _ in range(40):
            m, blocks = rng.choice(shapes)
            spec = random_block_spec(rng, m, blocks)
            chi = IrreducibleCharacter(Partition(rng.choice(list(partitions(m * blocks)))))
            for group in parity_groups(rng, m * blocks):
                evaluate = functools.partial(pf.gmf_block, spec, chi=chi)
                reached += self.check_routes(evaluate, group, class_sum_calls)[1]
        assert class_sum_calls and reached


YOUNG_KINDS = ("transitive", "intransitive", "even", "trivial")


def young_generators(rng, n, kind):
    """Generators of a gens: group on n points that reaches its orbit bound:
    the symmetric group on all points or on each of several blocks, the
    even part of such a product (3-cycles in each block and pairs of
    transpositions across blocks, every one even), or the trivial group."""
    points = rng.sample(range(1, n + 1), n)
    cuts = []
    if kind != "transitive" and n > 1:
        cuts = sorted(rng.sample(range(1, n), rng.randint(1, min(3, n - 1))))
    blocks = [points[i:j] for i, j in zip([0, *cuts], [*cuts, n]) if j - i > 1]
    if kind == "trivial":
        cycles = []
    elif kind == "even":
        cycles = [[(b[0], b[1], b[k])] for b in blocks for k in range(2, len(b))]
        cycles += [[b[:2], c[:2]] for b, c in zip(blocks, blocks[1:])]
    else:
        cycles = [[c] for b in blocks for c in (b[:2], b)]
    gens = [Permutation.from_cycles(n, c) for c in cycles]
    rng.shuffle(gens)
    return gens or [Permutation.identity(n)]


def orbit_blocks(n, gens):
    """labels[x], the least point of the orbit of x under ``gens`` (labels[0] = 0),
    closing each point's orbit by repeated application."""
    labels = [0]
    for x in range(1, n + 1):
        orbit, frontier = {x}, [x]
        while frontier:
            frontier = [g(y) for g in gens for y in frontier if g(y) not in orbit]
            orbit.update(frontier)
        labels.append(min(orbit))
    return tuple(labels)


def orbit_bound(labels, even):
    """prod |O|! over the orbits of ``labels``, halved when ``even`` (at least 1)."""
    bound = math.prod(math.factorial(labels[1:].count(x)) for x in set(labels[1:]))
    return max(1, bound // 2) if even else bound


def block_member(rng, labels):
    """A random permutation that keeps every point in its block."""
    images = list(range(len(labels)))
    for block in set(labels[1:]):
        points = [x for x in range(1, len(labels)) if labels[x] == block]
        for x, y in zip(points, rng.sample(points, len(points))):
            images[x] = y
    return Permutation(tuple(images[1:]))


class TestYoungSubgroups:
    """A gens: group that reaches its orbit bound answers young() with its
    orbits and parity, and its routes equal the walk of the same group."""

    @given(st.sampled_from(YOUNG_KINDS), st.integers(0, 2**32 - 1))
    @example("transitive", 1)
    @example("intransitive", 2)
    @example("even", 3)
    @example("trivial", 4)
    def test_young_routes_match_the_walk(self, kind, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 7)
        gens = young_generators(rng, n, kind)
        group = GeneratedSubgroup(n, tuple(gens))
        labels, even = orbit_blocks(n, gens), all(g.sign() == 1 for g in gens)
        assert group.young() == (labels, even)
        for _ in range(20):
            images = (block_member(rng, labels) if rng.random() < 0.5 else rand_perm(rng, n)).images
            kept = all(labels[y] == labels[x] for x, y in enumerate(images, 1))
            parity = not even or Permutation(images).sign() == 1
            assert group.contains_images(images) == (kept and parity)
        theta, tau = (
            block_member(rng, labels) if rng.random() < 0.7 else rand_perm(rng, n) for _ in range(2)
        )
        a, b, _ = draw_scalars(rng)
        m = rng.choice([m for m in range(1, n + 1) if n % m == 0])
        spec, walked = random_block_spec(rng, m, n // m), Walked(group)
        characters = [TrivialCharacter(), SignCharacter()]
        for chi in characters + [IrreducibleCharacter(Partition(p)) for p in partitions(n)]:
            linear = pf.gmf_linear_sum(a, b, theta, tau, group, chi)
            assert_same_result(linear, pf.gmf_linear_sum(a, b, theta, tau, walked, chi))
            assert_same_result(pf.gmf_block(spec, group, chi), pf.gmf_block(spec, walked, chi))
        entry = lambda: rand_scalar(rng, 2) if rng.random() < 0.6 else ZERO  # noqa: E731
        dense = Matrix([[entry() for _ in range(n)] for _ in range(n)])
        for matrix in (linear_sum(a, b, theta, tau), dense):
            for chi in characters:
                naive = pf.gmf_naive(matrix, group, chi)
                assert_same_result(naive, pf.gmf_naive(matrix, walked, chi))

    @given(st.integers(1, 7), st.integers(1, 3), st.integers(0, 2**32 - 1))
    def test_young_answer_is_the_orbit_bound(self, n, count, seed):
        # random generators: the group answers young() exactly when its
        # order reaches prod |O|! over its orbits, halved when every
        # generator is even and some orbit has two points or more
        rng = random.Random(seed)
        gens = [rand_perm(rng, n) for _ in range(count)]
        group = GeneratedSubgroup(n, tuple(gens))
        labels, even = orbit_blocks(n, gens), all(g.sign() == 1 for g in gens)
        assert group.young() == ((labels, even) if group.order() == orbit_bound(labels, even) else None)

    @given(st.integers(0, 3), st.integers(0, 2**32 - 1))
    @example(0, 1)
    @example(1, 2)
    @example(2, 3)
    def test_cyclic_young_answer_is_the_orbit_bound(self, cycles, seed):
        # <g> answers young() exactly when its order reaches the orbit bound
        # (g = id, a transposition, a 3-cycle or a double transposition), and
        # then its routes equal the walk of the same group
        rng = random.Random(seed)
        n = rng.randint(1, 7)
        points = rng.sample(range(1, n + 1), n)
        lengths = [rng.choice((2, 3)) for _ in range(cycles)]
        chosen = [points[sum(lengths[:k]):sum(lengths[:k + 1])] for k in range(cycles)]
        generator = Permutation.from_cycles(n, [c for c in chosen if len(c) > 1])
        if rng.random() < 0.2:
            generator = rand_perm(rng, n)
        group = CyclicGroup(generator)
        labels, even = orbit_blocks(n, [generator]), generator.sign() == 1
        assert group.young() == ((labels, even) if group.order() == orbit_bound(labels, even) else None)
        theta, tau = (
            block_member(rng, labels) if rng.random() < 0.7 else rand_perm(rng, n) for _ in range(2)
        )
        a, b, _ = draw_scalars(rng)
        spec, walked = random_block_spec(rng, 1, n), Walked(group)
        characters = [TrivialCharacter(), SignCharacter()]
        for chi in characters + [IrreducibleCharacter(Partition(p)) for p in partitions(n)]:
            linear = pf.gmf_linear_sum(a, b, theta, tau, group, chi)
            assert_same_result(linear, pf.gmf_linear_sum(a, b, theta, tau, walked, chi))
            assert_same_result(pf.gmf_block(spec, group, chi), pf.gmf_block(spec, walked, chi))
        for chi in characters:
            matrix = linear_sum(a, b, theta, tau)
            assert_same_result(pf.gmf_naive(matrix, group, chi), pf.gmf_naive(matrix, walked, chi))

    @given(
        st.sampled_from(("symmetric", "alternating", "stab", *YOUNG_KINDS)),
        st.sampled_from((1, 2, 3, None)),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60)
    @example("symmetric", None, 1)
    @example("alternating", 3, 2)
    @example("intransitive", None, 3)
    @example("even", None, 4)
    @example("stab", 2, 5)
    def test_naive_parity_sums_match_brute_force(self, kind, width, seed):
        # trivial and sign, and the even part, on S_n, A_n and Young subgroups
        # with interleaved blocks; rows of 1, 2, 3 or n (None) nonzero entries
        # take the determinant's fold (two or fewer a row) or its elimination,
        # and the permanent's fold block by block
        rng = random.Random(seed)
        n = rng.randint(1, 7)
        if kind == "symmetric":
            group = SymmetricGroup(n)
        elif kind == "alternating":
            group = AlternatingGroup(n)
        elif kind == "stab":
            group = PointwiseStabilizer(n, frozenset(rng.sample(range(1, n + 1), rng.randint(0, n))))
        else:
            group = GeneratedSubgroup(n, tuple(young_generators(rng, n, kind)))
        assert group.young() is not None

        def entry():
            return gauss(Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 2)), rng.randint(-2, 2))

        rows = []
        for _ in range(n):
            support = rng.sample(range(n), min(width or n, n))
            rows.append([entry() if j in support else ZERO for j in range(n)])
        matrix = Matrix(rows)
        for chi in (TrivialCharacter(), SignCharacter()):
            result = pf.gmf_naive(matrix, group, chi)
            assert result.value == brute_gmf(matrix, group, chi)
            assert (result.method, result.term_count) == (engine.Method.NAIVE, group.order())

    @given(st.sampled_from(("stab", "intransitive", "even")), st.booleans(), st.integers(0, 2**32 - 1))
    @settings(max_examples=30)
    @example("stab", True, 1)
    @example("intransitive", False, 2)
    @example("even", True, 3)
    @example("even", False, 4)
    def test_naive_on_several_blocks_matches_brute_force(self, kind, dense, seed):
        # gmf_naive zeroes the entries that cross the blocks once, before it
        # picks the parity route or the member walk: every character, on dense
        # rows and on rows of two or three entries, one of them across a block
        rng = random.Random(seed)
        n = rng.randint(2, 7)
        if kind == "stab":
            group = PointwiseStabilizer(n, frozenset(rng.sample(range(1, n + 1), rng.randint(1, n))))
        else:
            group = GeneratedSubgroup(n, tuple(young_generators(rng, n, kind)))
        labels = group.orbits()
        assert group.young() is not None and labels is not None

        def entry():
            return gauss(Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 2)), rng.randint(-2, 2))

        rows = []
        for x in range(1, n + 1):
            orbit = [j for j in range(1, n + 1) if labels[j] == labels[x]]
            across = [j for j in range(1, n + 1) if labels[j] != labels[x]]
            support = range(1, n + 1) if dense else {*rng.sample(orbit, min(2, len(orbit))),
                                                     rng.choice(across)}
            rows.append([entry() if j in support else ZERO for j in range(1, n + 1)])
        matrix = Matrix(rows)
        members = [Permutation(images) for images in group._generate()]
        irr, restricted = (IrreducibleCharacter(Partition(rng.choice(list(partitions(n)))))
                           for _ in range(2))
        table = TableCharacter(tuple((p, restricted.evaluate(p.images)) for p in members))
        for chi in (TrivialCharacter(), SignCharacter(), irr, table):
            result = pf.gmf_naive(matrix, group, chi)
            assert result.value == brute_gmf(matrix, group, chi)
            assert (result.method, result.term_count) == (engine.Method.NAIVE, group.order())


def sifting_group(rng, n, kind, transitive):
    """A gens: or cyclic: group on n points with no young() answer, and its
    orbit labels: each generator turns every block of a random partition by
    a random cycle of it, so the blocks are the orbits; one block when
    ``transitive`` (n >= 4), else two or three (n >= 5), points fixed too."""
    while True:
        points = rng.sample(range(1, n + 1), n)
        cuts = [] if transitive else sorted(rng.sample(range(1, n), rng.randint(1, 2)))
        blocks = [points[i:j] for i, j in zip([0, *cuts], [*cuts, n])]
        gens = [
            Permutation.from_cycles(n, [rng.sample(b, len(b)) for b in blocks if len(b) > 1])
            for _ in range(1 if kind == "cyclic" else rng.randint(1, 2))
        ]
        group = CyclicGroup(gens[0]) if kind == "cyclic" else GeneratedSubgroup(n, tuple(gens))
        if group.young() is None:
            return group, orbit_blocks(n, gens)


@record
class MemberWalk:
    """What the member walk did on the groups of one class: the texts
    perm.check_work was asked about, the image tuples membership was tested
    on and the members the class listed (_generate)."""

    checked: list
    calls: list
    listed: list

    def side(self) -> str:
        """The side engine._support_members took, "walk" or "members", read
        from the first text it checked."""
        return "members" if self.checked[0].startswith("group order") else "walk"


@contextlib.contextmanager
def member_walk(cls):
    """A MemberWalk of ``cls``, filled while the block runs."""
    walk = MemberWalk([], [], [])
    contains, generate, check_work = cls.contains_images, cls._generate, perm.check_work
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cls, "contains_images",
                      lambda self, images: walk.calls.append(images) or contains(self, images))
        patch.setattr(cls, "_generate",
                      lambda self: (walk.listed.append(m) or m for m in generate(self)))
        patch.setattr(perm, "check_work",
                      lambda what, work: walk.checked.append(what) or check_work(what, work))
        yield walk


class TestOrbitZeroing:
    """A sifting gens: or cyclic: group zeroes the coefficients that leave an
    orbit (GroupSpec.orbits), so its walk enters only the mixtures that keep
    every point in its orbit; its routes equal the unpruned walk of the same
    group and the brute-force sum."""

    @given(st.sampled_from(("gens", "cyclic")), st.booleans(), st.integers(0, 2**32 - 1))
    @settings(max_examples=30)
    @example("gens", False, 1)
    @example("cyclic", False, 2)
    @example("gens", True, 3)
    @example("cyclic", True, 4)
    def test_routes_match_the_walk_and_brute_force(self, kind, transitive, seed):
        rng = random.Random(seed)
        n = rng.randint(4 if transitive else 5, 7)
        group, labels = sifting_group(rng, n, kind, transitive)
        assert (len(set(labels[1:])) == 1) == transitive
        assert group.orbits() == labels or (transitive and group.orbits() is None)
        members = [Permutation(images) for images in group._generate()]
        theta, tau = (
            rng.choice(members) if rng.random() < 0.7
            else block_member(rng, labels) if rng.random() < 0.7 else rand_perm(rng, n)
            for _ in range(2)
        )
        a, b, _ = draw_scalars(rng)
        if rng.random() < 0.3:
            m = rng.choice([m for m in range(1, n + 1) if n % m == 0])
            spec = random_block_spec(rng, m, n // m)
        else:  # one point a block, a coefficient pair a row
            one, coefficients = Permutation.identity(1), [rand_scalar(rng, 2) for _ in range(2 * n)]
            spec = BlockSpec(1, n, theta, tau, (one,) * n, (one,) * n,
                             tuple(coefficients[:n]), tuple(coefficients[n:]))
        walked = Walked(group)
        # the walk tests exactly the mixtures that keep every point in its
        # orbit and weigh nonzero, found here by scanning S_n
        matrix = linear_sum(a, b, theta, tau)
        kept = [
            sigma for sigma in brute_x_set(theta.inverse(), tau.inverse())
            if all(labels[y] == labels[x] and not matrix.entries[x - 1][y - 1].is_zero()
                   for x, y in enumerate(sigma.images, 1))
        ]
        with member_walk(type(group)) as walk:
            result = pf.gmf_linear_sum(a, b, theta, tau, group, TrivialCharacter())
        assert result.term_count == sum(map(group.contains, kept))
        if walk.checked and walk.side() == "members":
            # no membership is tested: the |G| members are listed and weighed
            assert walk.calls == [] and len(walk.listed) == group.order()
        else:  # a zero prefactor checks nothing and walks nothing
            assert walk.listed == []
            assert sorted(walk.calls) == sorted(sigma.images for sigma in kept)
        irr, restricted = (IrreducibleCharacter(Partition(rng.choice(list(partitions(n)))))
                           for _ in range(2))
        table = TableCharacter(tuple((p, restricted.evaluate(p.images)) for p in members))
        entry = lambda: rand_scalar(rng, 2) if rng.random() < 0.6 else ZERO  # noqa: E731
        dense = Matrix([[entry() for _ in range(n)] for _ in range(n)])
        for chi in (TrivialCharacter(), SignCharacter(), irr, table):
            linear = pf.gmf_linear_sum(a, b, theta, tau, group, chi)
            assert_same_result(linear, pf.gmf_linear_sum(a, b, theta, tau, walked, chi))
            assert linear.value == brute_gmf(matrix, group, chi)
            block = pf.gmf_block(spec, group, chi)
            assert_same_result(block, pf.gmf_block(spec, walked, chi))
            assert block.value == brute_gmf(block_matrix(spec), group, chi)
            naive = pf.gmf_naive(dense, group, chi)
            assert_same_result(naive, pf.gmf_naive(dense, walked, chi))
            assert naive.value == brute_gmf(dense, group, chi)
            naive = pf.gmf_naive(matrix, group, chi)
            assert_same_result(naive, pf.gmf_naive(matrix, walked, chi))
            assert naive.value == linear.value

    def test_walk_enters_only_the_orbit_keeping_mixtures(self, monkeypatch):
        # rho has 8 cycles; three of them generate the group, theta is a
        # member, and tau = theta*rho: only those three may come from tau,
        # so 2^3 mixtures are tested for membership, all of them in the group
        rng = random.Random(28)
        lengths = [4, 5, 6, 2, 3, 4, 2, 3]
        n = sum(lengths) + 3
        points = rng.sample(range(1, n + 1), n)
        cycles = [points[sum(lengths[:k]):sum(lengths[:k + 1])] for k in range(8)]
        rho = Permutation.from_cycles(n, cycles)
        gens = tuple(Permutation.from_cycles(n, [c]) for c in cycles[:3])
        group = GeneratedSubgroup(n, gens)
        assert group.young() is None
        theta = compose(compose(gens[0], gens[1]), compose(gens[2], gens[2]))
        tau, a, b = compose(theta, rho), gauss(2), gauss(-1, 1)
        characters = [TrivialCharacter(), SignCharacter(), IrreducibleCharacter(Partition((n - 1, 1)))]
        expected = []
        for chi in characters:
            # unpruned, the walk tests all 2^8 mixtures
            with member_walk(GeneratedSubgroup) as walk:
                expected.append(pf.gmf_linear_sum(a, b, theta, tau, WalkedMixtures(group), chi))
            assert walk.side() == "walk" and len(walk.calls) == 2**8 and walk.listed == []
            # unpruned, the 4*5*6 = 120 members are fewer than 2^8 mixtures
            with member_walk(GeneratedSubgroup) as walk:
                result = pf.gmf_linear_sum(a, b, theta, tau, Walked(group), chi)
            assert walk.side() == "members" and walk.calls == [] and len(walk.listed) == 120
            assert_same_result(result, expected[-1])
            with member_walk(GeneratedSubgroup) as walk:
                result = pf.gmf_linear_sum(a, b, theta, tau, group, chi)
            assert walk.side() == "walk" and walk.listed == []
            assert len(walk.calls) == 2**3 and result.term_count == 2**3
            assert_same_result(result, expected[-1])

        # the trivial and sign characters are folded into the factors
        def refuse(*args):
            raise AssertionError("a character evaluated on the walk")

        for cls in (TrivialCharacter, SignCharacter):
            monkeypatch.setattr(cls, "evaluate", refuse)
        for chi, result in zip(characters[:2], expected):
            assert_same_result(pf.gmf_linear_sum(a, b, theta, tau, group, chi), result)


@contextlib.contextmanager
def forced_side(side):
    """Send engine._support_members to ``side``, "walk" or "members", while
    the block runs, by the group order it is handed: the candidates' count
    for the walk (ties go to the walk), 0 for the members.  Unlike a group
    reporting a false order, this leaves a table character's domain check
    its true |G|."""
    support = engine._support_members

    def forced(rows, group, order, what, count, walk):
        return support(rows, group, count if side == "walk" else 0, what, count, walk)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "_support_members", forced)
        yield


class TestMemberSide:
    """The fast route reaches the members on the support from the smaller
    side (engine._support_members): the 2^k mixtures, walked and tested for
    membership, or the |G| members, listed and weighed.  Both sides give
    the same values and term counts."""

    @given(st.sampled_from(("gens", "cyclic")), st.booleans(), st.integers(0, 2**32 - 1))
    @settings(max_examples=30)
    @example("gens", False, 1)
    @example("cyclic", False, 2)
    @example("gens", True, 3)
    @example("cyclic", True, 4)
    def test_both_sides_match_brute_force(self, kind, transitive, seed):
        rng = random.Random(seed)
        n = rng.randint(4 if transitive else 5, 7)
        group, labels = sifting_group(rng, n, kind, transitive)
        members = [Permutation(images) for images in group._generate()]
        theta, tau = (
            rng.choice(members) if rng.random() < 0.6
            else block_member(rng, labels) if rng.random() < 0.7 else rand_perm(rng, n)
            for _ in range(2)
        )
        a, b, _ = draw_scalars(rng)
        if rng.random() < 0.3:
            m = rng.choice([m for m in range(1, n + 1) if n % m == 0])
            spec = random_block_spec(rng, m, n // m)
        else:  # one point a block, a coefficient pair a row
            one, coefficients = Permutation.identity(1), [rand_scalar(rng, 2) for _ in range(2 * n)]
            spec = BlockSpec(1, n, theta, tau, (one,) * n, (one,) * n,
                             tuple(coefficients[:n]), tuple(coefficients[n:]))
        irr, restricted = (IrreducibleCharacter(Partition(rng.choice(list(partitions(n)))))
                           for _ in range(2))
        table = TableCharacter(tuple((p, restricted.evaluate(p.images)) for p in members))
        routes = [
            (lambda g, chi: pf.gmf_linear_sum(a, b, theta, tau, g, chi), linear_sum(a, b, theta, tau)),
            (lambda g, chi: pf.gmf_block(spec, g, chi), block_matrix(spec)),
        ]
        for chi in (TrivialCharacter(), SignCharacter(), irr, table):
            for route, matrix in routes:
                result = route(group, chi)
                assert result.value == brute_gmf(matrix, group, chi)
                with forced_side("walk"), member_walk(type(group)) as walk:
                    assert_same_result(route(group, chi), result)
                if walk.checked:  # a zero prefactor checks and walks nothing
                    assert walk.side() == "walk"
                with forced_side("members"), member_walk(type(group)) as walk:
                    assert_same_result(route(group, chi), result)
                if walk.checked:
                    assert walk.side() == "members" and walk.calls == []
                    assert len(walk.listed) == len(members)
                # a table over G does not cover the 2^n members WalkedMixtures reports
                if not isinstance(chi, TableCharacter):
                    assert_same_result(route(WalkedMixtures(group), chi), result)

    def test_irreducible_values_are_summed_by_int(self, monkeypatch):
        # an irr: character's values key the sums as ints: no scalar is hashed
        # per member, on either side of the fast route or on the naive route
        n = 7
        group = GeneratedSubgroup(n, (P("(1 2 3)", n), P("(4 5 6 7)", n)))
        assert group.young() is None
        theta, tau = Permutation.identity(n), P("(1 2 3)(4 5 6 7)", n)
        a, b, chi = gauss(2), gauss(1, 1), parse_character("irr:[5,2]", n)
        expected = brute_gmf(linear_sum(a, b, theta, tau), group, chi)
        assert expected != ZERO

        def refuse(self):
            raise AssertionError("a scalar was hashed")

        monkeypatch.setattr(pf.GaussianRational, "__hash__", refuse)
        for side in ("walk", "members"):
            with forced_side(side):
                result = pf.gmf_linear_sum(a, b, theta, tau, group, chi)
            assert (result.value, result.term_count) == (expected, 4)
        assert pf.gmf_naive(linear_sum(a, b, theta, tau), group, chi).value == expected

    def test_dihedral_sixty_lists_its_members(self, monkeypatch):
        # D60, of order 120 on the 60-gon, sifts; 16 transpositions make
        # 2^16 mixtures, of which only the identity is a member, weighed
        # a^2 for each transposition and (a+b)^28 for the points both fix
        def refuse(*args, **kwargs):
            raise AssertionError("the mixtures were walked")

        monkeypatch.setattr(perm, "_depth_first", refuse)
        n = 60
        cycle = Permutation.from_cycles(n, [tuple(range(1, n + 1))])
        reflection = Permutation.from_cycles(n, [(k, n + 2 - k) for k in range(2, n // 2 + 1)])
        dihedral = GeneratedSubgroup(n, (cycle, reflection))
        theta, tau, a, b = Permutation.identity(n), transpositions(16, n), gauss(2), gauss(3)
        for chi in (TrivialCharacter(), SignCharacter()):
            result = pf.gmf_linear_sum(a, b, theta, tau, dihedral, chi)
            assert (result.value, result.term_count) == (a**32 * (a + b) ** 28, 1)
        assert pf.term_counts(theta, tau, dihedral).formula == 1

    def test_singular_bound_fallback_on_the_member_side(self, monkeypatch):
        # |G| = 3 < 2^2 mixtures, so the float fallback of an order-3 cyclic
        # root character weighs the members.  With S_e the exact sum of the
        # entry products over the members where chi = omega^e, the squared
        # modulus of S_0 + S_1*omega + S_2*omega^2 for real a and b is the
        # rational below
        checked = []
        check_work = perm.check_work
        monkeypatch.setattr(perm, "check_work",
                            lambda what, work: checked.append(what) or check_work(what, work))
        n, g = 6, P("(1 2 3)(4 5 6)", 6)
        group, tau = CyclicGroup(g), P("(1 2)(4 5)", 6)
        powers = [Permutation.identity(n), g, g * g]
        rng = random.Random(3636)
        fallbacks = 0
        for index in (1, 2):
            chi = CyclicRootCharacter(g, index)
            for theta in powers * 4:
                a, b = (gauss(Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9)))
                        for _ in range(2))
                entries = linear_sum(a, b, theta, tau).entries
                sums = [Fraction(0)] * 3
                for k, sigma in enumerate(powers):
                    product = math.prod(entries[i][sigma.images[i] - 1] for i in range(n))
                    sums[k * index % 3] += product.re
                s0, s1, s2 = sums
                expected = float(s0 * s0 + s1 * s1 + s2 * s2 - s0 * s1 - s1 * s2 - s2 * s0)
                checked.clear()
                with pytest.raises(ExactnessError) if any(sums) else contextlib.nullcontext():
                    pf.gmf_linear_sum(a, b, theta, tau, group, chi)
                fallbacks += any(sums)
                report = pf.check_singular_bound(a, b, theta, tau, group, chi)
                assert report.lhs == pytest.approx(expected, rel=1e-12, abs=0)
                assert report.holds
                if any(sums):  # a member weighs nonzero, so some side was checked
                    assert checked and set(checked) == {"group order 3"}
                assert set(checked) <= {"group order 3"}
        assert fallbacks >= 12


def distinct_denominator_scalars(rng, count):
    """``count`` scalars whose 2 * count parts have pairwise different
    denominators, one of them 3^300, far wider than a machine word; each
    numerator is prime to its denominator, and some imaginary parts are 0."""
    dens = [3**300, *rng.sample(range(1, 2 * count + 8), 2 * count - 1)]
    rng.shuffle(dens)
    parts = [Fraction(rng.choice([-1, 1]) * rng.choice([1, d + 1]), d) for d in dens]
    return [gauss(parts[2 * k], parts[2 * k + 1] * rng.randint(0, 1)) for k in range(count)]


def with_coefficients(spec, coefficients):
    """``spec`` with a_1..a_n and b_1..b_n read in turn from ``coefficients``."""
    n = spec.n
    return BlockSpec(m=spec.m, n=n, theta=spec.theta, tau=spec.tau,
                     inner_thetas=spec.inner_thetas, inner_taus=spec.inner_taus,
                     a=tuple(coefficients[:n]), b=tuple(coefficients[n:]))


def coefficient_groups(rng, n):
    """S_n, A_n, a stab: group and a gens: group that reaches its orbit bound."""
    gens = young_generators(rng, n, rng.choice(YOUNG_KINDS))
    return [*parity_groups(rng, n), GeneratedSubgroup(n, tuple(gens))]


class TestCoefficientFirst:
    """The fast routes turn their coefficients into Gaussian integers once and
    multiply integers only: no scalar arithmetic before the value leaves
    through from_integers."""

    def test_no_scalar_arithmetic_inside_the_routes(self, monkeypatch):
        rng = random.Random(25)
        theta, tau = rand_perm(rng, 6), rand_perm(rng, 6)
        a, b = distinct_denominator_scalars(rng, 2)
        spec = with_coefficients(random_block_spec(rng, 2, 3), distinct_denominator_scalars(rng, 6))
        chis = [TrivialCharacter(), SignCharacter(), IrreducibleCharacter(Partition((4, 2)))]
        calls = [
            lambda: pf.det_linear_sum(a, b, theta, tau),
            lambda: pf.per_linear_sum(a, b, theta, tau),
        ]
        for group, chi in itertools.product(coefficient_groups(rng, 6), chis):
            calls.append(functools.partial(pf.gmf_linear_sum, a, b, theta, tau, group, chi))
            calls.append(functools.partial(pf.gmf_block, spec, group, chi))
        expected = [call() for call in calls]

        def refuse(*args):
            raise AssertionError("GaussianRational arithmetic inside a fast route")

        for name in ("__add__", "__radd__", "__sub__", "__mul__", "__rmul__", "__pow__"):
            monkeypatch.setattr(pf.GaussianRational, name, refuse)
        leaving = []
        from_integers = engine.from_integers

        def spy(*args):
            leaving.append(from_integers(*args))
            return leaving[-1]

        monkeypatch.setattr(engine, "from_integers", spy)
        for call, result in zip(calls, expected):
            leaving.clear()
            got = call()
            assert got == result
            # the value is what from_integers built, or the zero of a vanished prefactor
            assert got.value is (leaving[0] if leaving else ZERO) and len(leaving) <= 1

    @given(st.sampled_from([(1, 1), (1, 3), (3, 1), (2, 2), (1, 5), (2, 3), (3, 2), (6, 1)]),
           st.integers(0, 2**32 - 1))
    @example((1, 7), 7)  # the brute force scans S_7 once per group and character
    @settings(max_examples=20)
    def test_distinct_denominators_match_brute_force_and_the_walk(self, shape, seed):
        rng = random.Random(seed)
        m, n = shape
        spec = with_coefficients(random_block_spec(rng, m, n), distinct_denominator_scalars(rng, 2 * n))
        matrix = block_matrix(spec)
        irr = IrreducibleCharacter(Partition(rng.choice(list(partitions(m * n)))))
        for group in coefficient_groups(rng, m * n):
            for chi in (TrivialCharacter(), SignCharacter(), irr):
                block = pf.gmf_block(spec, group, chi)
                assert_same_result(block, pf.gmf_block(spec, Walked(group), chi))
                assert block.value == brute_gmf(matrix, group, chi)


class TestTableDomain:
    """A table character on a group its keys do not cover is refused by
    every route, whichever terms would vanish."""

    def test_generated_groups_are_tested_on_their_generators(self, monkeypatch):
        # a table over <(1 2 3 4)(5 6)> on 6 points covers a cyclic: or gens:
        # group exactly when it holds the group's generators, and the domain
        # check lists no member of either
        g = P("(1 2 3 4)(5 6)", 6)
        root = CyclicRootCharacter(g)
        powers = [Permutation(images) for images in CyclicGroup(g)._generate()]
        chi = TableCharacter(tuple((sigma, root.evaluate(sigma.images)) for sigma in powers))
        a, b = gauss(2), gauss(-1, 3)
        refuse_listing(monkeypatch, CyclicGroup, GeneratedSubgroup)
        for text in ("cyclic:(1 3)(2 4)@6", "gens:(1 2 3 4)(5 6),(1 3)(2 4)@6"):
            group = parse_group(text)
            chi.check_domain(group)
            theta, tau = g, compose(g, g)
            expected = brute_gmf(linear_sum(a, b, theta, tau), group, chi)
            assert pf.gmf_linear_sum(a, b, theta, tau, group, chi).value == expected != ZERO
        for text in ("cyclic:(1 2)@6", "gens:(1 3)(2 4),(5 6)@6"):
            group = parse_group(text)
            with pytest.raises(CharacterDomainError, match=re.escape(f"does not cover {group}")):
                chi.check_domain(group)

    @staticmethod
    def swap_table():
        # a table over {id, (1 2)} on three points
        return TableCharacter(((Permutation.identity(3), ONE), (P("(1 2)", 3), -ONE)))

    @pytest.mark.parametrize("group", [SymmetricGroup(3), AlternatingGroup(3)], ids=str)
    @pytest.mark.parametrize("theta", ["id", "(1 2 3)"])
    def test_every_route_refuses_an_uncovered_group(self, group, theta):
        chi = self.swap_table()
        theta, tau = P(theta, 3), P("(1 2)", 3)
        one = Permutation.identity(1)
        spec = BlockSpec(
            m=1, n=3, theta=theta, tau=tau, inner_thetas=(one,) * 3, inner_taus=(one,) * 3,
            a=(ONE,) * 3, b=(ONE,) * 3,
        )
        calls = [
            lambda: pf.gmf_naive(linear_sum(ONE, ONE, theta, tau), group, chi),
            lambda: pf.gmf_linear_sum(ONE, ONE, theta, tau, group, chi),
            lambda: pf.gmf_block(spec, group, chi),
            lambda: pf.check_singular_bound(ONE, ONE, theta, tau, group, chi),
            lambda: pf.tensor_oracle(ONE, ONE, theta, tau, group, chi),
        ]
        for call in calls:
            with pytest.raises(CharacterDomainError, match=f"does not cover {group}"):
                call()

    @pytest.mark.parametrize("text", ["stab:3@3", "gens:(1 2)@3", "cyclic:(1 2)@3"])
    def test_covered_groups_agree_across_routes(self, text):
        chi = self.swap_table()
        group = parse_group(text)
        a, b = gauss(2), gauss(-1, 3)
        s3 = [Permutation(images) for images in itertools.permutations((1, 2, 3))]
        for theta, tau in itertools.product(s3, repeat=2):
            expected = brute_gmf(linear_sum(a, b, theta, tau), group, chi)
            assert pf.gmf_naive(linear_sum(a, b, theta, tau), group, chi).value == expected
            assert pf.gmf_linear_sum(a, b, theta, tau, group, chi).value == expected


def as_permutations(points):
    return st.permutations(points).map(lambda images: Permutation(tuple(images)))


@st.composite
def non_real_instances(draw):
    """(a, b, theta, tau, spec, group, chi) on n = 4..6 points: a cyclic: or
    gens: group with a cyclic-root or table character that takes the value
    i or -i, so chi(pi) and chi(pi^-1) differ.  theta and tau are group
    members or any permutations; a one-block spec reuses them."""
    m, blocks = draw(st.sampled_from([(1, 4), (4, 1), (2, 2), (5, 1), (1, 6), (6, 1), (2, 3)]))
    n = m * blocks
    points = draw(st.permutations(range(1, n + 1)))
    g = Permutation.from_cycles(n, [points[:4]])
    h = Permutation.from_cycles(n, [points[4:6]]) if n >= 6 else None
    generator = g if h is None else draw(st.sampled_from([g, compose(g, h)]))
    index = draw(st.sampled_from([1, 3]))
    root = CyclicRootCharacter(generator, index)
    group = draw(st.sampled_from([CyclicGroup(generator), GeneratedSubgroup(n, (generator,))]))
    kind = draw(st.sampled_from(["cyclic-root", "table", "product table"][: 3 if h else 2]))
    if kind == "cyclic-root":
        chi = root
    elif kind == "table":
        members = map(Permutation, group._generate())
        chi = TableCharacter(tuple((sigma, root.evaluate(sigma.images)) for sigma in members))
    else:
        # on C4 x C2 = <g, h>: chi(g^k h^j) = i^(index*k) * sign^j
        group = GeneratedSubgroup(n, (g, h))
        on_g, sign = CyclicRootCharacter(g, index), draw(st.sampled_from([1, -1]))
        table = []
        for sigma in map(Permutation, group._generate()):
            if sigma(points[4]) == points[4]:
                table.append((sigma, on_g.evaluate(sigma.images)))
            else:
                table.append((sigma, on_g.evaluate(compose(sigma, h).images) * gauss(sign)))
        chi = TableCharacter(tuple(table))
    members = [Permutation(images) for images in group._generate()]
    anywhere = as_permutations(range(1, n + 1))
    theta, tau = (draw(st.one_of(st.sampled_from(members), anywhere)) for _ in range(2))
    a, b = draw(_SCALARS), draw(_SCALARS)
    if blocks == 1:
        one = Permutation.identity(1)
        spec = BlockSpec(m, 1, one, one, (theta,), (tau,), (a,), (b,))
    else:
        inner, outer = as_permutations(range(1, m + 1)), as_permutations(range(1, blocks + 1))
        spec = BlockSpec(
            m, blocks, draw(outer), draw(outer),
            tuple(draw(inner) for _ in range(blocks)), tuple(draw(inner) for _ in range(blocks)),
            tuple(draw(_SCALARS) for _ in range(blocks)),
            tuple(draw(_SCALARS) for _ in range(blocks)),
        )
    return a, b, theta, tau, spec, group, chi


@given(non_real_instances())
@settings(max_examples=100)
def test_non_real_characters_match_brute_force(instance):
    # the fast routes sum chi(pi) over the pi whose entry products they
    # weigh, so a character with chi(pi) != chi(pi^-1) pins the frame
    a, b, theta, tau, spec, group, chi = instance
    expected = brute_gmf(linear_sum(a, b, theta, tau), group, chi)
    assert pf.gmf_linear_sum(a, b, theta, tau, group, chi).value == expected
    assert pf.gmf_block(spec, group, chi).value == brute_gmf(block_matrix(spec), group, chi)


def refuse_listing(monkeypatch, *classes):
    """Make ``_generate`` of each group class fail: no member may be listed."""
    def refuse(self):
        raise AssertionError(f"the members of {self} were listed")

    for cls in classes:
        monkeypatch.setattr(cls, "_generate", refuse)


class TestCyclicRootDomain:
    """A cyclic-root character on a group that is not inside <generator>
    is refused, whichever terms would vanish."""

    @pytest.mark.parametrize("text", ["S3", "stab:1@3"])
    @pytest.mark.parametrize("theta", ["id", "(1 2 3)"])
    def test_routes_refuse_a_group_outside_the_generator(self, text, theta):
        chi = CyclicRootCharacter(P("(1 2)", 3))
        group = parse_group(text)
        theta, tau = P(theta, 3), P("(1 2)", 3)
        calls = [
            lambda: pf.gmf_naive(linear_sum(ONE, ONE, theta, tau), group, chi),
            lambda: pf.gmf_linear_sum(ONE, ONE, theta, tau, group, chi),
        ]
        for call in calls:
            with pytest.raises(CharacterDomainError, match=f"{group} is not inside"):
                call()

    @pytest.mark.parametrize("text", ["stab:3@3", "cyclic:(1 2)@3"])
    def test_covered_groups_agree_across_routes(self, text):
        chi = CyclicRootCharacter(P("(1 2)", 3))
        group = parse_group(text)
        a, b = gauss(2), gauss(-1, 3)
        s3 = [Permutation(images) for images in itertools.permutations((1, 2, 3))]
        for theta, tau in itertools.product(s3, repeat=2):
            expected = brute_gmf(linear_sum(a, b, theta, tau), group, chi)
            assert pf.gmf_naive(linear_sum(a, b, theta, tau), group, chi).value == expected
            assert pf.gmf_linear_sum(a, b, theta, tau, group, chi).value == expected

    def test_generated_groups_are_tested_on_their_generators(self, monkeypatch):
        # g of cycle lengths 2, 3, 5, 7, 11, 13 on 41 points: <g> has 30030
        # members, and the domain check lists none of them; the route then
        # raises ExactnessError, as a root of unity of order 30030 leaves Q(i)
        n, cycles = 41, []
        for length in (2, 3, 5, 7, 11, 13):
            start = sum(map(len, cycles)) + 1
            cycles.append(tuple(range(start, start + length)))
        g = Permutation.from_cycles(n, cycles)
        square = compose(g, g)
        chi = CyclicRootCharacter(g)
        inside = [CyclicGroup(g), CyclicGroup(square), GeneratedSubgroup(n, (g,)),
                  GeneratedSubgroup(n, (square, compose(square, g)))]
        outside = [CyclicGroup(P("(1 3)", n)), GeneratedSubgroup(n, (P("(1 2)", n), P("(3 4)", n)))]
        refuse_listing(monkeypatch, CyclicGroup, GeneratedSubgroup)
        assert inside[0].order() == 30030
        for group in inside:
            chi.check_domain(group)
            with pytest.raises(ExactnessError, match="order 30030"):
                pf.gmf_linear_sum(ONE, ONE, Permutation.identity(n), g, group, chi)
        for group in outside:
            with pytest.raises(CharacterDomainError, match=re.escape(f"{group} is not inside <{g}>")):
                pf.gmf_linear_sum(ONE, ONE, Permutation.identity(n), g, group, chi)


class TestSameAnswers:
    """The routes that check their own work give the defining sum's value,
    with the naive route's term count |G| and the fast route's count of the
    in-group mixtures with a nonzero entry product."""

    @given(st.sampled_from(["S", "A", "stab", "gens", "cyclic"]), st.integers(0, 2**32 - 1))
    @settings(max_examples=40)
    @example("S", 7)
    @example("gens", 11)
    def test_naive_and_formula_match_brute_force(self, kind, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 7)
        if kind == "S":
            group = SymmetricGroup(n)
        elif kind == "A":
            group = AlternatingGroup(n)
        elif kind == "stab":
            group = PointwiseStabilizer(n, frozenset(rng.sample(range(1, n + 1), rng.randint(0, n))))
        elif kind == "gens":
            group = GeneratedSubgroup(n, tuple(rand_perm(rng, n) for _ in range(rng.randint(1, 2))))
        else:
            group = CyclicGroup(rand_perm(rng, n))
        theta, tau = rand_perm(rng, n), rand_perm(rng, n)
        a, b, _ = draw_scalars(rng)
        matrix = linear_sum(a, b, theta, tau)
        entries = matrix.entries
        mixtures = [
            sigma for sigma in brute_x_set(theta.inverse(), tau.inverse())
            if group.contains(sigma) and all(not entries[i][j - 1].is_zero()
                                             for i, j in enumerate(sigma.images))
        ]
        irr = IrreducibleCharacter(Partition(rng.choice(list(partitions(n)))))
        for chi in (TrivialCharacter(), SignCharacter(), irr):
            expected = brute_gmf(matrix, group, chi)
            naive = pf.gmf_naive(matrix, group, chi)
            formula = pf.gmf_linear_sum(a, b, theta, tau, group, chi)
            assert naive.value == formula.value == expected
            assert (naive.method, naive.term_count) == (engine.Method.NAIVE, group.order())
            assert (formula.method, formula.term_count) == (engine.Method.FORMULA, len(mixtures))
