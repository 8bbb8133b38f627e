"""Matrix constructors, block assembly, structural semidefiniteness."""

import copy
import math
import random
from fractions import Fraction
from itertools import chain

import pytest
from hypothesis import example, given, settings, strategies as st

import permfunc.matrices
import permfunc.perm
from permfunc.characters import SignCharacter, TrivialCharacter, parse_character
from permfunc.engine import det_cauchy_binet_sum, det_exact, gmf_naive
from permfunc.errors import CapacityError, DegreeMismatchError, ParseError
from permfunc.gaussian import ONE, ZERO, gauss
from permfunc.groups import parse_group
from permfunc.matrices import (
    BlockSpec,
    Matrix,
    PsdClassification,
    block_matrix,
    conjugate_transpose,
    integer_grid,
    linear_sum,
    mat_add,
    mat_mul,
    perm_matrix,
    psd_classify,
    s_matrix,
    scalar_mul,
    trace,
)
from permfunc.perm import Permutation, compose, parse_permutation
from support import principal_minors_psd, rand_perm


def P(text, n):
    return parse_permutation(text, n)


def grid(rows):
    return Matrix([[gauss(*e) if isinstance(e, tuple) else gauss(e) for e in row] for row in rows])


# the 6x6 value 2*P_(153)(26) + (-i)*P_(246), frozen entry by entry
REFERENCE_6X6 = grid(
    [
        [(0, -1), 0, 2, 0, 0, 0],
        [0, 0, 0, 0, 0, (2, -1)],
        [0, 0, (0, -1), 0, 2, 0],
        [0, (0, -1), 0, 2, 0, 0],
        [2, 0, 0, 0, (0, -1), 0],
        [0, 2, 0, (0, -1), 0, 0],
    ]
)

# the 8x8 two-layer block value, frozen entry by entry
REFERENCE_8X8 = grid(
    [
        [0, 0, (0, -1), 0, 0, -2, 0, 0],
        [0, (0, -1), 0, 0, 0, 0, -2, 0],
        [0, 0, 0, (0, -1), -2, 0, 0, 0],
        [(0, -1), 0, 0, 0, 0, 0, 0, -2],
        [3, 0, 0, 0, 0, 0, 0, 2],
        [0, 3, 0, 0, 0, 0, 2, 0],
        [0, 0, 3, 0, 0, 2, 0, 0],
        [0, 0, 0, 3, 2, 0, 0, 0],
    ]
)


def reference_block_spec() -> BlockSpec:
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


class TestPermMatrix:
    def test_identity(self):
        assert perm_matrix(Permutation.identity(3)) == Matrix.identity(3)

    def test_transposition(self):
        assert perm_matrix(P("(1 2)", 2)) == grid([[0, 1], [1, 0]])

    def test_reference_linear_sum(self):
        value = mat_add(
            scalar_mul(gauss(2), perm_matrix(P("(1 5 3)(2 6)", 6))),
            scalar_mul(gauss(0, -1), perm_matrix(P("(2 4 6)", 6))),
        )
        assert value == REFERENCE_6X6
        assert value.entry(2, 6) == gauss(2, -1)
        assert value == linear_sum(gauss(2), gauss(0, -1), P("(1 5 3)(2 6)", 6), P("(2 4 6)", 6))

    def test_homomorphism(self):
        rng = random.Random(5)
        for _ in range(25):
            n = rng.randint(2, 8)
            theta, tau = rand_perm(rng, n), rand_perm(rng, n)
            assert mat_mul(perm_matrix(theta), perm_matrix(tau)) == perm_matrix(
                compose(theta, tau)
            )


class TestLinearSum:
    def test_degenerate_coefficients(self):
        theta, tau = P("(1 2 3)", 3), P("(1 3)", 3)
        assert linear_sum(gauss(1), ZERO, theta, tau) == perm_matrix(theta)
        assert linear_sum(gauss(1), gauss(1), theta, theta) == scalar_mul(
            gauss(2), perm_matrix(theta)
        )

    def test_degree_mismatch(self):
        with pytest.raises(DegreeMismatchError):
            linear_sum(gauss(1), gauss(1), Permutation.identity(2), Permutation.identity(3))

    def test_adjoint_identity(self):
        rng = random.Random(31)
        for _ in range(15):
            n = rng.randint(2, 6)
            theta, tau = rand_perm(rng, n), rand_perm(rng, n)
            a = gauss(rng.randint(-3, 3), rng.randint(-3, 3))
            b = gauss(rng.randint(-3, 3), rng.randint(-3, 3))
            lhs = conjugate_transpose(linear_sum(a, b, theta, tau))
            rhs = linear_sum(
                a.conjugate(), b.conjugate(), theta.inverse(), tau.inverse()
            )
            assert lhs == rhs

    def test_trace(self):
        assert trace(Matrix.identity(5)) == gauss(5)


class TestSMatrix:
    def test_identity(self):
        assert s_matrix(Permutation.identity(4)) == Matrix.identity(4)

    def test_transposition(self):
        assert s_matrix(P("(1 2)", 2)) == grid([[0, 1], [1, 0]])

    def test_three_cycle_all_ones_off_diagonal(self):
        assert s_matrix(P("(1 2 3)", 3)) == grid([[0, 1, 1], [1, 0, 1], [1, 1, 0]])

    def test_symmetric_and_inverse_invariant(self):
        rng = random.Random(13)
        for _ in range(20):
            theta = rand_perm(rng, rng.randint(2, 8))
            m = s_matrix(theta)
            assert m == conjugate_transpose(m)
            assert m == s_matrix(theta.inverse())


class TestBlockSpec:
    def test_reference_assembly(self):
        assert block_matrix(reference_block_spec()) == REFERENCE_8X8

    def test_reference_induced_pair(self):
        alpha, beta = reference_block_spec().induced_pair()
        assert alpha == P("(1 4 3)(5 8)(6 7)", 8)
        assert beta == P("(1 5 3 7 2 6)(4 8)", 8)

    def test_single_block_reduces_to_linear_sum(self):
        theta, tau = P("(1 4 3)", 4), P("(1 3 2)", 4)
        spec = BlockSpec(
            m=4,
            n=1,
            theta=Permutation.identity(1),
            tau=Permutation.identity(1),
            inner_thetas=(theta,),
            inner_taus=(tau,),
            a=(gauss(2, 1),),
            b=(gauss(-3),),
        )
        assert block_matrix(spec) == linear_sum(gauss(2, 1), gauss(-3), theta, tau)
        alpha, beta = spec.induced_pair()
        assert (alpha, beta) == (theta, tau)

    def test_trivial_blocks_give_transposed_layer(self):
        # with 1x1 identity blocks the layer coefficients sit at (i, theta(i)),
        # so the assembly is a*P_(theta^-1) + b*P_(tau^-1)
        theta, tau = P("(1 2 3)", 3), P("(2 3)", 3)
        spec = BlockSpec(
            m=1,
            n=3,
            theta=theta,
            tau=tau,
            inner_thetas=(Permutation.identity(1),) * 3,
            inner_taus=(Permutation.identity(1),) * 3,
            a=(gauss(2),) * 3,
            b=(gauss(5),) * 3,
        )
        assert block_matrix(spec) == linear_sum(
            gauss(2), gauss(5), theta.inverse(), tau.inverse()
        )

    def test_validation(self):
        with pytest.raises(DegreeMismatchError):
            BlockSpec(
                m=2,
                n=2,
                theta=Permutation.identity(3),
                tau=Permutation.identity(2),
                inner_thetas=(Permutation.identity(2),) * 2,
                inner_taus=(Permutation.identity(2),) * 2,
                a=(gauss(1),) * 2,
                b=(gauss(1),) * 2,
            )

    def test_json_round_trip(self):
        spec = reference_block_spec()
        again = BlockSpec.from_json(spec.to_json())
        assert again == spec
        assert block_matrix(again) == REFERENCE_8X8


class TestPsdClassify:
    def test_boundary_involution(self):
        verdict = psd_classify(gauss(1), gauss(1), Permutation.identity(2), P("(1 2)", 2))
        assert verdict.psd
        assert (verdict.k, verdict.m) == (Fraction(1), Fraction(1))
        assert verdict.pi == P("(1 2)", 2)
        assert verdict.condition == 2

    def test_negative_eigenvalue_rejected(self):
        # spectrum of [[1,2],[2,1]] contains 1-2 = -1
        verdict = psd_classify(gauss(1), gauss(2), Permutation.identity(2), P("(1 2)", 2))
        assert not verdict.psd

    def test_scalar_matrix(self):
        verdict = psd_classify(gauss(3), ZERO, Permutation.identity(4), P("(1 2 3 4)", 4))
        assert verdict.psd
        assert (verdict.k, verdict.m, verdict.condition) == (Fraction(3), Fraction(0), 1)

    def test_disjoint_involutions(self):
        theta, tau = P("(1 2)", 4), P("(3 4)", 4)
        verdict = psd_classify(gauss(2), gauss(2), theta, tau)
        assert verdict.psd and verdict.condition == 4
        assert verdict.pi == P("(1 2)(3 4)", 4)

    def test_reconstruction_matches(self):
        rng = random.Random(41)
        hits = 0
        for _ in range(300):
            n = rng.randint(2, 4)
            theta, tau = rand_perm(rng, n), rand_perm(rng, n)
            a, b = gauss(rng.randint(-2, 2)), gauss(rng.randint(-2, 2))
            verdict = psd_classify(a, b, theta, tau)
            if verdict.psd:
                hits += 1
                rebuilt = mat_add(
                    scalar_mul(gauss(verdict.k), Matrix.identity(n)),
                    scalar_mul(gauss(verdict.m), perm_matrix(verdict.pi)),
                )
                assert rebuilt == linear_sum(a, b, theta, tau)
                assert verdict.k >= abs(verdict.m)
                assert verdict.pi.is_involution()
        assert hits > 5

    def test_agrees_with_minor_oracle_spot_checks(self):
        rng = random.Random(42)
        for _ in range(120):
            n = rng.randint(2, 4)
            theta, tau = rand_perm(rng, n), rand_perm(rng, n)
            a, b = gauss(rng.randint(-2, 2)), gauss(rng.randint(-2, 2))
            structural = psd_classify(a, b, theta, tau).psd
            spectral = principal_minors_psd(linear_sum(a, b, theta, tau))
            assert structural == spectral

    def test_agrees_with_minor_oracle_exhaustive_degree_three(self):
        from itertools import permutations as iterperms

        everyone = [Permutation(images) for images in iterperms(range(1, 4))]
        scalars = [gauss(v) for v in range(-3, 4)]
        for theta in everyone:
            for tau in everyone:
                for a in scalars:
                    for b in scalars:
                        structural = psd_classify(a, b, theta, tau).psd
                        spectral = principal_minors_psd(linear_sum(a, b, theta, tau))
                        assert structural == spectral

    def test_complex_coefficients_only_scalar_case(self):
        verdict = psd_classify(gauss(1, 1), gauss(1, -1), Permutation.identity(3), Permutation.identity(3))
        assert verdict.psd and verdict.condition == 1  # sums to 2*I
        assert not psd_classify(gauss(0, 1), ZERO, Permutation.identity(2), Permutation.identity(2)).psd

    def test_cancellation_family(self):
        # opposite coefficients cancel on agreement columns: the layers
        # P_(3 4) and P_((1 2)(3 4)) differ only on {1, 2}, leaving
        # I + (-1)*P_(1 2), which sits on the semidefinite boundary
        theta, tau = P("(3 4)", 4), P("(1 2)(3 4)", 4)
        verdict = psd_classify(gauss(1), gauss(-1), theta, tau)
        assert verdict.psd
        assert verdict.condition == 5
        assert (verdict.k, verdict.m) == (Fraction(1), Fraction(-1))
        assert verdict.pi == P("(1 2)", 4)
        assert principal_minors_psd(linear_sum(gauss(1), gauss(-1), theta, tau))
        # flipping the sign moves the negative weight onto the diagonal
        assert not psd_classify(gauss(-1), gauss(1), theta, tau).psd


class TestMatrixPlumbing:
    def test_json_round_trip(self):
        again = Matrix.from_json(REFERENCE_6X6.to_json())
        assert again == REFERENCE_6X6

    def test_json_rejects_bad_dims(self):
        payload = REFERENCE_6X6.to_json()
        payload["rows"] = 5
        with pytest.raises(ParseError):
            Matrix.from_json(payload)

    def test_integer_grid(self):
        m = grid([[(Fraction(1, 2), Fraction(-1, 3))], [(2, 0)]])
        pre, pim, den = integer_grid(m)
        assert den == 6
        assert pre == ((3,), (12,))
        assert pim == ((-2,), (0,))

    def test_integer_grid_does_no_fraction_arithmetic(self, monkeypatch):
        # a 3x2 grid of fractional complex entries converts with every
        # Fraction product, sum and int() refused: integer division only
        m = grid(
            [
                [(Fraction(1, 2), Fraction(-1, 3)), (0, Fraction(5, 4))],
                [(2, 0), (Fraction(-7, 6), 1)],
                [(0, 0), (3, Fraction(1, 9))],
            ]
        )

        def refuse(*args):
            raise AssertionError("Fraction arithmetic in integer_grid")

        for name in ("__mul__", "__rmul__", "__add__", "__radd__", "__int__"):
            monkeypatch.setattr(Fraction, name, refuse)
        pre, pim, den = integer_grid(m)
        monkeypatch.undo()
        assert den == 36
        assert pre == ((18, 0), (72, -42), (0, 108))
        assert pim == ((-12, 45), (0, 36), (0, 4))

    def test_shape_errors(self):
        with pytest.raises(DegreeMismatchError):
            mat_add(Matrix.identity(2), Matrix.identity(3))
        with pytest.raises(DegreeMismatchError):
            mat_mul(Matrix.identity(2), Matrix.identity(3))
        with pytest.raises(DegreeMismatchError):
            trace(Matrix.zero(2, 3))

    def test_trace_error_names_its_shape(self):
        with pytest.raises(DegreeMismatchError, match="trace needs a square matrix, got 2x3"):
            trace(Matrix.zero(2, 3))


# -- the stored form: Gaussian integer rows over one denominator ---------------


def grid_sum(n, layers):
    """The n x n GaussianRational grid with each (row, col, value) of layers added in (1-based)."""
    grid = [[ZERO] * n for _ in range(n)]
    for r, c, value in layers:
        grid[r - 1][c - 1] = grid[r - 1][c - 1] + value
    return grid


def assert_stored_as(built, grid):
    """built is the matrix of the GaussianRational grid: by value, by hash, in
    every API form, and in its stored integers, which are in lowest terms."""
    reference = Matrix(grid)
    assert built == reference and hash(built) == hash(reference)
    assert built.entries == reference.entries == tuple(map(tuple, grid))
    body = "; ".join(" ".join(str(e) for e in row) for row in grid)
    assert repr(built) == repr(reference) == f"Matrix[{body}]"
    assert built.to_json() == reference.to_json()
    assert Matrix.from_json(built.to_json()) == built
    assert integer_grid(built) == integer_grid(reference)
    re, im, den = integer_grid(built)
    assert den > 0 and math.gcd(den, *chain(*re), *chain(*im)) == 1


scalars = st.builds(
    lambda p, q, r, s: gauss(Fraction(p, q), Fraction(r, s)),
    st.integers(-3, 3), st.integers(1, 4), st.integers(-3, 3), st.integers(1, 3),
)


@st.composite
def coefficient_pairs(draw):
    """(a, b), sometimes b = -a or b = a, so agreement columns vanish or double."""
    a = draw(scalars)
    return a, draw(st.sampled_from([draw(scalars), -a, a]))


@st.composite
def linear_sum_instances(draw):
    """(a, b, theta, tau, c): theta = tau at times, so every column agrees."""
    n = draw(st.integers(1, 6))
    theta = Permutation(tuple(draw(st.permutations(range(1, n + 1)))))
    tau = draw(st.sampled_from([theta, Permutation(tuple(draw(st.permutations(range(1, n + 1)))))]))
    return (*draw(coefficient_pairs()), theta, tau, draw(scalars))


@given(linear_sum_instances())
@example((gauss(Fraction(1, 2)), gauss(Fraction(1, 2)), P("(1 2 3)", 3), P("(1 2 3)", 3), ONE))
@example((gauss(Fraction(2, 3), 1), gauss(Fraction(-2, 3), -1), P("(1 2)", 3), P("(1 2)", 3), ZERO))
@example((gauss(1, Fraction(1, 2)), gauss(-1, Fraction(-1, 2)), P("(1 2)", 4), P("(3 4)", 4), ONE))
@settings(max_examples=100)
def test_structured_builders_store_their_grid(instance):
    a, b, theta, tau, c = instance
    n = theta.degree
    images = lambda p: list(enumerate(p.images, 1))  # noqa: E731
    layers = [(t, j, a) for j, t in images(theta)] + [(t, j, b) for j, t in images(tau)]
    summed = linear_sum(a, b, theta, tau)
    assert_stored_as(summed, grid_sum(n, layers))
    assert_stored_as(perm_matrix(theta), grid_sum(n, [(t, j, ONE) for j, t in images(theta)]))
    marks = {(i, t) for p in (theta, theta.inverse()) for i, t in images(p)}
    assert_stored_as(s_matrix(theta), grid_sum(n, [(i, t, ONE) for i, t in marks]))
    grid = summed.entries
    assert_stored_as(scalar_mul(c, summed), [[c * e for e in row] for row in grid])
    assert_stored_as(mat_add(summed, summed), [[e + e for e in row] for row in grid])
    assert_stored_as(
        mat_mul(summed, perm_matrix(tau)),
        [[sum((grid[i][k] * e for k, e in enumerate(col)), ZERO) for col in zip(*perm_matrix(tau).entries)]
         for i in range(n)],
    )
    assert_stored_as(
        conjugate_transpose(summed), [[grid[i][j].conjugate() for i in range(n)] for j in range(n)]
    )
    assert trace(summed) == sum((grid[i][i] for i in range(n)), ZERO)


def test_one_half_plus_one_half_and_the_zero_matrix_have_denominator_one():
    theta = P("(1 3)", 3)
    half = gauss(Fraction(1, 2))
    assert integer_grid(linear_sum(half, half, theta, theta)) == (
        ((0, 0, 1), (0, 1, 0), (1, 0, 0)), ((0, 0, 0),) * 3, 1)
    third = gauss(Fraction(1, 3), Fraction(-2, 3))
    zero = linear_sum(third, -third, theta, theta)
    assert integer_grid(zero) == (((0, 0, 0),) * 3, ((0, 0, 0),) * 3, 1)
    assert zero == Matrix.zero(3, 3) == scalar_mul(ZERO, perm_matrix(theta))
    # b = -a: only the columns where theta and tau differ keep an entry
    assert integer_grid(linear_sum(third, -third, theta, Permutation.identity(3))) == (
        ((-1, 0, 1), (0, 0, 0), (1, 0, -1)), ((2, 0, -2), (0, 0, 0), (-2, 0, 2)), 3)


@st.composite
def block_specs(draw):
    """Block specs over fractional complex coefficients; the second layer
    copies the first at times, so blocks agree entry by entry."""
    m, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    perm = lambda k: Permutation(tuple(draw(st.permutations(range(1, k + 1)))))  # noqa: E731
    theta, inner_thetas = perm(n), tuple(perm(m) for _ in range(n))
    copied = draw(st.booleans())
    tau = theta if copied else perm(n)
    inner_taus = inner_thetas if copied else tuple(perm(m) for _ in range(n))
    a = tuple(draw(scalars) for _ in range(n))
    b = tuple(draw(st.sampled_from([draw(scalars), -x, x])) for x in a)
    return BlockSpec(m=m, n=n, theta=theta, tau=tau, inner_thetas=inner_thetas,
                     inner_taus=inner_taus, a=a, b=b)


@given(block_specs())
@example(BlockSpec(m=2, n=2, theta=Permutation.identity(2), tau=P("(1 2)", 2),
                   inner_thetas=(P("(1 2)", 2), Permutation.identity(2)),
                   inner_taus=(Permutation.identity(2), Permutation.identity(2)),
                   a=(gauss(Fraction(1, 2)), gauss(0, Fraction(1, 3))),
                   b=(gauss(Fraction(1, 2)), gauss(0, Fraction(-1, 3)))))
@settings(max_examples=100)
def test_block_matrix_stores_its_grid(spec):
    # block i of layer one sits at block column theta(i) with its 1s at
    # (inner(v), v); the layers add where the two agree inside a block
    layers = [
        ((i - 1) * spec.m + inner(v), (outer(i) - 1) * spec.m + v, coeff[i - 1])
        for outer, inners, coeff in ((spec.theta, spec.inner_thetas, spec.a), (spec.tau, spec.inner_taus, spec.b))
        for i, inner in enumerate(inners, 1)
        for v in range(1, spec.m + 1)
    ]
    assert_stored_as(block_matrix(spec), grid_sum(spec.size, layers))


@given(st.data())
@settings(max_examples=200)
def test_induced_pair_traces_each_layer_of_block_matrix(data):
    # layer one is nonzero exactly at (alpha(y), y) and layer two at
    # (beta(y), y), with a+b where alpha(y) = beta(y); block row i reaches
    # block column theta(i), so a column reads its row through theta^-1
    m, n = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5))
    perm = lambda k: Permutation(tuple(data.draw(st.permutations(range(1, k + 1)))))  # noqa: E731
    a, b = data.draw(st.lists(st.integers(-9, 9).filter(bool), min_size=2, max_size=2, unique=True))
    spec = BlockSpec(m=m, n=n, theta=perm(n), tau=perm(n), inner_thetas=tuple(perm(m) for _ in range(n)),
                     inner_taus=tuple(perm(m) for _ in range(n)), a=(gauss(a),) * n, b=(gauss(b),) * n)
    alpha, beta = spec.induced_pair()
    expected = [[0] * spec.size for _ in range(spec.size)]
    for layer, coeff in ((alpha, a), (beta, b)):
        for y, x in enumerate(layer.images):
            expected[x - 1][y] += coeff
    zeros = ((0,) * spec.size,) * spec.size
    assert integer_grid(block_matrix(spec)) == (tuple(map(tuple, expected)), zeros, 1)


def test_builders_refuse_past_the_cap_before_converting(monkeypatch):
    def refuse(*args):
        raise AssertionError("a matrix was converted before the cap was checked")

    monkeypatch.setattr(permfunc.matrices, "integer_parts", refuse)
    ident = Permutation.identity(1905)
    for build in (lambda: linear_sum(ONE, ONE, ident, ident), lambda: perm_matrix(ident),
                  lambda: s_matrix(ident)):
        with pytest.raises(CapacityError, match="^1905x1905 matrix exceeds cap 3628800$"):
            build()


def test_zero_and_identity_refuse_past_the_cap_before_converting(monkeypatch):
    # with the cap at 16, perm_matrix of the 5-point identity refuses its 25
    # entries, and so do Matrix.zero and Matrix.identity, before any entry
    # is placed; within the cap they build the same grids as before
    def refuse(*args):
        raise AssertionError("a matrix was converted before the cap was checked")

    monkeypatch.setattr(permfunc.perm, "DEFAULT_ENUMERATION_CAP", 16)
    monkeypatch.setattr(permfunc.matrices, "integer_parts", refuse)
    for build, text in ((lambda: perm_matrix(Permutation.identity(5)), "5x5"),
                        (lambda: Matrix.identity(5), "5x5"), (lambda: Matrix.zero(5, 5), "5x5"),
                        (lambda: Matrix.zero(3, 6), "3x6")):
        with pytest.raises(CapacityError, match=f"^{text} matrix exceeds cap 16$"):
            build()
    monkeypatch.undo()
    assert Matrix.identity(4) == perm_matrix(Permutation.identity(4))
    assert Matrix.identity(3).entries == tuple(
        tuple(ONE if i == j else ZERO for j in range(3)) for i in range(3))
    assert integer_grid(Matrix.zero(2, 3)) == (((0, 0, 0),) * 2, ((0, 0, 0),) * 2, 1)
    for rows, cols in ((0, 2), (2, 0), (-1, -1)):
        with pytest.raises(ValueError, match="^matrix must have positive dimensions$"):
            Matrix.zero(rows, cols)
    with pytest.raises(ValueError, match="^matrix must have positive dimensions$"):
        Matrix.identity(0)


def test_psd_reads_the_permutations_not_a_matrix(monkeypatch):
    # psd_classify builds no n x n matrix: at n = 2000, past the 1904x1904
    # the cap allows, id and (1 2) with a = b = 1 is I + P_(1 2)
    def refuse(*args):
        raise AssertionError("psd_classify built a matrix")

    monkeypatch.setattr(permfunc.matrices, "_placed", refuse)
    n = 2000
    verdict = psd_classify(ONE, ONE, Permutation.identity(n), P("(1 2)", n))
    assert verdict == PsdClassification(True, Fraction(1), Fraction(1), P("(1 2)", n), 2)
    # b = -a on theta = tau cancels every entry: k = m = 0, the scalar case
    verdict = psd_classify(gauss(3), gauss(-3), Permutation.identity(n), Permutation.identity(n))
    assert verdict == PsdClassification(True, Fraction(0), Fraction(0), Permutation.identity(n), 1)
    assert not psd_classify(ONE, gauss(2), Permutation.identity(n), P("(1 2)", n)).psd


def test_builders_do_no_fraction_arithmetic(monkeypatch):
    # with every Fraction operator refused, the structured builders place
    # integers, and integer_grid reads the stored form
    a, b, c = gauss(Fraction(1, 2), Fraction(-1, 3)), gauss(Fraction(-1, 2), Fraction(5, 4)), gauss(0, Fraction(2, 7))
    minus_a = -a
    theta, tau = P("(1 2 3)(4 5)", 5), P("(1 3)", 5)
    spec = reference_block_spec()
    ones = perm_matrix(theta)
    summed = linear_sum(a, b, theta, tau)

    def refuse(*args):
        raise AssertionError("Fraction arithmetic in a matrix builder")

    for name in ("__mul__", "__rmul__", "__add__", "__radd__", "__sub__", "__rsub__",
                 "__truediv__", "__rtruediv__", "__neg__", "__int__", "__eq__", "__lt__", "__bool__"):
        monkeypatch.setattr(Fraction, name, refuse)
    built = [
        perm_matrix(theta), linear_sum(a, b, theta, tau), linear_sum(a, minus_a, theta, theta),
        scalar_mul(c, ones), s_matrix(theta), block_matrix(spec), mat_add(summed, ones),
        mat_mul(summed, summed), conjugate_transpose(summed),
    ]
    diagonal = trace(summed)
    grids = [integer_grid(m) for m in built]
    monkeypatch.undo()
    assert diagonal == b + b + b  # tau fixes 2, 4 and 5, theta no point
    assert grids[1][2] == 12 and grids[2][2] == 1 and grids[3] == integer_grid(scalar_mul(c, ones))


def test_routes_leave_their_input_unchanged():
    # every route reads the stored rows themselves, not a copy of them
    a = linear_sum(gauss(Fraction(1, 2), 1), gauss(-2, Fraction(1, 3)), P("(1 2 3 4 5)", 5), P("(2 4)", 5))
    b = scalar_mul(gauss(Fraction(3, 2), -1), perm_matrix(P("(1 5)(2 3)", 5)))
    dense = Matrix([[gauss(Fraction(i - j, i + 1), i * j % 3) for j in range(5)] for i in range(5)])
    before = [(m.to_json(), copy.deepcopy(integer_grid(m))) for m in (a, b, dense)]
    for m in (a, b, dense):
        det_exact(m)
        for group, chi in (("S5", "sign"), ("A5", "trivial"), ("stab:2@5", "sign"),
                           ("cyclic:(1 2 3 4 5)@5", "trivial"), ("S5", "irr:[3,2]")):
            gmf_naive(m, parse_group(group, 5), parse_character(chi, 5))
    det_cauchy_binet_sum(a, b)
    det_cauchy_binet_sum(dense, a)
    assert [(m.to_json(), integer_grid(m)) for m in (a, b, dense)] == before
