"""The exact kernels against independent expansions."""

import random

import permfunc as pf
from permfunc.gaussian import gauss
from permfunc.kernels import det_gaussian_int
from permfunc.matrices import Matrix
from support import naive_det_expansion


def random_int_matrix(rng, n, span=6):
    pre = [[rng.randint(-span, span) for _ in range(n)] for _ in range(n)]
    pim = [[rng.randint(-span, span) if rng.random() < 0.5 else 0 for _ in range(n)] for _ in range(n)]
    return pre, pim


def test_python_det_matches_expansion_oracle():
    rng = random.Random(77)
    for _ in range(60):
        n = rng.randint(1, 5)
        pre, pim = random_int_matrix(rng, n)
        matrix = Matrix([[gauss(pre[i][j], pim[i][j]) for j in range(n)] for i in range(n)])
        dre, dim = det_gaussian_int([row[:] for row in pre], [row[:] for row in pim])
        assert gauss(dre, dim) == naive_det_expansion(matrix)


def test_python_det_handles_zero_pivots():
    # column of zeros, and a case needing a row swap
    assert det_gaussian_int([[0, 1], [0, 2]], [[0, 0], [0, 0]]) == (0, 0)
    assert det_gaussian_int([[0, 1], [1, 0]], [[0, 0], [0, 0]]) == (-1, 0)
    assert det_gaussian_int([], []) == (1, 0)


def test_big_integer_growth_is_exact():
    # entries large enough that intermediate products exceed 64-bit range
    rng = random.Random(81)
    n = 5
    pre = [[rng.randint(-10**12, 10**12) for _ in range(n)] for _ in range(n)]
    pim = [[rng.randint(-10**12, 10**12) for _ in range(n)] for _ in range(n)]
    matrix = Matrix([[gauss(pre[i][j], pim[i][j]) for j in range(n)] for i in range(n)])
    dre, dim = det_gaussian_int([row[:] for row in pre], [row[:] for row in pim])
    assert gauss(dre, dim) == naive_det_expansion(matrix)


def test_engine_reference_value():
    theta = pf.parse_permutation("(1 5 3)(2 6)", 6)
    tau = pf.parse_permutation("(2 4 6)", 6)
    matrix = pf.linear_sum(gauss(2), gauss(0, -1), theta, tau)
    naive = pf.gmf_naive(matrix, pf.SymmetricGroup(6), pf.SignCharacter())
    assert naive.value == gauss(-85, 30)
    assert pf.det_exact(matrix) == gauss(-85, 30)


def test_python_det_of_relabelled_block_diagonal_matches_expansion():
    # the entries whose row and column lie in different blocks are zero, so
    # the matrix is block diagonal up to one relabelling; zeroed diagonals
    # force row swaps, and a block with two proportional rows is singular
    rng = random.Random(2609)
    for case in range(40):
        n = rng.randint(2, 6)
        labels = [rng.randint(1, 3) for _ in range(n)]
        pre, pim = random_int_matrix(rng, n)
        for i in range(n):
            for j in range(n):
                if labels[i] != labels[j] or (i == j and rng.random() < 0.5):
                    pre[i][j] = pim[i][j] = 0
        singular = case % 3 == 0 and len(set(labels)) < n
        if singular:
            i, k = next((i, k) for i in range(n) for k in range(i + 1, n) if labels[i] == labels[k])
            pre[k], pim[k] = [-2 * x for x in pre[i]], [-2 * y for y in pim[i]]
        matrix = Matrix([[gauss(pre[i][j], pim[i][j]) for j in range(n)] for i in range(n)])
        dre, dim = det_gaussian_int([row[:] for row in pre], [row[:] for row in pim])
        assert gauss(dre, dim) == naive_det_expansion(matrix)
        if singular:
            assert (dre, dim) == (0, 0)
