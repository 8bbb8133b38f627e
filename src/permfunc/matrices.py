"""Dense matrices over the exact scalars, and the structured constructors.

Covers permutation matrices P_theta (column j carries a 1 in row
theta(j)), linear sums a*P_theta + b*P_tau, the symmetric 0/1 companion
S_theta, block assemblies of scaled permutation blocks, and a purely
structural positive-semidefiniteness classification for linear sums,
read off the two permutations without building the matrix.  Every
builder checks its entries against the enumeration cap first.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm

from ._record import record
from .errors import DegreeMismatchError, ParseError
from .gaussian import ONE, GaussianRational, from_integers, gauss, integer_parts
from .perm import (
    Permutation,
    check_work,
    common_degree,
    format_permutation,
    images_inverse,
    parse_permutation,
)

class Matrix:
    """Immutable dense matrix over Q(i): entry (i, j) is (re[i-1][j-1] +
    im[i-1][j-1]*i) / den, rows of integers over one den > 0 with gcd(den, every
    part) = 1, so equal matrices have equal fields.  GaussianRational entries
    are built only on request (entry, entries, repr, to_json)."""

    __slots__ = ("re", "im", "den")

    def __init__(self, entries):
        grid = tuple(tuple(row) for row in entries)
        if not grid or not grid[0]:
            raise ValueError("matrix must have positive dimensions")
        if any(len(row) != len(grid[0]) for row in grid):
            raise ValueError("ragged rows")
        flat = [e for row in grid for e in row]
        for e in flat:
            if not isinstance(e, GaussianRational):
                raise TypeError(f"entries must be GaussianRational, got {type(e)}")
        re, im, den = integer_parts(flat)
        rows = [slice(k, k + len(grid[0])) for k in range(0, len(re), len(grid[0]))]
        _matrix([re[r] for r in rows], [im[r] for r in rows], den, self)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def zero(cls, rows: int, cols: int) -> "Matrix":
        """The rows x cols zero matrix, refused past the cap before it is built."""
        return _placed(rows, cols, (), [])

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        """The n x n identity matrix, refused past the cap before it is built."""
        return _placed(n, n, ((j, j, 0) for j in range(n)), [ONE])

    rows = property(lambda self: len(self.re))
    cols = property(lambda self: len(self.re[0]))
    is_square = property(lambda self: len(self.re) == len(self.re[0]))

    @property
    def entries(self) -> tuple[tuple[GaussianRational, ...], ...]:
        rows = zip(self.re, self.im)
        return tuple(tuple(from_integers(x, y, self.den) for x, y in zip(*row)) for row in rows)

    def entry(self, i: int, j: int) -> GaussianRational:
        """1-based access, matching the point labels of permutations."""
        if not (1 <= i <= self.rows and 1 <= j <= self.cols):
            raise IndexError(f"({i},{j}) outside {self.rows}x{self.cols}")
        return from_integers(self.re[i - 1][j - 1], self.im[i - 1][j - 1], self.den)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.den, self.re, self.im) == (other.den, other.re, other.im)

    def __hash__(self):
        return hash((self.den, self.re, self.im))

    def __repr__(self):
        body = "; ".join(" ".join(str(e) for e in row) for row in self.entries)
        return f"Matrix[{body}]"

    def __add__(self, other):
        return mat_add(self, other)

    def __matmul__(self, other):
        return mat_mul(self, other)

    def to_json(self) -> dict:
        return {
            "rows": self.rows,
            "cols": self.cols,
            "entries": [[e.to_json() for e in row] for row in self.entries],
        }

    @classmethod
    def from_json(cls, obj) -> "Matrix":
        try:
            rows, cols = obj["rows"], obj["cols"]
            grid = [[GaussianRational.from_json(e) for e in row] for row in obj["entries"]]
        except (KeyError, TypeError) as exc:
            raise ParseError(f"bad matrix object: {exc}") from exc
        m = cls(grid)
        if (m.rows, m.cols) != (rows, cols):
            raise ParseError("matrix dimensions disagree with entry grid")
        return m


def _matrix(re, im, den: int, m: Matrix | None = None) -> Matrix:
    """The Matrix (re + im*i) / den, or m set to it, reduced by gcd(den, every part)."""
    m = object.__new__(Matrix) if m is None else m
    g = gcd(den, *chain.from_iterable(re), *chain.from_iterable(im)) if den > 1 else 1
    if g > 1:
        re, im = ([[x // g for x in row] for row in parts] for parts in (re, im))
    object.__setattr__(m, "re", tuple(map(tuple, re)))
    object.__setattr__(m, "im", tuple(map(tuple, im)))
    object.__setattr__(m, "den", den // g)
    return m


def _placed(rows: int, cols: int, placements, values) -> Matrix:
    """The rows x cols matrix with values[k] added in at each 0-based (row, col, k).

    Its rows * cols entries pass perm.check_work first, so every builder
    (Matrix.zero and Matrix.identity, perm_matrix, linear_sum, s_matrix and
    block_matrix) refuses before it allocates.
    """
    if rows < 1 or cols < 1:
        raise ValueError("matrix must have positive dimensions")
    check_work(f"{rows}x{cols} matrix", rows * cols)
    value_re, value_im, den = integer_parts(values)
    re = [[0] * cols for _ in range(rows)]
    im = [[0] * cols for _ in range(rows)]
    for r, c, k in placements:
        re[r][c] += value_re[k]
        im[r][c] += value_im[k]
    return _matrix(re, im, den)


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    if (a.rows, a.cols) != (b.rows, b.cols):
        raise DegreeMismatchError(f"cannot add {a.rows}x{a.cols} and {b.rows}x{b.cols}")
    den = lcm(a.den, b.den)
    sa, sb = den // a.den, den // b.den
    return _matrix(
        [[x * sa + y * sb for x, y in zip(ra, rb)] for ra, rb in zip(a.re, b.re)],
        [[x * sa + y * sb for x, y in zip(ia, ib)] for ia, ib in zip(a.im, b.im)],
        den,
    )


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if a.cols != b.rows:
        raise DegreeMismatchError(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    cols = list(zip(zip(*b.re), zip(*b.im)))
    re, im = [], []
    for ar, ai in zip(a.re, a.im):
        re.append([sum(x * u - y * v for x, y, u, v in zip(ar, ai, cr, ci)) for cr, ci in cols])
        im.append([sum(x * v + y * u for x, y, u, v in zip(ar, ai, cr, ci)) for cr, ci in cols])
    return _matrix(re, im, a.den * b.den)


def scalar_mul(c: GaussianRational, a: Matrix) -> Matrix:
    (cr,), (ci,), den = integer_parts([c])
    re, im = [], []
    for ar, ai in zip(a.re, a.im):
        if any(ai):
            re.append([x * cr - y * ci for x, y in zip(ar, ai)])
            im.append([x * ci + y * cr for x, y in zip(ar, ai)])
        else:  # a real row, as every row of a permutation matrix: no cross terms
            re.append([x * cr for x in ar])
            im.append([x * ci for x in ar])
    return _matrix(re, im, a.den * den)


def conjugate_transpose(a: Matrix) -> Matrix:
    return _matrix(list(zip(*a.re)), [[-y for y in col] for col in zip(*a.im)], a.den)


def trace(a: Matrix) -> GaussianRational:
    if not a.is_square:
        raise DegreeMismatchError(f"trace needs a square matrix, got {a.rows}x{a.cols}")
    re, im = (sum(row[i] for i, row in enumerate(part)) for part in (a.re, a.im))
    return from_integers(re, im, a.den)


def perm_matrix(theta: Permutation) -> Matrix:
    """0/1 matrix with the 1 of column j in row theta(j)."""
    n = theta.degree
    return _placed(n, n, ((t - 1, j, 0) for j, t in enumerate(theta.images)), [ONE])


def linear_sum(
    a: GaussianRational,
    b: GaussianRational,
    theta: Permutation,
    tau: Permutation,
) -> Matrix:
    """a*P_theta + b*P_tau; positions where theta and tau agree get a+b."""
    n = common_degree(theta, tau)
    placements = [(t - 1, j, k) for k, p in enumerate((theta, tau)) for j, t in enumerate(p.images)]
    return _placed(n, n, placements, [a, b])


def s_matrix(theta: Permutation) -> Matrix:
    """Symmetric 0/1 matrix marking j = theta(i) or j = theta^-1(i)."""
    # a set: where theta(i) = theta^-1(i) the entry is still 1
    placements = {(i, t - 1, 0) for p in (theta, theta.inverse()) for i, t in enumerate(p.images)}
    return _placed(theta.degree, theta.degree, placements, [ONE])


@record
class BlockSpec:
    """Description of an (m*n) x (m*n) sum of two block-permutation layers.

    The first layer places a[i] * P_{inner_thetas[i]} in block row i,
    block column theta(i); the second places b[i] * P_{inner_taus[i]} in
    block row i, block column tau(i).
    """

    m: int
    n: int
    theta: Permutation
    tau: Permutation
    inner_thetas: tuple[Permutation, ...]
    inner_taus: tuple[Permutation, ...]
    a: tuple[GaussianRational, ...]
    b: tuple[GaussianRational, ...]

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise ValueError("block size and count must be positive")
        if self.theta.degree != self.n or self.tau.degree != self.n:
            raise DegreeMismatchError("outer permutations must act on [1..n]")
        if len(self.inner_thetas) != self.n or len(self.inner_taus) != self.n:
            raise ValueError("need one inner permutation per block row")
        for p in self.inner_thetas + self.inner_taus:
            if p.degree != self.m:
                raise DegreeMismatchError("inner permutations must act on [1..m]")
        if len(self.a) != self.n or len(self.b) != self.n:
            raise ValueError("need one coefficient per block row")

    @property
    def size(self) -> int:
        return self.m * self.n

    def induced_pair(self) -> tuple[Permutation, Permutation]:
        """The two layers as permutations of [1..m*n], each sending a
        column to the row of its nonzero entry, as P_theta's theta does.

        Layer one is nonzero exactly at (first(y), y), layer two at
        (second(y), y), for the pair (first, second).  Column y = (j-1)m + v
        lies in block column j, whose block row is i = theta^-1(j), so
        first(y) = (i-1)m + inner_i(v); second likewise with tau and its
        inner permutations.  Each row's column is the inverse's image.
        """
        m = self.m
        return tuple(
            Permutation(tuple(
                (i - 1) * m + t for i in images_inverse(outer.images) for t in inners[i - 1].images
            ))
            for outer, inners in ((self.theta, self.inner_thetas), (self.tau, self.inner_taus))
        )

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "n": self.n,
            "theta": format_permutation(self.theta),
            "tau": format_permutation(self.tau),
            "inner_thetas": [format_permutation(p) for p in self.inner_thetas],
            "inner_taus": [format_permutation(p) for p in self.inner_taus],
            "a": [str(c) for c in self.a],
            "b": [str(c) for c in self.b],
        }

    @classmethod
    def from_json(cls, obj) -> "BlockSpec":
        def scalar(v) -> GaussianRational:
            if isinstance(v, dict):
                return GaussianRational.from_json(v)
            if isinstance(v, str):
                return GaussianRational.parse(v)
            if isinstance(v, int):
                return gauss(v)
            raise ParseError(f"bad scalar in block spec: {v!r}")

        def size(key) -> int:
            v = obj[key]
            if type(v) is not int or v < 1:
                raise ParseError(f"block spec {key!r} must be a positive integer, got {v!r}")
            return v

        try:
            m, n = size("m"), size("n")
            return cls(
                m=m,
                n=n,
                theta=parse_permutation(obj["theta"], n),
                tau=parse_permutation(obj["tau"], n),
                inner_thetas=tuple(
                    parse_permutation(t, m) for t in obj["inner_thetas"]
                ),
                inner_taus=tuple(parse_permutation(t, m) for t in obj["inner_taus"]),
                a=tuple(scalar(v) for v in obj["a"]),
                b=tuple(scalar(v) for v in obj["b"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad block spec: {exc}") from exc


def block_matrix(spec: BlockSpec) -> Matrix:
    """Assemble the two block layers entrywise (independent of induced_pair)."""
    m, n = spec.m, spec.n
    placements = []
    layers = ((spec.theta, spec.inner_thetas), (spec.tau, spec.inner_taus))
    for layer, (outer, inners) in enumerate(layers):
        for i, inner in enumerate(inners):
            row0, col0, k = i * m, (outer(i + 1) - 1) * m, layer * n + i
            placements += [(row0 + t - 1, col0 + v, k) for v, t in enumerate(inner.images)]
    return _placed(spec.size, spec.size, placements, spec.a + spec.b)


@record
class PsdClassification:
    """Outcome of the structural semidefiniteness test for a*P_theta + b*P_tau.

    Such a matrix is positive semidefinite exactly when it can be
    rewritten as k*I + m*P_pi with real k >= |m| and pi an involution.
    ``condition`` records the input pattern: 1 scalar matrix, 2 theta
    trivial and tau an involution, 3 the mirror image, 4 two disjoint
    involutions with equal coefficients, 5 the cancellation family
    b = -a whose agreement columns vanish entirely.
    """

    psd: bool
    k: Fraction | None = None
    m: Fraction | None = None
    pi: Permutation | None = None
    condition: int | None = None


def _match_scaled_involution(rows, den: int):
    """Decompose as k*I + m*P_pi (pi an involution), or return None.

    ``rows`` maps each row's columns (both 0-based) to its entries as
    Gaussian integers (re, im) over ``den``; absent and (0, 0) entries are
    zero.  Pure pattern matching: each row holds at most one off-diagonal
    nonzero, their columns pair the rows up (an involution pi), all of them
    carry one real value m, matched rows carry diagonal k and unmatched
    rows k + m.
    """
    images, off_diagonal, diagonal = [], set(), []
    for i, cells in enumerate(rows):
        support = [j for j, cell in cells.items() if j != i and cell != (0, 0)]
        if len(support) > 1:
            return None
        j = support[0] if support else i
        images.append(j + 1)
        if j != i:
            off_diagonal.add(cells[j])
        diagonal.append(cells.get(i, (0, 0)))
    if len(off_diagonal) > 1 or any(images[j - 1] != i for i, j in enumerate(images, 1)):
        return None
    m_re, m_im = off_diagonal.pop() if off_diagonal else (0, 0)
    k_values = {
        (x - m_re if images[i] == i + 1 else x, y) for i, (x, y) in enumerate(diagonal)
    }
    (k_re, k_im), *others = k_values
    if m_im or k_im or others:
        return None
    return Fraction(k_re, den), Fraction(m_re, den), Permutation(tuple(images))


def psd_classify(
    a: GaussianRational,
    b: GaussianRational,
    theta: Permutation,
    tau: Permutation,
) -> PsdClassification:
    """Classify a*P_theta + b*P_tau without any spectral computation.

    Rewrites the matrix as k*I + m*P_pi by pattern matching and applies
    the k >= |m| criterion; no decomposition means not positive
    semidefinite.  The matrix is never built: row theta(j) holds a and row
    tau(j) holds b in column j, summed where they meet, so the rows are
    read off the two permutations in O(n).  The reported condition index
    follows the input pattern, lowest matching number first; index 5 marks
    the b = -a cancellation family, where columns on which theta and tau
    agree vanish and pi pairs up the surviving columns.
    """
    n = common_degree(theta, tau)
    (a_re, b_re), (a_im, b_im), den = integer_parts([a, b])
    rows = [{} for _ in range(n)]
    for j, (t, u) in enumerate(zip(theta.images, tau.images)):
        rows[u - 1][j] = (b_re, b_im)
        rows[t - 1][j] = (a_re + b_re, a_im + b_im) if t == u else (a_re, a_im)
    decomposition = _match_scaled_involution(rows, den)
    if decomposition is None:
        return PsdClassification(False)
    k, m, pi = decomposition
    if k < abs(m):
        return PsdClassification(False)
    real_ab = a.is_real() and b.is_real()
    if m == 0 and pi.is_identity():
        condition = 1
    elif real_ab and theta.is_identity() and tau.is_involution() and a.re >= abs(b.re):
        condition = 2
    elif real_ab and tau.is_identity() and theta.is_involution() and b.re >= abs(a.re):
        condition = 3
    elif (
        real_ab
        and theta != tau
        and theta.is_involution()
        and tau.is_involution()
        and theta.fixed_points() | tau.fixed_points()
        == frozenset(range(1, n + 1))
        and a.re == b.re >= 0
    ):
        condition = 4
    else:
        condition = 5
    return PsdClassification(True, k, m, pi, condition)


def integer_grid(matrix: Matrix) -> tuple[tuple, tuple, int]:
    """The entries as Gaussian integers over one common denominator: (real
    parts, imaginary parts, denominator), each part a tuple of integer rows.
    The working form of the exact kernels, and the one the matrix is stored in."""
    return matrix.re, matrix.im, matrix.den
