"""Dense matrices over the exact scalars, and the structured constructors.

Covers permutation matrices P_theta (column j carries a 1 in row
theta(j)), linear sums a*P_theta + b*P_tau, the symmetric 0/1 companion
S_theta, block assemblies of scaled permutation blocks, and a purely
structural positive-semidefiniteness classification for linear sums.
"""

from __future__ import annotations

from fractions import Fraction

from ._record import record
from .errors import DegreeMismatchError, ParseError
from .gaussian import GaussianRational, ZERO, gauss, integer_parts
from .perm import (
    Permutation,
    common_degree,
    disjoint_union,
    format_permutation,
    parse_permutation,
    shift_embed,
)


class Matrix:
    """Immutable dense matrix of GaussianRational entries (row-major)."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries):
        grid = tuple(tuple(row) for row in entries)
        if not grid or not grid[0]:
            raise ValueError("matrix must have positive dimensions")
        if any(len(row) != len(grid[0]) for row in grid):
            raise ValueError("ragged rows")
        for row in grid:
            for e in row:
                if not isinstance(e, GaussianRational):
                    raise TypeError(f"entries must be GaussianRational, got {type(e)}")
        object.__setattr__(self, "rows", len(grid))
        object.__setattr__(self, "cols", len(grid[0]))
        object.__setattr__(self, "entries", grid)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def zero(cls, rows: int, cols: int) -> "Matrix":
        return cls([[ZERO] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls(
            [[gauss(1) if i == j else ZERO for j in range(n)] for i in range(n)]
        )

    def entry(self, i: int, j: int) -> GaussianRational:
        """1-based access, matching the point labels of permutations."""
        if not (1 <= i <= self.rows and 1 <= j <= self.cols):
            raise IndexError(f"({i},{j}) outside {self.rows}x{self.cols}")
        return self.entries[i - 1][j - 1]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

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
            grid = [
                [GaussianRational.from_json(e) for e in row] for row in obj["entries"]
            ]
        except (KeyError, TypeError) as exc:
            raise ParseError(f"bad matrix object: {exc}") from exc
        m = cls(grid)
        if (m.rows, m.cols) != (rows, cols):
            raise ParseError("matrix dimensions disagree with entry grid")
        return m


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    if (a.rows, a.cols) != (b.rows, b.cols):
        raise DegreeMismatchError(
            f"cannot add {a.rows}x{a.cols} and {b.rows}x{b.cols}"
        )
    return Matrix(
        [
            [x + y for x, y in zip(ra, rb)]
            for ra, rb in zip(a.entries, b.entries)
        ]
    )


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if a.cols != b.rows:
        raise DegreeMismatchError(
            f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}"
        )
    bt = list(zip(*b.entries))
    return Matrix(
        [
            [sum((x * y for x, y in zip(row, col)), ZERO) for col in bt]
            for row in a.entries
        ]
    )


def scalar_mul(c: GaussianRational, a: Matrix) -> Matrix:
    # zero entries stay as they are: a scaled permutation matrix is mostly zeros
    return Matrix([[c * e if e else e for e in row] for row in a.entries])


def conjugate_transpose(a: Matrix) -> Matrix:
    return Matrix(
        [[a.entries[i][j].conjugate() for i in range(a.rows)] for j in range(a.cols)]
    )


def trace(a: Matrix) -> GaussianRational:
    if not a.is_square:
        raise DegreeMismatchError(f"trace needs a square matrix, got {a.rows}x{a.cols}")
    return sum((a.entries[i][i] for i in range(a.rows)), ZERO)


def perm_matrix(theta: Permutation) -> Matrix:
    """0/1 matrix with the 1 of column j in row theta(j)."""
    n = theta.degree
    grid = [[ZERO] * n for _ in range(n)]
    one = gauss(1)
    for j in range(1, n + 1):
        grid[theta(j) - 1][j - 1] = one
    return Matrix(grid)


def linear_sum(
    a: GaussianRational,
    b: GaussianRational,
    theta: Permutation,
    tau: Permutation,
) -> Matrix:
    """a*P_theta + b*P_tau; positions where theta and tau agree get a+b."""
    n = common_degree(theta, tau)
    grid = [[ZERO] * n for _ in range(n)]
    for j in range(1, n + 1):
        grid[theta(j) - 1][j - 1] = grid[theta(j) - 1][j - 1] + a
        grid[tau(j) - 1][j - 1] = grid[tau(j) - 1][j - 1] + b
    return Matrix(grid)


def s_matrix(theta: Permutation) -> Matrix:
    """Symmetric 0/1 matrix marking j = theta(i) or j = theta^-1(i)."""
    n = theta.degree
    inv = theta.inverse()
    one = gauss(1)
    grid = [[ZERO] * n for _ in range(n)]
    for i in range(1, n + 1):
        grid[i - 1][theta(i) - 1] = one
        grid[i - 1][inv(i) - 1] = one
    return Matrix(grid)


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
        """The two permutations of [1..m*n] tracing the nonzero entries.

        Layer one is nonzero exactly at (alpha(y), y), layer two at
        (beta(y), y): block (i, theta(i)) holds its 1s at rows
        (i-1)m + inner(v) for columns (theta(i)-1)m + v.
        """
        alpha = disjoint_union(
            shift_embed(
                self.inner_thetas[i - 1], (self.theta(i) - 1) * self.m, (i - 1) * self.m
            )
            for i in range(1, self.n + 1)
        )
        beta = disjoint_union(
            shift_embed(
                self.inner_taus[i - 1], (self.tau(i) - 1) * self.m, (i - 1) * self.m
            )
            for i in range(1, self.n + 1)
        )
        return alpha, beta

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
    size = spec.size
    grid = [[ZERO] * size for _ in range(size)]
    for i in range(1, spec.n + 1):
        row0 = (i - 1) * spec.m
        for layer, outer, inner, coeff in (
            (0, spec.theta, spec.inner_thetas[i - 1], spec.a[i - 1]),
            (1, spec.tau, spec.inner_taus[i - 1], spec.b[i - 1]),
        ):
            col0 = (outer(i) - 1) * spec.m
            for v in range(1, spec.m + 1):
                r, c = row0 + inner(v) - 1, col0 + v - 1
                grid[r][c] = grid[r][c] + coeff
    return Matrix(grid)


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


def _match_scaled_involution(matrix: Matrix):
    """Decompose as k*I + m*P_pi (pi an involution), or return None.

    Pure pattern matching on the entries: the off-diagonal support must
    form a symmetric perfect matching carrying one common real value m,
    matched rows carry diagonal k and unmatched rows k + m.
    """
    n = matrix.rows
    pairs: dict[int, int] = {}
    m_value: GaussianRational | None = None
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == j:
                continue
            entry = matrix.entry(i, j)
            if entry.is_zero():
                continue
            if m_value is None:
                m_value = entry
            if entry != m_value or matrix.entry(j, i) != entry:
                return None
            if pairs.setdefault(i, j) != j or pairs.setdefault(j, i) != i:
                return None
    if m_value is None:
        # diagonal matrix: needs one uniform scale
        scale = matrix.entry(1, 1)
        if any(matrix.entry(i, i) != scale for i in range(2, n + 1)):
            return None
        if not scale.is_real():
            return None
        return scale.re, Fraction(0), Permutation.identity(n)
    if not m_value.is_real():
        return None
    k_value: GaussianRational | None = None
    for i in range(1, n + 1):
        diag = matrix.entry(i, i) if i in pairs else matrix.entry(i, i) - m_value
        if k_value is None:
            k_value = diag
        elif diag != k_value:
            return None
    if not k_value.is_real():
        return None
    images = [pairs.get(i, i) for i in range(1, n + 1)]
    return k_value.re, m_value.re, Permutation(tuple(images))


def psd_classify(
    a: GaussianRational,
    b: GaussianRational,
    theta: Permutation,
    tau: Permutation,
) -> PsdClassification:
    """Classify a*P_theta + b*P_tau without any spectral computation.

    Rewrites the matrix as k*I + m*P_pi by pattern matching and applies
    the k >= |m| criterion; no decomposition means not positive
    semidefinite.  The reported condition index follows the input
    pattern, lowest matching number first; index 5 marks the b = -a
    cancellation family, where columns on which theta and tau agree
    vanish and pi pairs up the surviving columns.
    """
    matrix = linear_sum(a, b, theta, tau)
    decomposition = _match_scaled_involution(matrix)
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
        == frozenset(range(1, matrix.rows + 1))
        and a.re == b.re >= 0
    ):
        condition = 4
    else:
        condition = 5
    return PsdClassification(True, k, m, pi, condition)


def integer_grid(matrix: Matrix) -> tuple[list[list[int]], list[list[int]], int]:
    """The entries as Gaussian integers over one common denominator.

    Returns (real parts, imaginary parts, denominator); the matrix equals
    (re + im*i) / denominator entrywise.  This is the working form of the
    exact kernels: gaussian.integer_parts on the entries, cut into rows.
    """
    re, im, den = integer_parts([e for row in matrix.entries for e in row])
    starts = range(0, len(re), matrix.cols)
    return [re[k : k + matrix.cols] for k in starts], [im[k : k + matrix.cols] for k in starts], den
