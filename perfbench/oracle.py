"""Independent reference values for the benchmark's correctness checks.

Nothing here imports permfunc.  Scalars are Gaussian integers held as
(re, im) pairs of Python ints, permutations are 1-based image tuples, and
every formula is derived from the definitions, not from the package's
code:

* the structured routes reduce to products over the cycles of
  rho = alpha^-1 * beta (ROADMAP item 2).  For a*P_theta + b*P_tau this is
  det = sign(theta) (a+b)^F prod_c (a^l - (-b)^l) and
  per = (a+b)^F prod_c (a^l + b^l); alternating groups take (per + det)/2
  and pointwise stabilizers forbid or force the cycle through each
  stabilized point, so every case stays O(r);
* dense matrices use elimination over exact rationals for det and
  Ryser's formula for per.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

ZERO = (0, 0)
ONE = (1, 0)


def gmul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def gadd(x, y):
    return (x[0] + y[0], x[1] + y[1])


def gneg(x):
    return (-x[0], -x[1])


def gpow(x, e):
    out = ONE
    for _ in range(e):
        out = gmul(out, x)
    return out


def gprod(values):
    out = ONE
    for v in values:
        out = gmul(out, v)
    return out


# -- permutations as 1-based image tuples ----------------------------------


def compose(p, q):
    """(p*q)(i) = p(q(i))."""
    return tuple(p[v - 1] for v in q)


def inverse(p):
    inv = [0] * len(p)
    for i, v in enumerate(p):
        inv[v - 1] = i + 1
    return tuple(inv)


def cycles(p):
    """Nontrivial cycles (each a tuple starting at its least point) and fixed points."""
    seen = set()
    out, fixed = [], []
    for start in range(1, len(p) + 1):
        if start in seen:
            continue
        cycle = []
        point = start
        while point not in seen:
            seen.add(point)
            cycle.append(point)
            point = p[point - 1]
        (fixed if len(cycle) == 1 else out).append(tuple(cycle))
    return out, [c[0] for c in fixed]


def sign(p):
    cyc, fixed = cycles(p)
    return -1 if (len(p) - len(cyc) - len(fixed)) % 2 else 1


def cycle_text(p):
    """Cycle notation as the CLI reads it, e.g. "(1 5 3)(2 6)"; "id" for the identity."""
    cyc, _ = cycles(p)
    return "".join("(" + " ".join(map(str, c)) + ")" for c in cyc) or "id"


def from_cycles(n, cycle_list):
    images = list(range(1, n + 1))
    for c in cycle_list:
        for k, point in enumerate(c):
            images[point - 1] = c[(k + 1) % len(c)]
    return tuple(images)


# -- structured sums over the pointwise mixtures ---------------------------


def mixture_sum(alpha, beta, coeff_a, coeff_b, group, character):
    """sum over sigma in G of chi(sigma) prod_y M[sigma^-1(y), y] for a two-layer M.

    Column y of M holds coeff_a[y-1] in row alpha(y) and coeff_b[y-1] in
    row beta(y) (their sum where the rows coincide).  ``group`` is
    ("S",), ("A",) or ("stab", points); ``character`` is "sign" or
    "trivial".  Each cycle c of alpha^-1*beta either follows alpha
    (weight A_c) or beta (weight B_c, sign (-1)^(l-1)), so the sum over
    the 2^r mixtures factors into one term per cycle.
    """
    rho = compose(inverse(alpha), beta)
    cyc, fixed = cycles(rho)
    stab = set(group[1]) if group[0] == "stab" else set()
    prefactor = ONE
    for y in fixed:
        if y in stab and alpha[y - 1] != y:
            return ZERO
        prefactor = gmul(prefactor, gadd(coeff_a[y - 1], coeff_b[y - 1]))
    plain, signed = prefactor, prefactor
    for c in cyc:
        weight_a = gprod(coeff_a[y - 1] for y in c)
        weight_b = gprod(coeff_b[y - 1] for y in c)
        pinned = [y for y in c if y in stab]
        keep_a = all(alpha[y - 1] == y for y in pinned)
        keep_b = all(beta[y - 1] == y for y in pinned)
        weight_a = weight_a if keep_a else ZERO
        weight_b = weight_b if keep_b else ZERO
        plain = gmul(plain, gadd(weight_a, weight_b))
        odd = (len(c) - 1) % 2
        signed = gmul(signed, gadd(weight_a, gneg(weight_b) if odd else weight_b))
    if sign(alpha) < 0:
        signed = gneg(signed)
    if group[0] == "A":
        total = gadd(plain, signed)
        return (total[0] // 2, total[1] // 2)
    return signed if character == "sign" else plain


def linear_sum_value(a, b, theta, tau, group=("S",), character="sign"):
    """Value on a*P_theta + b*P_tau; column y holds a in row theta(y), b in row tau(y)."""
    n = len(theta)
    return mixture_sum(theta, tau, [a] * n, [b] * n, group, character)


def det_product_form(a, b, theta, tau):
    """det(a*P_theta + b*P_tau) = sign(theta) (a+b)^F prod_c (a^l - (-b)^l)."""
    cyc, fixed = cycles(compose(inverse(theta), tau))
    out = gpow(gadd(a, b), len(fixed))
    for c in cyc:
        out = gmul(out, gadd(gpow(a, len(c)), gneg(gpow(gneg(b), len(c)))))
    return gneg(out) if sign(theta) < 0 else out


def per_product_form(a, b, theta, tau):
    """per(a*P_theta + b*P_tau) = (a+b)^F prod_c (a^l + b^l)."""
    cyc, fixed = cycles(compose(inverse(theta), tau))
    out = gpow(gadd(a, b), len(fixed))
    for c in cyc:
        out = gmul(out, gadd(gpow(a, len(c)), gpow(b, len(c))))
    return out


def block_pair(spec):
    """The two permutations of [1..m*n] carrying a block spec's nonzero entries.

    ``spec`` uses image tuples: block (i, theta(i)) holds a_i * P_inner,
    whose column v has its 1 in row inner(v); so column
    (theta(i)-1)*m + v of the big matrix has its layer-one entry in row
    (i-1)*m + inner(v).  Returns (alpha, beta, coeff_a, coeff_b).
    """
    m, n = spec["m"], spec["n"]
    size = m * n
    alpha, beta = [0] * size, [0] * size
    coeff_a, coeff_b = [None] * size, [None] * size
    for i in range(1, n + 1):
        for outer, inners, scalars, images, coeffs in (
            (spec["theta"], spec["inner_thetas"], spec["a"], alpha, coeff_a),
            (spec["tau"], spec["inner_taus"], spec["b"], beta, coeff_b),
        ):
            inner = inners[i - 1]
            for v in range(1, m + 1):
                column = (outer[i - 1] - 1) * m + v
                images[column - 1] = (i - 1) * m + inner[v - 1]
                coeffs[column - 1] = scalars[i - 1]
    return tuple(alpha), tuple(beta), coeff_a, coeff_b


def block_value(spec, group=("S",), character="sign"):
    alpha, beta, coeff_a, coeff_b = block_pair(spec)
    return mixture_sum(alpha, beta, coeff_a, coeff_b, group, character)


# -- dense matrices ---------------------------------------------------------


def det_dense(rows):
    """Determinant of a Gaussian-integer matrix by elimination over Q(i)."""
    n = len(rows)
    m = [[(Fraction(e[0]), Fraction(e[1])) for e in row] for row in rows]
    det = (Fraction(1), Fraction(0))

    def mul(x, y):
        return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])

    def div(x, y):
        nrm = y[0] * y[0] + y[1] * y[1]
        return ((x[0] * y[0] + x[1] * y[1]) / nrm, (x[1] * y[0] - x[0] * y[1]) / nrm)

    for k in range(n):
        pivot = next((i for i in range(k, n) if m[i][k] != (0, 0)), None)
        if pivot is None:
            return ZERO
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            det = (-det[0], -det[1])
        det = mul(det, m[k][k])
        for i in range(k + 1, n):
            factor = div(m[i][k], m[k][k])
            if factor == (0, 0):
                continue
            m[i] = [
                (x[0] - f[0], x[1] - f[1])
                for x, f in zip(m[i], (mul(factor, e) for e in m[k]))
            ]
    return (int(det[0]), int(det[1]))


def per_dense(rows):
    """Permanent of a Gaussian-integer matrix by Ryser's formula."""
    n = len(rows)
    total = ZERO
    for size in range(1, n + 1):
        for cols in combinations(range(n), size):
            term = ONE
            for row in rows:
                s = ZERO
                for j in cols:
                    s = gadd(s, row[j])
                term = gmul(term, s)
            total = gadd(total, term if size % 2 == n % 2 else gneg(term))
    return total


def dense_value(rows, group=("S",), character="sign"):
    """Sign or trivial character sum over S_n, A_n or a pointwise stabilizer."""
    if group[0] == "stab":
        pinned = sorted(group[1])
        free = [i for i in range(len(rows)) if i + 1 not in pinned]
        diagonal = gprod(rows[p - 1][p - 1] for p in pinned)
        rest = [[rows[i][j] for j in free] for i in free]
        inner = (det_dense if character == "sign" else per_dense)(rest) if rest else ONE
        return gmul(diagonal, inner)
    d, p = det_dense(rows), per_dense(rows)
    if group[0] == "A":
        total = gadd(d, p)
        return (total[0] // 2, total[1] // 2)
    return d if character == "sign" else p


# -- the paper's reference instances ----------------------------------------

REFERENCE_THETA = from_cycles(6, [(1, 5, 3), (2, 6)])
REFERENCE_TAU = from_cycles(6, [(2, 4, 6)])
REFERENCE_DET = (-85, 30)  # a = 2, b = -i
REFERENCE_STAB = (120, 0)  # a = 1, b = 2 over stab:1,3,5@6, trivial character
REFERENCE_BLOCK = {
    "m": 4,
    "n": 2,
    "theta": (1, 2),
    "tau": (2, 1),
    "inner_thetas": (from_cycles(4, [(1, 4, 3)]), from_cycles(4, [(1, 4), (2, 3)])),
    "inner_taus": (from_cycles(4, [(1, 3, 2)]), (1, 2, 3, 4)),
    "a": ((0, -1), (2, 0)),
    "b": ((-2, 0), (3, 0)),
}
REFERENCE_BLOCK_PER = (448, 1536)
REFERENCE_BLOCK_DET = (448, -1536)
