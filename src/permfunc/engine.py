"""Evaluation routes for generalized matrix functions.

A generalized matrix function contracts a matrix against a subgroup G of
S_n and a character chi: sum over sigma in G of chi(sigma) times the
entry product A[i, sigma(i)].  The determinant is (S_n, sign), the
permanent (S_n, trivial), immanants (S_n, irreducible chi).

Routes provided, all exact unless stated otherwise:

* naive summation of the defining formula, over each row's nonzero
  entries less those whose column lies outside the row's orbit
  (GroupSpec.orbits), which no member takes: for the trivial and sign
  characters on a Young subgroup (GroupSpec.young: S_n, A_n, a pointwise
  stabilizer, a gens: group its orbits and parity decide) as a permanent
  folded block by block over column sets by Laplace steps, and a
  determinant folded so or, when a row keeps more than two entries,
  eliminated (the even part their mean), building no permutation;
  otherwise visiting only the members whose entry product is nonzero
  (the member walk below); the term count is |G|;
* the structured fast route for a*P_theta + b*P_tau, whose row x holds
  a in column theta^-1(x) and b in column tau^-1(x): it sums only the
  2^r permutations that agree pointwise with theta^-1 or tau^-1, each
  weighed by its own entry product and chi at itself; on a Young
  subgroup (as S_n or A_n with the coefficients that cross blocks
  zeroed) it multiplies that sum out as an O(r) product over the cycles
  for the trivial and sign characters, and sums it by cycle type, orbit
  by orbit of <theta, tau>, each orbit walked once, for the irreducible
  characters, never handing them to the walk; otherwise it takes the
  member walk below,
  whose candidates are the mixtures walked by perm.walk_mixtures, which
  never enters a choice of zero weight, such as one that leaves an
  orbit (GroupSpec.orbits); every case multiplies Gaussian integers
  over one denominator, and perm.pair_cycles gives every case the
  cycles of theta^-1*tau;
* closed forms for determinant and permanent of a*P_theta + b*P_tau:
  the structured route's O(r) product over the cycles of theta^-1*tau
  on S_n;
* a minor-expansion oracle for det(A+B) over all complementary index
  pairs: the pairs with |alpha| = k sum to the coefficient of t^k in
  det(tA + B), so one Laplace fold at t = 2^s, each entry b + (a << s),
  yields every k's sum as a balanced base-2^s digit;
* the block generalization for sums of two scaled block-permutation
  layers;
* the symmetric companion S_theta: its value as that of
  P_theta + P_theta^-1 over 2^(F+2t), F the fixed points and t the
  2-cycles of theta, and the integer closed forms det(S_theta), a signed
  power of two read off theta's cycle lengths, and det(P_theta +
  P_theta^-1), that times 2^(F+2t);
* floating singular values, a singular-value bound check for linear
  characters, permanent-dominance and superadditivity checks, and a
  tensor-space symmetrizer oracle.

Both routes ask, outside the Young shortcuts, which members of G lie on
the support of A, and one member walk answers (_support_members): it
reaches them from the smaller of two sides, the caller's candidates
tested for membership (the naive route's injective tuples of the rows'
columns, the fast route's 2^k mixtures) or the |G| members listed and
weighed over the rows.  Every sum of weights by a key (a character
value, a cycle type) goes through one group-by, _keyed, and each total
by value through _valued.

Every route passes perm.check_work, before it starts, the smallest count
it can prove of its own work: the member walk the smaller of its
candidates (2^k mixtures, k the cycles that keep both factors, or
candidate tuples) and |G|, the class sums the smaller of the 2^k
mixtures and the points their orbit walks trace, and the naive Young
route its Laplace steps and eliminations, when that is smaller than
|G|.  A route is refused for its own work, not for |G| or 2^r.

Permutations are objects only in the routes' arguments.  Inside every
sum a member or mixture is its image tuple (images[i-1] = sigma(i)):
groups test membership of it, and chi.evaluate reads it.  Likewise a
scalar enters every sum as a Gaussian integer over one denominator, by
gaussian.integer_parts (a Matrix is stored so, and matrices.integer_grid
reads it), and each result leaves by gaussian.from_integers.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
import sys
from fractions import Fraction
from math import comb

from ._record import record
from .characters import CharacterSpec, IrreducibleCharacter, SignCharacter, TrivialCharacter
from .errors import (
    CharacterDomainError,
    DegreeMismatchError,
    DisjointnessError,
    ExactnessError,
    PermfuncError,
)
from .gaussian import GaussianRational, ONE, ZERO, RationalLike, from_integers, gauss, integer_parts
from .groups import GroupSpec, SymmetricGroup, order_text
from .matrices import (
    BlockSpec,
    Matrix,
    integer_grid,
    linear_sum,
    mat_add,
    mat_mul,
    s_matrix,
)
from .perm import (
    Permutation,
    common_degree,
    compose,
    images_cycle_type,
    images_inverse,
    images_sign,
    orbit_labels,
    pair_cycles,
    walk_mixtures,
)
from . import kernels, perm

REL_TOL = 1e-9


class Method(str, enum.Enum):
    NAIVE = "naive"
    FORMULA = "formula"
    CLOSED_FORM = "closed"
    CAUCHY_BINET = "cauchy-binet"
    BLOCK = "block"


@record
class GmfResult:
    value: GaussianRational
    method: Method
    term_count: int

    def to_json(self) -> dict:
        return {
            "value": self.value.to_json(),
            "method": self.method.value,
            "terms": self.term_count,
        }


def det_exact(a: Matrix) -> GaussianRational:
    """Exact determinant by fraction-free elimination."""
    if not a.is_square:
        raise DegreeMismatchError(f"determinant needs a square matrix, got {a.rows}x{a.cols}")
    pre, pim, den = integer_grid(a)
    return from_integers(*kernels.det_gaussian_int(pre, pim), den**a.rows)


def _support_members(rows, group: GroupSpec, order: int, what: str, count: int, walk):
    """The (images, re, im) of each member of ``group``, of ``order``
    members, whose entry product re + im*i over ``rows`` is nonzero, lazily.

    Row x maps each column a member may send x to onto the factor (re, im)
    it then takes: the nonzero entries inside x's orbit on the naive route,
    a cycle's factors on the fast route (_walk).  The members are reached
    from the smaller of two sides, whose size is checked against the cap
    and named by a refusal: the caller's ``count`` candidates (``what``),
    the (images, re, im) of ``walk()``, each an image tuple on the support
    with its product, kept when the group contains it; or the group's
    members (group._generate), weighed over ``rows()`` (_weighed).
    ``rows`` and ``walk`` are called only for the side taken.
    """
    if count > order:
        perm.check_work(order_text(group, order), order)
        return _weighed(rows(), group._generate())
    perm.check_work(what, count)
    return (candidate for candidate in walk() if group.contains_images(candidate[0]))


def _weighed(rows, tuples):
    """Yield (images, re, im) for each image tuple that takes an entry of
    every row (a column -> (re, im) map), re + im*i the entries' product."""
    for images in tuples:
        if all(map(dict.__contains__, rows, images)):
            yield images, *_product(map(dict.__getitem__, rows, images))


def gmf_naive(a: Matrix, group: GroupSpec, chi: CharacterSpec) -> GmfResult:
    """Sum chi(sigma) * prod_i A[i, sigma(i)] over the whole group.

    Each row's nonzero entries are listed once (_row_entries), and, as
    every member keeps each point in its orbit, only those whose column
    lies in the row's orbit (GroupSpec.orbits) are kept, as
    _mixture_factors zeroes the fast route's coefficients; both routes
    below see only these.

    On a Young subgroup (GroupSpec.young) the trivial and sign characters
    depend only on parity, and no member is built (_parity_naive): the
    permanent sums the Gaussian-integer entry products by column set, and
    so does the determinant when no row keeps more than two entries, as
    a*P_theta + b*P_tau; past two a row, where fraction-free elimination
    becomes the cheaper, it eliminates (kernels.det_gaussian_int).  Other
    groups and characters visit only the members with a nonzero entry
    product (_support_members), reached from the injective tuples of the
    rows' columns or from |G|, whichever is fewer; their products are
    summed per character value, and each distinct value is multiplied in
    once at the end.  The term count is still |G|.  Each route raises
    CapacityError, before it starts, when its own work exceeds the
    enumeration cap: the Laplace steps or elimination on the Young route,
    the candidate tuples on the member walk, or |G| when that is smaller.
    """
    if not a.is_square:
        raise DegreeMismatchError(
            f"generalized matrix functions need a square matrix, got {a.rows}x{a.cols}"
        )
    if group.degree != a.rows:
        raise DegreeMismatchError(f"matrix degree {a.rows}, group degree {group.degree}")
    order = group.order()
    pre, pim, den = integer_grid(a)
    rows = list(map(_row_entries, pre, pim))
    labels = group.orbits()
    if labels:  # every member keeps each point in its orbit
        rows = [[entry for entry in row if labels[entry[0].bit_length()] == block]
                for row, block in zip(rows, labels[1:])]
    young = group.young()
    if young and isinstance(chi, _PARITY_CHARACTERS):
        re, im = _parity_naive(rows, *young, isinstance(chi, SignCharacter), group, order)
    else:
        columns = [{bit.bit_length(): (er, ei) for bit, _, er, ei in row} for row in rows]
        count = math.prod(map(len, columns))
        injective = (t for t in itertools.product(*columns) if len(set(t)) == a.rows)
        # the work is checked before the domain, which a character may enumerate
        members = _support_members(lambda: columns, group, order,
                                   f"member walk of {count} candidate tuples", count,
                                   lambda: _weighed(columns, injective))
        chi.check_domain(group)
        re, im, _ = _value_sums(chi, members)
    return GmfResult(from_integers(re, im, den**a.rows), Method.NAIVE, order)


# characters whose value a permutation's parity decides, cycle by cycle or column by column
_PARITY_CHARACTERS = (TrivialCharacter, SignCharacter)


def _parity_naive(rows, labels, even: bool, sign: bool, group: GroupSpec, order: int):
    """The naive sum, as a Gaussian integer (re, im), over ``rows`` of
    entries from _row_entries on the Young subgroup ``group`` of ``order``
    members, which young() answers with (labels, even), for the trivial
    character or, with ``sign``, the sign.

    gmf_naive has dropped the entries whose row and column lie in different
    blocks, so the group acts as S_n: every permutation leaving a block
    weighs zero.  Sign takes the determinant, trivial the permanent, and
    the even part their mean: the even permutations count twice and the
    odd cancel.

    The determinant folds _laplace_step over the rows' entries, in the
    rows' own order, when no row keeps more than two, as a*P_theta +
    b*P_tau; otherwise it is kernels.det_gaussian_int of the rows filled
    out to n x n with zeros (_grid), block diagonal up to one relabelling,
    so no split is needed.  Two entries a row is where the costs cross:
    the fold took 33 against 82 us on two permutations at n = 9, 155
    against 96 us on three at n = 8, and 7.7 against 0.28 ms dense at
    n = 12.  The permanent folds the same
    entries with no used column counted above any placement, so no sign
    flips, block by block: its table then holds one block's partial column
    sets at a time, not their product.  Before either runs, the folds'
    Laplace steps (_fold_steps) plus n^3 for an elimination, or |G| when
    smaller, are checked against the cap.
    """
    n = len(rows)
    blocks = [rows[x - 1] for x in sorted(range(1, n + 1), key=labels.__getitem__)]
    signed = even or sign
    eliminate = signed and max(map(len, rows)) > 2
    work = order
    if order > perm.DEFAULT_ENUMERATION_CAP:  # counting costs about a fifth of a small fold
        det_steps = (n**3 if eliminate else _fold_steps(rows)) if signed else 0
        work = min(order, det_steps + (_fold_steps(blocks) if even or not signed else 0))
    perm.check_work(order_text(group, order) if work == order
                    else f"Young parity route of {work} steps", work)
    if signed:
        det = kernels.det_gaussian_int(*_grid(rows)) if eliminate else _fold(rows)
        if not even:
            return det
    per = _fold([[(bit, 0, er, ei) for bit, _, er, ei in row] for row in blocks])
    if not even:
        return per
    return (per[0] + det[0]) // 2, (per[1] + det[1]) // 2


def _row_entries(row_re, row_im) -> list:
    """A row's nonzero entries as (column bit, the column bits above it, re, im)."""
    n = len(row_re)
    return [
        (1 << j, (1 << n) - (2 << j), er, ei)
        for j, (er, ei) in enumerate(zip(row_re, row_im))
        if er or ei
    ]


def _grid(rows):
    """The n x n parts (re, im) of n rows of entries from _row_entries, zero elsewhere."""
    cells = [{bit: (er, ei) for bit, _, er, ei in row} for row in rows]
    return ([[row.get(1 << j, (0, 0))[part] for j in range(len(rows))] for row in cells]
            for part in (0, 1))


def _fold(rows):
    """The determinant (re, im) of m rows of entries from _row_entries, or the
    permanent when every entry's bits above are 0, by one Laplace step per
    row: the subset sums behind Ryser's permanent formula (Ryser 1963), at
    most m * 2^(m-1) steps instead of m! products."""
    return functools.reduce(_laplace_step, rows, {0: (1, 0)}).get((1 << len(rows)) - 1, (0, 0))


def _fold_steps(rows) -> int:
    """An upper bound on the Laplace steps _fold takes over ``rows``: each
    row's entries times the minors before it, which number at most the
    product of the earlier rows' entry counts and the column sets of their
    size among the columns those rows use."""
    steps, minors, used = 0, 1, 0
    for placed, row in enumerate(rows, 1):
        steps += minors * len(row)
        used |= sum(entry[0] for entry in row)  # the columns are distinct bits
        minors = min(minors * len(row), comb(used.bit_count(), placed))
    return steps


def _laplace_step(table, entries):
    """Extend a minor table by one row along its Laplace expansion.

    ``table`` maps the column mask of each minor over the rows placed so
    far to its determinant (re, im); ``entries`` are the new row's
    nonzero entries as from _row_entries.  The new row is the last of the
    minor, so placing it in column j adds one inversion for each used
    column above j.  Returns the table over the rows placed so far plus
    the new one, empty when every such minor vanishes.
    """
    extended = {}
    for used, (pr, pi) in table.items():
        for bit, above, er, ei in entries:
            if used & bit:
                continue
            re, im = pr * er - pi * ei, pr * ei + pi * er
            if (used & above).bit_count() & 1:
                re, im = -re, -im
            key = used | bit
            acc = extended.get(key)
            extended[key] = (re, im) if acc is None else (acc[0] + re, acc[1] + im)
    return extended


def _keyed(items) -> dict:
    """key -> (re, im, count), summed over (key, (re, im, count)) items: the
    one group-by of every sum below."""
    sums = {}
    for key, (re, im, n) in items:
        acc = sums.get(key)
        sums[key] = (re, im, n) if acc is None else (acc[0] + re, acc[1] + im, acc[2] + n)
    return sums


def _valued(sums):
    """Sum value * (re + im*i) over ``sums`` from _keyed, each value an int
    or a GaussianRational; returns (re, im, count), the counts added."""
    terms = (_times((v, 0, 1) if type(v) is int else (v.re, v.im, 1), x) for v, x in sums.items())
    return functools.reduce(_plus, terms, (0, 0, 0))


def _value_sums(chi: CharacterSpec, weighted):
    """Sum chi(images) * (re + im*i) over (images, re, im) triples; returns (re, im, count).

    The Gaussian integers are keyed by character value first, so each
    distinct value is multiplied in once.  An irreducible character's
    values are keyed as the ints of its class_value, so no scalar is
    built or hashed per triple.
    """
    value = chi.evaluate
    if isinstance(chi, IrreducibleCharacter):
        value = lambda images: chi.class_value(images_cycle_type(images))  # noqa: E731
    return _valued(_keyed((value(images), (re, im, 1)) for images, re, im in weighted))


def _times(x, y):
    """Product of two (re, im, count) triples: Gaussian integers times, counts times."""
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0], x[2] * y[2]


def _product(factors) -> tuple[int, int]:
    """The product (re, im) of Gaussian integers (re, im)."""
    re, im = 1, 0
    for fr, fi in factors:
        re, im = re * fr - im * fi, re * fi + im * fr
    return re, im


def _plus(x, y):
    """Sum of two (re, im, count) triples."""
    return x[0] + y[0], x[1] + y[1], x[2] + y[2]


def _parity_product(alpha, cycles, pairs, even: bool, chi: CharacterSpec):
    """The mixture sum without its prefactor, as (re, im, terms), in O(r).

    On S_n, or on A_n with ``even``, for the characters of
    _PARITY_CHARACTERS.  A mixture's sign is sign(alpha) times (-1)^(l-1)
    for each cycle of length l it takes from beta, which decides A_n and
    the sign character.  The Gaussian-integer (a_c, b_c) ``pairs`` are
    multiplied out into an even and an odd part, each an (re, im, count)
    triple, the count being that of the mixtures with a nonzero weight.
    """
    parts = [(1, 0, 1), (0, 0, 0)]  # the mixtures of alpha's sign, of the other sign
    for cycle, (a_c, b_c) in zip(cycles, pairs):
        a_c, b_c = (*a_c, int(any(a_c))), (*b_c, int(any(b_c)))
        flip = 1 - len(cycle) % 2  # a cycle of even length is an odd permutation
        parts = [_plus(_times(parts[p], a_c), _times(parts[p ^ flip], b_c)) for p in (0, 1)]
    evens, odds = parts if images_sign(alpha) > 0 else parts[::-1]
    if even:
        return evens
    if isinstance(chi, SignCharacter):
        odds = _times(odds, (-1, 0, 1))
    return _plus(evens, odds)


def _orbit_mixtures(points, alpha, beta, moves):
    """Yield (cycle type, (re, im, 1)) for each mixture on ``points``, a union
    of orbits of <alpha, beta> whose cycles of alpha^-1*beta are ``moves``,
    each with its (a_c, b_c) pair.  The walk, on the points renumbered
    from 1, skips every zero factor, so each mixture yielded weighs nonzero.
    """
    where = {p: i for i, p in enumerate(points, 1)}
    from_alpha, from_beta = ([where[g[p - 1]] for p in points] for g in (alpha, beta))
    cycles = [[where[p] for p in cycle] for cycle, _ in moves]
    for images, re, im in walk_mixtures(from_alpha, from_beta, cycles, [f for _, f in moves]):
        yield images_cycle_type(images), (re, im, 1)


def _orbit_classes(points, alpha, beta, moves) -> dict:
    """Cycle type on ``points`` -> (re, im, count) over their mixtures."""
    return _keyed(_orbit_mixtures(points, alpha, beta, moves))


def _merged(x, y):
    """Two classes (cycle type, (re, im, count)) of disjoint orbits as one:
    the types merged, the weights and the counts multiplied."""
    return tuple(sorted(x[0] + y[0], reverse=True)), _times(x[1], y[1])


def _convolve(left: dict, right: dict) -> dict:
    """The table of two disjoint orbits' tables combined."""
    return _keyed(itertools.starmap(_merged, itertools.product(left.items(), right.items())))


def _class_sums(alpha, beta, cycles, pairs, even: bool, chi: IrreducibleCharacter):
    """The mixture sum for an irreducible character of S_n on S_n, or on A_n
    with ``even``, by cycle type.

    A mixture agrees with alpha or beta at every point, so it maps each
    orbit of <alpha, beta> onto itself: its cycle type is the union of its
    types on the orbits, and its weight the product of its (a_c, b_c)
    factors there.  Each orbit's 2^(r_O) cycle choices are walked once,
    into a table summed by type (_orbit_classes) or in the stream below;
    the orbits that hold no cycle of alpha^-1*beta share one table of one
    class.  The classes are combined, the odd types dropped for A_n, and
    chi, an integer-valued class function, evaluated once per class.
    Returns the Gaussian-integer sum (re, im) and the number of in-group
    mixtures with a nonzero weight.

    The walks branch only on the cycles whose two factors are both
    nonzero, k of them in all and k_O on the orbit O, so the route first
    checks the smaller of the 2^k mixtures and the sum of |O| * 2^(k_O)
    points its orbit walks trace.  An orbit is tabulated if its
    |O| * 2^(k_O) is within the cap, and its table C convolved into the
    running table T if n * |T| * |C| is.  What is left over is streamed:
    the orbits not tabulated are walked together, once, and each of their
    mixtures is combined with each class of T and of the tables not
    convolved, which takes at most the 2^k mixtures, checked again first.
    """
    n = len(alpha)
    labels = orbit_labels(n, (alpha, beta))
    moving = {labels[cycle[0]] for cycle in cycles}
    orbits = {}
    for p in range(1, n + 1):  # the orbits with no cycle share the key 0
        orbits.setdefault(labels[p] if labels[p] in moving else 0, ([], []))[0].append(p)
    for cycle, pair in zip(cycles, pairs):
        orbits[labels[cycle[0]]][1].append((cycle, pair))
    traced = [len(o) << perm.branching(f for _, f in m) for o, m in orbits.values()]
    k = perm.branching(pairs)
    walk = f"walk of 2^{k} mixtures", 1 << k
    tracing = f"class sums tracing {sum(traced)} mixture points", sum(traced)
    perm.check_work(*(walk if walk[1] <= tracing[1] else tracing))
    totals, tables, points, moves = {(): (1, 0, 1)}, [], [], []
    for (orbit, orbit_moves), work in zip(orbits.values(), traced):
        if work > perm.DEFAULT_ENUMERATION_CAP:
            points, moves = points + orbit, moves + orbit_moves
            continue
        classes = _orbit_classes(orbit, alpha, beta, orbit_moves)
        if n * len(totals) * len(classes) <= perm.DEFAULT_ENUMERATION_CAP:
            totals = _convolve(totals, classes)
        else:
            tables.append(classes.items())
    if points or tables:
        perm.check_work(*walk)
    # with no orbit left untabulated, the walk yields one empty mixture
    walked = _orbit_mixtures(points, alpha, beta, moves)
    combos = (functools.reduce(_merged, c, w)
              for w in walked for c in itertools.product(totals.items(), *tables))
    return _valued(_keyed((chi.class_value(t), x) for t, x in combos
                          if not (even and (n - len(t)) % 2)))


def _walk(alpha, beta, cycles, pairs, group: GroupSpec):
    """The (images, re, im) of each in-group mixture with a nonzero (re, im)
    weight, lazily, by _support_members: from the 2^k mixtures walked
    (perm.walk_mixtures) or from the |G| members, whichever is fewer.

    ``pairs`` holds the (a_c, b_c) factors of ``cycles`` as (re, im)
    pairs.  A member agreeing at every point with alpha or beta is a
    mixture (it takes each cycle whole), so for the member side row x
    holds 1 in columns alpha(x) and beta(x), except at each cycle's first
    point, which holds a_c in column alpha(x) and b_c in column beta(x),
    the zero ones left out: a member's product is then its mixture's
    weight.
    """
    def rows():
        rows = [{ya: (1, 0), yb: (1, 0)} for ya, yb in zip(alpha, beta)]
        for cycle, (a_c, b_c) in zip(cycles, pairs):
            x = cycle[0] - 1
            rows[x] = {y: f for y, f in ((alpha[x], a_c), (beta[x], b_c)) if any(f)}
        return rows

    def walk():
        for images, re, im in walk_mixtures(alpha, beta, cycles, pairs):
            yield tuple(images), re, im

    k = perm.branching(pairs)
    return _support_members(rows, group, group.order(), f"walk of 2^{k} mixtures", 1 << k, walk)


def _mixture_sum(alpha, beta, coeff_a, coeff_b, den, group: GroupSpec, chi: CharacterSpec):
    """Sum chi(pi) times the entry product over the mixtures pi of alpha and beta.

    ``alpha``, ``beta`` and each mixture are image tuples.  Row x carries
    coeff_a[x-1] in column alpha(x) and coeff_b[x-1] in column beta(x), so
    only the mixtures have a nonzero entry product.  A mixture pi takes
    each cycle of alpha^-1*beta from alpha or from beta, so its entry
    product is the prefactor, the product of coeff_a + coeff_b over the
    fixed points, times one factor per cycle: the product of coeff_b over
    the cycle if pi takes it from beta, else that of coeff_a.  Returns the
    total over the in-group mixtures and the number of them with a nonzero
    entry product; a zero prefactor gives zero with no terms.  A
    coefficient is zeroed wherever alpha or beta carries a point out of
    its orbit (GroupSpec.orbits), which no member does.  On a Young
    subgroup (GroupSpec.young) the orbits are its blocks, so every
    mixture outside the group weighs zero and the group acts as S_n, or
    as A_n when it is the even part.  The coefficients are Gaussian
    integers (re, im) over one ``den`` (the callers'
    gaussian.integer_parts), so the prefactor and factors are integer
    products, and one exact route, picked once, sums the factors (re, im,
    terms): on a Young subgroup the O(r) _parity_product for a trivial or
    sign character and the _class_sums for an irreducible one; otherwise
    the in-group mixtures with a nonzero weight, reached by _walk from the
    2^k mixtures or from the |G| members, whichever is fewer, and summed
    directly for trivial and sign (the sign folded into the factors) and
    per character value (_value_sums) for the rest.  A weight has n
    coefficients, so the total is the prefactor times that sum over den^n
    (gaussian.from_integers).  A character whose values leave Q(i) raises
    ExactnessError from the walk.
    """
    chi.check_domain(group)
    cycles, pre, pairs = _mixture_factors(alpha, beta, coeff_a, coeff_b, group)
    if pre == (0, 0):
        return ZERO, 0
    young = group.young()
    if young and isinstance(chi, _PARITY_CHARACTERS):
        summed = _parity_product(alpha, cycles, pairs, young[1], chi)
    elif young and isinstance(chi, IrreducibleCharacter):
        summed = _class_sums(alpha, beta, cycles, pairs, young[1], chi)
    elif isinstance(chi, _PARITY_CHARACTERS):
        if isinstance(chi, SignCharacter):
            # a mixture's sign is sign(alpha), flipped by each cycle of even length from beta
            if images_sign(alpha) < 0:
                pre = -pre[0], -pre[1]
            pairs = [(a_c, (-b_c[0], -b_c[1]) if len(cycle) % 2 == 0 else b_c)
                     for cycle, (a_c, b_c) in zip(cycles, pairs)]
        walked = _walk(alpha, beta, cycles, pairs, group)
        summed = _valued(_keyed((1, (re, im, 1)) for _, re, im in walked))
    else:
        summed = _value_sums(chi, _walk(alpha, beta, cycles, pairs, group))
    re, im, terms = _times((*pre, 1), summed)
    return from_integers(re, im, den ** len(alpha)), terms


def _mixture_factors(alpha, beta, coeff_a, coeff_b, group: GroupSpec):
    """The cycles of alpha^-1*beta, the prefactor and the (a_c, b_c) factors
    of the cycles that _mixture_sum multiplies, each a Gaussian integer,
    with the coefficients zeroed where alpha or beta leaves an orbit."""
    labels = group.orbits()
    if labels:
        coeff_a, coeff_b = (
            [c if labels[y] == block else (0, 0) for c, y, block in zip(coeffs, images, labels[1:])]
            for images, coeffs in ((alpha, coeff_a), (beta, coeff_b))
        )
    dec = pair_cycles(alpha, beta)
    fixed = [(coeff_a[y - 1], coeff_b[y - 1]) for y in dec.fixed_points]
    pre = _product((ar + br, ai + bi) for (ar, ai), (br, bi) in fixed)
    pairs = [tuple(_product(c[y - 1] for y in cycle) for c in (coeff_a, coeff_b))
             for cycle in dec.cycles]
    return dec.cycles, pre, pairs


def _linear_coefficients(a, b, theta, tau):
    """The (alpha, beta, coeff_a, coeff_b, den) of _mixture_sum for
    a*P_theta + b*P_tau, whose row x holds a in column theta^-1(x) and b
    in column tau^-1(x)."""
    n = theta.degree
    alpha, beta = images_inverse(theta.images), images_inverse(tau.images)
    (ar, br), (ai, bi), den = integer_parts([a, b])
    return alpha, beta, [(ar, ai)] * n, [(br, bi)] * n, den


def gmf_linear_sum(
    a: GaussianRational,
    b: GaussianRational,
    theta: Permutation,
    tau: Permutation,
    group: GroupSpec,
    chi: CharacterSpec,
) -> GmfResult:
    """Fast route for a*P_theta + b*P_tau.

    Row x holds a in column theta^-1(x) and b in column tau^-1(x), so
    only permutations agreeing pointwise with theta^-1 or tau^-1
    contribute; each contributes chi(pi) * a^(n-t-F) * b^t, all times
    (a+b)^F, where F counts the points where theta and tau agree and t
    the points where pi follows tau^-1.  0^0 counts as 1, and a
    vanishing (a+b) with F > 0 short-circuits to exact zero.
    """
    n = common_degree(theta, tau)
    if group.degree != n:
        raise DegreeMismatchError(f"permutation degree {n}, group degree {group.degree}")
    value, terms = _mixture_sum(*_linear_coefficients(a, b, theta, tau), group, chi)
    return GmfResult(value, Method.FORMULA, terms)


def det_linear_sum(
    a: GaussianRational, b: GaussianRational, theta: Permutation, tau: Permutation
) -> GmfResult:
    """det(a*P_theta + b*P_tau) from the cycle structure of theta^-1*tau alone.

    The value is sign(theta) * (a+b)^F * prod over the cycles of
    (a^l - (-b)^l), F the fixed-point count and l the cycle length: the
    mixture sum's parity product on S_n with the sign character.
    """
    group = SymmetricGroup(common_degree(theta, tau))
    value, terms = _mixture_sum(*_linear_coefficients(a, b, theta, tau), group, SignCharacter())
    return GmfResult(value, Method.CLOSED_FORM, terms)


def per_linear_sum(
    a: GaussianRational, b: GaussianRational, theta: Permutation, tau: Permutation
) -> GmfResult:
    """per(a*P_theta + b*P_tau) = (a+b)^F * prod over the cycles of (a^l + b^l).

    The mixture sum's parity product on S_n with the trivial character.
    """
    group = SymmetricGroup(common_degree(theta, tau))
    value, terms = _mixture_sum(*_linear_coefficients(a, b, theta, tau), group, TrivialCharacter())
    return GmfResult(value, Method.CLOSED_FORM, terms)


def det_cauchy_binet_sum(a: Matrix, b: Matrix) -> GmfResult:
    """det(a+b) expanded over all complementary minor pairs.

    Sums (-1)^(r(alpha)+r(beta)) det(a[alpha|beta]) det(b(alpha|beta))
    over all k and all strictly increasing index pairs with |alpha| = k,
    each k's sum from _graded_minor_sums (no elimination) taken over
    den_a^k den_b^(n-k).  The term count is still the full pair count.
    """
    if not a.is_square or not b.is_square or a.rows != b.rows:
        raise DegreeMismatchError(
            "cauchy-binet needs two square matrices of equal size, "
            f"got {a.rows}x{a.cols} and {b.rows}x{b.cols}"
        )
    n = a.rows
    pre_a, pim_a, den_a = integer_grid(a)
    pre_b, pim_b, den_b = integer_grid(b)
    total_re = total_im = 0
    for k, (sum_re, sum_im) in enumerate(_graded_minor_sums(pre_a, pim_a, pre_b, pim_b)):
        scale = den_a ** (n - k) * den_b**k
        total_re, total_im = total_re + sum_re * scale, total_im + sum_im * scale
    total = from_integers(total_re, total_im, (den_a * den_b) ** n)
    return GmfResult(total, Method.CAUCHY_BINET, comb(2 * n, n))


def _graded_minor_sums(pre_a, pim_a, pre_b, pim_b) -> list:
    """For k = 0..n, the sum (re, im) of the signed minor pairs with
    |alpha| = k, over the Gaussian-integer rows of A and B.

    By the generalized Laplace expansion the k-th sum is the coefficient
    of t^k in det(tA + B).  One _fold takes it at t = 2^s (Kronecker
    substitution), each row's nonzero column j holding b_ij + (a_ij << s),
    and the sums are the balanced base-2^s digits of its two parts, read
    as unsigned ones after adding 2^(s-1) to each.  A digit is at most the
    product over the rows of the sum of |re| + |im| of the row's A and B
    entries, so s = 1 + that bound's bit length keeps it inside +-2^(s-1).
    """
    n = len(pre_a)
    rows = [
        [(j, xa, ya, xb, yb) for j, xa, ya, xb, yb in zip(range(n), *row) if xa or ya or xb or yb]
        for row in zip(pre_a, pim_a, pre_b, pim_b)
    ]
    s = 1 + math.prod([sum([abs(xa) + abs(ya) + abs(xb) + abs(yb) for _, xa, ya, xb, yb in row])
                       for row in rows]).bit_length()
    re, im = _fold([[(1 << j, (1 << n) - (2 << j), xb + (xa << s), yb + (ya << s))
                     for j, xa, ya, xb, yb in row] for row in rows])
    half, mask = 1 << (s - 1), (1 << s) - 1
    re, im = (part + half * ((1 << s * (n + 1)) - 1) // mask for part in (re, im))
    return [(((re >> s * k) & mask) - half, ((im >> s * k) & mask) - half) for k in range(n + 1)]


def gmf_block(spec: BlockSpec, group: GroupSpec, chi: CharacterSpec) -> GmfResult:
    """Fast route for the block assembly described by ``spec``.

    With alpha, beta the induced permutations of [1..m*n], only the
    2^r pointwise mixtures of their inverses contribute.  Row x, in block
    row j, carries a_j in column alpha^-1(x) and b_j in column
    beta^-1(x); agreement points contribute (a_j + b_j) factors.
    """
    if group.degree != spec.size:
        raise DegreeMismatchError(f"group degree {group.degree} != block matrix size {spec.size}")
    alpha, beta = (images_inverse(p.images) for p in spec.induced_pair())
    re, im, den = integer_parts(spec.a + spec.b)
    coeffs = list(zip(re, im))  # a_1..a_n, then b_1..b_n
    coeff_a, coeff_b = ([coeffs[k + x // spec.m] for x in range(spec.size)] for k in (0, spec.n))
    value, terms = _mixture_sum(alpha, beta, coeff_a, coeff_b, den, group, chi)
    return GmfResult(value, Method.BLOCK, terms)


def _doubled_count(theta: Permutation) -> int:
    """F + 2t, F the fixed points and t the 2-cycles of theta: the points theta^2 fixes."""
    images = theta.images
    return sum(images[y - 1] == x for x, y in enumerate(images, 1))


def gmf_s_matrix(theta: Permutation, group: GroupSpec, chi: CharacterSpec) -> GmfResult:
    """Value on the symmetric companion S_theta.

    P_theta + P_theta^-1 doubles the entries of S_theta on fixed points
    and 2-cycles, so the linear-sum value divides by 2^(F + 2t).
    """
    doubled = gmf_linear_sum(ONE, ONE, theta, theta.inverse(), group, chi)
    half = from_integers(1, 0, 2 ** _doubled_count(theta))
    return GmfResult(doubled.value * half, Method.FORMULA, doubled.term_count)


def det_s_closed(theta: Permutation) -> GaussianRational:
    """det(S_theta): zero whenever some cycle length is divisible by 4;
    otherwise (-1)^(s+t) * 2^(r+2s) with r odd cycles (length >= 3), s cycles
    of length 2 mod 4 above 2, and t transpositions.  Computed as
    det(P_theta + P_theta^-1) / 2^(F + 2t), the division gmf_s_matrix makes.
    """
    return det_perm_pair_closed(theta) * from_integers(1, 0, 2 ** _doubled_count(theta))


def det_perm_pair_closed(theta: Permutation) -> GaussianRational:
    """det(P_theta + P_theta^-1) by the parity product of det_linear_sum."""
    return det_linear_sum(ONE, ONE, theta, theta.inverse()).value


def s_product(theta: Permutation, tau: Permutation) -> Matrix:
    """S_theta * S_tau collapses to S_(theta*tau) for disjoint supports.

    Raises DisjointnessError when the moved points overlap; the identity
    genuinely fails there.  The returned matrix is checked against the
    actual product.
    """
    common_degree(theta, tau)
    if theta.support() & tau.support():
        raise DisjointnessError("moved points of the two permutations overlap")
    expected = s_matrix(compose(theta, tau))
    actual = mat_mul(s_matrix(theta), s_matrix(tau))
    if expected != actual:
        raise PermfuncError("product identity violated despite disjoint supports")
    return expected


def _float(x, name: str) -> float:
    """The rational or float ``x`` as a float; PermfuncError naming ``name``
    and the float range when |x| lies past it.  Underflow gives 0.0."""
    if abs(x) > sys.float_info.max:
        raise PermfuncError(
            f"{name} lies outside the float range (magnitudes up to {sys.float_info.max:.4g})"
        )
    return float(x)


@record
class SingularSpectrum:
    """All n singular values (floating, descending)."""

    values: tuple[float, ...]

    def sum_squares(self) -> float:
        return sum(v * v for v in self.values)

    def prod_squares(self) -> float:
        return math.prod(v * v for v in self.values)

    def to_json(self) -> dict:
        return {"values": list(self.values)}


def singular_values(
    a: GaussianRational,
    b: GaussianRational,
    theta: Permutation,
    tau: Permutation,
) -> SingularSpectrum:
    """Singular values of a*P_theta + b*P_tau.

    The Gram matrix is (|a|^2+|b|^2) I plus conj(a)b P_rho plus its
    adjoint, rho = theta^-1*tau, so each cycle of length l contributes
    the values sqrt(|a|^2 + |b|^2 + 2 Re(conj(a) b zeta)) over the l-th
    roots of unity zeta.
    """
    common_degree(theta, tau)
    dec = pair_cycles(theta.images, tau.images)
    base = _float(a.abs_squared() + b.abs_squared(), "|a|^2 + |b|^2")
    cross = a.conjugate() * b
    cr, ci = float(cross.re), float(cross.im)
    out = []
    for length in [*map(len, dec.cycles), *[1] * len(dec.fixed_points)]:
        for k in range(length):
            angle = 2.0 * math.pi * k / length
            radicand = _float(base + 2.0 * (cr * math.cos(angle) - ci * math.sin(angle)),
                              "a squared singular value")
            if radicand < -REL_TOL * max(1.0, base):
                raise PermfuncError(f"negative squared singular value: {radicand}")
            out.append(math.sqrt(max(radicand, 0.0)))
    return SingularSpectrum(tuple(sorted(out, reverse=True)))


@record
class BoundReport:
    lhs: float
    rhs: float
    holds: bool

    def to_json(self) -> dict:
        return {"lhs": self.lhs, "rhs": self.rhs, "holds": self.holds}


def check_singular_bound(
    a: GaussianRational,
    b: GaussianRational,
    theta: Permutation,
    tau: Permutation,
    group: GroupSpec,
    chi: CharacterSpec,
) -> BoundReport:
    """Squared modulus of the fast-route value against the spectral mean.

    For a linear character, |value|^2 is bounded by the mean of the
    2n-th powers of the singular values.  The left side is computed
    exactly and floated; the comparison margin uses a relative 1e-9
    tolerance because equality cases are common (all singular values
    equal) and the right side is floating.  A character with values
    outside Q(i) makes the exact route raise ExactnessError; the left
    side is then the same sum over the in-group mixtures with a nonzero
    weight, reached from the side the exact route took (_walk, so within
    the cap it checked), each weight exact until it is floated.  A side past the
    float range raises PermfuncError.
    """
    if not chi.is_linear():
        raise CharacterDomainError("the singular-value bound needs a linear character")
    n = theta.degree
    try:
        value = gmf_linear_sum(a, b, theta, tau, group, chi).value
        lhs = _float(value.abs_squared(), "|value|^2")
    except ExactnessError:
        # chi leaves Q(i): float the weights of the in-group mixtures, from
        # the side whose count the exact route has already checked
        alpha, beta, coeff_a, coeff_b, den = _linear_coefficients(a, b, theta, tau)
        cycles, pre, pairs = _mixture_factors(alpha, beta, coeff_a, coeff_b, group)
        scale, total = den**n, 0j
        for images, re, im in _walk(alpha, beta, cycles, pairs, group):
            weight = _product([pre, (re, im)])
            product = (_float(Fraction(x, scale), "an entry product") for x in weight)
            total += chi.evaluate_float(images) * complex(*product)
        lhs = _float(total.real * total.real + total.imag * total.imag, "|value|^2")
    spectrum = singular_values(a, b, theta, tau)
    try:
        rhs = sum((v * v) ** n for v in spectrum.values) / n
    except OverflowError:
        rhs = math.inf
    rhs = _float(rhs, "the mean of the singular values' 2n-th powers")
    holds = lhs <= rhs + REL_TOL * max(1.0, abs(lhs), abs(rhs))
    return BoundReport(lhs, rhs, holds)


@record
class DominanceReport:
    lhs: RationalLike
    rhs: RationalLike
    holds: bool

    def to_json(self) -> dict:
        return {"lhs": str(self.lhs), "rhs": str(self.rhs), "holds": self.holds}

    def __str__(self):
        relation, verdict = ("<=", "holds") if self.holds else (">", "VIOLATED")
        return f"{self.lhs} {relation} {self.rhs}: {verdict}"


def _require_psd_pair(k: RationalLike, m: RationalLike, pi: Permutation):
    if k < abs(m):
        raise ValueError(f"need k >= |m|, got k={k}, m={m}")
    if not pi.is_involution():
        raise ValueError(f"{pi} is not an involution")


def check_dominance(
    k: RationalLike,
    m: RationalLike,
    pi: Permutation,
    chi: CharacterSpec,
) -> DominanceReport:
    """Exact check of (1/chi(id)) * gmf(k*I + m*P_pi) <= per(k*I + m*P_pi).

    The matrix is positive semidefinite by construction (k >= |m|, pi an
    involution); both sides are real rationals, compared exactly.
    """
    _require_psd_pair(k, m, pi)
    n = pi.degree
    ident = Permutation.identity(n)
    value = gmf_linear_sum(gauss(k), gauss(m), ident, pi, SymmetricGroup(n), chi).value
    if not value.is_real():
        raise PermfuncError("dominance check produced a non-real value")
    permanent = per_linear_sum(gauss(k), gauss(m), ident, pi).value
    lhs = value.re / chi.degree()
    rhs = permanent.re
    return DominanceReport(lhs, rhs, lhs <= rhs)


@record
class SuperadditivityReport:
    combined: RationalLike
    left: RationalLike
    right: RationalLike
    holds: bool

    def to_json(self) -> dict:
        return {
            "combined": str(self.combined),
            "left": str(self.left),
            "right": str(self.right),
            "holds": self.holds,
        }


def check_superadditivity(
    k1: RationalLike,
    m1: RationalLike,
    pi1: Permutation,
    k2: RationalLike,
    m2: RationalLike,
    pi2: Permutation,
    chi: CharacterSpec,
) -> SuperadditivityReport:
    """gmf(A+B) >= gmf(A) + gmf(B) for two positive semidefinite layers.

    A = k1*I + m1*P_pi1 and B = k2*I + m2*P_pi2; the sum is a three-term
    matrix, evaluated by the naive route over S_n; the parts use the
    fast route.  All values are exact rationals.
    """
    n = common_degree(pi1, pi2)
    _require_psd_pair(k1, m1, pi1)
    _require_psd_pair(k2, m2, pi2)
    ident = Permutation.identity(n)
    group = SymmetricGroup(n)
    total_matrix = mat_add(
        linear_sum(gauss(k1), gauss(m1), ident, pi1),
        linear_sum(gauss(k2), gauss(m2), ident, pi2),
    )
    combined = gmf_naive(total_matrix, group, chi).value
    left = gmf_linear_sum(gauss(k1), gauss(m1), ident, pi1, group, chi).value
    right = gmf_linear_sum(gauss(k2), gauss(m2), ident, pi2, group, chi).value
    for v in (combined, left, right):
        if not v.is_real():
            raise PermfuncError("superadditivity check produced a non-real value")
    return SuperadditivityReport(combined.re, left.re, right.re, combined.re >= left.re + right.re)


# the largest degree whose n^n dimensional tensor space tensor_oracle builds
TENSOR_MAX_DEGREE = 4


def tensor_oracle(
    a: GaussianRational,
    b: GaussianRational,
    theta: Permutation,
    tau: Permutation,
    group: GroupSpec,
    chi: CharacterSpec,
) -> GaussianRational:
    """Evaluate the linear sum through the tensor-space symmetrizer.

    Applies T = sum_{sigma in G} chi(sigma) P(sigma) on the n^n
    dimensional tensor power, with P(sigma) permuting slots, to
    x = e_1 x ... x e_n and to y = the columns of a*P_theta + b*P_tau,
    and returns <Tx, Ty> / |G|.

    That quotient equals the generalized matrix function whenever chi
    splits into distinct linear characters of G (so in particular for
    every linear chi); for chi irreducible on G it equals
    d_chi(A)/chi(1).  Scalars are kept real so the result does not
    depend on a conjugation convention.
    """
    n = theta.degree
    if n > TENSOR_MAX_DEGREE:
        raise ValueError(f"tensor space would have dimension {n}^{n}; max is {TENSOR_MAX_DEGREE}")
    if not (a.is_real() and b.is_real()):
        raise ExactnessError("tensor oracle is restricted to real coefficients")
    if group.degree != n:
        raise DegreeMismatchError(f"permutation degree {n}, group degree {group.degree}")
    chi.check_domain(group)
    entries = linear_sum(a, b, theta, tau).entries

    # T x for x = e_1 x ... x e_n has one basis vector per group element;
    # T y for y = y_1 x ... x y_n with (y_j)_i = A[i][j].
    tx: dict[tuple[int, ...], GaussianRational] = {}
    ty: dict[tuple[int, ...], GaussianRational] = {}
    for images in group._generate():
        weight = chi.evaluate(images)
        key = images_inverse(images)
        tx[key] = tx.get(key, ZERO) + weight
        if weight.is_zero():
            continue
        for key in itertools.product(range(1, n + 1), repeat=n):
            coeff = weight
            for j in range(1, n + 1):
                coeff = coeff * entries[key[images[j - 1] - 1] - 1][j - 1]
                if coeff.is_zero():
                    break
            if coeff.is_zero():
                continue
            ty[key] = ty.get(key, ZERO) + coeff

    pairing = ZERO
    for key, left in tx.items():
        right = ty.get(key)
        if right is not None:
            pairing = pairing + left * right.conjugate()
    return pairing / gauss(group.order())


@record
class TermCounts:
    naive: int
    formula: int
    cauchy_binet: int

    def to_json(self) -> dict:
        return {
            "naive": self.naive,
            "formula": self.formula,
            "cauchy-binet": self.cauchy_binet,
        }


def term_counts(theta: Permutation, tau: Permutation, group: GroupSpec) -> TermCounts:
    """Summand counts of the three evaluation routes for one instance."""
    # unit coefficients give every mixture a nonzero entry product, so the
    # term count is the number of in-group mixtures
    in_group = gmf_linear_sum(ONE, ONE, theta, tau, group, TrivialCharacter()).term_count
    n = theta.degree
    return TermCounts(group.order(), in_group, comb(2 * n, n))
