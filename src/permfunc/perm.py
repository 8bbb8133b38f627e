"""Exact permutation algebra on the point set {1, ..., n}.

Permutations are immutable; interfaces are 1-based to match the usual
cycle notation "(1 5 3)(2 6)".  The module also walks, for a pair
(theta, tau), the set of all permutations that agree pointwise with one
of the two; that set has exactly 2^r elements, one per subset of the
disjoint cycles of theta^-1 * tau.  The same walk, weighed by one factor
per cycle, drives the fast evaluation of generalized matrix functions.
"""

from __future__ import annotations

import re as _re
from math import factorial, gcd, inf, lcm

from ._record import record
from .errors import CapacityError, DegreeMismatchError, DisjointnessError, ParseError

# The most elements any enumeration (a group, or the mixtures of a pair) may visit.
DEFAULT_ENUMERATION_CAP = factorial(10)


@record
class Permutation:
    """A bijection on [n]; images[i-1] = sigma(i)."""

    images: tuple[int, ...]

    def __post_init__(self):
        n = len(self.images)
        if not n:
            raise ValueError("degree must be positive")
        if sorted(self.images) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of [1..{n}]: {self.images}")

    @property
    def degree(self) -> int:
        return len(self.images)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        if n < 1:
            raise ValueError("degree must be positive")
        return cls(tuple(range(1, n + 1)))

    @classmethod
    def from_cycles(cls, n: int, cycles) -> "Permutation":
        """Build from disjoint cycles given as sequences of 1-based points."""
        images = list(range(1, n + 1))
        seen = set()
        for cycle in cycles:
            for k, p in enumerate(cycle):
                if not 1 <= p <= n:
                    raise ValueError(f"point {p} outside [1..{n}]")
                if p in seen:
                    where = "within its cycle" if p in cycle[:k] else "across cycles"
                    raise ValueError(f"point {p} repeated {where}")
                seen.add(p)
            for i, p in enumerate(cycle):
                images[p - 1] = cycle[(i + 1) % len(cycle)]
        return cls(tuple(images))

    def __call__(self, point: int) -> int:
        if not 1 <= point <= self.degree:
            raise ValueError(f"point {point} outside [1..{self.degree}]")
        return self.images[point - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        return compose(self, other)

    def inverse(self) -> "Permutation":
        return Permutation(images_inverse(self.images))

    def is_identity(self) -> bool:
        return all(v == i + 1 for i, v in enumerate(self.images))

    def is_involution(self) -> bool:
        return all(self.images[v - 1] == i + 1 for i, v in enumerate(self.images))

    def fixed_points(self) -> frozenset[int]:
        return frozenset(i + 1 for i, v in enumerate(self.images) if v == i + 1)

    def support(self) -> frozenset[int]:
        return frozenset(i + 1 for i, v in enumerate(self.images) if v != i + 1)

    def sign(self) -> int:
        return images_sign(self.images)

    def order(self) -> int:
        return lcm(*images_cycle_type(self.images))

    def __str__(self) -> str:
        return format_permutation(self)


@record
class CycleDecomposition:
    """Canonical disjoint cycles (length >= 2) plus the fixed points.

    Each cycle starts at its minimal point; cycles are sorted by that
    minimum, so the decomposition is a canonical form.
    """

    degree: int
    cycles: tuple[tuple[int, ...], ...]
    fixed_points: frozenset[int]

    def to_permutation(self) -> Permutation:
        return Permutation.from_cycles(self.degree, self.cycles)


@record
class CycleStructure:
    """Multiset of nontrivial cycle lengths plus the fixed-point count."""

    lengths: tuple[int, ...]  # sorted descending, each >= 2
    fixed_count: int

    @property
    def degree(self) -> int:
        return sum(self.lengths) + self.fixed_count

    def full_type(self) -> tuple[int, ...]:
        """All cycle lengths including fixed points as 1s, sorted descending."""
        return self.lengths + (1,) * self.fixed_count


def images_sign(images: tuple[int, ...]) -> int:
    """The sign of the permutation with these images: the parity of n minus its cycle count."""
    return -1 if (len(images) - len(images_cycle_type(images))) % 2 else 1


def images_cycle_type(images) -> tuple[int, ...]:
    """Every cycle length of the permutation with these images, 1s included,
    in descending order (``CycleStructure.full_type``)."""
    seen = [False] * (len(images) + 1)
    lengths = []
    for start in range(1, len(images) + 1):
        if seen[start]:
            continue
        length, point = 0, start
        while not seen[point]:
            seen[point] = True
            point = images[point - 1]
            length += 1
        lengths.append(length)
    lengths.sort(reverse=True)
    return tuple(lengths)


def images_inverse(images) -> tuple[int, ...]:
    """The images of the inverse of the permutation with these images."""
    inv = [0] * len(images)
    for i, v in enumerate(images, 1):
        inv[v - 1] = i
    return tuple(inv)


def common_degree(p: Permutation, q: Permutation) -> int:
    """The degree of p and q; DegreeMismatchError when they differ."""
    if p.degree != q.degree:
        raise DegreeMismatchError(f"degrees differ: {p.degree} vs {q.degree}")
    return p.degree


def compose(p: Permutation, q: Permutation) -> Permutation:
    """(p*q)(i) = p(q(i))."""
    common_degree(p, q)
    pi = p.images
    return Permutation(tuple(pi[v - 1] for v in q.images))


def inverse(p: Permutation) -> Permutation:
    return p.inverse()


def disjoint_cycles(p: Permutation) -> CycleDecomposition:
    """Canonical disjoint-cycle decomposition of p."""
    return images_cycles(p.images)


def images_cycles(images) -> CycleDecomposition:
    """Canonical disjoint-cycle decomposition of the permutation with these images."""
    n = len(images)
    seen = [False] * (n + 1)
    cycles = []
    fixed = []
    for start in range(1, n + 1):
        if seen[start]:
            continue
        cycle = []
        point = start
        while not seen[point]:
            seen[point] = True
            cycle.append(point)
            point = images[point - 1]
        if len(cycle) == 1:
            fixed.append(start)
        else:
            cycles.append(tuple(cycle))
    return CycleDecomposition(n, tuple(cycles), frozenset(fixed))


def pair_cycles(alpha, beta) -> CycleDecomposition:
    """Canonical disjoint-cycle decomposition of alpha^-1*beta, for image tuples alpha and beta."""
    inverse = images_inverse(alpha)
    return images_cycles([inverse[y - 1] for y in beta])


def orbit_labels(n: int, generators) -> tuple[int, ...]:
    """Each point of [n] labelled by the least point of its orbit under the
    image tuples ``generators``: labels[x] for the point x, labels[0] = 0."""
    labels = [0] * (n + 1)
    for start in range(1, n + 1):
        if labels[start]:
            continue
        labels[start] = start
        queue = [start]
        for x in queue:
            for g in generators:
                y = g[x - 1]
                if not labels[y]:
                    labels[y] = start
                    queue.append(y)
    return tuple(labels)


def power_exponent(dec: CycleDecomposition, images: tuple[int, ...]) -> int | None:
    """The least k >= 0 with g^k = sigma, where ``dec`` decomposes g and
    ``images`` are sigma's images; None if there is none.

    sigma is a power of g exactly when it fixes the fixed points of g and
    turns each cycle of g by a single shift s_c.  Then k solves
    k = s_c (mod len(c)) for every cycle, and the congruences are merged
    one cycle at a time, in O(n) overall.
    """
    if len(images) != dec.degree or any(images[p - 1] != p for p in dec.fixed_points):
        return None
    k, modulus = 0, 1
    for cycle in dec.cycles:
        moved = tuple(images[p - 1] for p in cycle)
        if moved[0] not in cycle:
            return None
        shift = cycle.index(moved[0])
        if moved != cycle[shift:] + cycle[:shift]:
            return None
        # k + modulus*t = shift (mod len(cycle)) is solvable iff step divides shift - k
        length = len(cycle)
        step = gcd(modulus, length)
        if (shift - k) % step:
            return None
        t = (shift - k) // step * pow(modulus // step, -1, length // step)
        k = (k + modulus * t) % (modulus * length // step)
        modulus = modulus * length // step
    return k


def cycle_structure(p: Permutation) -> CycleStructure:
    full = images_cycle_type(p.images)
    fixed = full.count(1)
    return CycleStructure(full[: len(full) - fixed], fixed)


def mixtures(theta: Permutation, tau: Permutation):
    """Lazily yield every sigma with sigma(i) in {theta(i), tau(i)} for every i.

    They are exactly theta times a product of any subset of the disjoint
    cycles of theta^-1*tau.  Element k takes cycle j of the canonically
    ordered cycle list exactly when bit j of k is set, so element 0 is
    theta and the last element is tau.  Raises CapacityError, before
    anything is built, when the 2^r elements exceed the enumeration cap.
    """
    common_degree(theta, tau)
    cycles = pair_cycles(theta.images, tau.images).cycles
    unit = ((1, 0), (1, 0))
    walk = walk_mixtures(theta.images, tau.images, cycles, [unit] * len(cycles))
    return (Permutation(tuple(images)) for images, _, _ in walk)


def walk_mixtures(alpha, beta, cycles, factors):
    """Walk the mixtures of alpha and beta, yielding (images, re, im) for each.

    ``alpha`` and ``beta`` are image sequences and ``cycles`` the cycles
    of alpha^-1*beta (1-based), each with an (a_c, b_c) pair of Gaussian
    integers (re, im) in ``factors``.  A mixture takes each cycle's images
    from alpha for a_c or from beta for b_c, and weighs the product.  The
    walk is depth first, the last cycle outermost and alpha first, so the
    k-th mixture takes cycle j from beta exactly when bit j of k is set,
    except that an option whose factor is zero is never entered.  Every
    yield hands out the same list, set to the mixture's images.  Raises
    CapacityError, before any walking, when 2^k exceeds the cap, k the
    cycles whose two factors are both nonzero: the walk branches on those
    alone, so it enters at most 2^k mixtures.
    """
    check_walk(sum(1 for a_c, b_c in factors if any(a_c) and any(b_c)))
    # beta before alpha: _depth_first pushes both, so it takes alpha first
    choices = [
        ([p - 1 for p in cycle], ((beta, b_c), (alpha, a_c)))
        for cycle, (a_c, b_c) in zip(cycles, factors)
    ]
    return _depth_first(list(alpha), choices)


def check_walk(r: int, work=inf) -> bool:
    """Refuse a walk of 2^r mixtures over the enumeration cap with
    CapacityError, unless ``work``, the cost of another way to the same
    sum, is within the cap; return whether it is."""
    fits = work <= DEFAULT_ENUMERATION_CAP
    if 1 << r > DEFAULT_ENUMERATION_CAP and not fits:
        raise CapacityError(f"walk of 2^{r} mixtures exceeds cap {DEFAULT_ENUMERATION_CAP}")
    return fits


def _depth_first(images, choices):
    # a node: (cycles left to choose, the points it sets, their source, its weight)
    stack = [(len(choices), (), None, 1, 0)]
    while stack:
        j, points, source, re, im = stack.pop()
        for p in points:
            images[p] = source[p]
        if not j:
            yield images, re, im
            continue
        points, options = choices[j - 1]
        for source, (fr, fi) in options:
            if fr or fi:
                stack.append((j - 1, points, source, re * fr - im * fi, re * fi + im * fr))


def shift_embed(f: Permutation, x: int, y: int) -> dict[int, int]:
    """Partial map sending x+i to y+f(i) for i in [1..degree]."""
    if x < 0 or y < 0:
        raise ValueError("offsets must be nonnegative")
    return {x + i: y + f(i) for i in range(1, f.degree + 1)}


def disjoint_union(maps) -> Permutation:
    """Combine partial maps with disjoint domains into one permutation.

    Domains and codomains must each tile [1..N] exactly.
    """
    combined: dict[int, int] = {}
    for m in maps:
        for src, dst in m.items():
            if src in combined:
                raise DisjointnessError(f"domain point {src} covered twice")
            combined[src] = dst
    if not combined:
        raise ValueError("no maps given")
    n = len(combined)
    if set(combined) != set(range(1, n + 1)):
        raise DisjointnessError("domains do not tile [1..n]")
    if set(combined.values()) != set(range(1, n + 1)):
        raise DisjointnessError("codomains do not tile [1..n]")
    return Permutation(tuple(combined[i] for i in range(1, n + 1)))


_CYCLE_RE = _re.compile(r"\(([^()]*)\)")
_INTEGER_RE = _re.compile(r"-?[0-9]+")


def parse_int(token: str) -> int:
    """int(token) for ASCII digits only, with an optional minus sign and
    surrounding whitespace; ValueError for anything else int() takes,
    such as "1_0", "+3" or another script's digits."""
    if not _INTEGER_RE.fullmatch(token.strip()):
        raise ValueError(f"not an integer: {token!r}")
    return int(token)


def parse_ints(text: str, start: int, end: int, message: str, words: bool = False) -> list[int]:
    """The integers of the comma-separated list text[start:end], or with ``words`` of the
    words its items split into at blanks.  An empty item, or a token that is no integer,
    is a ParseError; the latter says ``message``, the token and its column in ``text``."""
    items = _list_items(text[start:end], ",", text)
    tokens = [w for item in items for w in item.split()] if words else [i.strip() for i in items]
    if all(map(_INTEGER_RE.fullmatch, tokens)):
        return list(map(int, tokens))
    # only an error needs columns, and only then is a pattern compiled
    token = _re.compile(r"[^\s,]+" if words else r"[^\s,](?:[^,]*[^\s,])?")
    bad = next(m for m in token.finditer(text, start, end) if not _INTEGER_RE.fullmatch(m[0]))
    raise ParseError(f"{message}: {bad[0]!r} at column {bad.start() + 1} is not an integer")


def check_points(text: str, start: int, end: int, message: str, degree: int) -> None:
    """A ParseError unless the integers of text[start:end] are distinct points of
    [1..degree]; it says ``message``, the first bad one and its column in ``text``."""
    seen = set()
    for m in _INTEGER_RE.finditer(text, start, end):
        point = int(m[0])
        if point in seen or not 1 <= point <= degree:
            problem = "repeated" if point in seen else f"outside [1..{degree}]"
            raise ParseError(f"{message}: point {point} {problem} at column {m.start() + 1}")
        seen.add(point)


def parse_degree(text: str, start: int, message: str) -> int:
    """The positive integer text[start:]; otherwise a ParseError saying
    ``message``, and for an integer below 1 the integer and its column."""
    try:
        degree = parse_int(text[start:])
    except ValueError:
        raise ParseError(message) from None
    if degree < 1:
        column = _INTEGER_RE.search(text, start).start() + 1
        raise ParseError(f"{message}: degree {degree} not positive at column {column}")
    return degree


def _list_items(listing: str, separator, text: str) -> list[str]:
    """The comma-separated items of ``listing``; none when it is blank.

    An empty item (a doubled, leading or trailing comma) is a ParseError
    that names ``text``.
    """
    if not listing.strip():
        return []
    items = _re.split(separator, listing)
    if not all(item.strip() for item in items):
        raise ParseError(f"empty list item in {text!r}")
    return items


def parse_permutation(
    text: str, degree: int, start: int = 0, end: int | None = None
) -> Permutation:
    """Parse cycle notation like "(1 5 3)(2 6)" in text[start:end]; "id" and "()" are
    the identity.  An error names ``text`` and gives its columns in ``text``.

    Blank text is a ParseError, not the identity.  A degree over the
    enumeration cap is a CapacityError, raised before anything is built.
    """
    end = len(text) if end is None else end
    s = text[start:end].strip()
    if degree < 1:
        raise ParseError("degree must be positive")
    if degree > DEFAULT_ENUMERATION_CAP:
        raise CapacityError(f"permutation degree {degree} exceeds cap {DEFAULT_ENUMERATION_CAP}")
    if not s:
        raise ParseError(f"blank permutation text {text!r}; write id for the identity")
    if s in ("id", "()"):
        return Permutation.identity(degree)
    pos = start
    cycles = []
    for m in _CYCLE_RE.finditer(text, start, end):
        if text[pos : m.start()].strip():
            raise ParseError(f"bad permutation text: {text!r}")
        cycle = parse_ints(text, m.start(1), m.end(1), f"bad cycle in {text!r}", words=True)
        if len(cycle) < 1:
            raise ParseError(f"empty cycle in {text!r}")
        cycles.append(cycle)
        pos = m.end()
    if text[pos:end].strip():
        raise ParseError(f"bad permutation text: {text!r}")
    check_points(text, start, end, f"bad cycle in {text!r}", degree)
    return Permutation.from_cycles(degree, cycles)


def format_permutation(p: Permutation) -> str:
    dec = disjoint_cycles(p)
    if not dec.cycles:
        return "id"
    return "".join("(" + " ".join(map(str, c)) + ")" for c in dec.cycles)
