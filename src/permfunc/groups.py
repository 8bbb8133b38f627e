"""Symbolic subgroups of the symmetric group on [n].

Each variant answers membership of an image tuple, knows its order and
yields its members as image tuples.  None enumerates its elements to
test membership or to find its order: a generated subgroup builds a
base and strong generating set when it is made and reads both from it.
checked_order refuses an order over the enumeration cap (10!), and
enumerate_group lists the members only under it.
"""

from __future__ import annotations

import itertools
import re as _re
from collections import Counter
from math import factorial, prod

from . import perm
from ._record import record
from .errors import CapacityError, DegreeMismatchError, ParseError
from .perm import (
    Permutation,
    _list_items,
    disjoint_cycles,
    images_sign,
    orbit_labels,
    parse_int,
    parse_ints,
    parse_permutation,
    power_exponent,
)


@record
class GroupSpec:
    """Base class; concrete variants implement membership and enumeration
    on image tuples (images[i-1] = sigma(i))."""

    @property
    def degree(self) -> int:
        raise NotImplementedError

    def contains(self, sigma: Permutation) -> bool:
        if sigma.degree != self.degree:
            raise DegreeMismatchError(
                f"group degree {self.degree}, permutation degree {sigma.degree}"
            )
        return self.contains_images(sigma.images)

    def contains_images(self, images: tuple[int, ...]) -> bool:
        """Membership of the permutation with these images, of the group's degree."""
        raise NotImplementedError

    def order(self) -> int:
        raise NotImplementedError

    def _generate(self):
        """The members' image tuples, lazily, in no particular order."""
        raise NotImplementedError


@record
class SymmetricGroup(GroupSpec):
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("degree must be positive")

    @property
    def degree(self) -> int:
        return self.n

    def contains_images(self, images: tuple[int, ...]) -> bool:
        return True

    def order(self) -> int:
        return factorial(self.n)

    def _generate(self):
        return itertools.permutations(range(1, self.n + 1))

    def __str__(self):
        return f"S{self.n}"


@record
class AlternatingGroup(GroupSpec):
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("degree must be positive")

    @property
    def degree(self) -> int:
        return self.n

    def contains_images(self, images: tuple[int, ...]) -> bool:
        return images_sign(images) == 1

    def order(self) -> int:
        return max(1, factorial(self.n) // 2)

    def _generate(self):
        return filter(self.contains_images, itertools.permutations(range(1, self.n + 1)))

    def __str__(self):
        return f"A{self.n}"


@record
class CyclicGroup(GroupSpec):
    generator: Permutation

    def __post_init__(self):
        # membership solves for the exponent on these cycles, in O(n)
        object.__setattr__(self, "_cycles", disjoint_cycles(self.generator))

    @property
    def degree(self) -> int:
        return self.generator.degree

    def contains_images(self, images: tuple[int, ...]) -> bool:
        return power_exponent(self._cycles, images) is not None

    def order(self) -> int:
        return self.generator.order()

    def _generate(self):
        step = self.generator.images
        power = tuple(range(1, self.degree + 1))
        for _ in range(self.order()):
            yield power
            power = tuple(step[v - 1] for v in power)

    def __str__(self):
        return f"cyclic:{self.generator}@{self.degree}"


@record
class PointwiseStabilizer(GroupSpec):
    """All permutations fixing every point of a given set."""

    n: int
    points: frozenset[int]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("degree must be positive")
        if not all(1 <= p <= self.n for p in self.points):
            raise ValueError(f"stabilized points must lie in [1..{self.n}]")

    @property
    def degree(self) -> int:
        return self.n

    def contains_images(self, images: tuple[int, ...]) -> bool:
        return all(images[p - 1] == p for p in self.points)

    def order(self) -> int:
        return factorial(self.n - len(self.points))

    def _generate(self):
        free = sorted(set(range(1, self.n + 1)) - self.points)
        images = list(range(1, self.n + 1))
        for arrangement in itertools.permutations(free):
            for src, dst in zip(free, arrangement):
                images[src - 1] = dst
            yield tuple(images)

    def __str__(self):
        return f"stab:{','.join(map(str, sorted(self.points)))}@{self.n}"


@record
class GeneratedSubgroup(GroupSpec):
    """The subgroup generated by a list of permutations.

    A base and strong generating set is built once, when the instance is
    made (_StabilizerChain).  The order is the product of the basic orbit
    lengths and enumeration walks the basic transversals; no closure is
    built.  A member keeps every point in its orbit.  When the order
    reaches the bound set by the generators' orbits and parity, the group
    is the product of the symmetric groups on its orbits (its even part
    when every generator is even), so the orbits and the parity decide
    membership; otherwise the image tuple is sifted through the
    transversals.
    """

    n: int
    generators: tuple[Permutation, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("degree must be positive")
        for g in self.generators:
            if g.degree != self.n:
                raise DegreeMismatchError(
                    f"generator degree {g.degree} != group degree {self.n}"
                )
        labels, bound, even = _orbit_bound(self.n, self.generators)
        chain = _StabilizerChain.of(self.n, self.generators, bound)
        order = chain.order()
        object.__setattr__(self, "_order", order)
        object.__setattr__(self, "_chain", chain)
        # a group whose order reaches the bound is all of it: the orbits and
        # the parity decide membership, which otherwise sifts
        object.__setattr__(self, "_sift", order < bound)
        object.__setattr__(self, "_labels", labels if len(set(labels[1:])) > 1 else None)
        object.__setattr__(self, "_even", even)

    @property
    def degree(self) -> int:
        return self.n

    def contains_images(self, images: tuple[int, ...]) -> bool:
        # a member keeps every point in its orbit
        labels = self._labels
        if labels is not None and tuple(map(labels.__getitem__, images)) != labels[1:]:
            return False
        if self._sift:
            return self._chain.sifts(images)
        return not self._even or images_sign(images) == 1

    def order(self) -> int:
        return self._order

    def _generate(self):
        return self._chain.elements()

    def transversal_generators(self) -> tuple[tuple[int, ...], ...]:
        """The image tuples of a generating set: the chain's transversal
        elements other than the identity, at most n(n-1)/2 of them."""
        identity = self._chain.identity
        return tuple(
            v[1:] for table in self._chain.transversals for v in table.values() if v != identity
        )

    def __str__(self):
        gens = ",".join(str(g) for g in self.generators)
        return f"gens:{gens}@{self.n}"


def _orbit_bound(n: int, generators) -> tuple[tuple[int, ...], int, bool]:
    """Orbit labels, the order bound and the parity flag of a generator list.

    labels[x] is the least point of the orbit of x (labels[0] = 0).  The
    group lies in the product of the symmetric groups on its orbits, and
    in A_n too when every generator is even, so its order is at most
    prod |O|!, halved in that case when some orbit has two or more points.
    """
    labels = orbit_labels(n, [g.images for g in generators])
    bound = 1
    for size in Counter(labels[1:]).values():
        bound *= factorial(size)
    even = bound > 1 and all(g.sign() == 1 for g in generators)
    return labels, bound // 2 if even else bound, even


def _compose(p: tuple, q: tuple) -> tuple:
    """p*q on padded image tuples (index 0 maps to 0): (p*q)[x] = p[q[x]]."""
    return tuple(map(p.__getitem__, q))


def _inverse(p: tuple) -> tuple:
    inv = [0] * len(p)
    for x, y in enumerate(p):
        inv[y] = x
    return tuple(inv)


# product replacement: the slots it multiplies, the steps before the first
# random element is used, and the run of random elements that sift to the
# identity after which the Schreier generators are checked instead
_RANDOM_SLOTS = 10
_RANDOM_WARMUP = 20
_RANDOM_MISSES = 16


class _StabilizerChain:
    """A base and strong generating set (Sims 1970; Seress, *Permutation
    Group Algorithms*, 2003).

    Level i holds a base point b_i, the strong generators that fix
    b_1..b_(i-1), and the transversal of the orbit of b_i under them: a
    map from each orbit point y to the inverse of a member that carries
    b_i to y.  Permutations are image tuples padded with a leading 0, so
    p[x] is the image of the point x.
    """

    def __init__(self, n: int):
        self.identity = tuple(range(n + 1))
        self.base: list[int] = []
        self.strong: list[list[tuple[tuple, tuple]]] = []
        self.transversals: list[dict[int, tuple]] = []

    @classmethod
    def of(cls, n: int, generators, bound: int) -> "_StabilizerChain":
        """The chain for the group the generators generate; ``bound`` is an
        upper bound on its order.

        A seeded random Schreier-Sims adds the residues of random members
        until the product of the basic orbit lengths reaches ``bound``,
        which proves the chain complete because that product cannot exceed
        the order.  When a run of random members sifts to the identity
        first, the deterministic Schreier test completes it.  Either way no
        answer rests on chance.
        """
        chain = cls(n)
        padded = [(0, *g.images) for g in generators]
        for g in padded:
            chain._absorb(g)
        if chain.order() < bound:
            misses = 0
            for g in _random_members(padded, chain.identity):
                if chain._absorb(g):
                    misses = 0
                elif misses == _RANDOM_MISSES:
                    break
                else:
                    misses += 1
                if chain.order() == bound:
                    break
            if chain.order() < bound:
                chain._schreier_test()
        # only the base and the transversals are needed from here on
        chain.strong = None
        return chain

    def order(self) -> int:
        return prod(len(t) for t in self.transversals)

    def sift(self, g: tuple, start: int = 0) -> tuple[tuple, int]:
        """The residue of g and the level where it left the chain (len(base) if none)."""
        for i in range(start, len(self.base)):
            v = self.transversals[i].get(g[self.base[i]])
            if v is None:
                return g, i
            g = _compose(v, g)
        return g, len(self.base)

    def sifts(self, images: tuple[int, ...]) -> bool:
        """Whether the unpadded image tuple sifts to the identity."""
        return self.sift((0, *images))[0] == self.identity

    def elements(self):
        """The members' unpadded image tuples, lazily, in a fixed order.

        A member is u_1*...*u_k with u_i a transversal element's inverse,
        so its inverse is v_k*...*v_1 with v_i in the stored transversals;
        those products run over the whole group once each.
        """
        levels = [tuple(t.values()) for t in self.transversals]

        def walk(i, prefix):
            if i == len(levels):
                yield prefix[1:]
                return
            for v in levels[i]:
                yield from walk(i + 1, _compose(v, prefix))

        return walk(0, self.identity)

    def _absorb(self, g: tuple) -> bool:
        """Sift g; add its residue as a strong generator of every level it
        fixes the base of.  Returns whether it was added."""
        h, level = self.sift(g)
        if h == self.identity:
            return False
        self._add(h, 0, level)
        return True

    def _add(self, h: tuple, first: int, last: int) -> None:
        """Add h, which fixes b_1..b_(last-1), to the levels first..last;
        a point it moves becomes a new base point when last == len(base)."""
        if last == len(self.base):
            point = next(x for x, y in enumerate(h) if x != y)
            self.base.append(point)
            self.strong.append([])
            self.transversals.append({point: self.identity})
        pair = (h, _inverse(h))
        for i in range(first, last + 1):
            self.strong[i].append(pair)
            self._grow(i, pair)

    def _grow(self, i: int, new: tuple[tuple, tuple]) -> None:
        """Extend level i's orbit, closed under its other generators, by ``new``."""
        table, gens = self.transversals[i], self.strong[i]
        s, s_inv = new
        queue = []
        for y, v in list(table.items()):
            if s[y] not in table:
                table[s[y]] = _compose(v, s_inv)
                queue.append(s[y])
        for y in queue:
            v = table[y]
            for s, s_inv in gens:
                if s[y] not in table:
                    table[s[y]] = _compose(v, s_inv)
                    queue.append(s[y])

    def _schreier_test(self) -> None:
        """Deterministic Schreier-Sims: from the last level up, sift every
        Schreier generator through the levels below; add a residue that is
        not the identity and start again at its level."""
        i = len(self.base) - 1
        while i >= 0:
            i = self._check_level(i)

    def _check_level(self, i: int) -> int:
        table = self.transversals[i]
        for y, v in list(table.items()):
            u = _inverse(v)
            for s, _ in self.strong[i]:
                # u carries b_i to y, s then y to s(y), and table[s(y)] back to b_i
                h, level = self.sift(_compose(table[s[y]], _compose(s, u)), i + 1)
                if h != self.identity:
                    self._add(h, i + 1, level)
                    return level
        return i - 1


def _random_members(padded, identity):
    """An endless seeded stream of random members, by product replacement
    (Celler et al. 1995) with an accumulator."""
    import random

    rng = random.Random(0)
    size = max(_RANDOM_SLOTS, len(padded))
    slots = [padded[k % len(padded)] for k in range(size)]
    acc = identity
    for step in itertools.count():
        i, j = rng.sample(range(size), 2)
        slots[i] = _compose(slots[i], slots[j]) if rng.random() < 0.5 else _compose(slots[j], slots[i])
        acc = _compose(acc, slots[i])
        if step >= _RANDOM_WARMUP:
            yield acc


def checked_order(spec: GroupSpec) -> int:
    """The group order; raises CapacityError when it exceeds the enumeration cap.

    Every variant knows its order without building an element (a
    generated subgroup from its base and strong generating set), so the
    cap bounds enumeration only and fails before any element is built.
    """
    order, cap = spec.order(), perm.DEFAULT_ENUMERATION_CAP
    if order > cap:
        # Python turns no integer of more than 4300 digits into text, so an
        # order of more than 13000 bits (about 3900 digits) is named by its group
        shown = order if order.bit_length() <= 13000 else f"of {spec}"
        raise CapacityError(f"group order {shown} exceeds cap {cap}")
    return order


def enumerate_group(spec: GroupSpec) -> tuple[Permutation, ...]:
    """All elements of the subgroup, sorted by image sequence.

    Raises CapacityError when the group order exceeds the enumeration cap,
    before any enumeration.
    """
    checked_order(spec)
    return tuple(map(Permutation, sorted(spec._generate())))


_SYM_RE = _re.compile(r"^([SA])([0-9]+)$")

# a comma outside parentheses: "(1,2),(1 2 3)" splits into two cycles
_GENERATOR_SEP = _re.compile(r",(?![^(]*\))")


def parse_group(text: str, default_degree: int | None = None) -> GroupSpec:
    """Parse "S6", "A6", "cyclic:(1 2 3 4)", "stab:1,3,5@6", "gens:(1 2),(1 2 3)@3".

    An "@n" suffix fixes the degree; otherwise ``default_degree`` is used
    for the variants that need one.
    """
    s = text.strip()
    m = _SYM_RE.match(s)
    if m:
        n = int(m.group(2))
        if n < 1:
            raise ParseError(f"group degree must be positive in {text!r}")
        return SymmetricGroup(n) if m.group(1) == "S" else AlternatingGroup(n)
    body = s
    degree = default_degree
    if "@" in s:
        body, _, suffix = s.rpartition("@")
        try:
            degree = parse_int(suffix)
        except ValueError as exc:
            raise ParseError(f"bad degree suffix in {text!r}") from exc
    if degree is None:
        raise ParseError(f"group {text!r} needs an @n suffix or an explicit degree")
    if body.startswith("cyclic:"):
        generator = body[len("cyclic:") :]
        if not generator.strip():
            raise ParseError(f"no generator in {text!r}")
        return CyclicGroup(parse_permutation(generator, degree))
    if body.startswith("stab:"):
        # "stab:@n" stabilizes no point, the whole S_n
        lead = len(text) - len(text.lstrip())
        points = parse_ints(text, lead + len("stab:"), lead + len(body),
                            f"bad stabilizer points in {text!r}")
        repeated = [p for k, p in enumerate(points) if p in points[:k]]
        if repeated:
            raise ParseError(f"stabilizer point {repeated[0]} repeated in {text!r}")
        try:
            return PointwiseStabilizer(degree, frozenset(points))
        except ValueError as exc:
            raise ParseError(str(exc)) from exc
    if body.startswith("gens:"):
        gens = tuple(
            parse_permutation(tok, degree)
            for tok in _list_items(body[len("gens:") :], _GENERATOR_SEP, text)
        )
        if not gens:
            raise ParseError(f"no generators in {text!r}")
        return GeneratedSubgroup(degree, gens)
    raise ParseError(f"unrecognized group spec: {text!r}")
