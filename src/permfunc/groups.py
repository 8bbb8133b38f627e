"""Symbolic subgroups of the symmetric group on [n].

Each variant answers membership of an image tuple, knows its order,
yields its members and a generating set as image tuples
(generating_images), says which Young subgroup it is, if any (young),
and labels its orbits when it has two or more (orbits).  None
enumerates its elements to test membership or to find its order: a
generated subgroup builds a base and strong generating set when it is
made and reads both from it.
enumerate_group lists the members only when the order is within the
enumeration cap (10!), which it checks through perm.check_work;
order_text names an order in such a refusal.  The engine's routes check
their own work instead of the order.
"""

from __future__ import annotations

import itertools
import re as _re
from math import factorial, prod

from . import perm
from ._record import record
from .errors import DegreeMismatchError, ParseError
from .perm import (
    Permutation,
    _list_items,
    check_points,
    disjoint_cycles,
    images_sign,
    orbit_labels,
    parse_degree,
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

    def young(self) -> tuple[tuple[int, ...], bool] | None:
        """(labels, even) when the group is the product of the symmetric groups on
        some blocks of points, or with ``even`` its even part; labels[x] is the least
        point of the block of x (labels[0] = 0, as perm.orbit_labels).  Else None."""
        return None

    def orbits(self) -> tuple[int, ...] | None:
        """Labels as young()'s of two or more orbits that every member keeps
        each point in; None for one orbit, or when the group promises
        nothing.  By default the blocks of a Young subgroup."""
        young = self.young()
        return young and _several(young[0])

    def order(self) -> int:
        return _young_order(*self.young())

    def _generate(self):
        """The members' image tuples, lazily, in no particular order."""
        raise NotImplementedError

    def generating_images(self):
        """Image tuples that generate the group: its generators for cyclic: and
        gens:, else all its members (_generate)."""
        return self._generate()


@record
class _OfDegree(GroupSpec):
    """Base of the variants whose first field is their degree n."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("degree must be positive")

    @property
    def degree(self) -> int:
        return self.n


@record
class SymmetricGroup(_OfDegree):
    def contains_images(self, images: tuple[int, ...]) -> bool:
        return True

    def young(self):
        return (0, *[1] * self.n), False

    def _generate(self):
        return itertools.permutations(range(1, self.n + 1))

    def __str__(self):
        return f"S{self.n}"


@record
class AlternatingGroup(_OfDegree):
    def contains_images(self, images: tuple[int, ...]) -> bool:
        return images_sign(images) == 1

    def young(self):
        return (0, *[1] * self.n), True

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
        labels = orbit_labels(self.degree, [self.generator.images])
        object.__setattr__(self, "_orbits", _several(labels))
        # <g> reaches the order of the Young subgroup of its orbits (of its even
        # part for an even g) only for g = id, (a b), (a b c) and (a b)(c d)
        young = None
        if sorted(map(len, self._cycles.cycles)) in ([], [2], [3], [2, 2]):
            young = labels, self.generator.sign() == 1
        object.__setattr__(self, "_young", young)

    @property
    def degree(self) -> int:
        return self.generator.degree

    def contains_images(self, images: tuple[int, ...]) -> bool:
        return power_exponent(self._cycles, images) is not None

    def young(self):
        return self._young

    def orbits(self):
        return self._orbits

    def order(self) -> int:
        return self.generator.order()

    def generating_images(self):
        return (self.generator.images,)

    def _generate(self):
        step = self.generator.images
        power = tuple(range(1, self.degree + 1))
        for _ in range(self.order()):
            yield power
            power = tuple(step[v - 1] for v in power)

    def __str__(self):
        return f"cyclic:{self.generator}@{self.degree}"


@record
class PointwiseStabilizer(_OfDegree):
    """All permutations fixing every point of a given set."""

    points: frozenset[int]

    def __post_init__(self):
        super().__post_init__()
        if not all(1 <= p <= self.n for p in self.points):
            raise ValueError(f"stabilized points must lie in [1..{self.n}]")

    def contains_images(self, images: tuple[int, ...]) -> bool:
        return all(images[p - 1] == p for p in self.points)

    def young(self):
        # each stabilized point is a block of its own, the free points one block
        labels = [next((p for p in range(1, self.n + 1) if p not in self.points), 0)] * (self.n + 1)
        for p in (0, *self.points):
            labels[p] = p
        return tuple(labels), False

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
class GeneratedSubgroup(_OfDegree):
    """The subgroup generated by a list of permutations.

    A base and strong generating set is built once, when the instance is
    made (_StabilizerChain).  The order is the product of the basic orbit
    lengths and enumeration walks the basic transversals; no closure is
    built.  A member keeps every point in its orbit (orbits).  When the order
    reaches the bound set by the generators' orbits and parity, the group
    is the product of the symmetric groups on its orbits (its even part
    when every generator is even): that is its young() answer, and the
    orbits and the parity decide membership; otherwise the image tuple is
    sifted through the transversals.
    """

    generators: tuple[Permutation, ...]

    def __post_init__(self):
        super().__post_init__()
        for g in self.generators:
            if g.degree != self.n:
                raise DegreeMismatchError(
                    f"generator degree {g.degree} != group degree {self.n}"
                )
        # the group lies in the Young subgroup of its orbits, in its even part
        # when every generator is even, and is all of it when it is as large
        labels = orbit_labels(self.n, [g.images for g in self.generators])
        young = labels, all(g.sign() == 1 for g in self.generators)
        bound = _young_order(*young)
        chain = _StabilizerChain.of(self.n, self.generators, bound)
        object.__setattr__(self, "_order", chain.order())
        object.__setattr__(self, "_chain", chain)
        object.__setattr__(self, "_young", young if self._order == bound else None)
        object.__setattr__(self, "_labels", _several(labels))

    def contains_images(self, images: tuple[int, ...]) -> bool:
        # a member keeps every point in its orbit
        labels = self._labels
        if labels is not None and tuple(map(labels.__getitem__, images)) != labels[1:]:
            return False
        if self._young is None:
            return self._chain.sifts(images)
        return not self._young[1] or images_sign(images) == 1

    def young(self):
        return self._young

    def orbits(self):
        return self._labels

    def order(self) -> int:
        return self._order

    def _generate(self):
        return self._chain.elements()

    def generating_images(self):
        return tuple(g.images for g in self.generators)

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


def _several(labels: tuple[int, ...]) -> tuple[int, ...] | None:
    """``labels`` when some point lies outside the orbit of 1, else None (one orbit)."""
    return labels if labels.count(1) < len(labels) - 1 else None


def _young_order(labels: tuple[int, ...], even: bool) -> int:
    """The order of the Young subgroup (labels, even): prod |block|!, halved when even."""
    sizes = [0] * len(labels)
    for block in labels[1:]:
        sizes[block] += 1
    size = prod(map(factorial, sizes))
    return max(1, size // 2) if even else size


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


def order_text(spec: GroupSpec, order: int) -> str:
    """How a refusal names the order of ``spec``: in digits, or by the group
    past 13000 bits (about 3900 digits), as Python turns no integer of more
    than 4300 digits into text."""
    return f"group order {order if order.bit_length() <= 13000 else f'of {spec}'}"


def enumerate_group(spec: GroupSpec) -> tuple[Permutation, ...]:
    """All elements of the subgroup, sorted by image sequence.

    Raises CapacityError when the group order exceeds the enumeration cap,
    before any enumeration (perm.check_work).
    """
    order = spec.order()
    perm.check_work(order_text(spec, order), order)
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
        body = s.rpartition("@")[0]
        degree = parse_degree(text, text.rindex("@") + 1, f"bad degree suffix in {text!r}")
    if degree is None:
        raise ParseError(f"group {text!r} needs an @n suffix or an explicit degree")
    if degree < 1:
        raise ParseError("degree must be positive")
    # the generators' columns count from the start of text
    lead = len(text) - len(text.lstrip())
    end = lead + len(body)
    if body.startswith("cyclic:"):
        if not body[len("cyclic:") :].strip():
            raise ParseError(f"no generator in {text!r}")
        return CyclicGroup(parse_permutation(text, degree, lead + len("cyclic:"), end))
    if body.startswith("stab:"):
        # "stab:@n" stabilizes no point, the whole S_n
        start = lead + len("stab:")
        message = f"bad stabilizer points in {text!r}"
        points = parse_ints(text, start, end, message)
        check_points(text, start, end, message, degree)
        return PointwiseStabilizer(degree, frozenset(points))
    if body.startswith("gens:"):
        start, gens = lead + len("gens:"), []
        for token in _list_items(text[start:end], _GENERATOR_SEP, text):
            gens.append(parse_permutation(text, degree, start, start + len(token)))
            start += len(token) + 1  # and the comma
        if not gens:
            raise ParseError(f"no generators in {text!r}")
        return GeneratedSubgroup(degree, tuple(gens))
    raise ParseError(f"unrecognized group spec: {text!r}")
