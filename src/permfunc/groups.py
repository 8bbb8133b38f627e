"""Symbolic subgroups of the symmetric group on [n].

Membership tests never force an enumeration when the variant admits a
direct predicate; generated subgroups memoize their closure the first
time it is needed.  Enumeration is capped (10! by default); the naive
generalized-matrix-function oracle applies the same cap to the group
order.  For the trivial and sign characters on S_n, A_n and pointwise
stabilizers it needs neither membership nor enumeration: it sums by
column set and parity.  Elsewhere its work stays within |G|: it walks
the candidates with a nonzero entry product or the group's elements,
whichever set is smaller.
"""

from __future__ import annotations

import itertools
import re as _re
import threading
from dataclasses import dataclass
from math import factorial

from .errors import CapacityError, DegreeMismatchError, ParseError
from .perm import (
    DEFAULT_ENUMERATION_CAP,
    Permutation,
    _list_items,
    compose,
    disjoint_cycles,
    parse_permutation,
    power_exponent,
)


@dataclass(frozen=True)
class GroupSpec:
    """Base class; concrete variants implement the predicate and generator."""

    @property
    def degree(self) -> int:
        raise NotImplementedError

    def contains(self, sigma: Permutation) -> bool:
        if sigma.degree != self.degree:
            raise DegreeMismatchError(
                f"group degree {self.degree}, permutation degree {sigma.degree}"
            )
        return self._contains(sigma)

    def _contains(self, sigma: Permutation) -> bool:
        raise NotImplementedError

    def order(self) -> int:
        raise NotImplementedError

    def _generate(self):
        raise NotImplementedError


@dataclass(frozen=True)
class SymmetricGroup(GroupSpec):
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("degree must be positive")

    @property
    def degree(self) -> int:
        return self.n

    def _contains(self, sigma: Permutation) -> bool:
        return True

    def order(self) -> int:
        return factorial(self.n)

    def _generate(self):
        for images in itertools.permutations(range(1, self.n + 1)):
            yield Permutation(images)

    def __str__(self):
        return f"S{self.n}"


@dataclass(frozen=True)
class AlternatingGroup(GroupSpec):
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("degree must be positive")

    @property
    def degree(self) -> int:
        return self.n

    def _contains(self, sigma: Permutation) -> bool:
        return sigma.sign() == 1

    def order(self) -> int:
        return max(1, factorial(self.n) // 2)

    def _generate(self):
        for images in itertools.permutations(range(1, self.n + 1)):
            p = Permutation(images)
            if p.sign() == 1:
                yield p

    def __str__(self):
        return f"A{self.n}"


@dataclass(frozen=True)
class CyclicGroup(GroupSpec):
    generator: Permutation

    def __post_init__(self):
        # membership solves for the exponent on these cycles, in O(n)
        object.__setattr__(self, "_cycles", disjoint_cycles(self.generator))

    @property
    def degree(self) -> int:
        return self.generator.degree

    def _contains(self, sigma: Permutation) -> bool:
        return power_exponent(self._cycles, sigma) is not None

    def order(self) -> int:
        return self.generator.order()

    def _generate(self):
        power = Permutation.identity(self.degree)
        for _ in range(self.order()):
            yield power
            power = compose(power, self.generator)

    def __str__(self):
        return f"cyclic:{self.generator}"


@dataclass(frozen=True)
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

    def _contains(self, sigma: Permutation) -> bool:
        return self.points <= sigma.fixed_points()

    def order(self) -> int:
        return factorial(self.n - len(self.points))

    def _generate(self):
        free = sorted(set(range(1, self.n + 1)) - self.points)
        for arrangement in itertools.permutations(free):
            images = list(range(1, self.n + 1))
            for src, dst in zip(free, arrangement):
                images[src - 1] = dst
            yield Permutation(tuple(images))

    def __str__(self):
        return f"stab:{','.join(map(str, sorted(self.points)))}@{self.n}"


@dataclass(frozen=True)
class GeneratedSubgroup(GroupSpec):
    """Closure of a list of generators; memoized on first membership query."""

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

    @property
    def degree(self) -> int:
        return self.n

    def _closure(self, cap: int = DEFAULT_ENUMERATION_CAP) -> frozenset[Permutation]:
        with _CLOSURE_LOCK:
            cached = _CLOSURE_CACHE.get(self)
            if cached is None:
                elements = {Permutation.identity(self.n)}
                frontier = list(elements)
                while frontier:
                    nxt = []
                    for g in self.generators:
                        for h in frontier:
                            prod = compose(g, h)
                            if prod not in elements:
                                elements.add(prod)
                                nxt.append(prod)
                                if len(elements) > cap:
                                    raise CapacityError(
                                        f"closure exceeds cap {cap}"
                                    )
                    frontier = nxt
                cached = frozenset(elements)
                _CLOSURE_CACHE[self] = cached
            return cached

    def _contains(self, sigma: Permutation) -> bool:
        return sigma in self._closure()

    def order(self) -> int:
        return len(self._closure())

    def _generate(self):
        return iter(self._closure())

    def __str__(self):
        gens = ",".join(str(g) for g in self.generators)
        return f"gens:{gens}@{self.n}"


_CLOSURE_LOCK = threading.Lock()
_CLOSURE_CACHE: dict[GeneratedSubgroup, frozenset[Permutation]] = {}


@dataclass(frozen=True)
class FiniteSubgroup:
    """Fully enumerated subgroup in deterministic (image-lexicographic) order."""

    spec: GroupSpec
    elements: tuple[Permutation, ...]

    @property
    def order(self) -> int:
        return len(self.elements)


def checked_order(spec: GroupSpec, cap: int = DEFAULT_ENUMERATION_CAP) -> int:
    """The group order; raises CapacityError when it exceeds ``cap``.

    Variants with an order formula are checked before anything is built;
    a generated subgroup's closure stops as soon as it passes ``cap``.
    """
    if isinstance(spec, GeneratedSubgroup):
        order = len(spec._closure(cap))
    else:
        order = spec.order()
    if order > cap:
        raise CapacityError(f"group order {order} exceeds cap {cap}")
    return order


def enumerate_group(
    spec: GroupSpec, cap: int = DEFAULT_ENUMERATION_CAP
) -> FiniteSubgroup:
    """List all elements of the subgroup, sorted by image sequence.

    Raises CapacityError when the group order exceeds ``cap``, before any
    enumeration.
    """
    checked_order(spec, cap)
    ordered = tuple(sorted(spec._generate(), key=lambda p: p.images))
    return FiniteSubgroup(spec, ordered)


_SYM_RE = _re.compile(r"^([SA])(\d+)$")

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
            degree = int(suffix)
        except ValueError as exc:
            raise ParseError(f"bad degree suffix in {text!r}") from exc
    if degree is None:
        raise ParseError(f"group {text!r} needs an @n suffix or an explicit degree")
    if body.startswith("cyclic:"):
        return CyclicGroup(parse_permutation(body[len("cyclic:") :], degree))
    if body.startswith("stab:"):
        # "stab:@n" stabilizes no point, the whole S_n
        items = _list_items(body[len("stab:") :], ",", text)
        try:
            points = [int(tok) for tok in items]
        except ValueError as exc:
            raise ParseError(f"bad stabilizer points in {text!r}") from exc
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
