"""Evaluable class functions on subgroups of the symmetric group.

Five variants: the trivial and sign characters, irreducible characters
of S_n indexed by partitions (evaluated by the Murnaghan-Nakayama rule,
in one pass of border-strip removals over the cycles), explicit lookup
tables over the subgroup their keys form, and the linear characters of a
cyclic group sending the generator to a root of unity.

Values stay in the exact field Q(i); a cyclic-group character whose root
of unity leaves that field raises ExactnessError from ``evaluate``, and
only its own ``evaluate_float`` gives its values, as floats.
"""

from __future__ import annotations

import cmath
import functools
import json
import re as _re
from math import factorial, lcm, prod

from ._record import record
from .errors import CharacterDomainError, ExactnessError, ParseError
from .gaussian import GaussianRational, I, ONE, gauss
from .groups import GeneratedSubgroup
from .perm import (
    Permutation,
    disjoint_cycles,
    images_cycle_type,
    images_sign,
    parse_ints,
    parse_permutation,
    power_exponent,
)


@record
class Partition:
    """Weakly decreasing positive parts; indexes an irreducible character."""

    parts: tuple[int, ...]

    def __post_init__(self):
        if any(p <= 0 for p in self.parts):
            raise ValueError("parts must be positive")
        if any(a < b for a, b in zip(self.parts, self.parts[1:])):
            raise ValueError("parts must be weakly decreasing")

    @property
    def size(self) -> int:
        return sum(self.parts)

    def __str__(self):
        return "[" + ",".join(map(str, self.parts)) + "]"


def partitions(n: int):
    """Yield all partitions of n as tuples, largest part first."""

    def rec(remaining: int, maximum: int, prefix: tuple[int, ...]):
        if remaining == 0:
            yield prefix
            return
        for part in range(min(remaining, maximum), 0, -1):
            yield from rec(remaining - part, part, prefix + (part,))

    yield from rec(n, n, ())


# The bound of each memo below.  A check_dominance sweep over every
# lambda |- 20 (8 transpositions) asks mn_value 5,643 pairs and leaves
# 1,530 strip and 1,535 tableau entries, 4.3 MB in all; one over every
# lambda |- 30 asks 50,436 pairs, past the bound, and the three memos then
# hold 64,059 entries in 33 MB, about 0.5 KB each.
_MN_CACHE_SIZE = 1 << 15


@functools.lru_cache(maxsize=_MN_CACHE_SIZE)
def hook_length_degree(parts: tuple[int, ...]) -> int:
    """Number of standard Young tableaux of the given shape."""
    n = sum(parts)
    hooks = []
    for i, row in enumerate(parts):
        for j in range(row):
            arm = row - j - 1
            leg = sum(1 for below in parts[i + 1 :] if below > j)
            hooks.append(arm + leg + 1)
    return factorial(n) // prod(hooks)


def _beta_numbers(parts: tuple[int, ...]) -> tuple[int, ...]:
    length = len(parts)
    return tuple(parts[i] + (length - 1 - i) for i in range(length))


def _partition_from_beta(beta: tuple[int, ...]) -> tuple[int, ...]:
    ordered = sorted(beta, reverse=True)
    length = len(ordered)
    parts = tuple(ordered[i] - (length - 1 - i) for i in range(length))
    return tuple(p for p in parts if p > 0)


@functools.lru_cache(maxsize=_MN_CACHE_SIZE)
def _strip_removals(parts: tuple[int, ...], size: int) -> tuple:
    """(smaller_partition, strip_height) for each removable border strip."""
    beta = _beta_numbers(parts)
    present = set(beta)
    removals = []
    for b in beta:
        target = b - size
        if target < 0 or target in present:
            continue
        height = sum(1 for other in beta if target < other < b)
        new_beta = tuple(target if x == b else x for x in beta)
        removals.append((_partition_from_beta(new_beta), height))
    return tuple(removals)


@functools.lru_cache(maxsize=_MN_CACHE_SIZE)
def mn_value(parts: tuple[int, ...], cycle_type: tuple[int, ...]) -> int:
    """Irreducible character value for shape ``parts`` at ``cycle_type``.

    ``cycle_type`` lists all cycle lengths including fixed points as 1s.
    One loop over the cycles longer than 1, largest first, carries every
    shape left so far with its signed count of border-strip chains, and
    removes the next cycle's strips from each; once only 1-cycles remain
    the value is the sum of each count times the number of standard
    tableaux of its shape.  The value, the strips of a (shape, length)
    pair and the tableau counts are memoized, as dominance sweeps revisit
    them heavily, and each memo is bounded so that a long-lived process
    does not grow with every shape it has evaluated.
    """
    if sum(parts) != sum(cycle_type):
        raise ValueError(
            f"partition of {sum(parts)} evaluated at class of {sum(cycle_type)}"
        )
    counts = {parts: 1}
    for length in sorted(cycle_type, reverse=True):
        if length == 1:
            break
        left = {}
        for shape, count in counts.items():
            for smaller, height in _strip_removals(shape, length):
                left[smaller] = left.get(smaller, 0) + (-count if height & 1 else count)
        counts = left
    return sum(count * hook_length_degree(shape) for shape, count in counts.items())


class CharacterSpec:
    """Base class; subclasses provide exact evaluation on their group, at a
    member given as its image tuple (``images[i-1] = sigma(i)``)."""

    def evaluate(self, images: tuple[int, ...]) -> GaussianRational:
        raise NotImplementedError

    def degree(self):
        raise NotImplementedError

    def check_domain(self, group) -> None:
        """Raise CharacterDomainError unless the character is defined on
        every member of ``group``: a trivial or sign character always is,
        an irreducible one on the degree of its partition, a table or a
        cyclic root on the subgroup it covers, tested on the images that
        generate ``group`` (GroupSpec.generating_images)."""

    def is_linear(self) -> bool:
        return self.degree() == 1


_MINUS_ONE = gauss(-1)


@record
class TrivialCharacter(CharacterSpec):
    def evaluate(self, images: tuple[int, ...]) -> GaussianRational:
        return ONE

    def degree(self) -> int:
        return 1

    def __str__(self):
        return "trivial"


@record
class SignCharacter(CharacterSpec):
    def evaluate(self, images: tuple[int, ...]) -> GaussianRational:
        return ONE if images_sign(images) > 0 else _MINUS_ONE

    def degree(self) -> int:
        return 1

    def __str__(self):
        return "sign"


@record
class IrreducibleCharacter(CharacterSpec):
    """Irreducible character of S_n for the given shape, restrictable to
    any subgroup; values are integers computed by the Murnaghan-Nakayama rule (mn_value)."""

    partition: Partition

    def class_value(self, cycle_type: tuple[int, ...]) -> int:
        """The value on the class of ``cycle_type``: every cycle length, 1s
        included, in descending order (``CycleStructure.full_type``)."""
        self._check_degree(sum(cycle_type))
        return mn_value(self.partition.parts, cycle_type)

    def check_domain(self, group) -> None:
        self._check_degree(group.degree)

    def _check_degree(self, degree: int) -> None:
        if degree != self.partition.size:
            raise CharacterDomainError(
                f"degree {degree} element for a character of S_{self.partition.size}"
            )

    def evaluate(self, images: tuple[int, ...]) -> GaussianRational:
        return gauss(self.class_value(images_cycle_type(images)))

    def degree(self) -> int:
        return hook_length_degree(self.partition.parts)

    def __str__(self):
        return f"irr:{self.partition}"


@record
class TableCharacter(CharacterSpec):
    """Explicit value table over the subgroup its keys form.

    Construction checks that the keys are closed under composition, that
    chi(id) is real and bounds every |chi(sigma)|, and that the values are
    constant under conjugation by a generating set of that subgroup,
    which makes them a class function.
    """

    table: tuple[tuple[Permutation, GaussianRational], ...]

    def __post_init__(self):
        if not self.table:
            raise ValueError("empty table")
        # evaluation looks values up here by image tuple, in O(1)
        values = {sigma.images: value for sigma, value in self.table}
        object.__setattr__(self, "_values", values)
        n = self.table[0][0].degree
        group = GeneratedSubgroup(n, tuple(sigma for sigma, _ in self.table))
        # the keys lie in the group they generate, so they are all of it
        # exactly when there are as many
        if group.order() != len(values):
            raise ValueError("domain is not closed under the group laws")
        top = values[tuple(range(1, n + 1))]
        if not top.is_real():
            raise ValueError("chi(id) must be real")
        object.__setattr__(self, "_top", top)
        for images, value in values.items():
            if value.abs_squared() > top.re * top.re:
                raise ValueError(f"|chi({Permutation(images)})| exceeds chi(id)")
        for g in group.transversal_generators():
            for images, value in values.items():
                # g*sigma*g^-1 sends g(x) to g(sigma(x))
                conj = [0] * n
                for x, y in zip(g, images):
                    conj[x - 1] = g[y - 1]
                if values[tuple(conj)] != value:
                    raise ValueError("not a class function")

    def evaluate(self, images: tuple[int, ...]) -> GaussianRational:
        value = self._values.get(images)
        if value is None:
            raise CharacterDomainError(f"{Permutation(images)} not in the character's table")
        return value

    def degree(self):
        return self._top.re

    def check_domain(self, group) -> None:
        # the keys form a group, so it covers ``group`` when it holds the images
        # generating it; a larger group cannot be covered, which bounds a listing
        values = self._values
        if group.order() > len(values) or set(group.generating_images()) - values.keys():
            raise CharacterDomainError(f"the character's table does not cover {group}")

    def __str__(self):
        return "table"


# i^e for e = 0, 1, 2, 3
_FOURTH_ROOTS = (ONE, I, _MINUS_ONE, -I)


@record
class CyclicRootCharacter(CharacterSpec):
    """Linear character of <generator> mapping it to exp(2*pi*i*k/order).

    Exact values exist only when the generator's order divides 4 (roots
    1, -1, +-i); for other orders ``evaluate`` raises ExactnessError, so
    every exact route does, and ``evaluate_float`` gives the value as a
    float, which the singular-value bound's float mixture sum uses.
    """

    generator: Permutation
    index: int = 1

    def __post_init__(self):
        cycles = disjoint_cycles(self.generator)
        object.__setattr__(self, "_cycles", cycles)
        object.__setattr__(self, "_order", lcm(1, *map(len, cycles.cycles)))

    def _power_of(self, images: tuple[int, ...]) -> int:
        k = power_exponent(self._cycles, images)
        if k is None:
            raise CharacterDomainError(f"{Permutation(images)} is not a power of the generator")
        return k

    def evaluate(self, images: tuple[int, ...]) -> GaussianRational:
        order = self._order
        k = self._power_of(images)
        if 4 % order:
            raise ExactnessError(
                f"root of unity of order {order} is not exactly representable; "
                "use evaluate_float"
            )
        # exp(2*pi*i*k*index/order) = i^(k*index*4/order)
        return _FOURTH_ROOTS[k * self.index * (4 // order) % 4]

    def evaluate_float(self, images: tuple[int, ...]) -> complex:
        k = self._power_of(images)
        return cmath.exp(2j * cmath.pi * k * self.index / self._order)

    def degree(self) -> int:
        return 1

    def check_domain(self, group) -> None:
        # ``group`` lies in <generator> when the images generating it do; a
        # larger group cannot, which bounds a listing of its members
        cycles = self._cycles
        if group.order() > self._order or any(
            power_exponent(cycles, images) is None for images in group.generating_images()
        ):
            raise CharacterDomainError(f"{group} is not inside <{self.generator}>")

    def __str__(self):
        return f"cyclic-root:{self.generator}^{self.index}"


_IRR_RE = _re.compile(r"\s*irr:\[([^\]]*)\]\s*")


def parse_character(text: str, degree: int | None = None) -> CharacterSpec:
    """Parse "trivial", "sign", "irr:[3,1]" or "table:<path>".

    An ``irr:`` partition must be nonempty and, when ``degree`` is given,
    a partition of ``degree``.
    """
    s = text.strip()
    if s == "trivial":
        return TrivialCharacter()
    if s == "sign":
        return SignCharacter()
    m = _IRR_RE.fullmatch(text)
    if m:
        parts = tuple(parse_ints(text, *m.span(1), f"bad partition in {text!r}"))
        try:
            partition = Partition(parts)
        except ValueError as exc:
            raise ParseError(f"bad partition in {text!r}") from exc
        if not parts:
            raise ParseError(f"empty partition in {text!r}")
        if degree is not None and partition.size != degree:
            raise ParseError(f"partition of {partition.size} in {text!r} for degree {degree}")
        return IrreducibleCharacter(partition)
    if s.startswith("table:"):
        if degree is None:
            raise ParseError("table characters need an explicit degree")
        return _load_table_character(s[len("table:") :], degree)
    raise ParseError(f"unrecognized character spec: {text!r}")


def _unique_keys(pairs) -> dict:
    """A JSON object as a dict; a key that occurs twice is a ParseError."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise ParseError(f"key {key!r} repeated in character table")
        out[key] = value
    return out


def _load_table_character(path: str, degree: int) -> TableCharacter:
    """Load a JSON map from cycle notation to {"re": "p/q", "im": "p/q"}."""
    try:
        with open(path) as fh:
            raw = json.load(fh, object_pairs_hook=_unique_keys)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read character table {path!r}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ParseError(f"character table {path!r} must be a JSON object")
    entries = {}
    spelled = {}
    for key, value in raw.items():
        sigma = parse_permutation(key, degree)
        if sigma in entries:
            raise ParseError(
                f"character table names {sigma} twice, as {spelled[sigma]!r} and {key!r}"
            )
        entries[sigma] = GaussianRational.from_json(value)
        spelled[sigma] = key
    try:
        return TableCharacter(tuple(entries.items()))
    except ValueError as exc:
        raise ParseError(f"character table {path!r}: {exc}") from exc
