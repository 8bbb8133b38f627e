"""Exception hierarchy shared across the package."""


class PermfuncError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(PermfuncError):
    """Malformed textual input (permutation, scalar, group or character spec)."""


class DegreeMismatchError(PermfuncError):
    """Operands live on point sets of different sizes."""


class CapacityError(PermfuncError):
    """A route's work, counted before it starts (members, mixtures, Laplace
    steps, matrix entries), would exceed the enumeration cap."""


class DisjointnessError(PermfuncError):
    """Moved points of two permutations overlap where they must not."""


class CharacterDomainError(PermfuncError):
    """Character evaluated outside its group, or a table lookup missed."""


class ExactnessError(PermfuncError):
    """The requested value leaves the exact scalar field (rational + rational*i)."""
