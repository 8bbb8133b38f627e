"""Frozen records: the part of ``dataclasses.dataclass(frozen=True)`` that
permfunc uses, without generating code.

``@record`` reads a class's fields from its annotations, after those of its
record bases, and installs ``__init__``, ``__eq__``, ``__hash__``,
``__repr__`` and a raising ``__setattr__``/``__delattr__`` as plain
closures.  They behave as the dataclass methods do: ``__init__`` takes the
fields by position or keyword, fills in class-level defaults and calls
``__post_init__``; instances are equal only to instances of the same class
with equal fields; the hash is that of the tuple of fields; the repr reads
``QualName(field=value!r, ...)``.  Importing a record thus compiles and
executes no generated source, and ``dataclasses`` (with the ``inspect``,
``ast`` and ``dis`` it imports) is never loaded.
"""

from operator import attrgetter

_set = object.__setattr__


def record(cls):
    owners = [base for base in reversed(cls.__mro__[1:]) if "_fields" in vars(base)] + [cls]
    annotated = [
        (owner, name) for owner in owners for name in vars(owner).get("__annotations__", ())
    ]
    names = tuple(dict.fromkeys(name for _, name in annotated))
    defaults = {name: vars(owner)[name] for owner, name in annotated if name in vars(owner)}
    has_post_init = hasattr(cls, "__post_init__")
    count = len(names)
    # the tuple of field values; attrgetter returns a bare value for one name
    if count > 1:
        fields = attrgetter(*names)
    elif count:
        field = attrgetter(*names)
        fields = lambda self: (field(self),)
    else:
        fields = lambda self: ()

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != count:
            args = _bind(cls.__qualname__, names, defaults, args, kwargs)
        for name, value in zip(names, args):
            _set(self, name, value)
        if has_post_init:
            self.__post_init__()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return fields(self) == fields(other)
        return NotImplemented

    def __hash__(self):
        return hash(fields(self))

    def __repr__(self):
        body = ", ".join(f"{n}={v!r}" for n, v in zip(names, fields(self)))
        return f"{self.__class__.__qualname__}({body})"

    cls._fields = names
    for method in (__init__, __eq__, __hash__, __repr__):
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)
    cls.__setattr__ = _frozen_setattr
    cls.__delattr__ = _frozen_delattr
    return cls


def _bind(qualname, names, defaults, args, kwargs):
    """The field values of a call that is not exactly one positional value
    per field, or the TypeError that Python raises for such a call."""
    if len(args) > len(names):
        raise TypeError(
            f"{qualname}.__init__() takes {len(names) + 1} positional arguments"
            f" but {len(args) + 1} were given"
        )
    values = list(args)
    for name in names[len(args):]:
        if name in kwargs:
            values.append(kwargs.pop(name))
        elif name in defaults:
            values.append(defaults[name])
        else:
            raise TypeError(f"{qualname}.__init__() missing required argument: {name!r}")
    for name in kwargs:
        problem = "multiple values for" if name in names else "an unexpected keyword"
        raise TypeError(f"{qualname}.__init__() got {problem} argument {name!r}")
    return values


def _frozen_setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r}")
