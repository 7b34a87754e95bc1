"""The shared base of the package's immutable value types.

A subclass lists its fields as class annotations, in constructor order;
a class attribute of the same name is the field's default, kept in
``_defaults``. Fields named in the ``derived`` class keyword are set by
``__post_init__`` (with ``object.__setattr__``) and left out of the
constructor, equality, hashing and ``repr``. Every field, derived ones
included, is a slot, so instances have no ``__dict__`` and a field read
skips one. The fields are read once, when the subclass is created, and
the methods are shared: no source is generated at import. Instances
are frozen, equal when of the same class with equal fields, and
pickled by calling the constructor. A subclass's own method wins.
"""

from __future__ import annotations

import operator

_set = object.__setattr__


class _ValueType(type):
    """Makes a ``Value`` subclass's annotated fields its slots, moving
    their defaults out of the class body, where they would clash with
    the slots, into ``_defaults``."""

    def __new__(mcls, name, bases, ns, derived: tuple[str, ...] = ()):
        if not bases:  # Value itself
            return super().__new__(mcls, name, bases, ns)
        own = tuple(ns.get("__annotations__", ()))
        defaults = {n: ns.pop(n) for n in own if n in ns}
        ns.setdefault("__slots__", own)
        cls = super().__new__(mcls, name, bases, ns)
        cls._fields = fields = (*cls._fields, *(n for n in own if n not in derived))
        cls._defaults = {**cls._defaults, **defaults}
        cls._key = staticmethod(operator.attrgetter(*fields))
        return cls


class Value(metaclass=_ValueType):
    __slots__ = ()

    _fields = ()
    _defaults = {}

    def __init__(self, *args, **kwargs) -> None:
        fields = self._fields
        for name, value in zip(fields, args):
            _set(self, name, value)
        if kwargs or len(args) != len(fields):
            self._set_rest(args, kwargs)
        self.__post_init__()

    def _set_rest(self, args: tuple, kwargs: dict) -> None:
        """Set the fields after the positional arguments from the
        keyword arguments and the defaults."""
        rest = self._fields[len(args):]
        stray = kwargs.keys() - rest
        missing = [n for n in rest if n not in kwargs and n not in self._defaults]
        if len(args) > len(self._fields) or stray or missing:
            raise TypeError(
                f"{type(self).__name__}() takes the fields {', '.join(self._fields)}; "
                f"got {len(args)} positional, unexpected {sorted(stray)}, missing {missing}"
            )
        for name in rest:
            _set(self, name, kwargs[name] if name in kwargs else self._defaults[name])

    def __post_init__(self) -> None:
        """Validate the fields and compute the derived ones."""

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        inner = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__qualname__}({inner})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, n) for n in self._fields)
