"""Attribute terms and access requests.

A request carries a set of attribute facts (category attributes such as
``subject(doctor)`` plus external-state facts such as ``age(p,17)``)
and a separate set of error attributes. Error attributes are the
declarative stand-in for attributes whose evaluation failed: matching
against one yields an indeterminate outcome instead of a plain hit or
miss, which makes indeterminacy reproducible from the request text.
"""

from __future__ import annotations

from typing import Union

from .errors import InvalidInputError, check_type
from .values import Value

CATEGORIES = ("subject", "action", "resource", "environment")

Constant = Union[str, int]


class AttributeTerm(Value, derived=("key",)):
    """A named fact: a category attribute or an external-state predicate.

    ``key`` is the term's ground key ``(name, args)``, built once with
    the term. Evaluation looks keys up, never terms, so it hashes and
    compares plain tuples in C.
    """

    name: str
    args: tuple[Constant, ...]
    key: tuple[str, tuple[Constant, ...]]

    def __post_init__(self) -> None:
        check_type(self, "args", tuple)
        if not self.args:
            raise InvalidInputError(f"attribute {self.name!r} needs arguments")
        if any(not isinstance(a, (str, int)) for a in self.args):
            raise InvalidInputError(
                f"attribute {self.name!r} arguments must be ground constants"
            )
        if self.name in CATEGORIES and len(self.args) != 1:
            raise InvalidInputError(
                f"category attribute {self.name!r} takes exactly one argument"
            )
        object.__setattr__(self, "key", (self.name, self.args))

    @property
    def is_category(self) -> bool:
        return self.name in CATEGORIES

    def __str__(self) -> str:
        return f"{self.name}({','.join(str(a) for a in self.args)})"

    def __repr__(self) -> str:
        return f"AttributeTerm({self})"


class Request(Value):
    """Immutable attribute facts plus the attributes marked as erroneous."""

    facts: frozenset[AttributeTerm]
    error_attributes: frozenset[AttributeTerm] = frozenset()

    def __post_init__(self) -> None:
        check_type(self, "facts", frozenset)
        check_type(self, "error_attributes", frozenset)
        if not self.facts:
            raise InvalidInputError("a request needs at least one attribute fact")
        overlap = self.facts & self.error_attributes
        if overlap:
            raise InvalidInputError(
                f"attributes listed both as facts and as errors: "
                f"{sorted(str(t) for t in overlap)}"
            )

    def constants(self) -> tuple[Constant, ...]:
        """Constants occurring as fact arguments, deduplicated, in the
        domain's order: the strings sorted, then the numbers sorted.
        Every condition pool is read off this tuple, in this order."""
        # Strings and numbers do not compare, so the arguments are split
        # as they are read, with no call or second pass: this runs once
        # per evaluation, and with cold caches, as perfbench times a
        # decision, it takes about 10 of 56 us (fact_heavy, timed inside
        # the decision, 2-vCPU VM).
        strings = set()
        numbers = set()
        for fact in self.facts:
            for arg in fact.args:
                if isinstance(arg, str):
                    strings.add(arg)
                else:
                    numbers.add(arg)
        if not numbers:
            return tuple(sorted(strings))
        return (*sorted(strings), *sorted(numbers))

