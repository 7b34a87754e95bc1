"""Decision value domains and the lattice primitives everything else uses.

Three families of values flow through evaluation:

* ``Decision3`` -- three-valued outcomes of match, target and condition
  checks, an ``IntEnum`` totally ordered BOTTOM < INDET < TOP;
* ``Decision6`` -- six-valued policy decisions that split applicable and
  indeterminate outcomes by effect, an ``IntEnum`` in a fixed member
  order (not a lattice order);
* ``PairValue`` -- the numeric [deny, permit] encoding over {0, 1/2, 1},
  ordered componentwise. Each component is stored as its level, the int
  ``ZERO``, ``HALF`` or ``ONE`` (0, 1, 2), and printed as 0, 1/2 or 1.
  All nine points are legal; ``PAIR6_VALUES``, the image of ``delta``,
  holds the six the standard combining algorithms produce.

The three six-element decision lattices used by the combining
algorithms are stored as explicit cover relations, transcribed rather
than derived; their joins and meets are computed from them, once, and
``lub_order`` folds the joins. The combiners build their flat fold
tables from it (``combiners.FOLD_TABLES``).
"""

from __future__ import annotations

import enum
from typing import Iterable, Mapping

from .errors import InvalidInputError, UnknownLatticeError
from .values import Value

# Component levels of a pair value: 0, 1/2 and 1.
ZERO = 0
HALF = 1
ONE = 2

_LEVELS = (ZERO, HALF, ONE)
_LEVEL_TEXT = ("0", "1/2", "1")


class Decision3(enum.IntEnum):
    """Three-valued outcome: no, cannot tell, yes."""

    BOTTOM = 0
    INDET = 1
    TOP = 2

    @property
    def token(self) -> str:
        return _D3_TOKENS[self]


_D3_TOKENS = {
    Decision3.BOTTOM: "bottom",
    Decision3.INDET: "indeterminate",
    Decision3.TOP: "top",
}


def glb3(values: Iterable[Decision3]) -> Decision3:
    """Greatest lower bound; an empty collection yields TOP."""
    return min(values, default=TOP)


def lub3(values: Iterable[Decision3]) -> Decision3:
    """Least upper bound; an empty collection yields BOTTOM."""
    return max(values, default=BOTTOM)


class TokenEnum(enum.Enum):
    """An enum whose members are written as their values."""

    @property
    def token(self) -> str:
        return self.value


class Effect(TokenEnum):
    DENY = "deny"
    PERMIT = "permit"


class Decision6(enum.IntEnum):
    """Six-valued policy decision.

    Member order is the fixed enumeration order used wherever decision
    sequences are enumerated, so reports stay reproducible. Members are
    ints in that order, so lattice tables keyed by them hash in C.
    NOT_APPLICABLE is 0 and therefore falsy: compare members by
    identity, never by truth value.
    """

    NOT_APPLICABLE = 0
    INDET_D = 1
    INDET_P = 2
    INDET_DP = 3
    DENY = 4
    PERMIT = 5

    @property
    def canonical(self) -> str:
        return _D6_NAMES[self]

    @classmethod
    def from_canonical(cls, text: str) -> "Decision6":
        try:
            return _D6_BY_NAME[text]
        except (KeyError, TypeError):  # TypeError: an unhashable name
            raise InvalidInputError(f"unknown decision name: {text!r}") from None

    @property
    def is_applicable(self) -> bool:
        return self in (Decision6.PERMIT, Decision6.DENY)

    @property
    def is_indeterminate(self) -> bool:
        return self in (Decision6.INDET_D, Decision6.INDET_P, Decision6.INDET_DP)


_D6_NAMES = (
    "NotApplicable",
    "Indeterminate{D}",
    "Indeterminate{P}",
    "Indeterminate{DP}",
    "Deny",
    "Permit",
)
_D6_BY_NAME = {name: Decision6(i) for i, name in enumerate(_D6_NAMES)}

# The members as module constants, which the decision path reads. On
# CPython 3.11 ``EnumType`` has a Python-level ``__getattr__``, so a
# load such as ``Decision3.TOP`` is never specialised and costs over
# ten times a module global; 3.12 removed it.
BOTTOM, INDET, TOP = Decision3
NOT_APPLICABLE, INDET_D, INDET_P, INDET_DP, DENY, PERMIT = Decision6
PERMIT_EFFECT = Effect.PERMIT


def arrow(f: Decision3, g: Decision3) -> Decision3:
    """Gate ``g`` behind ``f``: pass ``g`` through only when ``f`` is TOP."""
    return g if f is TOP else f


def sigma(x: Decision3, effect: Effect) -> Decision6:
    """Lift a three-valued outcome into the six-valued domain for an effect.

    BOTTOM stays inapplicable; TOP and INDET pick up the effect as
    their annotation.
    """
    if x is BOTTOM:
        return NOT_APPLICABLE
    if x is TOP:
        return PERMIT if effect is PERMIT_EFFECT else DENY
    return INDET_P if effect is PERMIT_EFFECT else INDET_D


class PairValue(Value):
    """A [deny, permit] value; each component is a level ZERO, HALF or ONE."""

    deny: int
    permit: int

    def __post_init__(self) -> None:
        if self.deny not in _LEVELS or self.permit not in _LEVELS:
            raise InvalidInputError(
                f"pair components are levels 0, 1 or 2, got ({self.deny!r}, {self.permit!r})"
            )

    def __str__(self) -> str:
        return f"[{_LEVEL_TEXT[self.deny]},{_LEVEL_TEXT[self.permit]}]"

    def __repr__(self) -> str:
        return f"PairValue{self}"


PAIR9_VALUES = tuple(PairValue(d, p) for d in _LEVELS for p in _LEVELS)

_DELTA: Mapping[Decision6, PairValue] = {
    Decision6.NOT_APPLICABLE: PairValue(ZERO, ZERO),
    Decision6.INDET_D: PairValue(HALF, ZERO),
    Decision6.INDET_P: PairValue(ZERO, HALF),
    Decision6.INDET_DP: PairValue(HALF, HALF),
    Decision6.DENY: PairValue(ONE, ZERO),
    Decision6.PERMIT: PairValue(ZERO, ONE),
}

PAIR6_VALUES = tuple(v for v in PAIR9_VALUES if v in _DELTA.values())


def delta(x: Decision6) -> PairValue:
    """Encode a six-valued decision as its [deny, permit] pair."""
    return _DELTA[x]


def delta_seq(decisions: Iterable[Decision6]) -> tuple[PairValue, ...]:
    return tuple(_DELTA[d] for d in decisions)


def leq_pair(a: PairValue, b: PairValue) -> bool:
    """Componentwise order on pair values, with 0 <= 1/2 <= 1."""
    return a.deny <= b.deny and a.permit <= b.permit


def max_pair(values: Iterable[PairValue]) -> PairValue:
    """Componentwise maximum; the empty collection yields [0,0]."""
    values = tuple(values)  # consumed twice
    return PairValue(
        max((v.deny for v in values), default=ZERO),
        max((v.permit for v in values), default=ZERO),
    )


def min_pair(values: Iterable[PairValue]) -> PairValue:
    """Componentwise minimum; the empty collection yields [1,1]."""
    values = tuple(values)  # consumed twice
    return PairValue(
        min((v.deny for v in values), default=ONE),
        min((v.permit for v in values), default=ONE),
    )


class FiniteLattice:
    """One of the fixed finite lattices, given by its cover relation.

    The order is the reflexive-transitive closure of the covers, kept as
    each element's up-set and down-set. The join of ``a`` and ``b`` is
    the element of their common up-set whose own up-set is all of it,
    and the meet is found the same way from the down-sets. Both tables
    are computed once and must be unique, which the constructor
    verifies.
    """

    def __init__(self, name: str, elements: tuple, covers: tuple):
        self.name = name
        self.elements = tuple(elements)
        self.covers = tuple(covers)
        above = {e: [] for e in self.elements}
        below = {e: [] for e in self.elements}
        for a, b in self.covers:
            above[a].append(b)
            below[b].append(a)
        up = {e: _reach(e, above) for e in self.elements}
        down = {e: _reach(e, below) for e in self.elements}
        self._leq = frozenset((a, b) for a in self.elements for b in up[a])
        self.bottom = self._least(self.elements, up, "extreme")
        self.top = self._least(self.elements, down, "extreme")
        self._join = {}
        self._meet = {}
        for a in self.elements:
            for b in self.elements:
                self._join[(a, b)] = self._least(up[a] & up[b], up, "join", (a, b))
                self._meet[(a, b)] = self._least(down[a] & down[b], down, "meet", (a, b))

    def _least(self, bounds, closure, what: str, pair: tuple = ()):
        """The one element of ``bounds`` whose ``closure`` is all of
        ``bounds``; ``bounds`` must be closed under ``closure``."""
        best = [u for u in bounds if len(closure[u]) == len(bounds)]
        if len(best) != 1:
            where = " for {!r} and {!r}".format(*pair) if pair else ""
            raise InvalidInputError(f"{self.name}: no unique {what}{where}")
        return best[0]

    def leq(self, a, b) -> bool:
        return (a, b) in self._leq

    def join(self, a, b):
        return self._join[(a, b)]

    def meet(self, a, b):
        return self._meet[(a, b)]


def _reach(start, step: Mapping) -> frozenset:
    """``start`` and every element reachable from it through ``step``."""
    seen = {start}
    todo = [start]
    while todo:
        for nxt in step[todo.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    return frozenset(seen)


_D6 = Decision6

# Cover edges transcribed from the three decision-lattice diagrams.
_PO_COVERS = (
    (_D6.NOT_APPLICABLE, _D6.INDET_P),
    (_D6.NOT_APPLICABLE, _D6.INDET_D),
    (_D6.INDET_D, _D6.DENY),
    (_D6.INDET_P, _D6.INDET_DP),
    (_D6.DENY, _D6.INDET_DP),
    (_D6.INDET_DP, _D6.PERMIT),
)

_DO_COVERS = (
    (_D6.NOT_APPLICABLE, _D6.INDET_D),
    (_D6.NOT_APPLICABLE, _D6.INDET_P),
    (_D6.INDET_P, _D6.PERMIT),
    (_D6.INDET_D, _D6.INDET_DP),
    (_D6.PERMIT, _D6.INDET_DP),
    (_D6.INDET_DP, _D6.DENY),
)

_O1A_COVERS = (
    (_D6.NOT_APPLICABLE, _D6.DENY),
    (_D6.DENY, _D6.INDET_D),
    (_D6.INDET_D, _D6.INDET_DP),
    (_D6.NOT_APPLICABLE, _D6.PERMIT),
    (_D6.PERMIT, _D6.INDET_P),
    (_D6.INDET_P, _D6.INDET_DP),
)

V6_LATTICES: Mapping[str, FiniteLattice] = {
    "po": FiniteLattice("po", tuple(Decision6), _PO_COVERS),
    "do": FiniteLattice("do", tuple(Decision6), _DO_COVERS),
    "o1a": FiniteLattice("o1a", tuple(Decision6), _O1A_COVERS),
}


def lub_order(order: str, values: Iterable[Decision6]) -> Decision6:
    """Least upper bound in the named decision lattice (po, do or o1a).

    The empty collection yields the lattice bottom, NOT_APPLICABLE in
    all three.
    """
    try:
        lattice = V6_LATTICES[order]
    except (KeyError, TypeError):  # TypeError: an unhashable name
        raise UnknownLatticeError(f"unknown decision lattice: {order!r}") from None
    result = NOT_APPLICABLE
    for v in values:
        result = lattice.join(result, v)
    return result
