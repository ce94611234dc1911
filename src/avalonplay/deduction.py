"""Possible-worlds role deduction with exact rational beliefs.

A world is one way of splitting the seven seats into 4 good and 3 evil.
Constraints prune worlds; beliefs are exact fractions of surviving worlds
in which each seat is good. Beliefs are computed over the 35 evil sets;
only the oracle below looks at the 2520 distinct role assignments.

The fast path indexes the 35 evil sets, in lexicographic order, as the
bits of one int. Each constraint's satisfying worlds form a 35-bit mask,
cached on (kind, seat mask, count) the first time it is asked for; a
(team mask, threshold) pair's quest-success mask is the cached mask of
"at most threshold - 1 evil on the team". The live worlds of a constraint
set are the AND of its constraint masks, so `belief`,
`success_probability` and the contradiction test are popcounts. The
tables are built lazily, never at import time.

`belief` and `success_probability` keep an exact `Fraction` API, but
both count first. A `BeliefState` holds, for each seat, the integer number
of live worlds in which it is good; its `p_good` fractions are made from
those counts when first read. `select_team` ranks seats by the counts,
which order them as the fractions do, since the fractions share one
denominator. The deduction policy's hot path stays on masks and counts: a
seat keeps its constraint set and live mask for the last quest history it
saw (rebuilt once per quest result), and
`success_counts(live, team, threshold)` returns (succeeding worlds, live
worlds) as integers, which the policy compares with one half as `2k >= n`
or `2k <= n`.

`brute_force_oracle` recomputes beliefs by filtering all 2520 role
assignments with its own satisfaction logic. It shares no enumeration or
bit-twiddling code with `belief`, so the two can cross-check each other.
The evil frozenset of each of the 2520 assignments is computed once, on
first use, and reused by later calls.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cache, cached_property, lru_cache
from typing import Iterable, Sequence

from .game import ALL_SEATS, ROLE_DECK, SABOTAGE_THRESHOLDS, Side
from .knowledge import FactKind, KnowledgeView
from .memory import PublicFact

EVIL_COUNT = 3
ALL_PLAYERS = frozenset(ALL_SEATS)


class DeductionError(Exception):
    pass


class ContradictionError(DeductionError):
    """No world satisfies the constraint set."""


class ConstraintKind(str, Enum):
    IS_GOOD = "is_good"
    IS_EVIL = "is_evil"
    AT_LEAST = "at_least"
    AT_MOST = "at_most"
    EXACTLY = "exactly"


@dataclass(frozen=True)
class Constraint:
    kind: ConstraintKind
    players: frozenset[int]
    count: int = 0

    def __post_init__(self) -> None:
        if not self.players:
            raise DeductionError("constraint needs at least one player")
        if not self.players <= ALL_PLAYERS:
            raise DeductionError(f"constraint names unknown seats: {sorted(self.players - ALL_PLAYERS)}")
        if self.kind in (ConstraintKind.IS_GOOD, ConstraintKind.IS_EVIL):
            if len(self.players) != 1:
                raise DeductionError("side constraints apply to a single seat")
        elif not 0 <= self.count <= len(self.players):
            raise DeductionError(f"count {self.count} out of range for {len(self.players)} seats")

    # -- constructors ------------------------------------------------------

    @classmethod
    def is_good(cls, player: int) -> "Constraint":
        return cls(ConstraintKind.IS_GOOD, frozenset({player}), 0)

    @classmethod
    def is_evil(cls, player: int) -> "Constraint":
        return cls(ConstraintKind.IS_EVIL, frozenset({player}), 0)

    @classmethod
    def at_least(cls, players: Iterable[int], count: int) -> "Constraint":
        return cls(ConstraintKind.AT_LEAST, frozenset(players), count)

    @classmethod
    def at_most(cls, players: Iterable[int], count: int) -> "Constraint":
        return cls(ConstraintKind.AT_MOST, frozenset(players), count)

    @classmethod
    def exactly(cls, players: Iterable[int], count: int) -> "Constraint":
        return cls(ConstraintKind.EXACTLY, frozenset(players), count)

    # -- evaluation --------------------------------------------------------

    @cached_property
    def mask(self) -> int:
        m = 0
        for p in self.players:
            m |= 1 << p
        return m

    @cached_property
    def worlds(self) -> int:
        """Mask of the side-level worlds (bit i: `_EVIL_SETS[i]`) satisfying this."""
        return _worlds_satisfying(self.kind, self.mask, self.count)


def _count_ok(kind: ConstraintKind, n: int, count: int) -> bool:
    """Whether `n` evil seats among a constraint's players satisfy it."""
    if kind is ConstraintKind.IS_GOOD:
        return n == 0
    if kind is ConstraintKind.IS_EVIL:
        return n == 1
    if kind is ConstraintKind.AT_LEAST:
        return n >= count
    if kind is ConstraintKind.AT_MOST:
        return n <= count
    return n == count


GLOBAL_CONSTRAINT = Constraint.exactly(ALL_PLAYERS, EVIL_COUNT)


@dataclass(frozen=True)
class ConstraintSet:
    constraints: tuple[Constraint, ...] = ()

    def __post_init__(self) -> None:
        # The global 4-good/3-evil constraint is always present exactly once.
        cs = [c for c in self.constraints if c != GLOBAL_CONSTRAINT]
        object.__setattr__(self, "constraints", (GLOBAL_CONSTRAINT, *cs))


@dataclass(frozen=True)
class BeliefState:
    """Beliefs over the `n_worlds` consistent worlds: seat p is good in
    `good_worlds[p]` of them."""

    good_worlds: dict[int, int]
    n_worlds: int

    @cached_property
    def p_good(self) -> dict[int, Fraction]:
        """Each seat's exact probability of being good, made on first read."""
        n = self.n_worlds
        return {p: Fraction(k, n) for p, k in self.good_worlds.items()}

    @property
    def contradictory(self) -> bool:
        return self.n_worlds == 0


def _evil_combinations() -> list[frozenset[int]]:
    return [frozenset(c) for c in itertools.combinations(ALL_SEATS, EVIL_COUNT)]


_EVIL_SETS = _evil_combinations()
_EVIL_MASKS = [sum(1 << p for p in s) for s in _EVIL_SETS]
_ALL_WORLDS = (1 << len(_EVIL_SETS)) - 1


@lru_cache(maxsize=None)
def _worlds_satisfying(kind: ConstraintKind, seats: int, count: int) -> int:
    """Mask of the worlds in which (kind, seat mask, count) holds.

    Keys are bounded by 5 kinds x 128 seat masks x a few counts, so the
    unbounded cache stays small.
    """
    worlds = 0
    for i, evil in enumerate(_EVIL_MASKS):
        if _count_ok(kind, (seats & evil).bit_count(), count):
            worlds |= 1 << i
    return worlds


def live_worlds(cs: ConstraintSet) -> int:
    """Mask of the side-level worlds consistent with every constraint."""
    live = _ALL_WORLDS
    for c in cs.constraints:
        live &= c.worlds
    return live


@cache
def _role_worlds() -> list[frozenset[int]]:
    """The evil seats of each of the 2520 distinct orderings of the deck
    (72 orderings per evil set); built on first use, for the oracle only."""
    return [
        frozenset(seat for seat, role in zip(ALL_SEATS, a) if role.side is Side.EVIL)
        for a in sorted(set(itertools.permutations(ROLE_DECK)))
    ]


@cache
def _good_worlds() -> tuple[tuple[int, int], ...]:
    """(seat, mask of the worlds in which it is good), for every seat."""
    return tuple((p, _ALL_WORLDS & ~_worlds_satisfying(ConstraintKind.IS_EVIL, 1 << p, 0)) for p in ALL_SEATS)


def belief(cs: ConstraintSet) -> BeliefState:
    """Exact per-seat probability of being good over consistent worlds.

    A contradictory set yields n_worlds == 0 rather than an exception, so
    callers can distinguish "no consistent world" from programming errors.
    """
    live = live_worlds(cs)
    n = live.bit_count()
    if n == 0:
        return BeliefState(good_worlds={}, n_worlds=0)
    return BeliefState(good_worlds={p: (live & good).bit_count() for p, good in _good_worlds()}, n_worlds=n)


def success_counts(live: int, team: Iterable[int], threshold: int) -> tuple[int, int]:
    """(the worlds of the `live` mask in which `team` holds fewer than
    `threshold` evil seats, the worlds of `live`), both as counts."""
    # The quest succeeds in the worlds with at most threshold - 1 evil on the team.
    succeeds = _worlds_satisfying(ConstraintKind.AT_MOST, sum(1 << p for p in team), threshold - 1)
    return (live & succeeds).bit_count(), live.bit_count()


def success_probability(
    cs: ConstraintSet, team: frozenset[int], threshold: int
) -> Fraction | None:
    """Exact chance that `team` holds fewer than `threshold` evil seats,
    over the worlds consistent with `cs`; None when there are none."""
    succeeds, n = success_counts(live_worlds(cs), team, threshold)
    return Fraction(succeeds, n) if n else None


def select_team(beliefs: BeliefState, n: int, leader: int) -> frozenset[int]:
    """The n seats most likely to be good.

    Ordering is by descending p_good; within a tie class the leader comes
    first (a leader certain of its own goodness always joins its own team)
    and the rest break ties by ascending seat index. The fractions share the
    denominator `n_worlds`, so ranking by `good_worlds` orders seats alike.
    """
    if beliefs.contradictory:
        raise ContradictionError("cannot select a team from contradictory beliefs")
    if not 1 <= n <= len(ALL_SEATS):
        raise DeductionError(f"team size out of range: {n}")
    if leader not in ALL_PLAYERS:
        raise DeductionError(f"no such seat: {leader}")
    # A stable sort by descending count keeps the tie order: leader, then ascending seats.
    ties = [leader, *(p for p in ALL_SEATS if p != leader)]
    order = sorted(ties, key=beliefs.good_worlds.__getitem__, reverse=True)
    return frozenset(order[:n])


def brute_force_oracle(cs: ConstraintSet) -> BeliefState:
    """Reference beliefs from first principles.

    Filters every one of the 2520 role assignments with plain set logic
    and counts, independently of the mask-based enumeration above. Its
    counts are 72 times `belief(cs)`'s, one per role ordering of an evil
    set; the multiplicity cancels in the fraction, so its `p_good` must
    equal `belief(cs).p_good` exactly.
    """
    consistent = _role_worlds()
    for c in cs.constraints:
        consistent = [evil for evil in consistent if _oracle_satisfied(c, evil)]
    return BeliefState(
        good_worlds={p: sum(1 for evil in consistent if p not in evil) for p in ALL_SEATS} if consistent else {},
        n_worlds=len(consistent),
    )


def _oracle_satisfied(c: Constraint, evil: frozenset[int]) -> bool:
    inside = len(c.players & evil)
    if c.kind is ConstraintKind.IS_GOOD:
        return inside == 0
    if c.kind is ConstraintKind.IS_EVIL:
        return inside == len(c.players)
    if c.kind is ConstraintKind.AT_LEAST:
        return inside >= c.count
    if c.kind is ConstraintKind.AT_MOST:
        return inside <= c.count
    return inside == c.count


# ----- constraint extraction ------------------------------------------------


def facts_from_private(view: KnowledgeView) -> list[Constraint]:
    """Constraints a seat can assert from its own knowledge."""
    out: list[Constraint] = []
    if view.side is Side.JUST:
        out.append(Constraint.is_good(view.player))
    else:
        out.append(Constraint.is_evil(view.player))
    for fact in view.private_facts:
        if fact.kind is FactKind.EVIL_SET or fact.kind is FactKind.EVIL_TEAMMATES:
            out.extend(Constraint.is_evil(p) for p in sorted(fact.players))
        elif fact.kind is FactKind.MERLIN_MORGANA_PAIR:
            out.append(Constraint.exactly(fact.players, 1))
    # Deduplicate while preserving order (a seat may be named twice).
    return list(dict.fromkeys(out))


def facts_from_history(public_facts: Sequence[PublicFact]) -> list[Constraint]:
    """Constraints implied by executed quests under mandatory sabotage.

    A quest whose sabotage count was disclosed pins its team's evil
    membership exactly. Otherwise a failed quest had at least `threshold`
    evil members, a successful one at most `threshold - 1`.
    """
    out: list[Constraint] = []
    for fact in public_facts:
        t = SABOTAGE_THRESHOLDS[fact.round - 1]
        if fact.sabotage_count is not None:
            out.append(Constraint.exactly(fact.team, fact.sabotage_count))
        elif fact.success:
            if t == 1:
                out.append(Constraint.exactly(fact.team, 0))
            else:
                out.append(Constraint.at_most(fact.team, t - 1))
        else:
            out.append(Constraint.at_least(fact.team, t))
    return out
