"""Role dealing and the asymmetric knowledge each seat starts with.

Knowledge is strictly role-bound:

* Merlin learns which seats are evil, without role labels.
* Percival learns the unordered pair containing Merlin and Morgana.
* Every evil seat learns all evil seats, with role labels.
* Servants learn nothing beyond their own role.

A view never contains information its role could not know, and every fact
is satisfied by the true assignment that produced it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum

from .game import ALL_SEATS, ROLE_DECK, Role, Side, ValidationError, validate_roles
from .templates import join_players, render


class FactKind(str, Enum):
    EVIL_SET = "evil_set"
    MERLIN_MORGANA_PAIR = "merlin_morgana_pair"
    EVIL_TEAMMATES = "evil_teammates"


@dataclass(frozen=True)
class PrivateFact:
    kind: FactKind
    players: frozenset[int]
    text: str


@dataclass(frozen=True)
class KnowledgeView:
    player: int
    own_role: Role
    private_facts: tuple[PrivateFact, ...]

    @property
    def side(self) -> Side:
        return self.own_role.side


class RoleAssignment:
    """Mapping of the seven seats to the fixed role deck."""

    def __init__(self, seat_roles: dict[int, Role]) -> None:
        validate_roles(seat_roles)
        self._roles = dict(seat_roles)

    def __getitem__(self, seat: int) -> Role:
        return self._roles[seat]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RoleAssignment) and self._roles == other._roles

    def __hash__(self) -> int:
        return hash(tuple(sorted((s, r.value) for s, r in self._roles.items())))

    def as_dict(self) -> dict[int, Role]:
        return dict(self._roles)

    def side(self, seat: int) -> Side:
        return self._roles[seat].side

    def seat_of(self, role: Role) -> int:
        # Unique roles only; Servant appears twice and has no single seat.
        if role is Role.SERVANT:
            raise ValidationError("two seats hold Servant; query them via seats_of")
        return next(s for s, r in self._roles.items() if r is role)

    def seats_of(self, role: Role) -> list[int]:
        return sorted(s for s, r in self._roles.items() if r is role)

    def evil_seats(self) -> frozenset[int]:
        return frozenset(s for s, r in self._roles.items() if r.side is Side.EVIL)

    def to_json(self) -> dict[str, str]:
        return {str(s): r.value for s, r in sorted(self._roles.items())}

    @classmethod
    def from_json(cls, data: dict[str, str]) -> "RoleAssignment":
        return cls({int(s): Role(v) for s, v in data.items()})


def deal_roles(rng: random.Random) -> RoleAssignment:
    """Uniform deal over the 2520 distinct assignments of the deck."""
    deck = list(ROLE_DECK)
    rng.shuffle(deck)
    return RoleAssignment({seat: deck[i] for i, seat in enumerate(ALL_SEATS)})


def _evil_set_fact(assignment: RoleAssignment) -> PrivateFact:
    evil = assignment.evil_seats()
    return PrivateFact(
        kind=FactKind.EVIL_SET,
        players=evil,
        text=render("fact_evil_set", players=join_players(evil)),
    )


def _pair_fact(assignment: RoleAssignment) -> PrivateFact:
    pair = sorted((assignment.seat_of(Role.MERLIN), assignment.seat_of(Role.MORGANA)))
    return PrivateFact(
        kind=FactKind.MERLIN_MORGANA_PAIR,
        players=frozenset(pair),
        text=render("fact_merlin_morgana_pair", a=pair[0], b=pair[1]),
    )


def _teammates_fact(assignment: RoleAssignment) -> PrivateFact:
    evil = assignment.evil_seats()
    labels = join_players(evil, lambda s: f"player {s} is {assignment[s].value}")
    labels = labels[0].upper() + labels[1:] + "."
    return PrivateFact(
        kind=FactKind.EVIL_TEAMMATES,
        players=evil,
        text=render("fact_evil_teammates", players=join_players(evil), labels=labels),
    )


def knowledge_for(assignment: RoleAssignment, player: int) -> KnowledgeView:
    role = assignment[player]
    facts: list[PrivateFact] = []
    if role is Role.MERLIN:
        facts.append(_evil_set_fact(assignment))
    elif role is Role.PERCIVAL:
        facts.append(_pair_fact(assignment))
    elif role.side is Side.EVIL:
        facts.append(_teammates_fact(assignment))
    return KnowledgeView(player=player, own_role=role, private_facts=tuple(facts))
