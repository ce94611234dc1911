from __future__ import annotations

import random
from collections import Counter

import pytest

from avalonplay.game import ALL_SEATS, Role, Side, ValidationError
from avalonplay.knowledge import (
    FactKind,
    RoleAssignment,
    deal_roles,
    knowledge_for,
)
from helpers import canonical_roles


class TestRoleAssignment:
    def test_requires_full_deck(self):
        with pytest.raises(ValidationError):
            RoleAssignment({p: Role.SERVANT for p in ALL_SEATS})
        missing = canonical_roles({5, 6, 7})
        del missing[7]
        with pytest.raises(ValidationError):
            RoleAssignment(missing)

    def test_lookups(self):
        ra = RoleAssignment(canonical_roles({5, 6, 7}))
        assert ra[1] is Role.MERLIN
        assert ra.side(5) is Side.EVIL
        assert ra.seat_of(Role.ASSASSIN) == 6
        assert ra.seats_of(Role.SERVANT) == [3, 4]
        assert ra.evil_seats() == frozenset({5, 6, 7})
        with pytest.raises(ValidationError):
            ra.seat_of(Role.SERVANT)

    def test_json_round_trip(self):
        ra = RoleAssignment(canonical_roles({1, 3, 6}))
        assert RoleAssignment.from_json(ra.to_json()) == ra

    def test_deal_is_seeded(self):
        assert deal_roles(random.Random(5)) == deal_roles(random.Random(5))
        assert deal_roles(random.Random(5)) != deal_roles(random.Random(6))


class TestPrivateKnowledge:
    def test_merlin_sees_exact_evil_set(self):
        ra = RoleAssignment(canonical_roles({2, 4, 7}))
        view = knowledge_for(ra, ra.seat_of(Role.MERLIN))
        (fact,) = view.private_facts
        assert fact.kind is FactKind.EVIL_SET
        assert fact.players == frozenset({2, 4, 7})
        assert fact.text == "Players 2, 4, and 7 belong to the evil side."

    def test_percival_sees_unordered_pair(self):
        ra = RoleAssignment(canonical_roles({2, 4, 7}))
        merlin = ra.seat_of(Role.MERLIN)
        morgana = ra.seat_of(Role.MORGANA)
        view = knowledge_for(ra, ra.seat_of(Role.PERCIVAL))
        (fact,) = view.private_facts
        assert fact.kind is FactKind.MERLIN_MORGANA_PAIR
        assert fact.players == frozenset({merlin, morgana})
        a, b = sorted((merlin, morgana))
        assert fact.text == (
            f"Among players {a} and {b}, one is good and the other evil, "
            "but you can't discern who is who."
        )

    def test_servant_sees_nothing(self):
        ra = RoleAssignment(canonical_roles({2, 4, 7}))
        for seat in ra.seats_of(Role.SERVANT):
            assert knowledge_for(ra, seat).private_facts == ()

    def test_evil_see_teammates_with_role_labels(self):
        ra = RoleAssignment(canonical_roles({2, 4, 7}))  # 2=Morgana 4=Assassin 7=Minion
        for seat in (2, 4, 7):
            view = knowledge_for(ra, seat)
            (fact,) = view.private_facts
            assert fact.kind is FactKind.EVIL_TEAMMATES
            assert fact.players == frozenset({2, 4, 7})
            assert fact.text == (
                "Players 2, 4, and 7 belong to the evil side. "
                "Player 2 is Morgana, player 4 is Assassin, and player 7 is Minion."
            )
            assert view.side is Side.EVIL

    def test_soundness_sweep_small(self):
        # Every generated fact is satisfied by the assignment it came from.
        for seed in range(300):
            ra = deal_roles(random.Random(seed))
            evil = set(ra.evil_seats())
            for seat in ALL_SEATS:
                for fact in knowledge_for(ra, seat).private_facts:
                    if fact.kind is FactKind.EVIL_SET or fact.kind is FactKind.EVIL_TEAMMATES:
                        assert set(fact.players) == evil
                    else:
                        inside = set(fact.players) & evil
                        assert len(fact.players) == 2 and len(inside) == 1
                        assert ra.seat_of(Role.MERLIN) in fact.players
                        assert ra.seat_of(Role.MORGANA) in fact.players


def test_deal_distribution_uniform_enough():
    # Merlin should land on each seat about 1/7 of the time.
    n = 14000
    counts = Counter(deal_roles(random.Random(seed)).seat_of(Role.MERLIN) for seed in range(n))
    for seat in ALL_SEATS:
        assert abs(counts[seat] / n - 1 / 7) < 0.02
