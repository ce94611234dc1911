import collections
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avalonplay import deduction
from avalonplay.agents import DeductionAgent, Observation
from avalonplay.deduction import (
    GLOBAL_CONSTRAINT,
    BeliefState,
    Constraint,
    ConstraintKind,
    ConstraintSet,
    ContradictionError,
    DeductionError,
    belief,
    brute_force_oracle,
    facts_from_history,
    facts_from_private,
    live_worlds,
    select_team,
    success_probability,
)
from avalonplay.game import Phase
from avalonplay.knowledge import RoleAssignment, knowledge_for
from avalonplay.memory import PublicFact
from helpers import all_evil_sets, canonical_roles, random_constraint_set

ALL = frozenset(range(1, 8))


# ---------------------------------------------------------------------------
# Reference-oracle equivalence.  `brute_force_oracle` filters all 2520 role
# orderings with plain set logic, independently of the mask-based fast path,
# so pointwise exact equality over randomized constraint sets is the primary
# correctness check for the whole belief machinery.
# ---------------------------------------------------------------------------


class TestOracleEquivalence:
    def test_randomized_sets_match_oracle_exactly(self):
        rng = random.Random(977)
        n_contradictory = n_consistent = 0
        for _ in range(150):
            cs = random_constraint_set(rng)
            fast = belief(cs)
            slow = brute_force_oracle(cs)
            assert fast.p_good == slow.p_good
            assert fast.contradictory == slow.contradictory
            if fast.contradictory:
                n_contradictory += 1
            else:
                n_consistent += 1
                # 72 role orderings share each good/evil split.
                assert slow.n_worlds == 72 * fast.n_worlds
        assert n_contradictory > 10
        assert n_consistent > 10

    def test_empty_set_is_uniform(self):
        state = belief(ConstraintSet())
        assert state.n_worlds == 35
        assert state.p_good == {p: Fraction(4, 7) for p in ALL}
        assert brute_force_oracle(ConstraintSet()).p_good == state.p_good

    def test_single_side_constraints(self):
        good1 = belief(ConstraintSet((Constraint.is_good(1),)))
        assert good1.n_worlds == 20  # C(6, 3)
        assert good1.p_good[1] == 1
        assert good1.p_good[2] == Fraction(10, 20)
        evil1 = belief(ConstraintSet((Constraint.is_evil(1),)))
        assert evil1.n_worlds == 15  # C(6, 2)
        assert evil1.p_good[1] == 0
        assert evil1.p_good[2] == Fraction(10, 15)

    def test_contradiction_yields_empty_state(self):
        cs = ConstraintSet((Constraint.is_good(3), Constraint.is_evil(3)))
        state = belief(cs)
        assert state.contradictory
        assert state.n_worlds == 0
        assert state.p_good == {}


class TestFrozenScenario:
    CS = ConstraintSet(
        (
            Constraint.exactly({2, 4, 7}, 0),
            Constraint.exactly({1, 3}, 1),
            Constraint.at_least({1, 2, 4}, 1),
            Constraint.at_most({2, 3, 5, 7}, 1),
        )
    )

    def test_unique_world(self):
        state = belief(self.CS)
        assert state.n_worlds == 1
        assert frozenset(p for p in ALL if state.p_good[p] == 0) == frozenset({1, 5, 6})

    def test_beliefs_are_certain(self):
        state = belief(self.CS)
        assert state.n_worlds == 1
        for p in (2, 3, 4, 7):
            assert state.p_good[p] == 1
        for p in (1, 5, 6):
            assert state.p_good[p] == 0

    @pytest.mark.parametrize("leader", [1, 2, 5, 7])
    def test_team_selection_is_determined(self, leader):
        assert select_team(belief(self.CS), 4, leader) == frozenset({2, 3, 4, 7})


class TestWorldEnumeration:
    def test_side_level_order_and_count(self):
        assert belief(ConstraintSet()).n_worlds == 35
        # Bit i of the live-world mask is the i-th evil set in lexicographic order.
        for i, evil in enumerate(all_evil_sets()):
            pinned = ConstraintSet(tuple(Constraint.is_evil(p) for p in evil))
            assert live_worlds(pinned) == 1 << i
            state = belief(pinned)
            assert state.n_worlds == 1
            assert {p for p in ALL if state.p_good[p] == 1} == ALL - evil

    def test_role_level_multiplicity(self):
        # The oracle's table: one evil set per distinct role ordering.
        table = deduction._role_worlds()
        assert len(table) == 2520
        per_split = collections.Counter(table)
        assert set(per_split) == set(all_evil_sets())
        assert set(per_split.values()) == {72}
        assert brute_force_oracle(ConstraintSet()).n_worlds == 2520


def _plain_count_ok(c: Constraint, evil: frozenset[int]) -> bool:
    """Whether `c` holds when `evil` are the evil seats, by plain set logic."""
    inside = len(c.players & evil)
    return {
        ConstraintKind.IS_GOOD: inside == 0,
        ConstraintKind.IS_EVIL: inside == 1,
        ConstraintKind.AT_LEAST: inside >= c.count,
        ConstraintKind.AT_MOST: inside <= c.count,
        ConstraintKind.EXACTLY: inside == c.count,
    }[c.kind]


def _consistent_evil_sets(cs: ConstraintSet) -> list[frozenset[int]]:
    return [e for e in all_evil_sets() if all(_plain_count_ok(c, e) for c in cs.constraints)]


class TestSuccessProbability:
    """The mask-based success probability against a plain count over the 35 evil sets."""

    TEAMS = [
        frozenset(team)
        for size in range(1, 8)
        for team in itertools.combinations(sorted(ALL), size)
    ]

    def test_matches_enumeration_for_every_team_and_threshold(self):
        rng = random.Random(4242)
        n_contradictory = n_consistent = 0
        for _ in range(40):
            cs = random_constraint_set(rng)
            worlds = _consistent_evil_sets(cs)
            if not worlds:
                n_contradictory += 1
            else:
                n_consistent += 1
            for team in self.TEAMS:
                for threshold in range(1, 5):
                    fast = success_probability(cs, team, threshold)
                    if not worlds:
                        assert fast is None
                        continue
                    ok = sum(1 for evil in worlds if len(team & evil) < threshold)
                    assert fast == Fraction(ok, len(worlds)), (cs.constraints, sorted(team), threshold)
        assert n_contradictory > 3
        assert n_consistent > 3

    def test_contradictory_set_agrees_with_enumeration(self):
        cs = ConstraintSet((Constraint.is_good(3), Constraint.is_evil(3)))
        assert _consistent_evil_sets(cs) == []
        assert belief(cs).contradictory
        assert success_probability(cs, frozenset({1, 2}), 1) is None

    def test_uniform_worlds(self):
        # 20 of the 35 evil sets miss seat 1; C(5, 3) = 10 miss both 1 and 2.
        assert success_probability(ConstraintSet(), frozenset({1}), 1) == Fraction(20, 35)
        assert success_probability(ConstraintSet(), frozenset({1, 2}), 1) == Fraction(10, 35)
        assert success_probability(ConstraintSet(), frozenset(ALL), 4) == 1


def _fraction_ranking(p_good: dict[int, Fraction], n: int, leader: int) -> frozenset[int]:
    """The n seats of highest p_good, ranked by the fractions themselves:
    the leader first in its tie class, then ascending seats."""
    ties = [leader, *sorted(ALL - {leader})]
    return frozenset(sorted(ties, key=lambda p: p_good[p], reverse=True)[:n])


class TestRankingByCounts:
    """`select_team` ranks by integer world counts; it must pick the teams a
    ranking by the exact fractions picks, and so must a deduction leader."""

    def test_counts_rank_as_the_fractions_and_the_oracle_do(self):
        rng = random.Random(4242)
        view = knowledge_for(RoleAssignment(canonical_roles({5, 6, 7})), 1)
        n_contradictory = n_consistent = 0
        for index in range(40):
            cs = random_constraint_set(rng)
            fast, slow = belief(cs), brute_force_oracle(cs)
            for leader in sorted(ALL):
                for n in range(1, 8):
                    agent = DeductionAgent(leader, view, random.Random(index))
                    agent._constraints = lambda obs: cs
                    reply = agent.act(Observation(Phase.TEAM_SELECTION, team_size=n))
                    reference = random.Random(index)
                    if fast.contradictory:
                        assert slow.contradictory
                        # The random-team path, with the same single draw.
                        assert reply.action.members == frozenset(reference.sample(sorted(ALL), n))
                        assert reply.trace == {"fallback": True}
                        assert agent.rng.getstate() == reference.getstate()
                        continue
                    team = select_team(fast, n, leader)
                    assert team == _fraction_ranking(fast.p_good, n, leader)
                    assert team == _fraction_ranking(slow.p_good, n, leader), (cs.constraints, leader, n)
                    assert reply.action.members == team and reply.audit is None
                    assert agent.rng.getstate() == reference.getstate()
            n_contradictory += fast.contradictory
            n_consistent += not fast.contradictory
        assert n_contradictory > 3
        assert n_consistent > 3


class TestSelectTeam:
    def uniform(self):
        return belief(ConstraintSet())

    def test_leader_heads_its_tie_class(self):
        assert select_team(self.uniform(), 2, leader=1) == frozenset({1, 2})
        assert select_team(self.uniform(), 2, leader=5) == frozenset({5, 1})
        assert select_team(self.uniform(), 3, leader=5) == frozenset({5, 1, 2})

    def test_leader_priority_does_not_cross_belief_classes(self):
        state = belief(ConstraintSet((Constraint.is_evil(1),)))
        # Seat 1 is certainly evil; leadership must not pull it onto the team.
        assert select_team(state, 2, leader=1) == frozenset({2, 3})

    def test_certain_good_come_first(self):
        state = belief(TestFrozenScenario.CS)
        assert select_team(state, 2, leader=6) == frozenset({2, 3})

    def test_errors(self):
        with pytest.raises(ContradictionError):
            select_team(BeliefState(good_worlds={}, n_worlds=0), 2, 1)
        with pytest.raises(DeductionError):
            select_team(self.uniform(), 0, 1)
        with pytest.raises(DeductionError):
            select_team(self.uniform(), 8, 1)
        with pytest.raises(DeductionError):
            select_team(self.uniform(), 2, 9)


class TestConstraintValidation:
    def test_rejects_bad_inputs(self):
        with pytest.raises(DeductionError):
            Constraint(ConstraintKind.AT_LEAST, frozenset(), 1)
        with pytest.raises(DeductionError):
            Constraint(ConstraintKind.AT_LEAST, frozenset({1, 9}), 1)
        with pytest.raises(DeductionError):
            Constraint(ConstraintKind.IS_GOOD, frozenset({1, 2}))
        with pytest.raises(DeductionError):
            Constraint(ConstraintKind.AT_MOST, frozenset({1, 2}), 3)
        with pytest.raises(DeductionError):
            Constraint(ConstraintKind.EXACTLY, frozenset({1, 2}), -1)

    def test_constructors(self):
        assert Constraint.is_good(3).players == frozenset({3})
        assert Constraint.at_least({1, 2}, 1).kind is ConstraintKind.AT_LEAST
        assert Constraint.at_most({1, 2}, 1).kind is ConstraintKind.AT_MOST
        assert Constraint.exactly({1, 2}, 1).kind is ConstraintKind.EXACTLY


class TestConstraintSet:
    def test_global_constraint_always_present_once(self):
        assert ConstraintSet().constraints == (GLOBAL_CONSTRAINT,)
        cs = ConstraintSet((Constraint.exactly(ALL, 3), Constraint.is_good(1)))
        assert [c.kind for c in cs.constraints].count(ConstraintKind.EXACTLY) == 1
        assert cs.constraints[0] == GLOBAL_CONSTRAINT


# ---------------------------------------------------------------------------
# Constraint extraction from private knowledge and quest history.
# ---------------------------------------------------------------------------


def signature(constraints):
    return [(c.kind, c.players, c.count) for c in constraints]


class TestFactsFromPrivate:
    def setup_method(self):
        self.ra = RoleAssignment(canonical_roles({5, 6, 7}))

    def test_merlin_knows_every_evil_seat(self):
        facts = facts_from_private(knowledge_for(self.ra, 1))
        assert signature(facts) == [
            (ConstraintKind.IS_GOOD, frozenset({1}), 0),
            (ConstraintKind.IS_EVIL, frozenset({5}), 0),
            (ConstraintKind.IS_EVIL, frozenset({6}), 0),
            (ConstraintKind.IS_EVIL, frozenset({7}), 0),
        ]
        state = belief(ConstraintSet(tuple(facts)))
        assert state.n_worlds == 1
        assert state.p_good[5] == 0 and state.p_good[2] == 1

    def test_percival_sees_an_ambiguous_pair(self):
        facts = facts_from_private(knowledge_for(self.ra, 2))
        assert signature(facts) == [
            (ConstraintKind.IS_GOOD, frozenset({2}), 0),
            (ConstraintKind.EXACTLY, frozenset({1, 5}), 1),
        ]
        state = belief(ConstraintSet(tuple(facts)))
        assert state.p_good[1] == state.p_good[5]
        assert 0 < state.p_good[1] < 1

    def test_servant_knows_only_itself(self):
        facts = facts_from_private(knowledge_for(self.ra, 3))
        assert signature(facts) == [(ConstraintKind.IS_GOOD, frozenset({3}), 0)]

    def test_evil_seat_knows_whole_team_without_duplicates(self):
        facts = facts_from_private(knowledge_for(self.ra, 5))
        assert signature(facts) == [
            (ConstraintKind.IS_EVIL, frozenset({5}), 0),
            (ConstraintKind.IS_EVIL, frozenset({6}), 0),
            (ConstraintKind.IS_EVIL, frozenset({7}), 0),
        ]
        state = belief(ConstraintSet(tuple(facts)))
        assert state.n_worlds == 1


class TestFactsFromHistory:
    def test_threshold_one_success_pins_team_good(self):
        facts = facts_from_history([PublicFact(1, frozenset({1, 2}), True, None)])
        assert signature(facts) == [(ConstraintKind.EXACTLY, frozenset({1, 2}), 0)]

    def test_threshold_two_success_allows_one_evil(self):
        facts = facts_from_history([PublicFact(4, frozenset({1, 2, 3, 4}), True, None)])
        assert signature(facts) == [(ConstraintKind.AT_MOST, frozenset({1, 2, 3, 4}), 1)]

    @pytest.mark.parametrize("rnd,count", [(1, 1), (2, 1), (3, 1), (4, 2), (5, 2)])
    def test_failure_uses_round_threshold(self, rnd, count):
        team = frozenset({1, 2, 3})
        facts = facts_from_history([PublicFact(rnd, team, False, None)])
        assert signature(facts) == [(ConstraintKind.AT_LEAST, team, count)]

    def test_revealed_counts_pin_exact_membership(self):
        facts = facts_from_history([PublicFact(2, frozenset({1, 2, 4}), False, 2)])
        assert signature(facts) == [(ConstraintKind.EXACTLY, frozenset({1, 2, 4}), 2)]

    def test_multi_round_accumulation(self):
        history = [
            PublicFact(1, frozenset({1, 2}), True, None),
            PublicFact(2, frozenset({3, 4, 5}), False, None),
        ]
        facts = facts_from_history(history)
        state = belief(ConstraintSet(tuple(facts)))
        assert state.p_good[1] == 1 and state.p_good[2] == 1
        assert state.p_good[3] < Fraction(4, 7)


# ---------------------------------------------------------------------------
# Properties.
# ---------------------------------------------------------------------------

constraint_sets = st.integers(min_value=0, max_value=2**32 - 1).map(
    lambda seed: random_constraint_set(random.Random(seed))
)
seat_permutations = st.permutations(list(range(1, 8)))


def apply_permutation(cs: ConstraintSet, perm: dict[int, int]) -> ConstraintSet:
    return ConstraintSet(
        tuple(
            Constraint(c.kind, frozenset(perm[p] for p in c.players), c.count)
            for c in cs.constraints
        )
    )


@settings(max_examples=60)
@given(constraint_sets)
def test_property_belief_matches_oracle(cs):
    fast, slow = belief(cs), brute_force_oracle(cs)
    assert fast.p_good == slow.p_good
    assert fast.contradictory == slow.contradictory


@settings(max_examples=60)
@given(constraint_sets, seat_permutations)
def test_property_beliefs_are_permutation_equivariant(cs, perm_list):
    perm = {old: new for old, new in zip(range(1, 8), perm_list)}
    state, permuted = belief(cs), belief(apply_permutation(cs, perm))
    assert permuted.n_worlds == state.n_worlds
    if not state.contradictory:
        assert {perm[p]: v for p, v in state.p_good.items()} == permuted.p_good


@settings(max_examples=60)
@given(constraint_sets, constraint_sets)
def test_property_adding_constraints_never_widens_beliefs(a, b):
    combined = ConstraintSet(a.constraints + b.constraints)
    assert belief(combined).n_worlds <= belief(a).n_worlds


@settings(max_examples=60)
@given(constraint_sets)
def test_property_beliefs_average_to_global_ratio(cs):
    state = belief(cs)
    if not state.contradictory:
        assert sum(state.p_good.values()) == 4
