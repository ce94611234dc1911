import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avalonplay.agents import (
    AgentSpec,
    Assassinate,
    DeductionAgent,
    Discuss,
    LLMAgent,
    Observation,
    QuestVote,
    RandomAgent,
    ScriptedEvilAgent,
    SelectTeam,
    TeamVote,
    build_strategy_prompt,
    make_agent,
)
from avalonplay.agents import _backs_team
from avalonplay.deduction import live_worlds, success_counts, success_probability
from avalonplay.game import GameConfig, GameEngine, Phase, Side
from avalonplay.knowledge import RoleAssignment, knowledge_for
from avalonplay.llm import MockLLM, MockRule
from avalonplay.memory import PublicFact, public_facts_from_history
from avalonplay.prompts import PromptBundle
from helpers import canonical_roles, random_constraint_set, run_round

RA = RoleAssignment(canonical_roles({5, 6, 7}))


def view(seat):
    return knowledge_for(RA, seat)


def bundle(action="Do the thing.", history=""):
    return PromptBundle(
        game_rule="rules",
        role_assignment="role",
        role_identification="ident",
        game_history=history,
        action_description=action,
    )


def obs(phase, **kwargs):
    return Observation(phase=phase, **kwargs)


class TestAgentSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            AgentSpec(policy="wizard")
        with pytest.raises(ValueError):
            AgentSpec(strategy="guess")

    def test_round_trip(self):
        spec = AgentSpec(policy="llm", strategy="react", model="m", temperature_text=0.2)
        assert AgentSpec.from_dict(spec.to_dict()) == spec


class TestRandomAgent:
    def test_is_deterministic_under_a_seeded_rng(self):
        replies = [
            RandomAgent(1, view(1), random.Random(7)).act(obs(Phase.TEAM_SELECTION, team_size=3))
            for _ in range(2)
        ]
        assert replies[0].action == replies[1].action
        assert len(replies[0].action.members) == 3

    def test_vote_reasoning_matches_ballot(self):
        rng = random.Random(3)
        agent = RandomAgent(1, view(1), rng)
        for _ in range(20):
            reply = agent.act(obs(Phase.TEAM_VOTE, proposed_team=frozenset({1, 2})))
            expected = "I agree with this team." if reply.action.approve else "I disagree with this team."
            assert reply.action.reasoning == expected

    def test_quest_vote_follows_side(self):
        assert RandomAgent(1, view(1), random.Random(0)).act(obs(Phase.QUEST_EXECUTION)).action.approve
        assert not RandomAgent(5, view(5), random.Random(0)).act(obs(Phase.QUEST_EXECUTION)).action.approve

    def test_assassination_avoids_known_evil(self):
        agent = RandomAgent(6, view(6), random.Random(0))
        targets = {agent.act(obs(Phase.ASSASSINATION)).action.target for _ in range(40)}
        assert targets <= {1, 2, 3, 4}

    def test_discussion(self):
        reply = RandomAgent(1, view(1), random.Random(0)).act(obs(Phase.DISCUSSION))
        assert reply.action == Discuss("I have nothing to add.")


class TestScriptedEvilAgent:
    def test_team_stacks_evil_seats(self):
        agent = ScriptedEvilAgent(6, view(6), random.Random(0))
        assert agent.act(obs(Phase.TEAM_SELECTION, team_size=2)).action.members == frozenset({6, 5})
        assert agent.act(obs(Phase.TEAM_SELECTION, team_size=4)).action.members == frozenset({6, 5, 7, 1})

    def test_votes_for_teams_with_evil_presence(self):
        agent = ScriptedEvilAgent(5, view(5), random.Random(0))
        yes = agent.act(obs(Phase.TEAM_VOTE, proposed_team=frozenset({5, 1})))
        no = agent.act(obs(Phase.TEAM_VOTE, proposed_team=frozenset({1, 2})))
        assert yes.action.approve and not no.action.approve
        assert no.action.reasoning == "I disagree with this team."

    def test_discussion_casts_suspicion_on_just_seats(self):
        agent = ScriptedEvilAgent(5, view(5), random.Random(1))
        for _ in range(20):
            text = agent.act(obs(Phase.DISCUSSION)).action.text
            target = int(text.split("player ")[1].split(".")[0])
            assert target in {1, 2, 3, 4}
            assert "Something about their choices feels off." in text

    def test_sabotages_quests(self):
        assert not ScriptedEvilAgent(7, view(7), random.Random(0)).act(obs(Phase.QUEST_EXECUTION)).action.approve


class TestDeductionAgent:
    def test_merlin_selects_only_just_seats(self):
        agent = DeductionAgent(1, view(1), random.Random(0))
        reply = agent.act(obs(Phase.TEAM_SELECTION, team_size=4))
        assert reply.action.members == frozenset({1, 2, 3, 4})

    def test_leader_claims_its_own_seat_under_uncertainty(self):
        agent = DeductionAgent(3, view(3), random.Random(0))
        reply = agent.act(obs(Phase.TEAM_SELECTION, team_size=2))
        assert 3 in reply.action.members

    def test_history_steers_selection(self):
        failed = (PublicFact(1, frozenset({6, 7}), False, None),)
        agent = DeductionAgent(3, view(3), random.Random(0))
        reply = agent.act(obs(Phase.TEAM_SELECTION, team_size=4, public_facts=failed))
        assert reply.action.members & frozenset({6, 7}) == frozenset()

    def test_just_vote_threshold(self):
        agent = DeductionAgent(2, view(2), random.Random(0))
        # Percival: {1,5} contains exactly one evil; a 2-team from that pair
        # fails half the worlds, and the tie goes to approval.
        reply = agent.act(
            obs(Phase.TEAM_VOTE, proposed_team=frozenset({2, 3}), threshold=1)
        )
        assert reply.action.approve
        risky = agent.act(
            obs(Phase.TEAM_VOTE, proposed_team=frozenset({6, 7}), threshold=1)
        )
        assert not risky.action.approve

    def test_evil_vote_threshold_is_mirrored(self):
        agent = DeductionAgent(5, view(5), random.Random(0))
        clean = agent.act(obs(Phase.TEAM_VOTE, proposed_team=frozenset({1, 2}), threshold=1))
        assert not clean.action.approve
        dirty = agent.act(obs(Phase.TEAM_VOTE, proposed_team=frozenset({5, 6}), threshold=1))
        assert dirty.action.approve

    def test_contradictory_beliefs_fall_back_with_an_error_report(self):
        agent = DeductionAgent(1, view(1), random.Random(0))
        impossible = (
            PublicFact(1, frozenset({1, 2}), False, None),  # >=1 evil in {1,2}
        )
        # Merlin knows 1 and 2 are just, so this history is contradictory.
        reply = agent.act(obs(Phase.TEAM_SELECTION, team_size=2, public_facts=impossible))
        assert len(reply.action.members) == 2
        assert reply.trace == {"fallback": True}
        assert reply.audit[0] == "contradiction_fallback"
        assert reply.audit[2] == {"team": sorted(reply.action.members)}

    def test_discussion_reflects_assessment(self):
        agent = DeductionAgent(1, view(1), random.Random(0))
        fine = agent.act(obs(Phase.DISCUSSION, proposed_team=frozenset({1, 2}), threshold=1))
        assert fine.action.text == "I have no objection to this team."
        bad = agent.act(obs(Phase.DISCUSSION, proposed_team=frozenset({5, 6}), threshold=1))
        assert bad.action.text == "I am not convinced by this team."


@settings(max_examples=300)
@given(
    st.integers(min_value=0, max_value=2**32 - 1).map(lambda seed: random_constraint_set(random.Random(seed))),
    st.sets(st.integers(min_value=1, max_value=7), min_size=1).map(frozenset),
    st.integers(min_value=1, max_value=2),
    st.sampled_from(Side),
)
def test_property_integer_rule_matches_the_fraction_rule(cs, team, threshold, side):
    """The vote and discussion rule on world counts decides as the exact
    success probability against one half would, and is None exactly when no
    world is live."""
    live = live_worlds(cs)
    verdict = _backs_team(*success_counts(live, team, threshold), side)
    p = success_probability(cs, team, threshold)
    assert (verdict is None) == (p is None) == (live == 0)
    if p is not None:
        assert verdict == (p >= Fraction(1, 2) if side is Side.JUST else p <= Fraction(1, 2))


class TestStrategyPrompt:
    def test_base_is_bare(self):
        messages = build_strategy_prompt("base", bundle("Pick."))
        assert [m.role for m in messages] == ["system", "user"]
        assert messages[1].content == "Pick."

    def test_cot_appends_deliberation_request(self):
        messages = build_strategy_prompt("cot", bundle("Pick."))
        assert messages[1].content.startswith("Pick.\n\n")
        assert "step by step" in messages[1].content

    def test_react_appends_thought_action_format(self):
        messages = build_strategy_prompt("react", bundle("Pick."))
        assert "Thought:" in messages[1].content

    def test_codeact_matches_base_for_non_code_decisions(self):
        assert build_strategy_prompt("codeact", bundle("Pick.")) == build_strategy_prompt(
            "base", bundle("Pick.")
        )

    def test_history_precedes_action(self):
        messages = build_strategy_prompt("base", bundle("Pick.", history="History here."))
        assert messages[1].content == "History here.\n\nPick."

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            build_strategy_prompt("guess", bundle())


class TestLLMAgent:
    def agent(self, rules, seat=1, strategy="base"):
        spec = AgentSpec(policy="llm", strategy=strategy)
        return LLMAgent(seat, view(seat), random.Random(0), MockLLM(rules), spec)

    def test_requires_bundle(self):
        agent = self.agent([MockRule("x", max_uses=None)])
        with pytest.raises(ValueError, match="prompt bundle"):
            agent.act(obs(Phase.DISCUSSION))

    def test_discussion_returns_stripped_text(self):
        agent = self.agent([MockRule("  A statement. \n", phase="discussion")])
        reply = agent.act(obs(Phase.DISCUSSION, bundle=bundle()))
        assert reply.action == Discuss("A statement.")
        assert reply.trace["exchanges"][0]["tag"] == "discussion"

    def test_team_selection_success(self):
        agent = self.agent([MockRule("I choose player 2 and myself.", phase="team_selection")])
        reply = agent.act(obs(Phase.TEAM_SELECTION, bundle=bundle(), team_size=2))
        assert reply.action.members == frozenset({1, 2})
        assert reply.trace["final_text"] == "I choose player 2 and myself."
        assert "raw_attempts" not in reply.trace or not reply.trace["raw_attempts"]

    def test_reprompt_recovers(self):
        agent = self.agent(
            [
                MockRule("The team should be balanced.", phase="team_selection"),
                MockRule("[1, 2]", phase="team_selection", pattern="could not be used"),
            ]
        )
        reply = agent.act(obs(Phase.TEAM_SELECTION, bundle=bundle(), team_size=2))
        assert reply.action.members == frozenset({1, 2})
        assert len(reply.trace["raw_attempts"]) == 1
        first = reply.trace["raw_attempts"][0]
        assert first["error_kind"] == "NoPlayersFound"
        assert "fallback" not in reply.trace
        # The reprompt echoes the unusable reply back to the model.
        retry_request = reply.trace["exchanges"][1]["request"]
        assert retry_request[2]["role"] == "assistant"
        assert retry_request[2]["content"] == "The team should be balanced."
        assert "could not be used" in retry_request[3]["content"]

    def test_double_failure_falls_back_to_random_team(self):
        agent = self.agent(
            [MockRule("no help at all", phase="team_selection", max_uses=None)],
        )
        reply = agent.act(obs(Phase.TEAM_SELECTION, bundle=bundle(), team_size=3))
        assert len(reply.action.members) == 3
        assert reply.trace["fallback"] is True
        assert len(reply.trace["raw_attempts"]) == 2
        assert reply.audit[0] == "parse_fallback"

    def test_vote_success_and_fallback(self):
        good = self.agent(
            [MockRule('{"reasoning": "Fine.", "vote": "reject"}', phase="team_vote")]
        )
        reply = good.act(obs(Phase.TEAM_VOTE, bundle=bundle(), proposed_team=frozenset({1, 2})))
        assert reply.action == TeamVote(reasoning="Fine.", approve=False)

        assert reply.audit is None
        bad = self.agent([MockRule("nope", phase="team_vote", max_uses=None)])
        fallback = bad.act(obs(Phase.TEAM_VOTE, bundle=bundle(), proposed_team=frozenset({1, 2})))
        assert fallback.action == TeamVote(reasoning="", approve=True)
        assert fallback.audit[0] == "parse_fallback"

    def test_quest_vote_fallback_is_side_correct(self):
        evil = self.agent([MockRule("???", phase="quest_vote", max_uses=None)], seat=5)
        reply = evil.act(obs(Phase.QUEST_EXECUTION, bundle=bundle()))
        assert reply.action == QuestVote(approve=False)
        just = self.agent([MockRule("???", phase="quest_vote", max_uses=None)], seat=2)
        assert just.act(obs(Phase.QUEST_EXECUTION, bundle=bundle())).action.approve

    def test_assassination(self):
        agent = self.agent([MockRule("Final answer: player 2.", phase="assassination")], seat=6)
        reply = agent.act(obs(Phase.ASSASSINATION, bundle=bundle()))
        assert reply.action == Assassinate(target=2)

    def test_codeact_team_selection_runs_code(self):
        agent = self.agent(
            [MockRule("```python\nprint([2, 3])\n```", phase="code_generation")],
            strategy="codeact",
        )
        reply = agent.act(obs(Phase.TEAM_SELECTION, bundle=bundle(), team_size=2))
        assert reply.action.members == frozenset({2, 3})
        assert reply.trace["codeact"]["attempts_used"] == 1
        assert reply.trace["codeact"]["fell_back"] is False
        assert reply.trace["required_n"] == 2

    def test_codeact_prompt_holds_private_facts_and_quest_history(self):
        engine = GameEngine(GameConfig(), RA.as_dict(), seed=1)
        run_round(engine, {1, 2})
        run_round(engine, {5, 6, 1})
        facts = public_facts_from_history(engine.state.quest_history, False)
        assert [f.round for f in facts] == [1, 2]
        for seat in (1, 3):  # Merlin, then a Servant with no private facts
            agent = self.agent(
                [MockRule("I cannot write code.", phase="code_generation", max_uses=None)],
                seat=seat,
                strategy="codeact",
            )
            reply = agent.act(
                obs(Phase.TEAM_SELECTION, bundle=bundle(), team_size=3, public_facts=facts)
            )
            prompt = reply.trace["exchanges"][0]["request"][-1]["content"]
            private = view(seat).private_facts
            assert all(f.text in prompt for f in private)
            assert ("(no private information)" in prompt) == (not private)
            assert all(f.render() in prompt for f in facts)

    def test_codeact_exhaustion_uses_deduction_and_reports(self):
        agent = self.agent(
            [MockRule("I cannot write code.", phase="code_generation", max_uses=None)],
            strategy="codeact",
        )
        reply = agent.act(obs(Phase.TEAM_SELECTION, bundle=bundle(), team_size=4))
        # Merlin's deduction fallback picks the four seats it knows are just.
        assert reply.action.members == frozenset({1, 2, 3, 4})
        assert reply.trace["codeact"]["fell_back"] is True
        assert reply.trace["fallback"] is True
        assert reply.audit == (
            "codeact_fallback",
            "no generated program produced a usable team; used deduction instead",
            {"team": [1, 2, 3, 4], "attempts": 3},
        )

    def test_evil_codeact_leader_uses_the_text_path(self):
        agent = self.agent(
            [MockRule("I choose player 5 and player 6.", phase="team_selection")],
            seat=5,
            strategy="codeact",
        )
        reply = agent.act(obs(Phase.TEAM_SELECTION, bundle=bundle(), team_size=2))
        assert reply.action.members == frozenset({5, 6})


class TestMakeAgent:
    def test_policies_map_to_classes(self):
        rng = random.Random(0)
        assert isinstance(make_agent(AgentSpec("random"), 1, view(1), rng), RandomAgent)
        assert isinstance(make_agent(AgentSpec("scripted_evil"), 5, view(5), rng), ScriptedEvilAgent)
        assert isinstance(make_agent(AgentSpec("deduction"), 1, view(1), rng), DeductionAgent)
        llm = make_agent(AgentSpec("llm"), 1, view(1), rng, client=MockLLM([]))
        assert isinstance(llm, LLMAgent)

    def test_llm_without_client_rejected(self):
        with pytest.raises(ValueError, match="client"):
            make_agent(AgentSpec("llm"), 1, view(1), random.Random(0))
