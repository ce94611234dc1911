from __future__ import annotations

import pytest

from avalonplay.game import ALL_SEATS, GameConfig, GameEngine, Phase, ProtocolError, Role
from avalonplay.knowledge import RoleAssignment, knowledge_for
from avalonplay.memory import GlobalMemory
from avalonplay.prompts import (
    build_bundle,
    render_action_description,
    render_game_history,
    render_global_prompt,
)
from avalonplay.templates import fill, join_players, load_template, render
from helpers import approve_all, canonical_roles, speak_all


class TestTemplateMachinery:
    def test_loading_strips_trailing_newline_only(self):
        text = load_template("role_servant")
        assert not text.endswith("\n")
        assert text.startswith("You are a Servant of Arthur")

    def test_missing_template_raises(self):
        with pytest.raises(FileNotFoundError):
            load_template("no_such_template")

    def test_fill_is_literal_and_leaves_json_braces(self):
        rendered = render("action_team_vote", player=4)
        assert "Now it's your turn, player 4." in rendered
        # The JSON example braces are not templating syntax.
        assert '{"reasoning": "<your reasoning>", "vote": "approve"}' in rendered

    def test_fill_replaces_every_occurrence(self):
        assert fill("{x} and {x}", x=3) == "3 and 3"

    def test_join_players(self):
        assert join_players([4]) == "4"
        assert join_players([4, 1]) == "1 and 4"
        assert join_players([2, 6, 1]) == "1, 2, and 6"
        assert join_players([], str) == ""
        assert join_players([3, 1], lambda p: f"player {p}") == "player 1 and player 3"


class TestFrozenWording:
    def test_game_rule_text(self):
        rule = load_template("game_rule")
        assert rule.startswith("You are playing the Avalon game with some other players.")
        assert "he organised this game" in rule
        assert "What the modeler said is unquestionable and absolutely true." in rule
        assert "Merlin, Percival, and Loyal Servants of Arthur form the just side" in rule
        assert "Morgana, Assassin, and Minion belong to the evil side." in rule
        assert "privy to their teammates' identities" in rule
        assert "Tips: If you think a player is evil side" in rule
        assert "Do not pretend you are other players or the moderator." in rule

    @pytest.mark.parametrize(
        "name,phrase",
        [
            ("role_merlin", "Should the assassin identify you after the just side completes three quests"),
            ("role_merlin", "aware of the evil presences"),
            ("role_percival", "Morgana might mislead you by appearing as Merlin"),
            ("role_servant", "with no special abilities, belonging to the just side"),
            ("role_morgana", "appearing as Merlin to Percival, weaving a web of confusion"),
            ("role_assassin", "identifying Merlin can secure a win for the evil side"),
            ("role_minion", "You are a Minion of Mordred, without special abilities"),
        ],
    )
    def test_role_prompts(self, name, phrase):
        assert phrase in load_template(name)

    def test_just_roles_state_quest_success_objective(self):
        for name in ("role_merlin", "role_percival", "role_servant"):
            assert load_template(name).endswith("Your objective is to ensure the success of the quests.")
        for name in ("role_morgana", "role_assassin", "role_minion"):
            assert load_template(name).endswith("Your objective is to ensure the quest fails.")

    def test_team_selection_instruction(self):
        text = render("action_team_selection", leader=3, n=4)
        assert text == (
            "Player 3, as the team leader, please select 4 team members to "
            "undertake the quest. You may also choose yourself."
        )


class TestGlobalPrompt:
    def test_identification_per_role(self):
        ra = RoleAssignment(canonical_roles({2, 4, 7}))
        rule, role_text, ident = render_global_prompt(knowledge_for(ra, ra.seat_of(Role.MERLIN)))
        assert rule == load_template("game_rule")
        assert role_text == load_template("role_merlin")
        assert ident == "Players 2, 4, and 7 belong to the evil side."
        # A servant has no identification block at all.
        servant = ra.seats_of(Role.SERVANT)[0]
        _, _, ident = render_global_prompt(knowledge_for(ra, servant))
        assert ident == ""

    def test_system_text_omits_empty_identification(self):
        ra = RoleAssignment(canonical_roles({2, 4, 7}))
        engine = GameEngine(GameConfig(), ra.as_dict(), seed=1)
        engine.assign_first_leader()
        servant = ra.seats_of(Role.SERVANT)[0]
        memory = GlobalMemory(servant, 15)
        for event in engine.events:
            memory.ingest_event(event)
        if servant != engine.state.leader:
            with pytest.raises(ProtocolError):
                build_bundle(engine, knowledge_for(ra, servant), memory)
        leader = engine.state.leader
        memory_l = GlobalMemory(leader, 15)
        for event in engine.events:
            memory_l.ingest_event(event)
        bundle = build_bundle(engine, knowledge_for(ra, leader), memory_l)
        assert bundle.system_text().count("\n\n") >= 1
        assert bundle.user_text().endswith("You may also choose yourself.")


class TestInformationHygiene:
    def _bundles_for_all(self, engine, ra, memories):
        bundles = {}
        for seat in engine.expected_actors():
            bundles[seat] = build_bundle(engine, knowledge_for(ra, seat), memories[seat])
        return bundles

    def test_no_seat_sees_another_seats_secrets(self):
        ra = RoleAssignment(canonical_roles({5, 6, 7}))
        engine = GameEngine(GameConfig(), ra.as_dict(), seed=2)
        memories = {p: GlobalMemory(p, 15) for p in ALL_SEATS}

        def pump():
            for memory in memories.values():
                memory.catch_up(engine.events)

        engine.assign_first_leader()
        pump()
        engine.propose_team({engine.state.leader, 1} if engine.state.leader != 1 else {1, 2})
        pump()
        speak_all(engine)
        pump()
        ballots = {p: p % 2 == 1 for p in ALL_SEATS}  # 1,3,5,7 approve
        engine.submit_ballots(ballots)
        pump()

        evil = {5, 6, 7}
        for seat in ALL_SEATS:
            bundle = build_bundle(
                engine, knowledge_for(ra, seat), memories[seat]
            ) if seat in engine.expected_actors() else None
            history = render_game_history(memories[seat])
            # Another seat's ballot confirmation never leaks.
            for other in ALL_SEATS:
                if other == seat:
                    continue
                verb = "approve" if ballots[other] else "reject"
                assert f"Player {other}: You voted to {verb} the team." not in history
            # A just seat never sees the evil roster in any prompt part.
            if seat not in evil and seat != ra.seat_of(Role.MERLIN):
                joined = history if bundle is None else "\n".join(
                    [bundle.role_identification, bundle.game_history]
                )
                assert "belong to the evil side." not in joined

    def test_own_ballot_confirmation_is_visible(self):
        ra = RoleAssignment(canonical_roles({5, 6, 7}))
        engine = GameEngine(GameConfig(), ra.as_dict(), seed=2)
        memory = GlobalMemory(3, 15)
        engine.assign_first_leader()
        engine.propose_team({1, 2})
        speak_all(engine)
        engine.submit_ballots(approve_all())
        for event in engine.events:
            memory.ingest_event(event)
        history = render_game_history(memory)
        assert "You voted to approve the team." in history


class TestActionDescriptions:
    def test_wrong_actor_rejected(self):
        ra = RoleAssignment(canonical_roles({5, 6, 7}))
        engine = GameEngine(GameConfig(), ra.as_dict(), seed=4)
        leader = engine.assign_first_leader()
        other = 1 if leader != 1 else 2
        with pytest.raises(ProtocolError):
            render_action_description(engine, other)
        assert f"Player {leader}, as the team leader" in render_action_description(engine, leader)

    def test_each_phase_uses_its_template(self):
        ra = RoleAssignment(canonical_roles({5, 6, 7}))
        engine = GameEngine(GameConfig(), ra.as_dict(), seed=4)
        engine.assign_first_leader()
        engine.propose_team({1, 2})
        assert render_action_description(engine, 1).startswith("Now it's your turn, player 1. Please discuss")
        speak_all(engine)
        assert "vote on whether to approve the nominated team" in render_action_description(engine, 5)
        engine.submit_ballots(approve_all())
        text = render_action_description(engine, 2)
        assert "You are on the quest team." in text
        assert "Members of the just side must vote to approve" in text
