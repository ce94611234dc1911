from __future__ import annotations

import pytest

from avalonplay.events import AUDIT, EventKind, EventLogEntry, private_to
from avalonplay.game import GameConfig, GameEngine
from avalonplay.memory import (
    GlobalMemory,
    PublicFact,
    is_key_info,
    public_facts_from_history,
)
from avalonplay.prompts import render_game_history
from helpers import approve_all, canonical_roles, run_round, speak_all


def make_event(seq, kind, text, actor=None, visibility="public", payload=None):
    return EventLogEntry(
        seq=seq,
        round=1,
        attempt=1,
        phase="discussion",
        actor=actor,
        kind=kind,
        text=text,
        payload=payload or {},
        visibility=visibility,
    )


class TestKeyInfo:
    @pytest.mark.parametrize(
        "kind",
        [EventKind.MODERATOR_NOTE, EventKind.TEAM_PROPOSED, EventKind.BALLOT_RESULT, EventKind.QUEST_RESULT],
    )
    def test_always_key_kinds(self, kind):
        assert is_key_info(make_event(1, kind, "anything"))

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("I think player 3 is evil.", True),
            ("player 5 is good, trust me", True),
            ("I am good and you know it", True),
            ("I might be Merlin, who knows", True),
            ("Morgana is among us", True),
            ("I have nothing to add.", False),
            ("This team seems reasonable to me.", False),
            ("Something about player 4 feels off.", False),
        ],
    )
    def test_discussion_classifier(self, text, expected):
        assert is_key_info(make_event(1, EventKind.DISCUSSION, text, actor=2)) is expected


class TestGlobalMemory:
    def test_window_is_bounded_and_key_info_survives(self):
        mem = GlobalMemory(owner=1, k=3)
        mem.ingest_event(make_event(1, EventKind.QUEST_RESULT, "The round-1 quest ended in failure."))
        for seq in range(2, 6):
            mem.ingest_event(make_event(seq, EventKind.DISCUSSION, f"chatter {seq}", actor=2))
        assert len(mem.window) == 3
        assert [e.seq for e in mem.window] == [3, 4, 5]
        evicted = mem.evicted_key_info()
        assert [e.seq for e in evicted] == [1]
        history = render_game_history(mem)
        assert history.startswith("Key information from earlier in the game:")
        assert "Moderator: The round-1 quest ended in failure." in history
        assert "Recent messages:" in history
        assert "chatter 2" not in history  # evicted, and not key info

    def test_key_info_not_duplicated_while_in_window(self):
        mem = GlobalMemory(owner=1, k=5)
        mem.ingest_event(make_event(1, EventKind.QUEST_RESULT, "The round-1 quest ended in success."))
        history = render_game_history(mem)
        assert history.count("The round-1 quest ended in success.") == 1
        assert "Key information" not in history

    def test_visibility_guard(self):
        mem = GlobalMemory(owner=3, k=5)
        assert not mem.ingest_event(make_event(1, EventKind.BALLOT_RESULT, "You voted to approve the team.", actor=2, visibility=private_to(2)))
        assert not mem.ingest_event(make_event(2, EventKind.AGENT_ERROR, "agent error", actor=3, visibility=AUDIT))
        assert mem.ingest_event(make_event(3, EventKind.BALLOT_RESULT, "You voted to reject the team.", actor=3, visibility=private_to(3)))
        assert len(mem.window) == 1

    def test_catch_up_ingests_each_event_once(self):
        log = [make_event(seq, EventKind.DISCUSSION, f"chatter {seq}", actor=2) for seq in range(1, 4)]
        mem = GlobalMemory(owner=1, k=5)
        mem.catch_up(log[:2])
        mem.catch_up(log[:2])
        log.append(make_event(4, EventKind.QUEST_RESULT, "The round-1 quest ended in success."))
        mem.catch_up(log)
        assert [e.seq for e in mem.window] == [1, 2, 3, 4]
        assert [e.seq for e in mem.key_info] == [4]
        assert mem.seen == 4
        with pytest.raises(TypeError):
            GlobalMemory(owner=1, k=5, seen=2)

    def test_empty_history_renders_empty(self):
        assert render_game_history(GlobalMemory(owner=1, k=4)) == ""


class TestPublicFacts:
    def test_render_wording(self):
        fact = PublicFact(round=1, team=frozenset({2, 7}), success=True, sabotage_count=None)
        assert fact.render() == (
            "In the initial round, players 2 and 7 were selected for the quest, "
            "which ended in success."
        )
        fact2 = PublicFact(round=3, team=frozenset({1, 3, 5}), success=False, sabotage_count=2)
        assert fact2.render() == (
            "In round 3, players 1, 3, and 5 were selected for the quest, "
            "which ended in failure. 2 sabotage votes were cast."
        )
        fact3 = PublicFact(round=2, team=frozenset({1, 2, 4}), success=False, sabotage_count=1)
        assert "1 sabotage vote was cast." in fact3.render()

    def test_facts_from_history_respects_reveal_flag(self):
        engine = GameEngine(GameConfig(), canonical_roles({5, 6, 7}), seed=1)
        run_round(engine, {5, 1})
        hidden = public_facts_from_history(engine.state.quest_history, False)
        shown = public_facts_from_history(engine.state.quest_history, True)
        assert hidden[0].sabotage_count is None
        assert shown[0].sabotage_count == 1
        assert hidden[0].team == frozenset({1, 5})
        assert hidden[0].success is False

