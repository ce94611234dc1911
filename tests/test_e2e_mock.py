"""End-to-end games driven entirely by scripted mock completions.

The main fixture plays a full five-round game with llm/codeact agents on
both sides and touches every agent code path: program-written team picks,
a prose pick by the evil leader, a two-attempt self-debug cycle, a ballot
whose reasoning contradicts the vote, a malformed ballot recovered via
reprompt, a scripted seven-player discussion with one counterfactual
claim, and a successful Merlin assassination. A second fixture smoke-tests
the base / cot / react prompt styles.
"""

from __future__ import annotations

import json
from fractions import Fraction

import pytest

from avalonplay.analyzer import analyze_record, analyze_records
from avalonplay.game import EventKind, Role
from avalonplay.records import load_record, replay, write_record

from helpers import GENERIC_LINE, ROUND5_LINES, run_codeact_e2e, run_strategy_smoke


@pytest.fixture(scope="module")
def e2e():
    record, client = run_codeact_e2e()
    assert not record.aborted, record.error
    return record, client


def events_of(record, kind, rnd=None):
    return [
        e
        for e in record.events
        if e.kind is kind and (rnd is None or e.round == rnd)
    ]


class TestGameShape:
    def test_roles(self, e2e):
        record, _ = e2e
        assert {s: record.roles[s] for s in range(1, 8)} == {
            1: Role.ASSASSIN,
            2: Role.MERLIN,
            3: Role.PERCIVAL,
            4: Role.MINION,
            5: Role.MORGANA,
            6: Role.SERVANT,
            7: Role.SERVANT,
        }

    def test_leaders_rotate_from_first_draw(self, e2e):
        record, _ = e2e
        proposals = events_of(record, EventKind.TEAM_PROPOSED)
        assert [e.payload["leader"] for e in proposals] == [6, 7, 1, 2, 3]
        assert [e.round for e in proposals] == [1, 2, 3, 4, 5]
        assert all(e.attempt == 1 for e in proposals)

    def test_quest_teams_and_results(self, e2e):
        record, _ = e2e
        quests = events_of(record, EventKind.QUEST_RESULT)
        assert [(e.payload["team"], e.payload["success"], e.payload["sabotage_count"]) for e in quests] == [
            ([2, 7], True, 0),
            ([1, 2, 4], False, 2),
            ([1, 3, 5], False, 2),
            ([2, 3, 6, 7], True, 0),
            ([2, 3, 6, 7], True, 0),
        ]

    def test_every_ballot_unanimous(self, e2e):
        record, _ = e2e
        public = [
            e
            for e in events_of(record, EventKind.BALLOT_RESULT)
            if e.visibility == "public"
        ]
        assert len(public) == 5
        assert all(e.payload["approved"] and e.payload["approvals"] == 7 for e in public)
        assert not any(e.payload["forced"] for e in public)

    def test_outcome_assassin_steals_the_game(self, e2e):
        record, _ = e2e
        assert record.outcome.to_dict() == {
            "quest_winner": "just",
            "assassination_target": 2,
            "assassination_hit": True,
            "overall_winner": "evil",
        }

    def test_team_announcement_keeps_quoted_list_format(self, e2e):
        record, _ = e2e
        notes = [e.text for e in events_of(record, EventKind.MODERATOR_NOTE)]
        wanted = (
            "The selected team by the leader include "
            "['player 2', 'player 3', 'player 6', 'player 7']. "
            "Now everyone discuss if you agree the team."
        )
        assert notes.count(wanted) == 2  # rounds 4 and 5 propose the same team


class TestPromptPathCoverage:
    def test_all_llm_phases_hit(self, e2e):
        _, client = e2e
        counts = {}
        for req in client.requests_log:
            counts[req["tag"]] = counts.get(req["tag"], 0) + 1
        assert counts == {
            "code_generation": 5,
            "team_selection": 1,
            "discussion": 35,
            "team_vote": 36,
            "quest_vote": 16,
            "assassination": 1,
        }

    def test_every_limited_rule_consumed(self, e2e):
        _, client = e2e
        for rule in client.rules:
            if rule.max_uses is not None:
                assert rule.uses == rule.max_uses, rule.pattern

    def test_just_leaders_use_code_and_evil_leader_uses_text(self, e2e):
        record, _ = e2e
        proposals = events_of(record, EventKind.TEAM_PROPOSED)
        used = [e.payload.get("codeact") for e in proposals]
        assert [t["attempts_used"] if t else None for t in used] == [1, 1, None, 2, 1]
        assert all(not t["fell_back"] for t in used if t)

    def test_evil_leader_prose_becomes_the_proposal_text(self, e2e):
        record, _ = e2e
        (prop,) = events_of(record, EventKind.TEAM_PROPOSED, rnd=3)
        assert prop.payload["members"] == [1, 3, 5]
        assert prop.text == (
            "I choose player 1, player 3, and player 5 for the quest. I trust this group."
        )


class TestSelfDebugCycle:
    def test_round4_takes_two_attempts(self, e2e):
        record, _ = e2e
        (prop,) = events_of(record, EventKind.TEAM_PROPOSED, rnd=4)
        trace = prop.payload["codeact"]
        assert trace["attempts_used"] == 2
        assert trace["fell_back"] is False
        first, second = trace["attempts"]
        assert first["issue"] == "unusable output: need exactly 4 distinct players, found 5"
        assert first["parsed_ids"] == [2, 3, 4, 6, 7]
        assert first["result"]["status"] == "ok"
        assert second["issue"] is None
        assert second["result"]["stdout"] == "[2, 3, 6, 7]\n"
        assert prop.payload["members"] == [2, 3, 6, 7]

    def test_revision_request_quotes_the_failure(self, e2e):
        _, client = e2e
        revisions = [
            req
            for req in client.requests_log
            if req["tag"] == "code_generation"
            and "did not produce a usable answer" in req["messages"][-1]["content"]
        ]
        assert len(revisions) == 1
        body = revisions[0]["messages"][-1]["content"]
        assert "need exactly 4 distinct players, found 5" in body
        assert "[2, 3, 4, 6, 7]" in body


class TestVoteHandling:
    def test_first_ballot_reasoning_contradicts_the_vote(self, e2e):
        record, _ = e2e
        ballot = next(
            e
            for e in events_of(record, EventKind.BALLOT_RESULT, rnd=1)
            if e.actor == 1 and e.visibility.startswith("private")
        )
        assert ballot.payload["approve"] is True
        assert ballot.payload["reasoning"] == "I disagree with this team and cannot support it"

    def test_malformed_ballot_recovered_on_reprompt(self, e2e):
        record, client = e2e
        ballot = next(
            e
            for e in events_of(record, EventKind.BALLOT_RESULT, rnd=1)
            if e.actor == 2 and e.visibility.startswith("private")
        )
        attempts = ballot.payload["raw_attempts"]
        assert [a["error_kind"] for a in attempts] == ["VoteParseError"]
        assert "no JSON object" in attempts[0]["error"]
        assert ballot.payload["approve"] is True
        assert ballot.payload["reasoning"] == "On reflection I agree."
        assert ballot.payload.get("fallback") is None
        reprompts = [
            req
            for req in client.requests_log
            if "could not be used" in req["messages"][-1]["content"]
        ]
        assert len(reprompts) == 1 and reprompts[0]["tag"] == "team_vote"

    def test_no_parse_fallback_events(self, e2e):
        record, _ = e2e
        reasons = {e.payload.get("reason") for e in events_of(record, EventKind.AGENT_ERROR)}
        assert reasons == {"quest_vote_override"}

    def test_evil_quest_votes_overridden_on_failed_quests(self, e2e):
        record, _ = e2e
        overrides = [
            (e.round, e.actor)
            for e in events_of(record, EventKind.AGENT_ERROR)
            if e.payload.get("reason") == "quest_vote_override"
        ]
        assert sorted(overrides) == [(2, 1), (2, 4), (3, 1), (3, 5)]


class TestScriptedDiscussion:
    def test_thirty_five_utterances(self, e2e):
        record, _ = e2e
        assert len(events_of(record, EventKind.DISCUSSION)) == 35

    def test_round5_lines_verbatim(self, e2e):
        record, _ = e2e
        lines = {e.actor: e.text for e in events_of(record, EventKind.DISCUSSION, rnd=5)}
        assert lines == ROUND5_LINES

    def test_earlier_rounds_use_the_generic_line(self, e2e):
        record, _ = e2e
        early = [
            e.text
            for e in events_of(record, EventKind.DISCUSSION)
            if e.round < 5
        ]
        assert early == [GENERIC_LINE] * 28


class TestAnalysis:
    def test_exactly_three_findings(self, e2e):
        record, _ = e2e
        findings = analyze_record(record)
        assert [f.kind for f in findings] == [
            "VoteReasoningMismatch",
            "TeamSizeViolation",
            "CounterfactualClaim",
        ]

    def test_vote_mismatch_points_at_seat_one_round_one(self, e2e):
        record, _ = e2e
        finding = analyze_record(record)[0]
        ballot = next(
            e
            for e in events_of(record, EventKind.BALLOT_RESULT, rnd=1)
            if e.actor == 1 and e.visibility.startswith("private")
        )
        assert (finding.actor, finding.seq) == (1, ballot.seq)
        assert "voted approve" in finding.detail
        assert "I disagree with this team" in finding.detail

    def test_size_violation_points_at_the_failed_code_attempt(self, e2e):
        record, _ = e2e
        finding = analyze_record(record)[1]
        (prop,) = events_of(record, EventKind.TEAM_PROPOSED, rnd=4)
        assert (finding.actor, finding.seq) == (2, prop.seq)
        assert finding.detail == (
            "program printed 5 player(s) [2, 3, 4, 6, 7] when 4 were required"
        )

    def test_counterfactual_claim_cites_the_round4_quest(self, e2e):
        record, _ = e2e
        finding = analyze_record(record)[2]
        line = next(
            e
            for e in events_of(record, EventKind.DISCUSSION, rnd=5)
            if e.actor == 5
        )
        (quest4,) = events_of(record, EventKind.QUEST_RESULT, rnd=4)
        assert (finding.actor, finding.seq, finding.contradicts_seq) == (5, line.seq, quest4.seq)
        assert finding.detail == (
            "claimed player 6 has not been on a quest; they were on the round-4 team [2, 3, 6, 7]"
        )

    def test_report_counts_and_rate(self, e2e):
        record, _ = e2e
        findings, report = analyze_records([record])
        assert len(findings) == 3
        assert report.n_games == 1
        assert report.n_utterances == 35
        assert report.finding_counts == (
            ("CounterfactualClaim", 1),
            ("TeamSizeViolation", 1),
            ("VoteReasoningMismatch", 1),
        )
        assert report.findings_per_100_utterances == Fraction(60, 7)


class TestPersistence:
    def test_record_round_trips_and_replays(self, e2e, tmp_path):
        record, _ = e2e
        path = tmp_path / "e2e.jsonl"
        write_record(record, path)
        loaded = load_record(path)
        assert loaded.events == record.events
        assert loaded.outcome == record.outcome
        engine = replay(loaded)
        assert engine.outcome.to_dict() == record.outcome.to_dict()

    def test_serialized_file_is_line_json(self, e2e, tmp_path):
        record, _ = e2e
        path = tmp_path / "e2e.jsonl"
        write_record(record, path)
        lines = path.read_text().splitlines()
        kinds = [json.loads(line).get("type") for line in lines]
        assert kinds[0] == "header"
        assert kinds[-1] == "outcome"
        assert set(kinds[1:-1]) == {None}


class TestStrategySmoke:
    @pytest.mark.parametrize("strategy", ["base", "cot", "react"])
    def test_strategy_plays_a_clean_game(self, strategy):
        record, client = run_strategy_smoke(strategy)
        assert not record.aborted, record.error
        tags = {req["tag"] for req in client.requests_log}
        assert {"team_selection", "team_vote", "quest_vote"} <= tags
        assert record.outcome.to_dict() == {
            "quest_winner": "just",
            "assassination_target": 4,
            "assassination_hit": False,
            "overall_winner": "just",
        }
        assert analyze_record(record) == []
        assert replay(record).outcome.to_dict() == record.outcome.to_dict()

    @pytest.mark.parametrize(
        "strategy, marker",
        [("cot", "step by step"), ("react", "Thought:")],
    )
    def test_strategy_marker_reaches_the_model(self, strategy, marker):
        _, client = run_strategy_smoke(strategy)
        blob = "\n".join(
            message["content"]
            for req in client.requests_log
            for message in req["messages"]
        )
        assert marker in blob

    def test_base_prompts_carry_no_strategy_suffix(self):
        _, client = run_strategy_smoke("base")
        blob = "\n".join(
            message["content"]
            for req in client.requests_log
            for message in req["messages"]
        )
        assert "step by step" not in blob
        assert "Thought:" not in blob
