import dataclasses
import hashlib
import io
import json
import re
from fractions import Fraction
from itertools import cycle
from pathlib import Path

import pytest

from avalonplay import analyzer
from avalonplay.agents import AgentSpec
from avalonplay.analyzer import (
    FINDING_KINDS,
    analyze_record,
    analyze_records,
    check_claims,
    check_structural,
    summarize,
)
from avalonplay.events import EventKind, EventLogEntry, private_to
from avalonplay.game import GameConfig
from avalonplay.knowledge import RoleAssignment
from avalonplay.cli import main
from avalonplay.llm import MockLLM
from avalonplay.records import GameRecord, RecordFormatError, load_record, replay, write_record
from avalonplay.runner import compute_metrics, run_game, seed_for_game
from helpers import V1_RECORDS_DIR, budgeted_mock, canonical_roles, run_codeact_e2e, v2_text


def make_record(events):
    return GameRecord(
        game_id="t1",
        config=GameConfig(),
        roles=RoleAssignment(canonical_roles({5, 6, 7})),
        agents={p: AgentSpec("random") for p in range(1, 8)},
        seed_info={},
        events=events,
    )


def event(seq, kind, text="", actor=None, payload=None, visibility="public", phase="discussion", rnd=1):
    return EventLogEntry(
        seq=seq,
        round=rnd,
        attempt=1,
        phase=phase,
        actor=actor,
        kind=kind,
        text=text,
        payload=payload or {},
        visibility=visibility,
    )


def proposal(seq, members, leader, extra=None):
    payload = {"members": sorted(members), "leader": leader}
    payload.update(extra or {})
    return event(
        seq, EventKind.TEAM_PROPOSED, "team", actor=leader, payload=payload, phase="team_selection"
    )


def quest(seq, rnd, team, success):
    return event(
        seq,
        EventKind.QUEST_RESULT,
        "quest",
        payload={"round": rnd, "team": sorted(team), "success": success, "sabotage_count": None},
        phase="quest_execution",
        rnd=rnd,
    )


def discussion(seq, actor, text):
    return event(seq, EventKind.DISCUSSION, text, actor=actor)


class TestStructural:
    def test_wrong_size_attempt_is_a_team_size_violation(self):
        record = make_record(
            [
                proposal(
                    1,
                    [1, 2],
                    1,
                    {
                        "required_n": 2,
                        "raw_attempts": [
                            {
                                "text": "[1, 2, 3]",
                                "error": "need exactly 2 distinct players, found 3",
                                "error_kind": "WrongSize",
                                "ids": [1, 2, 3],
                            }
                        ],
                    },
                )
            ]
        )
        findings = check_structural(record)
        assert [f.kind for f in findings] == ["TeamSizeViolation"]
        assert findings[0].seq == 1
        assert findings[0].actor == 1
        assert "[1, 2, 3]" in findings[0].detail

    def test_invalid_ref_attempt(self):
        record = make_record(
            [
                proposal(
                    1,
                    [1, 2],
                    1,
                    {
                        "required_n": 2,
                        "raw_attempts": [
                            {"text": "[8, 2]", "error": "no such seats", "error_kind": "InvalidPlayerRef", "ids": [8, 2]}
                        ],
                    },
                )
            ]
        )
        assert [f.kind for f in check_structural(record)] == ["InvalidPlayerRef"]

    def test_codeact_attempts_checked_by_printed_ids(self):
        record = make_record(
            [
                proposal(
                    1,
                    [2, 3, 6, 7],
                    2,
                    {
                        "required_n": 4,
                        "codeact": {
                            "attempts_used": 3,
                            "fell_back": False,
                            "attempts": [
                                {"parsed_ids": [2, 3, 4, 6, 7], "issue": "unusable output"},
                                {"parsed_ids": [2, 3, 9, 7], "issue": "unusable output"},
                                {"parsed_ids": [], "issue": "execution error"},
                            ],
                        },
                    },
                )
            ]
        )
        kinds = sorted(f.kind for f in check_structural(record))
        assert kinds == ["InvalidPlayerRef", "TeamSizeViolation"]

    def test_vote_reasoning_mismatch_approve_with_disagreement(self):
        record = make_record(
            [
                event(
                    1,
                    EventKind.BALLOT_RESULT,
                    "You voted to approve the team.",
                    actor=3,
                    payload={"approve": True, "reasoning": "I disagree with this team and cannot support it"},
                    visibility=private_to(3),
                    phase="team_vote",
                )
            ]
        )
        findings = check_structural(record)
        assert [f.kind for f in findings] == ["VoteReasoningMismatch"]
        assert findings[0].actor == 3

    def test_vote_reasoning_mismatch_reject_with_agreement(self):
        record = make_record(
            [
                event(
                    1,
                    EventKind.BALLOT_RESULT,
                    "You voted to reject the team.",
                    actor=4,
                    payload={"approve": False, "reasoning": "I support this team fully."},
                    visibility=private_to(4),
                    phase="team_vote",
                )
            ]
        )
        assert [f.kind for f in check_structural(record)] == ["VoteReasoningMismatch"]

    def test_each_ballot_of_a_repeated_reasoning_is_judged_by_its_own_vote(self):
        # `approve` must be true itself: 1 equals True but is no bool, so no rule matches it.
        ballots = [(True, "I oppose this."), (1, "I oppose this."), (True, "I oppose this."), (False, "I oppose this.")]
        record = make_record(
            [
                event(i + 1, EventKind.BALLOT_RESULT, "ballot", actor=i + 1, visibility=private_to(i + 1),
                      payload={"approve": approve, "reasoning": reasoning}, phase="team_vote")
                for i, (approve, reasoning) in enumerate(ballots)
            ]
        )
        findings = check_structural(record)
        assert [(f.seq, f.kind) for f in findings] == [(1, "VoteReasoningMismatch"), (3, "VoteReasoningMismatch")]
        assert findings[0].detail == findings[1].detail == "voted approve while reasoning 'I oppose this.'"

    def test_consistent_ballots_not_flagged(self):
        record = make_record(
            [
                event(
                    1,
                    EventKind.BALLOT_RESULT,
                    "You voted to reject the team.",
                    actor=4,
                    payload={"approve": False, "reasoning": "I disagree with this team."},
                    visibility=private_to(4),
                    phase="team_vote",
                ),
                event(
                    2,
                    EventKind.BALLOT_RESULT,
                    "You voted to approve the team.",
                    actor=5,
                    payload={"approve": True, "reasoning": "I agree with this team."},
                    visibility=private_to(5),
                    phase="team_vote",
                ),
            ]
        )
        assert check_structural(record) == []

    def test_parse_fallback_error_is_reported(self):
        record = make_record(
            [
                event(
                    1,
                    EventKind.AGENT_ERROR,
                    "agent error",
                    actor=2,
                    payload={"reason": "parse_fallback", "detail": "ballot could not be parsed"},
                    visibility="audit",
                )
            ]
        )
        findings = check_structural(record)
        assert [f.kind for f in findings] == ["ParseFallbackUsed"]
        assert findings[0].detail == "ballot could not be parsed"

    def test_other_agent_errors_ignored(self):
        record = make_record(
            [
                event(1, EventKind.AGENT_ERROR, "x", payload={"reason": "codeact_fallback"}, visibility="audit"),
                event(2, EventKind.AGENT_ERROR, "x", payload={"reason": "quest_vote_override"}, visibility="audit"),
                event(3, EventKind.AGENT_ERROR, "x", payload={"reason": "contradiction_fallback"}, visibility="audit"),
            ]
        )
        assert check_structural(record) == []


class TestClaims:
    def history(self):
        return [
            quest(1, 1, [2, 7], True),
            quest(2, 2, [1, 2, 4], False),
        ]

    def test_false_membership_claim(self):
        record = make_record(self.history() + [discussion(3, 5, "I recall player 3 was on the round-1 quest.")])
        findings = check_claims(record)
        assert [f.kind for f in findings] == ["CounterfactualClaim"]
        assert findings[0].contradicts_seq == 1
        assert "player 3" in findings[0].detail

    def test_true_membership_claim_not_flagged(self):
        record = make_record(self.history() + [discussion(3, 5, "Player 2 was on the round-1 quest.")])
        assert check_claims(record) == []

    def test_false_absence_claim(self):
        record = make_record(self.history() + [discussion(3, 5, "Player 2 was not on the round-1 quest.")])
        findings = check_claims(record)
        assert len(findings) == 1
        assert findings[0].contradicts_seq == 1

    def test_false_result_claim(self):
        record = make_record(self.history() + [discussion(3, 6, "Remember that round 2 succeeded.")])
        findings = check_claims(record)
        assert len(findings) == 1
        assert "it failed" in findings[0].detail
        assert findings[0].contradicts_seq == 2

    def test_round_result_with_hyphen_and_quest_word(self):
        record = make_record(self.history() + [discussion(3, 6, "The round-1 quest failed, as we all saw.")])
        findings = check_claims(record)
        assert len(findings) == 1

    def test_never_quested_claim(self):
        record = make_record(
            self.history() + [discussion(3, 6, "I trust player 6, who hasn't been on a quest recently.")]
        )
        assert check_claims(record) == []  # player 6 truly has not quested
        record2 = make_record(
            self.history() + [discussion(3, 6, "I trust player 4, who hasn't been on a quest recently.")]
        )
        findings = check_claims(record2)
        assert len(findings) == 1
        assert findings[0].contradicts_seq == 2  # round-2 quest included player 4

    def test_has_quested_claim(self):
        record = make_record(self.history() + [discussion(3, 6, "Player 3 has been on a quest already.")])
        findings = check_claims(record)
        assert len(findings) == 1
        assert "no executed quest" in findings[0].detail

    def test_claims_only_check_prior_quests(self):
        record = make_record(
            [discussion(1, 5, "Player 3 was on the round-1 quest.")] + self.history()
        )
        # At the time of speaking no quest had run; nothing to contradict.
        assert check_claims(record) == []

    def test_unverifiable_statements_ignored(self):
        texts = [
            "I am Merlin and I know who is evil.",  # hidden-state lie: fine
            "Player 5 is definitely evil.",
            "We should send players 2 and 3 again.",
            "The next quest will fail if we pick player 4.",
        ]
        record = make_record(
            self.history() + [discussion(10 + i, 3, t) for i, t in enumerate(texts)]
        )
        assert check_claims(record) == []


class TestAnalyzeRecord:
    def test_findings_sorted_by_sequence(self):
        record = make_record(
            [
                quest(1, 1, [2, 7], True),
                discussion(2, 5, "Player 3 was on the round-1 quest."),
                event(
                    3,
                    EventKind.BALLOT_RESULT,
                    "You voted to approve the team.",
                    actor=3,
                    payload={"approve": True, "reasoning": "I oppose this."},
                    visibility=private_to(3),
                    phase="team_vote",
                ),
            ]
        )
        findings = analyze_record(record)
        assert [f.kind for f in findings] == ["CounterfactualClaim", "VoteReasoningMismatch"]
        assert [f.seq for f in findings] == [2, 3]

    def test_scripted_self_play_produces_no_findings(self):
        for i in range(5):
            record = run_game(
                GameConfig(),
                AgentSpec("deduction"),
                AgentSpec("scripted_evil"),
                game_seed=seed_for_game(101, i),
            )
            assert analyze_record(record) == []

    def test_random_play_produces_no_findings(self):
        for i in range(5):
            record = run_game(
                GameConfig(),
                AgentSpec("random"),
                AgentSpec("random"),
                game_seed=seed_for_game(102, i),
            )
            assert analyze_record(record) == []


class TestSummaries:
    def test_summary_counts_and_rate(self):
        record = make_record(
            [
                quest(1, 1, [2, 7], True),
                discussion(2, 5, "Player 3 was on the round-1 quest."),
                discussion(3, 6, "Nothing to add."),
                discussion(4, 7, "Nothing to add."),
                discussion(5, 1, "Round 1 failed."),
            ]
        )
        findings, report = analyze_records([record])
        assert report.n_games == 1
        assert report.n_utterances == 4
        assert dict(report.finding_counts) == {"CounterfactualClaim": 2}
        assert report.findings_per_100_utterances == Fraction(200, 4)
        data = report.to_json()
        assert data["findings_per_100_utterances"]["value"] == 50.0

    def test_zero_utterances_has_no_rate(self):
        report = summarize([], [make_record([])])
        assert report.findings_per_100_utterances is None
        assert report.finding_counts == ()

    def test_finding_kind_catalogue(self):
        assert FINDING_KINDS == (
            "TeamSizeViolation",
            "InvalidPlayerRef",
            "VoteReasoningMismatch",
            "ParseFallbackUsed",
            "CounterfactualClaim",
        )


MOCK_FIXTURE = Path(__file__).resolve().parents[1] / "bench" / "fixtures" / "mock_llm.json"


def _proposal(row):
    return row.get("kind") == "team_proposed" and "raw_attempts" in row["payload"]


def _private_ballot(row):
    return row.get("kind") == "ballot_result" and row.get("visibility", "").startswith("private:")


# (which event line to change, how, the error it must give): one trace field
# the analyzer reads, each of a JSON type that crashed it before.
MALFORMED_TRACES = {
    "raw_attempts": (_proposal, lambda p: p.update(raw_attempts="x"), "raw_attempts should be list, got 'x'"),
    "ids": (
        lambda row: _proposal(row) and row["payload"]["raw_attempts"],
        lambda p: p["raw_attempts"][0].update(ids=5),
        "ids should be list, got 5",
    ),
    "reasoning": (_private_ballot, lambda p: p.update(reasoning=5), "reasoning should be str or NoneType, got 5"),
    "codeact": (_proposal, lambda p: p.update(codeact=5), "codeact should be dict or NoneType, got 5"),
}


class TestMalformedTraces:
    """A trace field of the wrong JSON type in a schema 2 record that loads,
    replays and feeds metrics is a RecordFormatError naming the game and the
    seq, and `avalonplay analyze` reports it as one error line."""

    @pytest.fixture(scope="class")
    def rows(self):
        # Game 7 of base seed 2 under the benchmark's mock holds a reprompted team selection.
        record = run_game(
            GameConfig(), AgentSpec("llm", model="mock"), AgentSpec("scripted_evil"),
            seed_for_game(2, 7), client=MockLLM.from_file(MOCK_FIXTURE), game_id="g2-00007",
        )
        return v2_text(record).splitlines()

    @pytest.mark.parametrize("field", sorted(MALFORMED_TRACES))
    def test_bad_trace_field_names_the_seq(self, rows, field, tmp_path, capsys):
        applies, change, message = MALFORMED_TRACES[field]
        rows = list(rows)
        i, data = next((i, data) for i, data in enumerate(map(json.loads, rows)) if applies(data))
        change(data["payload"])
        rows[i] = json.dumps(data)
        path = tmp_path / "g2-00007.jsonl"
        path.write_text("\n".join(rows) + "\n")
        record = load_record(path)
        replay(record)
        compute_metrics([record])
        where = f"g2-00007: seq {data['seq']}: {message}"
        with pytest.raises(RecordFormatError) as exc:
            analyze_record(record)
        assert where in str(exc.value)
        assert main(["analyze", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("bad record: ") and captured.err.count("\n") == 1
        assert where in captured.err


# Claims spelt with case variants that `re.IGNORECASE` folds: the long s
# 'ſ' matches 's', so some of these match a claim pattern only by folding;
# the Kelvin sign 'K' matches 'k', which no claim pattern holds.
UNICODE_CLAIMS = (
    "Player 3 waſ on the round-1 queſt.",
    "PLAYER 2 WAS NOT ON THE ROUND-1 QUEST, oK?",
    "The round-1 queſt ſucceeded.",
    "The round-2 quest FAILED.",
    "Player 6, who haſ not been on a quest, ſhould go.",
    "Player 1 haſ been on a quest.",
    "Keep player 4 out: player 4 was on the round-2 quest.",
    "Player 5 hasn't been on a quest.",
)


def _with_claims(record):
    """`record` with every third utterance replaced by the next of `UNICODE_CLAIMS`."""
    events = list(record.events)
    spots = [i for i, e in enumerate(events) if e.kind is EventKind.DISCUSSION][::3]
    for i, text in zip(spots, cycle(UNICODE_CLAIMS)):
        events[i] = dataclasses.replace(events[i], text=text)
    return dataclasses.replace(record, events=events)


def _audit_corpus() -> list[str]:
    """Record texts: deduction games, three of them speaking `UNICODE_CLAIMS`;
    mock cot/react games, one aborted; two codeact games; the schema 1 files."""
    deduction = [
        run_game(GameConfig(), AgentSpec("deduction"), AgentSpec("scripted_evil"), seed_for_game(43, i))
        for i in range(6)
    ]
    cot, react = AgentSpec("llm", strategy="cot", model="mock"), AgentSpec("llm", strategy="react", model="mock")
    codeact = AgentSpec("llm", strategy="codeact", model="mock")
    games = [
        *deduction[:3],
        *map(_with_claims, deduction[3:]),
        *(run_game(GameConfig(), cot, react, seed_for_game(31, i), client=budgeted_mock(b))
          for i, b in ((0, {}), (2, {"discussion": 9}), (29, {}))),
        run_game(GameConfig(), codeact, AgentSpec("scripted_evil"), seed_for_game(3, 0),
                 client=MockLLM.from_file(MOCK_FIXTURE)),
        run_codeact_e2e()[0],
    ]
    texts = []
    for game in games:
        out = io.StringIO()
        write_record(game, out)
        texts.append(out.getvalue())
    return texts + [path.read_text(encoding="utf-8") for path in sorted(V1_RECORDS_DIR.glob("*.jsonl"))]


class TestAuditPin:
    """What `replay`, `metrics` and `analyze` read from a corpus: each record
    loaded and replayed, its findings, and the metrics and summary over all."""

    @pytest.fixture(scope="class")
    def audited(self):
        records = []
        for text in _audit_corpus():
            record = load_record(io.StringIO(text))
            replay(record)
            records.append(record)
        return records

    def test_audit_output_is_pinned(self, audited):
        findings = [analyze_record(record) for record in audited]
        out = [
            [[f.to_dict() for f in found] for found in findings],
            compute_metrics(audited).to_json(),
            summarize([f for found in findings for f in found], audited).to_json(),
        ]
        assert sum(record.aborted for record in audited) == 2
        assert hashlib.sha256(json.dumps(out).encode("utf-8")).hexdigest() == PINNED_AUDIT_DIGEST

    def test_claim_prefilter_keeps_every_finding(self, audited, monkeypatch):
        filtered = [check_claims(record) for record in audited]
        # The five patterns run on every utterance when the prefilter passes all.
        monkeypatch.setattr(analyzer, "_any_claim", lambda: re.compile(""))
        assert [check_claims(record) for record in audited] == filtered
        spoken = [{e.seq: e.text for e in record.events} for record in audited]
        folded = [f for texts, found in zip(spoken, filtered) for f in found if "ſ" in texts[f.seq]]
        assert len(folded) >= 3


# The audit output of `_audit_corpus`, as load, replay and the analyzer give it.
PINNED_AUDIT_DIGEST = "1e1eb5e411a710518b35c57adacde0c84f27d4d981737bbb26abfef89c29ed02"
