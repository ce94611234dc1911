"""Transcript consistency analysis.

Two conservative passes over a game record:

* structural — harness-observable slip-ups: proposals of the wrong size
  or naming nonexistent seats, ballots whose stated reasoning contradicts
  the vote cast, and decisions that fell through to a parse fallback.
* claims — discussion statements about the quest history (who was on a
  team, how a round ended) checked against the events that precede them.

Only contradictions with the recorded history are flagged.  Lies about
hidden state (roles, sides) are part of the game and never flagged, and
statements the record cannot verify are ignored.
"""

from __future__ import annotations

import re
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import lru_cache
from types import NoneType
from typing import Any, Iterable

from .events import EventKind, EventLogEntry
from .game import ALL_SEATS
from .records import GameRecord, RecordFormatError, _checked
from .runner import _ratio_json
from .templates import load_template

FINDING_KINDS = (
    "TeamSizeViolation",
    "InvalidPlayerRef",
    "VoteReasoningMismatch",
    "ParseFallbackUsed",
    "CounterfactualClaim",
)


@dataclass(frozen=True)
class ConsistencyFinding:
    game_id: str
    seq: int
    actor: int | None
    kind: str
    detail: str
    contradicts_seq: int | None = None

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)


@lru_cache(maxsize=1)
def _vote_mismatch_rules() -> tuple[tuple[bool, re.Pattern[str]], ...]:
    rules: list[tuple[bool, re.Pattern[str]]] = []
    for line in load_template("vote_mismatch_patterns").splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        vote, _, pattern = line.partition("\t")
        rules.append((vote.strip() == "approve", re.compile(pattern.strip(), re.IGNORECASE)))
    return tuple(rules)


@lru_cache(maxsize=1)
def _claim_rules() -> dict[str, re.Pattern[str]]:
    rules: dict[str, re.Pattern[str]] = {}
    for line in load_template("claim_patterns").splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        name, _, pattern = line.partition(":")
        rules[name.strip()] = re.compile(pattern.strip(), re.IGNORECASE)
    return rules


@lru_cache(maxsize=1)
def _any_claim() -> re.Pattern[str]:
    """One alternation of the claim patterns, with their flag: it finds a
    match in a text iff one of them does, so a text it does not match
    holds no claim to check."""
    return re.compile("|".join(f"(?:{rule.pattern})" for rule in _claim_rules().values()), re.IGNORECASE)


def _seats(value: Any, what: str) -> list[int]:
    """`value`, if it is a list of integers."""
    for seat in _checked(value, (list,), what):
        _checked(seat, (int,), f"an entry of {what}")
    return value


def check_structural(record: GameRecord) -> list[ConsistencyFinding]:
    """Findings from the proposals' parse and program traces, the private
    ballots and the parse fallbacks. A trace field this reads that has the
    wrong JSON type raises RecordFormatError naming the game and the seq."""
    findings: list[ConsistencyFinding] = []

    def add(event: EventLogEntry, kind: str, detail: str) -> None:
        findings.append(
            ConsistencyFinding(
                game_id=record.game_id,
                seq=event.seq,
                actor=event.actor,
                kind=kind,
                detail=detail,
            )
        )

    # A ballot's finding depends only on its reasoning and on whether its
    # `approve` is true, false or no bool at all (which no rule matches), so
    # each distinct pair in a record is judged once.
    mismatched: dict[tuple[bool | None, str], bool] = {}
    for event in record.events:
        payload = event.payload
        try:
            if event.kind is EventKind.TEAM_PROPOSED:
                required = _checked(payload.get("required_n"), (int, NoneType), "required_n") or len(payload["members"])
                for attempt in _checked(payload.get("raw_attempts", []), (list,), "raw_attempts"):
                    ids = _seats(_checked(attempt, (dict,), "a raw attempt").get("ids", []), "ids")
                    error_kind = _checked(attempt.get("error_kind"), (str, NoneType), "error_kind")
                    if error_kind == "WrongSize":
                        add(
                            event,
                            "TeamSizeViolation",
                            f"named {len(ids)} player(s) {ids} when {required} were required",
                        )
                    elif error_kind == "InvalidPlayerRef":
                        add(event, "InvalidPlayerRef", f"named nonexistent seat(s) in {ids}")
                codeact = _checked(payload.get("codeact"), (dict, NoneType), "codeact") or {}
                for attempt in _checked(codeact.get("attempts", []), (list,), "codeact attempts"):
                    ids = _checked(attempt, (dict,), "a codeact attempt").get("parsed_ids")
                    ids = _seats(ids, "parsed_ids") if ids is not None else []
                    if not ids:
                        continue
                    if any(i not in ALL_SEATS for i in ids):
                        add(event, "InvalidPlayerRef", f"program printed nonexistent seat(s) in {ids}")
                    elif len(set(ids)) != required:
                        add(
                            event,
                            "TeamSizeViolation",
                            f"program printed {len(set(ids))} player(s) {sorted(set(ids))} "
                            f"when {required} were required",
                        )
            elif event.kind is EventKind.BALLOT_RESULT and event.visibility.startswith("private:"):
                reasoning = _checked(payload.get("reasoning"), (str, NoneType), "reasoning") or ""
                approve = payload["approve"]
                key = (approve if type(approve) is bool else None, reasoning)
                if key not in mismatched:
                    mismatched[key] = any(
                        approve is rule_vote and pattern.search(reasoning)
                        for rule_vote, pattern in _vote_mismatch_rules()
                    )
                if mismatched[key]:
                    add(
                        event,
                        "VoteReasoningMismatch",
                        f"voted {'approve' if approve else 'reject'} while reasoning {reasoning!r}",
                    )
            elif event.kind is EventKind.AGENT_ERROR and payload.get("reason") == "parse_fallback":
                add(event, "ParseFallbackUsed", _checked(payload.get("detail", "parse fallback"), (str,), "detail"))
        except TypeError as exc:  # from `_checked`: every trace field above is checked before it is used
            raise RecordFormatError(f"{record.game_id}: seq {event.seq}: {exc}") from None
    return findings


def check_claims(record: GameRecord) -> list[ConsistencyFinding]:
    rules = _claim_rules()
    any_claim = _any_claim().search
    quests: list[tuple[int, int, frozenset[int], bool]] = []  # (seq, round, team, success)
    by_round: dict[int, tuple[int, int, frozenset[int], bool]] = {}  # the last quest of each round
    quested: set[int] = set()  # every seat on some quest
    findings: list[ConsistencyFinding] = []

    def add(event: EventLogEntry, detail: str, contradicts: int | None) -> None:
        findings.append(
            ConsistencyFinding(
                game_id=record.game_id,
                seq=event.seq,
                actor=event.actor,
                kind="CounterfactualClaim",
                detail=detail,
                contradicts_seq=contradicts,
            )
        )

    for event in record.events:
        if event.kind is EventKind.QUEST_RESULT:
            payload = event.payload
            quest = (event.seq, payload["round"], frozenset(payload["team"]), payload["success"])
            quests.append(quest)
            by_round[quest[1]] = quest
            quested.update(quest[2])
            continue
        if event.kind is not EventKind.DISCUSSION or not any_claim(event.text):
            continue
        text = event.text
        for match in rules["on_round"].finditer(text):
            player, rnd = int(match.group(1)), int(match.group(2))
            quest = by_round.get(rnd)
            if quest and player not in quest[2]:
                add(
                    event,
                    f"claimed player {player} was on the round-{rnd} quest; "
                    f"the team was {sorted(quest[2])}",
                    quest[0],
                )
        for match in rules["not_on_round"].finditer(text):
            player, rnd = int(match.group(1)), int(match.group(2))
            quest = by_round.get(rnd)
            if quest and player in quest[2]:
                add(
                    event,
                    f"claimed player {player} was not on the round-{rnd} quest; "
                    f"the team was {sorted(quest[2])}",
                    quest[0],
                )
        for match in rules["round_result"].finditer(text):
            rnd, verb = int(match.group(1)), match.group(2).lower()
            quest = by_round.get(rnd)
            if quest and quest[3] != (verb == "succeeded"):
                actual = "succeeded" if quest[3] else "failed"
                add(event, f"claimed the round-{rnd} quest {verb}; it {actual}", quest[0])
        for match in rules["has_quested"].finditer(text):
            player = int(match.group(1))
            if player in ALL_SEATS and player not in quested:
                add(
                    event,
                    f"claimed player {player} has been on a quest; no executed quest includes them",
                    None,
                )
        for match in rules["not_quested"].finditer(text):
            player = int(match.group(1))
            if player in quested:
                first = next(q for q in quests if player in q[2])
                add(
                    event,
                    f"claimed player {player} has not been on a quest; "
                    f"they were on the round-{first[1]} team {sorted(first[2])}",
                    first[0],
                )
    return findings


def analyze_record(record: GameRecord) -> list[ConsistencyFinding]:
    """Findings of both passes, by seq, for a record from `run_game` or
    `load_record`, which checks what the engine wrote, whatever the schema."""
    return sorted(
        check_structural(record) + check_claims(record),
        key=lambda f: (f.seq, f.kind, f.detail),
    )


@dataclass(frozen=True)
class AnalysisReport:
    n_games: int
    n_utterances: int
    finding_counts: tuple[tuple[str, int], ...]
    findings_per_100_utterances: Fraction | None

    def to_json(self) -> dict[str, Any]:
        rate = self.findings_per_100_utterances
        return {
            "n_games": self.n_games,
            "n_utterances": self.n_utterances,
            "finding_counts": dict(self.finding_counts),
            "findings_per_100_utterances": _ratio_json(rate),
        }


def _utterances(record: GameRecord) -> int:
    return sum(1 for e in record.events if e.kind is EventKind.DISCUSSION)


def _report(findings: Iterable[ConsistencyFinding], n_games: int, utterances: int) -> AnalysisReport:
    counts = {kind: 0 for kind in FINDING_KINDS}
    n_findings = 0
    for finding in findings:
        counts[finding.kind] = counts.get(finding.kind, 0) + 1
        n_findings += 1
    rate = Fraction(n_findings * 100, utterances) if utterances else None
    return AnalysisReport(
        n_games=n_games,
        n_utterances=utterances,
        finding_counts=tuple(sorted((k, v) for k, v in counts.items() if v)),
        findings_per_100_utterances=rate,
    )


def summarize(
    findings: Iterable[ConsistencyFinding], records: Iterable[GameRecord]
) -> AnalysisReport:
    n_games = utterances = 0
    for record in records:
        n_games += 1
        utterances += _utterances(record)
    return _report(findings, n_games, utterances)


def analyze_records(
    records: Iterable[GameRecord],
) -> tuple[list[ConsistencyFinding], AnalysisReport]:
    """Findings and their summary, folding one record at a time, so the
    records need not all be in memory at once."""
    findings: list[ConsistencyFinding] = []
    n_games = utterances = 0
    for record in records:
        findings.extend(analyze_record(record))
        n_games += 1
        utterances += _utterances(record)
    return findings, _report(findings, n_games, utterances)
