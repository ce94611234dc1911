import dataclasses
import errno
import hashlib
import io
import json
import re
from collections import Counter
from enum import IntEnum
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from avalonplay.agents import AgentSpec
from avalonplay.analyzer import analyze_record
from avalonplay.cli import main
from avalonplay.game import GameConfig, Phase
from avalonplay.llm import LLMClient
from avalonplay.records import (
    GameRecord,
    RecordFormatError,
    RecordSchemaError,
    ReplayMismatch,
    iter_record_paths,
    load_record,
    replay,
    write_record,
)
from avalonplay.events import EventKind, EventLogEntry
from avalonplay import records
from avalonplay.records import _config_hash, _encode_line, _json
from avalonplay.runner import compute_metrics, run_game, seed_for_game
from helpers import V1_RECORDS_DIR, V1_RULE_KEYS, V2_RECORDS_DIR, budgeted_mock, run_codeact_e2e, v2_text


@pytest.fixture(scope="module")
def record():
    return run_game(
        GameConfig(),
        just_spec=AgentSpec("deduction"),
        evil_spec=AgentSpec("scripted_evil"),
        game_seed=seed_for_game(11, 0),
    )


class TestRoundTrip:
    def test_load_inverts_write(self, record, tmp_path):
        path = tmp_path / "game.jsonl"
        write_record(record, path)
        loaded = load_record(path)
        assert loaded.game_id == record.game_id
        assert loaded.config == record.config
        assert loaded.roles == record.roles
        assert loaded.agents == record.agents
        assert loaded.seed_info == record.seed_info
        assert loaded.outcome == record.outcome
        assert loaded.aborted == record.aborted
        assert loaded.events == record.events

    def test_a_failed_write_leaves_no_file(self, record, tmp_path, monkeypatch):
        write_text = Path.write_text

        def fail_halfway(self, text, *args, **kwargs):
            write_text(self, text[: len(text) // 2], *args, **kwargs)
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(Path, "write_text", fail_halfway)
        with pytest.raises(OSError):
            write_record(record, tmp_path / "game.jsonl")
        assert list(tmp_path.iterdir()) == []

    def test_file_is_one_json_object_per_line(self, record, tmp_path):
        path = tmp_path / "game.jsonl"
        write_record(record, path)
        lines = path.read_text().splitlines()
        parsed = [json.loads(line) for line in lines]
        assert parsed[0]["type"] == "header" and parsed[0]["schema_version"] == 3
        assert parsed[-1]["type"] == "outcome"
        # Decision lines carry neither a type nor the header's game id; the
        # first key names the kind.
        assert all("type" not in p and "game_id" not in p for p in parsed[1:-1])
        assert {next(iter(p)) for p in parsed[1:-1]} == {"team", "speeches", "approve", "quest", "target"}

    def test_events_stored_in_sequence_order(self, record, tmp_path):
        # One line per proposal, discussion, team vote, quest and assassination,
        # in the order of the events they stand for.
        path = tmp_path / "game.jsonl"
        write_record(record, path)
        kinds = [next(iter(json.loads(line))) for line in path.read_text().splitlines()[1:-1]]
        line_of = {"team_proposed": "team", "discussion": "speeches", "quest_result": "quest",
                   "assassination_result": "target"}
        steps = []
        for e in record.events:
            kind = "approve" if e.visibility.startswith("private:") else line_of.get(e.kind.value)
            if kind and not (steps and steps[-1] == kind and kind in ("speeches", "approve")):
                steps.append(kind)
        assert kinds == steps

    def test_engine_output_is_not_written(self, record):
        text = _text(record)
        for e in record.events:
            if e.kind in (EventKind.MODERATOR_NOTE, EventKind.BALLOT_RESULT, EventKind.QUEST_RESULT):
                assert e.text not in text
        assert len(text) <= len(v2_text(record)) / 4

    def test_agent_specs_survive(self, record, tmp_path):
        path = tmp_path / "game.jsonl"
        write_record(record, path)
        loaded = load_record(path)
        assert set(loaded.agents) == set(range(1, 8))
        assert all(isinstance(s, AgentSpec) for s in loaded.agents.values())


class TestFormatErrors:
    def write_lines(self, tmp_path, lines):
        path = tmp_path / "bad.jsonl"
        path.write_text("\n".join(lines) + "\n")
        return path

    def rows(self, record, tmp_path):
        path = tmp_path / "good.jsonl"
        write_record(record, path)
        return path.read_text().splitlines()

    def test_invalid_json_names_the_line(self, record, tmp_path):
        rows = self.rows(record, tmp_path)
        rows.insert(3, "{not json")
        with pytest.raises(RecordFormatError, match="line 4"):
            load_record(self.write_lines(tmp_path, rows))

    def test_missing_type(self, record, tmp_path):
        # A line with no type between the header and the outcome is an event.
        rows = self.rows(record, tmp_path)
        rows.insert(1, '{"seq": 0}')
        with pytest.raises(RecordFormatError, match="line 2"):
            load_record(self.write_lines(tmp_path, rows))

    def test_unknown_type(self, record, tmp_path):
        rows = self.rows(record, tmp_path)
        rows.insert(1, '{"type": "mystery"}')
        with pytest.raises(RecordFormatError, match="mystery"):
            load_record(self.write_lines(tmp_path, rows))

    def test_event_after_outcome(self, record, tmp_path):
        rows = self.rows(record, tmp_path)
        rows.append(rows[1])
        with pytest.raises(RecordFormatError, match="after the outcome"):
            load_record(self.write_lines(tmp_path, rows))

    def test_duplicate_outcome(self, record, tmp_path):
        rows = self.rows(record, tmp_path)
        rows.append(rows[-1])
        with pytest.raises(RecordFormatError, match="outcome"):
            load_record(self.write_lines(tmp_path, rows))

    def test_out_of_order_events(self, record, tmp_path):
        rows = v2_text(record).splitlines()
        rows[1], rows[2] = rows[2], rows[1]
        with pytest.raises(RecordFormatError, match="out of order"):
            load_record(self.write_lines(tmp_path, rows))

    def test_decisions_out_of_order(self, record, tmp_path):
        rows = self.rows(record, tmp_path)
        rows[1], rows[2] = rows[2], rows[1]
        with pytest.raises(ReplayMismatch, match="bad.jsonl: line 2: no such decision is due in team_selection"):
            load_record(self.write_lines(tmp_path, rows))

    def test_missing_outcome(self, record, tmp_path):
        rows = self.rows(record, tmp_path)[:-1]
        with pytest.raises(RecordFormatError, match="outcome"):
            load_record(self.write_lines(tmp_path, rows))

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")], ids=repr)
    def test_non_finite_constant_names_the_line(self, record, tmp_path, value):
        rows = self.rows(record, tmp_path)
        header = json.loads(rows[0])
        header["agents"]["1"]["temperature_text"] = value
        rows[0] = json.dumps(header)  # NaN, Infinity or -Infinity
        constant = json.dumps(value)
        assert f'"temperature_text": {constant},' in rows[0]
        with pytest.raises(RecordFormatError, match=f"line 1 is not valid JSON: {constant} is not a JSON value"):
            load_record(self.write_lines(tmp_path, rows))

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")], ids=repr)
    def test_non_finite_value_is_not_written(self, record, tmp_path, value):
        spec = AgentSpec("deduction", temperature_text=value)
        bad = dataclasses.replace(record, agents={**record.agents, 1: spec})
        with pytest.raises(ValueError, match="Out of range float values are not JSON compliant"):
            write_record(bad, tmp_path / "game.jsonl")
        assert list(tmp_path.iterdir()) == []

    def test_missing_header(self, record, tmp_path):
        rows = self.rows(record, tmp_path)[1:]
        with pytest.raises(RecordFormatError):
            load_record(self.write_lines(tmp_path, rows))


class TestStrictLoader:
    """A header toggle of the wrong JSON type, or an event key the schema does
    not know, is a format error naming the line, not a silently coerced
    record."""

    def header_with(self, record, **config):
        rows = _text(record).splitlines()
        header = json.loads(rows[0])
        header["config"].update(config)
        header["config_hash"] = _config_hash(header["config"])
        rows[0] = json.dumps(header)
        return "\n".join(rows) + "\n"

    @pytest.mark.parametrize(
        "config",
        [
            {"communication_enabled": "no"},
            {"reveal_sabotage_count": 0},
            {"assassination_enabled": None},
            {"play_all_rounds": 1},
            {"memory_window": 15.0},
            {"memory_window": True},
            {"memory_window": "15"},
        ],
        ids=lambda c: f"{next(iter(c))}={next(iter(c.values()))!r}",
    )
    def test_mistyped_config_value_names_the_line(self, record, config):
        key = next(iter(config))
        with pytest.raises(RecordFormatError, match=f"line 1: bad header: .*{key} should be"):
            load_record(io.StringIO(self.header_with(record, **config)))

    def test_typed_config_values_still_load(self, record):
        # A game aborted before its first decision fits any config.
        unplayed = dataclasses.replace(record, events=[], outcome=None, aborted=True)
        loaded = load_record(io.StringIO(self.header_with(unplayed, communication_enabled=False, memory_window=3)))
        assert loaded.config == GameConfig(communication_enabled=False, memory_window=3)

    @pytest.mark.parametrize(
        "change, message",
        [
            (lambda agents: agents.pop("7"), "agents should name seats 1..7"),
            (lambda agents: agents.update({"9": agents["1"]}), "agents should name seats 1..7"),
            (lambda agents: agents["2"].update(temperature_text="hot"), "agent 2 temperature_text should be int or float"),
            (lambda agents: agents["2"].update(temperature_code=True), "agent 2 temperature_code should be int or float"),
            (lambda agents: agents["5"].update(model=5), "agent 5 model should be str, got 5"),
            (lambda agents: agents.update({"3": {"policy": "deduction"}}), "agent 3 should hold ['policy', 'strategy'"),
        ],
        ids=["missing-seat", "extra-seat", "text-temperature", "bool-temperature", "int-model", "policy-only"],
    )
    def test_bad_agents_map_names_the_line(self, record, change, message):
        rows = _text(record).splitlines()
        header = json.loads(rows[0])
        change(header["agents"])
        rows[0] = json.dumps(header)
        with pytest.raises(RecordFormatError, match=f"line 1: bad header: .*{re.escape(message)}"):
            load_record(io.StringIO("\n".join(rows) + "\n"))

    def test_integer_temperatures_load_and_rewrite_to_the_same_bytes(self, record):
        rows = _text(record).splitlines()
        header = json.loads(rows[0])
        header["agents"]["1"]["temperature_text"] = 1
        text = "\n".join([json.dumps(header, ensure_ascii=False), *rows[1:]]) + "\n"
        assert _text(load_record(io.StringIO(text))) == text

    @pytest.mark.parametrize("key", ["colour", "game_id", "type_"])
    def test_unknown_event_key_names_the_line_and_the_key(self, record, key):
        rows = v2_text(record).splitlines()
        event = json.loads(rows[3])
        event[key] = "red"
        rows[3] = json.dumps(event)
        with pytest.raises(RecordFormatError, match=f"line 4: bad event: .*unknown event key '{key}'"):
            load_record(io.StringIO("\n".join(rows) + "\n"))

    @pytest.mark.parametrize("key", ["colour", "payload", "type_"])
    def test_unknown_decision_key_names_the_line_and_the_key(self, record, key):
        rows = _text(record).splitlines()
        assert next(iter(json.loads(rows[3]))) == "approve"
        rows[3] = json.dumps(json.loads(rows[3]) | {key: "red"})
        with pytest.raises(RecordFormatError, match=f"line 4: bad approve line: .*unknown key '{key}'"):
            load_record(io.StringIO("\n".join(rows) + "\n"))


_OUTCOME_LINE_CASES = [
    ({"aborted": "no"}, "aborted should be bool, got 'no'"),
    ({"aborted": None}, "aborted should be bool, got None"),
    ({"error": 5}, "error should be str or NoneType, got 5"),
    ({"outcome": None}, "outcome should be dict, got None"),
    ({"aborted": True}, "outcome should be NoneType, got {"),
    ({"outcome": {"assassination_hit": "no"}}, "assassination_hit should be bool or NoneType, got 'no'"),
    ({"outcome": {"assassination_hit": 1}}, "assassination_hit should be bool or NoneType, got 1"),
    ({"outcome": {"assassination_target": "4"}}, "assassination_target should be int or NoneType"),
    ({"outcome": {"assassination_target": True}}, "assassination_target should be int or NoneType"),
    ({"outcome": {"overall_winner": "just"}}, "overall_winner should be 'evil', got 'just'"),
]


class TestOutcomeLine:
    """The outcome line is checked as strictly as the header: a field of the
    wrong JSON type, an outcome that does not fit `aborted` or a stored
    winner that the other fields do not give is a format error naming the
    line."""

    @pytest.mark.parametrize(
        "fields, message", _OUTCOME_LINE_CASES, ids=[json.dumps(f) for f, _ in _OUTCOME_LINE_CASES]
    )
    def test_bad_outcome_line_names_the_line(self, record, fields, message):
        rows = _text(record).splitlines()
        tail = json.loads(rows[-1])
        for key, value in fields.items():
            tail[key] = tail[key] | value if isinstance(value, dict) else value
        rows[-1] = json.dumps(tail)
        with pytest.raises(RecordFormatError, match=f"line {len(rows)}: bad outcome: .*{re.escape(message)}"):
            load_record(io.StringIO("\n".join(rows) + "\n"))

    def test_a_complete_game_cut_short_is_rejected(self, record):
        rows = _text(record).splitlines()
        first_quest = next(i for i, row in enumerate(rows) if row.startswith('{"quest": '))
        tail = json.loads(rows[-1]) | {"outcome": None}
        rows = [*rows[: first_quest + 1], json.dumps(tail)]
        with pytest.raises(RecordFormatError, match=f"line {len(rows)}: bad outcome"):
            load_record(io.StringIO("\n".join(rows) + "\n"))


class TestSchemaErrors:
    def test_version_mismatch(self, record, tmp_path):
        path = tmp_path / "game.jsonl"
        write_record(record, path)
        rows = path.read_text().splitlines()
        header = json.loads(rows[0])
        header["schema_version"] = 99
        rows[0] = json.dumps(header)
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(RecordSchemaError, match="schema version"):
            load_record(path)

    def test_config_hash_mismatch(self, record, tmp_path):
        path = tmp_path / "game.jsonl"
        write_record(record, path)
        rows = path.read_text().splitlines()
        header = json.loads(rows[0])
        header["config_hash"] = "0" * 16
        rows[0] = json.dumps(header)
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(RecordSchemaError, match="hash"):
            load_record(path)


class TestReplay:
    def test_replay_reproduces_the_game(self, record):
        engine = replay(record)
        assert engine.outcome == record.outcome

    def test_replay_after_round_trip(self, record, tmp_path):
        path = tmp_path / "game.jsonl"
        write_record(record, path)
        assert replay(load_record(path)).outcome == record.outcome

    def test_tampered_ballot_detected(self, record, tmp_path):
        # Schema 2 records the ballot sentences that a flipped ballot changes.
        path = tmp_path / "game.jsonl"
        path.write_text(v2_text(record))
        rows = path.read_text().splitlines()
        for i, row in enumerate(rows):
            data = json.loads(row)
            if data.get("kind") == "ballot_result" and data["visibility"].startswith("private:"):
                data["payload"]["approve"] = not data["payload"]["approve"]
                rows[i] = json.dumps(data)
                break
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(ReplayMismatch):
            replay(load_record(path))

    def test_tampered_team_detected(self, record, tmp_path):
        path = tmp_path / "game.jsonl"
        path.write_text(v2_text(record))
        rows = path.read_text().splitlines()
        for i, row in enumerate(rows):
            data = json.loads(row)
            if data.get("kind") == "team_proposed":
                members = data["payload"]["members"]
                others = [p for p in range(1, 8) if p not in members]
                data["payload"]["members"] = sorted(members[:-1] + others[:1])
                rows[i] = json.dumps(data)
                break
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(ReplayMismatch):
            replay(load_record(path))

    def test_tampered_outcome_detected(self, record, tmp_path):
        path = tmp_path / "game.jsonl"
        write_record(record, path)
        rows = path.read_text().splitlines()
        outcome = json.loads(rows[-1])
        outcome["outcome"]["quest_winner"] = (
            "evil" if outcome["outcome"]["quest_winner"] == "just" else "just"
        )
        rows[-1] = json.dumps(outcome)
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(ReplayMismatch, match="outcome"):
            replay(load_record(path))

    def test_renumbered_seqs_detected(self, record):
        rows = v2_text(record).splitlines()
        for i in range(5, len(rows) - 1):  # from the fifth event on
            data = json.loads(rows[i])
            data["seq"] += 10
            rows[i] = json.dumps(data)
        with pytest.raises(ReplayMismatch, match="seq 15 differs"):
            _replay_text("\n".join(rows) + "\n")

    def test_audit_event_moved_past_its_quest_result_detected(self):
        record = run_game(GameConfig(), LLM_COT, LLM_REACT, seed_for_game(37, 0), client=budgeted_mock())
        rows = v2_text(record).splitlines()
        i = next(i for i, row in enumerate(rows) if '"quest_vote_override"' in row)
        audit, result = json.loads(rows[i]), json.loads(rows[i + 1])
        assert result["kind"] == "quest_result"
        audit["seq"], result["seq"] = result["seq"], audit["seq"]
        rows[i], rows[i + 1] = json.dumps(result), json.dumps(audit)
        with pytest.raises(ReplayMismatch, match=f"seq {audit['seq']} differs"):
            _replay_text("\n".join(rows) + "\n")

    @pytest.mark.parametrize(
        "game_index, kind, key, value, retyped",
        [
            (0, "quest_result", "sabotage_count", 1, True),
            (1, "assassination_result", "hit", False, 0),
            (0, "quest_result", "round", 1, 1.0),
        ],
        ids=["true-sabotage-count", "hit-0", "round-1.0"],
    )
    def test_a_payload_value_of_another_json_type_is_detected(self, game_index, kind, key, value, retyped):
        # `==` takes each retyped value for the engine's, and the file still loads.
        assert retyped == value
        game = run_game(GameConfig(), AgentSpec("deduction"), AgentSpec("scripted_evil"), seed_for_game(11, game_index))
        rows = v2_text(game).splitlines()
        i, data = next(
            (i, data) for i, data in enumerate(map(json.loads, rows))
            if data.get("kind") == kind and data["payload"][key] == value
        )
        data["payload"][key] = retyped
        rows[i] = json.dumps(data)
        with pytest.raises(ReplayMismatch, match=f"seq {data['seq']} differs"):
            _replay_text("\n".join(rows) + "\n")

    def test_missing_engine_seed_rejected(self, record):
        broken = GameRecord(
            game_id=record.game_id,
            config=record.config,
            roles=record.roles,
            agents=record.agents,
            seed_info={"stream": "sha256-stream-v1"},
            events=record.events,
            outcome=record.outcome,
        )
        with pytest.raises(RecordSchemaError, match="engine seed"):
            replay(broken)


class TestIterRecordPaths:
    def test_sorted_jsonl_only(self, record, tmp_path):
        for name in ("b.jsonl", "a.jsonl", "notes.txt"):
            write_record(record, tmp_path / name) if name.endswith(".jsonl") else (
                tmp_path / name
            ).write_text("x")
        paths = iter_record_paths(tmp_path)
        assert [p.name for p in paths] == ["a.jsonl", "b.jsonl"]


def _text(record: GameRecord) -> str:
    out = io.StringIO()
    write_record(record, out)
    return out.getvalue()


def _replay_text(text: str):
    return replay(load_record(io.StringIO(text)))


LLM_COT = AgentSpec("llm", strategy="cot", model="mock")
LLM_REACT = AgentSpec("llm", strategy="react", model="mock")

# Each config flips one of the four rule toggles away from its default.
PIN_CONFIGS = (
    GameConfig(communication_enabled=False),
    GameConfig(reveal_sabotage_count=True),
    GameConfig(assassination_enabled=False),
    GameConfig(play_all_rounds=True),
)
# Mock games as (game index, request budgets): no abort, then an abort in
# each decision kind. Game 29 deals the evil roles to seats 5-7, so the
# mock's lowest-seat teams win every quest and the assassin gets to act.
PIN_MOCK_GAMES = (
    (0, {}),
    (1, {"team_selection": 2}),
    (2, {"discussion": 9}),
    (3, {"team_vote": 10}),
    (4, {"quest_vote": 3}),
    (29, {}),
    (29, {"assassination": 0}),
)


def _pin_records():
    for config in PIN_CONFIGS:
        for i in range(3):
            yield run_game(config, AgentSpec("deduction"), AgentSpec("scripted_evil"), seed_for_game(23, i))
            yield run_game(config, AgentSpec("random"), AgentSpec("random"), seed_for_game(29, i))
        for i, budgets in PIN_MOCK_GAMES:
            yield run_game(config, LLM_COT, LLM_REACT, seed_for_game(31, i), client=budgeted_mock(budgets))


def _events_digest(records) -> str:
    """One sha256 over each record's replayed events, written and loaded
    first; the replayed events equal the loaded ones."""
    digest = hashlib.sha256()
    for record in records:
        loaded = load_record(io.StringIO(_text(record)))
        events = replay(loaded).events
        assert events == loaded.events
        digest.update(json.dumps([e.to_dict() for e in events]).encode("utf-8"))
    return digest.hexdigest()


def _bytes_digest(records) -> str:
    digest = hashlib.sha256()
    for record in records:
        digest.update(_text(record).encode("utf-8"))
    return digest.hexdigest()


class TestRecordAndReplayPin:
    """Written records and replayed event logs of deduction/scripted_evil,
    random/random and cot/react mock games (aborted ones included) under each
    rule toggle, and of the codeact end-to-end game."""

    @pytest.fixture(scope="class")
    def pin_records(self):
        records = list(_pin_records())
        assert sum(r.aborted for r in records) >= 12
        return records

    @pytest.fixture(scope="class")
    def codeact_record(self):
        return run_codeact_e2e()[0]

    def test_replayed_events_are_pinned(self, pin_records, codeact_record):
        assert _events_digest(pin_records) == PINNED_EVENTS_DIGEST
        assert _events_digest([codeact_record]) == PINNED_CODEACT_EVENTS_DIGEST

    def test_record_bytes_are_pinned(self, pin_records, codeact_record):
        assert _bytes_digest(pin_records) == PINNED_BYTES_DIGEST
        assert _bytes_digest([codeact_record]) == PINNED_CODEACT_BYTES_DIGEST


# The replayed events are the loaded events, audit events and agent traces
# included.
PINNED_EVENTS_DIGEST = "d44af3c3e56ddac69327cf54ec32090fef8dd1525baf58d86728874909fad97a"
PINNED_CODEACT_EVENTS_DIGEST = "7426a9ba2e1fb643d8365f775bd202721972207cb3b661680dce15736910f28e"
# Schema 3 record files: the header, the decisions and the outcome.
PINNED_BYTES_DIGEST = "505d94d65f6e73b0b58247071665948fd93ea88aaec5fb645d25aa18bd62d6da"
PINNED_CODEACT_BYTES_DIGEST = "d4b4d2ddeddf0fe069ede2afc51ab683421a9a35cd751be9062a27eb69be8ded"


# Mock-client llm `cot` just seats (each with a memory) against deduction
# evil seats (none), as (game index, request budgets): three full games and
# games aborted in a team vote and in a quest vote.
MIXED_GAMES = ((0, {}), (1, {}), (2, {"team_vote": 6}), (3, {"quest_vote": 2}), (29, {}))


class TestMixedPolicyPin:
    """Seats with and without a memory acting in the same vote: the memory
    seats each build their own prompt bundle, after the seats before them."""

    @pytest.fixture(scope="class")
    def mixed_records(self):
        records = [
            run_game(GameConfig(), LLM_COT, AgentSpec("deduction"), seed_for_game(43, i), client=budgeted_mock(budgets))
            for i, budgets in MIXED_GAMES
        ]
        assert [r.aborted for r in records] == [False, False, True, True, False]
        return records

    def test_replayed_events_are_pinned(self, mixed_records):
        assert _events_digest(mixed_records) == PINNED_MIXED_EVENTS_DIGEST

    def test_record_bytes_are_pinned(self, mixed_records):
        assert _bytes_digest(mixed_records) == PINNED_MIXED_BYTES_DIGEST


PINNED_MIXED_EVENTS_DIGEST = "4cac9c3efee471d66a8b885c141a219451030faa59975f47ec9f694d5b0ecf73"
PINNED_MIXED_BYTES_DIGEST = "52da9aac24ff2c159a540f8009a182dd543f1890aa7e6acb24660e25010b387e"


# JSON strings with the characters an encoder must escape, or may pass
# through: quotes, backslashes, control characters, U+2028/U+2029 and
# characters outside the basic plane.
JSON_TEXT = st.text(st.sampled_from('"\\\x00\x1f\x7f\u2028\u2029\U0001F600é/a ') | st.characters())
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False) | JSON_TEXT,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(JSON_TEXT, inner, max_size=3),
    max_leaves=12,
)
EVENTS = st.builds(
    EventLogEntry,
    seq=st.integers(),
    round=st.integers(),
    attempt=st.integers(),
    phase=JSON_TEXT,
    actor=st.none() | st.integers(),
    kind=st.sampled_from(EventKind),
    text=JSON_TEXT,
    payload=st.dictionaries(JSON_TEXT, JSON_VALUES, max_size=4),
    visibility=JSON_TEXT,
)


class TestEventLineTemplate:
    @settings(max_examples=300)
    @given(event=EVENTS)
    @example(event=EventLogEntry(2**70, -(2**64), 10**30, 'a"\\b\n', None, EventKind.DISCUSSION, "\u2028\U0001F600\x00", {}, "p"))
    def test_template_line_is_the_encoder_line(self, event):
        assert _json(event.to_dict()) == _encode_line(event.to_dict())


class _Seat(IntEnum):
    ONE = 1
    SEVEN = 7


# Payload text adds lone surrogates, which the encoder passes through.
PAYLOAD_TEXT = st.text(st.sampled_from('"\\\x00\x1f\x7f\u2028\U0001F600é\ud800\udfffa ') | st.characters(), max_size=6)
PAYLOAD_INTS = st.integers() | st.sampled_from(_Seat)
PAYLOAD_VALUES = st.recursive(
    st.none() | st.booleans() | PAYLOAD_INTS | st.sampled_from(EventKind) | PAYLOAD_TEXT
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(PAYLOAD_TEXT, inner, max_size=3),
    max_leaves=8,
)
PAYLOAD_KEYS = (
    PAYLOAD_TEXT | PAYLOAD_INTS | st.booleans() | st.none() | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from(EventKind)
)
PAYLOADS = (
    # Flat payloads, which take the template, and payloads that may leave it
    # at any key: non-str keys, int subclasses, floats, nested values.
    st.dictionaries(PAYLOAD_TEXT, st.none() | st.booleans() | st.integers() | PAYLOAD_TEXT | st.lists(st.integers()))
    | st.dictionaries(PAYLOAD_KEYS, PAYLOAD_VALUES | st.lists(PAYLOAD_INTS), max_size=5)
)


def _event(payload=None, phase="team_vote", visibility="public", kind=EventKind.BALLOT_RESULT):
    return EventLogEntry(7, 2, 3, phase, 4, kind, "text", {} if payload is None else payload, visibility)


class TestPayloadTemplate:
    @settings(max_examples=400)
    @given(payload=PAYLOADS)
    @example(payload={"approve": True, "reasoning": 'say "\ud800"\n', "members": [1, 2, _Seat.SEVEN]})
    @example(payload={"members": [], "leader": _Seat.ONE, 3: None})
    def test_payload_line_is_the_encoder_line(self, payload):
        event = _event(payload)
        assert _json(event.to_dict()) == _encode_line(event.to_dict())
        assert _json([payload, [payload], {"ballots": [payload]}]) == _encode_line([payload, [payload], {"ballots": [payload]}])

    @pytest.mark.parametrize(
        "payload",
        [{"x": float("nan")}, {"a": 1, "x": [1, float("inf")]}, {1: float("-inf")}, {"a": "b", "x": {"y": float("nan")}}],
        ids=repr,
    )
    def test_non_finite_payload_values_are_rejected_on_both_paths(self, payload):
        with pytest.raises(ValueError, match="Out of range float values are not JSON compliant"):
            _json(_event(payload).to_dict())
        with pytest.raises(ValueError, match="Out of range float values are not JSON compliant"):
            _encode_line(_event(payload).to_dict())

    @pytest.mark.parametrize("kind", list(EventKind), ids=lambda k: k.value)
    @pytest.mark.parametrize(
        "phase, visibility",
        [("team_vote", "private:9"), ('team "vote"', "audit"), ("", "public"), ("quest_execution", "private:\u00e9")],
    )
    def test_fields_outside_the_quoted_table(self, kind, phase, visibility):
        event = _event({"approve": False}, phase, visibility, kind)
        assert _json(event.to_dict()) == _encode_line(event.to_dict())

    def test_a_default_game_writes_every_payload_by_template(self, record, monkeypatch):
        # Only the header's agents map, with its float temperatures, and its
        # config (once per config) go through the encoder.
        encoded = []
        monkeypatch.setattr("avalonplay.records._encode_line", lambda obj: encoded.append(obj) or _encode_line(obj))
        records._config_fields.cache_clear()
        out = io.StringIO()
        write_record(dataclasses.replace(record), out)
        write_record(record, out)
        config = {f.name for f in dataclasses.fields(GameConfig)}
        assert [set(obj) for obj in encoded] == [config, set(map(str, range(1, 8))), set(map(str, range(1, 8)))]


class TestLineTemplates:
    """A line kind's template writes what the encoder writes for its line,
    in every step of deduction, random, mock-LLM (aborted ones included),
    codeact and logged-exchange games, and of steps whose payloads hold
    keys the template does not."""

    @pytest.fixture(scope="class")
    def steps(self, record):
        games = [record, *_pin_records(), run_codeact_e2e()[0], _logged_game()]
        steps = [step for game in games for step in records._steps(game.events)]
        # A proposal, speeches and ballots with a caller's key each.
        extra = {"trace": {"x": [1.5]}}
        for line in (records._TEAM, records._SPEECHES, records._BALLOTS):
            kind, step = next((kind, step) for kind, step in steps if kind is line)
            steps.append((kind, [dataclasses.replace(e, payload={**e.payload, **extra}) for e in step]))
        return steps

    def test_each_template_writes_the_encoder_line(self, steps):
        templated = [(line, step) for line, step in steps if line.text is not None]
        assert {line.key for line, _ in templated} == {"team", "speeches", "approve"}
        for line, step in templated:
            assert line.text(step) == _encode_line(line.line(step)) == _json(line.line(step))


class TestCodeactRecords:
    @pytest.fixture(scope="class")
    def e2e_text(self):
        return _text(run_codeact_e2e()[0])

    def test_two_runs_write_identical_bytes(self, e2e_text):
        assert '"codeact": {' in e2e_text
        assert _text(run_codeact_e2e()[0]) == e2e_text

    def test_records_with_wall_times_still_load_and_replay(self, e2e_text):
        """Older records carry each sandbox run's `wall_time`."""
        rows = []
        for row in e2e_text.splitlines():
            data = json.loads(row)
            for attempt in (data.get("payload", {}).get("codeact") or {}).get("attempts", ()):
                attempt["result"]["wall_time"] = 0.0731
            rows.append(json.dumps(data, ensure_ascii=False))
        older = "\n".join(rows) + "\n"
        assert older.count('"wall_time"') == 5
        record = load_record(io.StringIO(older))
        replay(record)
        assert _text(record) == older


V1_PATHS = sorted(V1_RECORDS_DIR.glob("*.jsonl"))


def _rows(text: str) -> list[dict]:
    return [json.loads(line) for line in text.splitlines()]


class TestSchemaV1Records:
    """Schema 1 files: a deduction/scripted_evil game, a mock game aborted
    mid-game and the codeact end-to-end game."""

    @pytest.mark.parametrize("path", V1_PATHS, ids=lambda p: p.stem)
    def test_loads_replays_and_rewrites_as_v2(self, path):
        # The upgrade reads a schema 1 file as the schema 2 file of the game.
        v1 = _rows(path.read_text())
        assert v1[0]["schema_version"] == 1
        assert all(row["type"] == "event" and "game_id" in row for row in v1[1:-1])
        record = load_record(path)
        replay(record)
        v2 = _rows(v2_text(record))
        assert v2[0]["schema_version"] == 2
        assert v2[0]["config"] == {k: v for k, v in v1[0]["config"].items() if k not in V1_RULE_KEYS}
        assert [(k, v) for k, v in v2[0].items() if k not in ("schema_version", "config", "config_hash")] == [
            (k, v) for k, v in v1[0].items() if k not in ("schema_version", "config", "config_hash")
        ]
        assert v2[1:-1] == [{k: v for k, v in row.items() if k not in ("type", "game_id")} for row in v1[1:-1]]
        assert v2[-1] == v1[-1]
        assert load_record(io.StringIO(_text(record))) == record

    def test_fixtures_cover_an_aborted_game_and_the_codeact_game(self):
        loaded = {path.stem: load_record(path) for path in V1_PATHS}
        assert sorted(loaded) == ["codeact-e2e", "deduction", "mock-aborted"]
        assert loaded["mock-aborted"].aborted and not loaded["deduction"].aborted
        assert _events_digest([loaded["codeact-e2e"]]) == PINNED_CODEACT_EVENTS_DIGEST

    @pytest.mark.parametrize("command", ["metrics", "analyze"])
    def test_metrics_and_analyze_match_the_v3_rewrite(self, command, tmp_path, capsys):
        for path in V1_PATHS:
            write_record(load_record(path), tmp_path / path.name)
        assert main([command, str(V1_RECORDS_DIR)]) == 0
        v1_out = capsys.readouterr().out
        assert main([command, str(tmp_path)]) == 0
        assert capsys.readouterr().out == v1_out

    def _load_tampered(self, edit) -> None:
        rows = _rows((V1_RECORDS_DIR / "deduction.jsonl").read_text())
        edit(rows)
        load_record(io.StringIO("\n".join(json.dumps(row) for row in rows) + "\n"))

    def test_config_hash_is_checked(self):
        with pytest.raises(RecordSchemaError, match="hash"):
            self._load_tampered(lambda rows: rows[0]["config"].update(play_all_rounds=True))

    def test_upgrade_strips_game_id_but_not_unknown_keys(self):
        with pytest.raises(RecordFormatError, match="line 4: bad event: .*unknown event key 'colour'"):
            self._load_tampered(lambda rows: rows[3].update(colour="red", game_id="elsewhere"))

    def test_event_lines_need_their_type(self):
        with pytest.raises(RecordFormatError, match="line 3 has no record type"):
            self._load_tampered(lambda rows: rows[2].pop("type"))


V2_PATHS = sorted(V2_RECORDS_DIR.glob("*.jsonl"))


class TestSchemaV2Records:
    """Schema 2 files as the schema 2 writer wrote them: two deduction games
    and a mock codeact game with its model exchanges."""

    def test_fixtures_cover_deduction_and_logged_codeact_games(self):
        assert [path.stem for path in V2_PATHS] == ["codeact-exchanges", "deduction-assassin-hit", "deduction-evil-quests"]
        assert all(json.loads(path.read_text().splitlines()[0])["schema_version"] == 2 for path in V2_PATHS)
        assert '"exchanges": [' in (V2_RECORDS_DIR / "codeact-exchanges.jsonl").read_text()

    @pytest.mark.parametrize("path", V2_PATHS, ids=lambda p: p.stem)
    def test_loads_and_its_v3_rewrite_loads_to_the_same_record(self, path):
        record = load_record(path)
        replay(record)
        assert v2_text(record) == path.read_text(encoding="utf-8")
        text = _text(record)
        assert json.loads(text.splitlines()[0])["schema_version"] == 3
        rewritten = load_record(io.StringIO(text))
        assert rewritten == record
        assert compute_metrics([rewritten]) == compute_metrics([record])
        assert analyze_record(rewritten) == analyze_record(record)
        assert _text(rewritten) == text

    @pytest.mark.parametrize("command", ["metrics", "analyze"])
    def test_metrics_and_analyze_match_the_v3_rewrite(self, command, tmp_path, capsys):
        for path in V2_PATHS:
            write_record(load_record(path), tmp_path / path.name)
        assert main([command, str(V2_RECORDS_DIR)]) == 0
        v2_out = capsys.readouterr().out
        assert main([command, str(tmp_path)]) == 0
        assert capsys.readouterr().out == v2_out


def _logged_game() -> GameRecord:
    return run_game(
        GameConfig(), LLM_COT, LLM_REACT, seed_for_game(37, 0), client=budgeted_mock(), log_exchanges=True
    )


class TestLoggedExchangeRecords:
    @pytest.fixture(scope="class")
    def logged_text(self):
        return _text(_logged_game())

    def test_two_runs_write_identical_bytes(self, logged_text):
        assert '"exchanges": [' in logged_text
        assert _text(_logged_game()) == logged_text

    def test_records_with_latencies_still_load_and_replay(self, logged_text):
        """Older records carry each logged exchange's `latency`."""
        rows = []
        for row in logged_text.splitlines():
            data = json.loads(row)
            for exchange in data.get("payload", {}).get("exchanges", ()):
                exchange["latency"] = 0.0123
            rows.append(json.dumps(data, ensure_ascii=False))
        older = "\n".join(rows) + "\n"
        assert '"latency"' in older
        record = load_record(io.StringIO(older))
        replay(record)
        assert _text(record) == older


class TestAbortedReplay:
    @pytest.mark.parametrize(
        "tag, budget, phase, game_seed",
        [
            ("team_selection", 2, Phase.TEAM_SELECTION, seed_for_game(37, 0)),
            ("discussion", 9, Phase.DISCUSSION, seed_for_game(37, 0)),
            ("team_vote", 10, Phase.TEAM_VOTE, seed_for_game(37, 0)),
            ("quest_vote", 3, Phase.QUEST_EXECUTION, seed_for_game(37, 0)),
            ("assassination", 0, Phase.ASSASSINATION, seed_for_game(31, 29)),
        ],
    )
    def test_aborted_records_replay(self, tag, budget, phase, game_seed):
        record = run_game(GameConfig(), LLM_COT, LLM_REACT, game_seed, client=budgeted_mock({tag: budget}))
        assert record.aborted and record.outcome is None
        abort = record.events[-1]
        assert abort.payload["reason"] == "abort" and abort.phase == phase.value
        engine = _replay_text(_text(record))
        assert not engine.finished
        assert engine.state.phase is phase
        assert engine.events == record.events


RECORD_ERRORS = (RecordFormatError, RecordSchemaError, ReplayMismatch)
# JSON values of every type, to put where a record holds something else.
RETYPED = st.sampled_from([None, True, False, 0, -1, 8, 2.5, "", "x", [], [1, 2], {}, {"a": 1}])


@pytest.fixture(scope="module")
def fuzz_sources(record):
    aborted = run_game(GameConfig(), LLM_COT, LLM_REACT, seed_for_game(37, 1), client=budgeted_mock({"team_vote": 17}))
    assert aborted.aborted
    v1 = (V1_RECORDS_DIR / "mock-aborted.jsonl").read_text().splitlines()
    v2 = (V2_RECORDS_DIR / "deduction-evil-quests.jsonl").read_text().splitlines()
    return [_text(record).splitlines(), _text(aborted).splitlines(), v1, v2]


def _dicts(obj):
    """Every JSON object nested in `obj`, `obj` included."""
    if isinstance(obj, dict):
        yield obj
        for value in obj.values():
            yield from _dicts(value)
    elif isinstance(obj, list):
        for value in obj:
            yield from _dicts(value)


@st.composite
def tampered(draw, lines):
    rows = list(lines)
    i = draw(st.integers(0, len(rows) - 1))
    change = draw(st.sampled_from(["delete", "duplicate", "retype row", "retype value"]))
    if change == "delete":
        del rows[i]
    elif change == "duplicate":
        rows.insert(draw(st.integers(0, len(rows))), rows[i])
    elif change == "retype row":
        rows[i] = json.dumps(draw(RETYPED))
    else:
        row = json.loads(rows[i])
        target = draw(st.sampled_from([d for d in _dicts(row) if d]))
        target[draw(st.sampled_from(sorted(target)))] = draw(RETYPED)
        rows[i] = json.dumps(row)
    return "\n".join(rows) + "\n"


class TestTamperedRecords:
    @settings(max_examples=400)
    @given(data=st.data())
    def test_only_record_errors_escape(self, fuzz_sources, data):
        text = data.draw(tampered(data.draw(st.sampled_from(fuzz_sources))))
        try:
            record = load_record(io.StringIO(text))
            replay(record)
            compute_metrics([record])
            analyze_record(record)
        except RECORD_ERRORS:
            pass

    def test_retyped_event_field_names_the_line(self, record):
        rows = v2_text(record).splitlines()
        event = json.loads(rows[5])
        event["seq"] = "5"
        rows[5] = json.dumps(event)
        with pytest.raises(RecordFormatError, match="line 6"):
            load_record(io.StringIO("\n".join(rows)))

    def test_malformed_action_names_the_seq(self, record):
        rows = v2_text(record).splitlines()
        for i, row in enumerate(rows):
            data = json.loads(row)
            if data.get("kind") == "team_proposed":
                data["payload"]["members"] = "1, 2"
                rows[i] = json.dumps(data)
                break
        with pytest.raises(ReplayMismatch, match=f"seq {data['seq']} "):
            _replay_text("\n".join(rows))


def _leaves(value, path=()):
    """The path of every leaf of a JSON value (a scalar, or an empty list or object)."""
    items = list(value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ())
    for key, item in items:
        yield from _leaves(item, (*path, key))
    if not items:
        yield path


def _other(value):
    """A value of the same JSON type as `value`, but not equal to it."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, str):
        return value + "?"
    return 0 if value is None else [0] if isinstance(value, list) else {"x": 0}


def _retyped(value):
    """A value of another JSON type than `value`: a bool becomes an int."""
    if isinstance(value, bool):
        return int(value)
    return "3" if isinstance(value, int) else None


def _sweep_texts(rows: list[str]):
    """(edit, text) for each bounded edit of a schema 3 record's lines: each
    leaf of each decision line changed within its type and to another type,
    each line deleted, each line doubled, and the file cut after each line."""
    for i in range(1, len(rows) - 1):
        for path in _leaves(json.loads(rows[i])):
            for change in (_other, _retyped):
                edited = json.loads(rows[i])
                parent = edited
                for key in path[:-1]:
                    parent = parent[key]
                parent[path[-1]] = change(parent[path[-1]])
                yield f"line {i + 1} {path} {change.__name__}", "\n".join([*rows[:i], json.dumps(edited), *rows[i + 1:]]) + "\n"
    for i in range(len(rows)):
        yield f"line {i + 1} deleted", "\n".join(rows[:i] + rows[i + 1:]) + "\n"
        yield f"line {i + 1} doubled", "\n".join(rows[: i + 1] + rows[i:]) + "\n"
        if i < len(rows) - 1:
            yield f"cut after line {i + 1}", "\n".join(rows[: i + 1]) + "\n"


class TestBoundedTamperSweep:
    """Every bounded edit of a deduction record and of a mock-LLM record with
    audit notes either fails with one of the three record errors, naming the
    file and a line, or loads and replays cleanly and feeds metrics and the
    analyzer (which may still find a trace field of the wrong type)."""

    def test_each_edit_fails_at_a_named_line_or_loads_cleanly(self, record, tmp_path):
        mock = run_game(GameConfig(), LLM_COT, LLM_REACT, seed_for_game(37, 0), client=budgeted_mock())
        assert '{"audit": ' in _text(mock)
        messages = []
        for source, game in (("deduction", record), ("mock", mock)):
            path = tmp_path / f"{source}.jsonl"
            for edit, text in _sweep_texts(_text(game).splitlines()):
                path.write_text(text)
                try:
                    loaded = load_record(path)
                    replay(loaded)
                except RECORD_ERRORS as exc:
                    assert re.match(rf"{re.escape(str(path))}: line \d+[: ]", str(exc)), (edit, str(exc))
                    messages.append(str(exc))
                    continue
                compute_metrics([loaded])
                try:
                    analyze_record(loaded)
                except RecordFormatError:
                    pass
        # The sweep met an illegal decision, a decision the game had no use
        # for at its place, lines left over after the game ended, an outcome
        # that is not the game's and a complete game that stopped short.
        for kind in ("the rules reject this decision", "no such decision is due in", "due after the game ended",
                     "outcome diverged", "the record is complete, but"):
            assert any(kind in message for message in messages), kind


# The payload keys of a decision's event that the engine writes itself.
ENGINE_PAYLOAD_KEYS = {"members", "leader", "approve", "target", "hit"}


def _agent_written(event: dict, path: tuple) -> bool:
    """Whether the leaf at `path` of a schema 2 event line is an agent's
    input that the engine takes as recorded: a proposal's or a speech's
    text, or a payload value of a decision under a key the engine does not
    write. Every other field, and every field of a moderator note, a public
    ballot result or a quest result, is engine output."""
    kind = event["kind"]
    if path[0] == "text":
        return kind in ("team_proposed", "discussion")
    decision = kind in ("team_proposed", "discussion", "assassination_result") or (
        kind == "ballot_result" and event["visibility"] != "public"
    )
    return decision and path[0] == "payload" and (len(path) == 1 or path[1] not in ENGINE_PAYLOAD_KEYS)


def _engine_output(event: dict, path: tuple) -> str | None:
    """Which kind of engine output the leaf at `path` is, if it is one."""
    kind, public = event["kind"], event["visibility"] == "public"
    if kind == "moderator_note" and path == ("text",):
        return "moderator text"
    if kind == "ballot_result":
        return "public ballot result" if public else "ballot sentence" if path == ("text",) else None
    return "quest result" if kind == "quest_result" else None


class TestSchema2TamperSweep:
    """Loading alone checks a schema 2 record against the engine: each edit
    of one leaf of one event line, within its JSON type, either fails to
    load with a record error or loads to a record whose schema 3 re-write
    loads to the same events; an edit of anything the engine writes fails.
    Bounded: the event lines of each shape (kind, phase, visibility, payload
    keys) in each round, first of each, in the three schema 2 fixtures."""

    @pytest.mark.parametrize("path", V2_PATHS, ids=lambda p: p.stem)
    def test_each_edit_fails_or_loads_to_a_record_that_rewrites_the_same(self, path):
        rows = path.read_text(encoding="utf-8").splitlines()
        shapes, engine_edits, loaded_edits = set(), Counter(), 0
        for i in range(1, len(rows) - 1):
            event = json.loads(rows[i])
            shape = (event["kind"], event["phase"], event["visibility"] == "public", tuple(event["payload"]), event["round"])
            if shape in shapes:
                continue
            shapes.add(shape)
            for leaf in _leaves(event):
                edited = json.loads(rows[i])
                parent = edited
                for key in leaf[:-1]:
                    parent = parent[key]
                parent[leaf[-1]] = _other(parent[leaf[-1]])
                text = "\n".join([*rows[:i], json.dumps(edited, ensure_ascii=False), *rows[i + 1:]]) + "\n"
                edit = f"line {i + 1} {leaf}"
                try:
                    loaded = load_record(io.StringIO(text))
                except RECORD_ERRORS:
                    engine_edits[_engine_output(event, leaf)] += 1
                    continue
                assert _agent_written(event, leaf), edit
                loaded_edits += 1
                # The written text tells true from 1, which `==` does not.
                assert v2_text(load_record(io.StringIO(_text(loaded)))) == v2_text(loaded), edit
        assert loaded_edits
        for output in ("moderator text", "ballot sentence", "public ballot result", "quest result"):
            assert engine_edits[output], output


class HashClient(LLMClient):
    """Answers each request by the sha256 of its tag and messages: a third
    of the answers parse as nothing (and run as a program that prints no
    team, the same on every Python version), the rest a ballot, a team of one to five seats (often the
    wrong size), a remark or a program that prints a team."""

    model = "hash"

    def complete(self, messages, temperature, tag):
        key = json.dumps([tag] + [m.to_dict() for m in messages]).encode("utf-8")
        h = hashlib.sha256(key).digest()
        if h[0] % 3 == 0:
            return f'print("Let me think about this ({h[1]}) before I answer.")'
        seats = sorted({1 + b % 7 for b in h[2 : 3 + h[1] % 5]})
        team = ", ".join(map(str, seats))
        if tag in ("team_vote", "quest_vote"):
            vote = "approve" if h[1] % 2 else "reject"
            return json.dumps({"reasoning": f"Seat {seats[0]} worries me.", "vote": vote})
        if tag == "discussion":
            return f'Player {seats[0]} said "trust me"\nbut I am not sure.'
        if tag == "code_generation":
            return f"Here is my program:\n```python\nteam = [{team}]\nprint(team)\n```"
        return f"I choose players [{team}]."


# Every strategy for the just seats, against llm seats of the same strategy,
# scripted_evil and deduction, four games each.
AUDIT_GAMES = tuple(
    (strategy, evil, i)
    for strategy in ("base", "cot", "react", "codeact")
    for evil in ("llm", "scripted_evil", "deduction")
    for i in range(4)
)


class TestAuditEventPin:
    """Where agent-written audit events (parse, codeact and contradiction
    fallbacks) and the engine's quest vote overrides land in full games,
    with every raw exchange in the record."""

    @pytest.fixture(scope="class")
    def audit_records(self):
        records = []
        for strategy, evil, i in AUDIT_GAMES:
            just = AgentSpec("llm", strategy=strategy, model="hash")
            evil_spec = just if evil == "llm" else AgentSpec(evil)
            records.append(
                run_game(GameConfig(), just, evil_spec, seed_for_game(47, i), client=HashClient(), log_exchanges=True)
            )
        return records

    def test_every_audit_reason_occurs(self, audit_records):
        reasons = Counter(
            e.payload["reason"] for r in audit_records for e in r.events if e.kind is EventKind.AGENT_ERROR
        )
        assert not any(r.aborted for r in audit_records)
        assert {"parse_fallback", "codeact_fallback", "quest_vote_override"} <= set(reasons), reasons

    def test_record_bytes_are_pinned(self, audit_records):
        assert _bytes_digest(audit_records) == PINNED_AUDIT_BYTES_DIGEST


# Schema 3 files; the schema 2 files of these games were pinned before
# agents returned their audit notes in their replies.
PINNED_AUDIT_BYTES_DIGEST = "29f34cb5325002c845ef990ba64a6fece26d37cb46420b5a53d8106fc653cb5e"


# ----- schema 2 event lines ---------------------------------------------------

# The line each loader case edits: a private ballot (seq 11), whose actor and
# payload are both set.
EDITED_LINE = 12
RETYPED_VALUES = (("int", 7), ("float", 1.5), ("bool", True), ("string", "x"), ("null", None))


def _loader_cases(rows: list[str]) -> dict[str, str]:
    """Record texts by case id: `rows` with line `EDITED_LINE` edited."""
    line = rows[EDITED_LINE - 1]
    event = json.loads(line)
    assert list(event) == ["seq", "round", "attempt", "phase", "actor", "kind", "text", "payload", "visibility"]
    assert event["visibility"].startswith("private:") and event["payload"] and event["actor"] is not None
    edits = {f"{key}={label}": json.dumps({**event, key: value}) for key in event for label, value in RETYPED_VALUES}
    swap = {"phase": "text", "text": "phase"}
    edits |= {
        "reversed-keys": json.dumps(dict(reversed(event.items()))),
        # Two keys whose values have one type, in each other's places.
        "swapped-keys": json.dumps({swap.get(k, k): event[swap.get(k, k)] for k in event}),
        "renamed-key": json.dumps({("colour" if k == "visibility" else k): v for k, v in event.items()}),
        "no-payload": json.dumps({k: v for k, v in event.items() if k != "payload"}),
        "no-visibility": json.dumps({k: v for k, v in event.items() if k != "visibility"}),
        "extra-key": json.dumps({**event, "colour": "red"}),
        "unknown-kind": json.dumps({**event, "kind": "mystery"}),
        "nan": json.dumps({**event, "payload": {**event["payload"], "approve": float("nan")}}),
        "text-after": line + " x",
        "object-after": line + " {}",
        "leading-space": " " + line,
        "trailing-space": line + " ",
    }
    return {
        case: "\n".join([*rows[: EDITED_LINE - 1], edited, *rows[EDITED_LINE:]]) + "\n"
        for case, edited in edits.items()
    }


# What each case loads to: a `RecordFormatError`'s text from the key-by-key
# loop; the first line of the `ReplayMismatch` that loading raises, less the
# game id, for a line that parses but is not the engine's event; or {} for
# the same record.
LOADER_OUTCOMES = {
    "seq=int": "<stream>: line 12: event seq 7 out of order",
    "seq=float": "<stream>: line 12: bad event: TypeError('seq should be int, got 1.5')",
    "seq=bool": "<stream>: line 12: bad event: TypeError('seq should be int, got True')",
    "seq=string": "<stream>: line 12: bad event: TypeError(\"seq should be int, got 'x'\")",
    "seq=null": "<stream>: line 12: bad event: TypeError('seq should be int, got None')",
    "round=int": ReplayMismatch("seq 11 differs:"),
    "round=float": "<stream>: line 12: bad event: TypeError('round should be int, got 1.5')",
    "round=bool": "<stream>: line 12: bad event: TypeError('round should be int, got True')",
    "round=string": "<stream>: line 12: bad event: TypeError(\"round should be int, got 'x'\")",
    "round=null": "<stream>: line 12: bad event: TypeError('round should be int, got None')",
    "attempt=int": ReplayMismatch("seq 11 differs:"),
    "attempt=float": "<stream>: line 12: bad event: TypeError('attempt should be int, got 1.5')",
    "attempt=bool": "<stream>: line 12: bad event: TypeError('attempt should be int, got True')",
    "attempt=string": "<stream>: line 12: bad event: TypeError(\"attempt should be int, got 'x'\")",
    "attempt=null": "<stream>: line 12: bad event: TypeError('attempt should be int, got None')",
    "phase=int": "<stream>: line 12: bad event: TypeError('phase should be str, got 7')",
    "phase=float": "<stream>: line 12: bad event: TypeError('phase should be str, got 1.5')",
    "phase=bool": "<stream>: line 12: bad event: TypeError('phase should be str, got True')",
    "phase=string": ReplayMismatch("seq 11 differs:"),
    "phase=null": "<stream>: line 12: bad event: TypeError('phase should be str, got None')",
    "actor=int": ReplayMismatch("seq 11 differs:"),
    "actor=float": "<stream>: line 12: bad event: TypeError('actor should be int or NoneType, got 1.5')",
    "actor=bool": "<stream>: line 12: bad event: TypeError('actor should be int or NoneType, got True')",
    "actor=string": "<stream>: line 12: bad event: TypeError(\"actor should be int or NoneType, got 'x'\")",
    "actor=null": ReplayMismatch("seq 11 differs:"),
    "kind=int": "<stream>: line 12: bad event: TypeError('kind should be str, got 7')",
    "kind=float": "<stream>: line 12: bad event: TypeError('kind should be str, got 1.5')",
    "kind=bool": "<stream>: line 12: bad event: TypeError('kind should be str, got True')",
    "kind=string": "<stream>: line 12: bad event: ValueError(\"'x' is not a valid EventKind\")",
    "kind=null": "<stream>: line 12: bad event: TypeError('kind should be str, got None')",
    "text=int": "<stream>: line 12: bad event: TypeError('text should be str, got 7')",
    "text=float": "<stream>: line 12: bad event: TypeError('text should be str, got 1.5')",
    "text=bool": "<stream>: line 12: bad event: TypeError('text should be str, got True')",
    "text=string": ReplayMismatch("seq 11 differs:"),
    "text=null": "<stream>: line 12: bad event: TypeError('text should be str, got None')",
    "payload=int": "<stream>: line 12: bad event: TypeError('payload should be dict, got 7')",
    "payload=float": "<stream>: line 12: bad event: TypeError('payload should be dict, got 1.5')",
    "payload=bool": "<stream>: line 12: bad event: TypeError('payload should be dict, got True')",
    "payload=string": "<stream>: line 12: bad event: TypeError(\"payload should be dict, got 'x'\")",
    "payload=null": "<stream>: line 12: bad event: TypeError('payload should be dict, got None')",
    "visibility=int": "<stream>: line 12: bad event: TypeError('visibility should be str, got 7')",
    "visibility=float": "<stream>: line 12: bad event: TypeError('visibility should be str, got 1.5')",
    "visibility=bool": "<stream>: line 12: bad event: TypeError('visibility should be str, got True')",
    "visibility=string": ReplayMismatch("seq 11 differs:"),
    "visibility=null": "<stream>: line 12: bad event: TypeError('visibility should be str, got None')",
    "reversed-keys": {},
    "swapped-keys": {},
    "renamed-key": "<stream>: line 12: bad event: ValueError(\"unknown event key 'colour'\")",
    "no-payload": ReplayMismatch("recorded seq 11 holds a malformed ballot_result action: KeyError('approve')"),
    # A public ballot result is engine output, so seq 12 starts the team vote.
    "no-visibility": ReplayMismatch(
        "recorded seq 12 holds a malformed ballot_result action: "
        "ValueError('a team vote has 7 ballots, got 6 approvals, 6 reasonings and 7 payloads')"
    ),
    "extra-key": "<stream>: line 12: bad event: ValueError(\"unknown event key 'colour'\")",
    "unknown-kind": "<stream>: line 12: bad event: ValueError(\"'mystery' is not a valid EventKind\")",
    "nan": "<stream>: line 12 is not valid JSON: NaN is not a JSON value",
    "text-after": "<stream>: line 12 is not valid JSON: Extra data: line 1 column 237 (char 236)",
    "object-after": "<stream>: line 12 is not valid JSON: Extra data: line 1 column 237 (char 236)",
    "leading-space": {},
    "trailing-space": {},
}


class TestEventLineLoader:
    """A schema 2 event line, each field of another JSON type or another
    value, another key order, a missing default, an unknown key or kind and
    text around the object, fails in the key-by-key loop, fails loading's
    replay against the engine's events, or loads to the written record."""

    @pytest.fixture(scope="class")
    def cases(self, record):
        return _loader_cases(v2_text(record).splitlines())

    def test_every_case_has_its_outcome(self, cases):
        assert sorted(cases) == sorted(LOADER_OUTCOMES)

    @pytest.mark.parametrize("case", list(LOADER_OUTCOMES))
    def test_case_loads_as_the_key_by_key_loop_does(self, record, cases, case):
        expected = LOADER_OUTCOMES[case]
        if isinstance(expected, str):
            with pytest.raises(RecordFormatError) as exc:
                load_record(io.StringIO(cases[case]))
            assert str(exc.value) == expected
            return
        if isinstance(expected, ReplayMismatch):
            with pytest.raises(ReplayMismatch) as exc:
                load_record(io.StringIO(cases[case]))
            assert str(exc.value).splitlines()[0] == f"{record.game_id}: {expected}"
            return
        assert expected == {}
        loaded = load_record(io.StringIO(cases[case]))
        # The written text tells true from 1, which `==` does not.
        assert loaded == record and v2_text(loaded) == v2_text(record)
