import errno
import hashlib
import io
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avalonplay.agents import AgentSpec
from avalonplay.cli import main
from avalonplay.events import AUDIT
from avalonplay.game import GameConfig, Phase
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
from avalonplay.records import _config_hash
from avalonplay.runner import run_game, seed_for_game
from helpers import V1_RECORDS_DIR, V1_RULE_KEYS, budgeted_mock, run_codeact_e2e


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
        assert parsed[0]["type"] == "header" and parsed[0]["schema_version"] == 2
        assert parsed[-1]["type"] == "outcome"
        # Event lines carry neither a type nor the header's game id.
        assert all("type" not in p and "game_id" not in p for p in parsed[1:-1])
        assert len(parsed) == len(record.events) + 2

    def test_events_stored_in_sequence_order(self, record, tmp_path):
        path = tmp_path / "game.jsonl"
        write_record(record, path)
        seqs = [json.loads(line)["seq"] for line in path.read_text().splitlines()[1:-1]]
        assert seqs == sorted(seqs)

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
        rows = self.rows(record, tmp_path)
        rows[1], rows[2] = rows[2], rows[1]
        with pytest.raises(RecordFormatError, match="out of order"):
            load_record(self.write_lines(tmp_path, rows))

    def test_missing_outcome(self, record, tmp_path):
        rows = self.rows(record, tmp_path)[:-1]
        with pytest.raises(RecordFormatError, match="outcome"):
            load_record(self.write_lines(tmp_path, rows))

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
        loaded = load_record(io.StringIO(self.header_with(record, communication_enabled=False, memory_window=3)))
        assert loaded.config == GameConfig(communication_enabled=False, memory_window=3)

    @pytest.mark.parametrize("key", ["colour", "game_id", "type_"])
    def test_unknown_event_key_names_the_line_and_the_key(self, record, key):
        rows = _text(record).splitlines()
        event = json.loads(rows[3])
        event[key] = "red"
        rows[3] = json.dumps(event)
        with pytest.raises(RecordFormatError, match=f"line 4: bad event: .*unknown event key '{key}'"):
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
        path = tmp_path / "game.jsonl"
        write_record(record, path)
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
        write_record(record, path)
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
    """One sha256 over each record's replayed events, written and loaded first."""
    digest = hashlib.sha256()
    for record in records:
        digest.update(json.dumps([e.to_dict() for e in _replay_text(_text(record)).events]).encode("utf-8"))
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


# The replayed events are those of schema 1, less the per-event game id.
PINNED_EVENTS_DIGEST = "a7655d08e2124ec1b820893dfe9d170029c5162cf7d36d8fcd5de6ad0108ebb8"
PINNED_CODEACT_EVENTS_DIGEST = "8d21ce48b971ece1ef82b079671974e09de8d1f098bccd9a4983e007e70bd3a5"
# Schema 2 record files: the schema 1 files of the same games with the
# rule keys, the event `type` and `game_id` dropped and the config re-hashed.
PINNED_BYTES_DIGEST = "559639d5a3a471cafb0c576b8a513188c3eb489938ebafd7dc41319b9f9dbae9"
PINNED_CODEACT_BYTES_DIGEST = "6b1683413d8124731714571c7b841b03aab7c3515db5152cba43b1b16ba57887"


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
        v1 = _rows(path.read_text())
        assert v1[0]["schema_version"] == 1
        assert all(row["type"] == "event" and "game_id" in row for row in v1[1:-1])
        record = load_record(path)
        replay(record)
        text = _text(record)
        v2 = _rows(text)
        assert v2[0]["schema_version"] == 2
        assert v2[0]["config"] == {k: v for k, v in v1[0]["config"].items() if k not in V1_RULE_KEYS}
        assert [(k, v) for k, v in v2[0].items() if k not in ("schema_version", "config", "config_hash")] == [
            (k, v) for k, v in v1[0].items() if k not in ("schema_version", "config", "config_hash")
        ]
        assert v2[1:-1] == [{k: v for k, v in row.items() if k not in ("type", "game_id")} for row in v1[1:-1]]
        assert v2[-1] == v1[-1]
        assert load_record(io.StringIO(text)) == record

    def test_fixtures_cover_an_aborted_game_and_the_codeact_game(self):
        loaded = {path.stem: load_record(path) for path in V1_PATHS}
        assert sorted(loaded) == ["codeact-e2e", "deduction", "mock-aborted"]
        assert loaded["mock-aborted"].aborted and not loaded["deduction"].aborted
        assert _events_digest([loaded["codeact-e2e"]]) == PINNED_CODEACT_EVENTS_DIGEST

    @pytest.mark.parametrize("command", ["metrics", "analyze"])
    def test_metrics_and_analyze_match_the_v2_rewrite(self, command, tmp_path, capsys):
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
        # Agent traces and audit events (so also seq numbers) are not replayed.
        def game_facts(events):
            return [(e.kind, e.round, e.attempt, e.phase, e.actor, e.text, e.visibility) for e in events]

        assert game_facts(engine.events) == game_facts(e for e in record.events if e.visibility != AUDIT)


RECORD_ERRORS = (RecordFormatError, RecordSchemaError, ReplayMismatch)
# JSON values of every type, to put where a record holds something else.
RETYPED = st.sampled_from([None, True, False, 0, -1, 8, 2.5, "", "x", [], [1, 2], {}, {"a": 1}])


@pytest.fixture(scope="module")
def fuzz_sources(record):
    aborted = run_game(GameConfig(), LLM_COT, LLM_REACT, seed_for_game(37, 1), client=budgeted_mock({"team_vote": 17}))
    assert aborted.aborted
    v1 = (V1_RECORDS_DIR / "mock-aborted.jsonl").read_text().splitlines()
    return [_text(record).splitlines(), _text(aborted).splitlines(), v1]


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
            _replay_text(text)
        except RECORD_ERRORS:
            pass

    def test_retyped_event_field_names_the_line(self, record):
        rows = _text(record).splitlines()
        event = json.loads(rows[5])
        event["seq"] = "5"
        rows[5] = json.dumps(event)
        with pytest.raises(RecordFormatError, match="line 6"):
            load_record(io.StringIO("\n".join(rows)))

    def test_malformed_action_names_the_seq(self, record):
        rows = _text(record).splitlines()
        for i, row in enumerate(rows):
            data = json.loads(row)
            if data.get("kind") == "team_proposed":
                data["payload"]["members"] = "1, 2"
                rows[i] = json.dumps(data)
                break
        with pytest.raises(ReplayMismatch, match=f"seq {data['seq']} "):
            _replay_text("\n".join(rows))
