import errno
import hashlib
import io
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avalonplay.agents import AgentSpec
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
from avalonplay.runner import run_game, seed_for_game
from helpers import budgeted_mock, run_codeact_e2e


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
        assert parsed[0]["type"] == "header"
        assert parsed[-1]["type"] == "outcome"
        assert all(p["type"] == "event" for p in parsed[1:-1])
        assert len(parsed) == len(record.events) + 2

    def test_events_stored_in_sequence_order(self, record, tmp_path):
        path = tmp_path / "game.jsonl"
        write_record(record, path)
        seqs = [
            json.loads(line)["seq"]
            for line in path.read_text().splitlines()
            if json.loads(line)["type"] == "event"
        ]
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


class TestRecordAndReplayPin:
    def test_record_bytes_and_replayed_events_are_pinned(self):
        """Written records and replayed event logs of deduction/scripted_evil,
        random/random and cot/react mock games (aborted ones included) under
        each rule toggle hash to the value the previous replay loop gave."""
        digest = hashlib.sha256()
        n_aborted = 0
        for record in _pin_records():
            text = _text(record)
            replayed = _replay_text(text)
            digest.update(text.encode("utf-8"))
            digest.update(json.dumps([e.to_dict() for e in replayed.events]).encode("utf-8"))
            n_aborted += record.aborted
        assert n_aborted >= 12
        assert digest.hexdigest() == PINNED_RECORDS_DIGEST


# Computed with the replay loop that preceded `game.drive`.
PINNED_RECORDS_DIGEST = "5fec6bd0cfa3442444a6af20a04e3a67d9e7821c4af71b2e4373553c154285e0"


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
    return [_text(record).splitlines(), _text(aborted).splitlines()]


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
