import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from avalonplay import analyzer, cli, records
from avalonplay.analyzer import analyze_record
from avalonplay.cli import _onoff, build_parser, main
from avalonplay.game import drive
from avalonplay.records import load_record, write_record
from helpers import V2_RECORDS_DIR, v2_text


ROOT = Path(__file__).resolve().parents[1]
SRC = str(ROOT / "src")
MOCK_FIXTURE = ROOT / "bench" / "fixtures" / "mock_llm.json"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestArgumentHandling:
    def test_onoff_values(self):
        assert _onoff("on") and _onoff("ON") and _onoff("1") and _onoff("yes")
        assert not _onoff("off") and not _onoff("false") and not _onoff("0")
        with pytest.raises(Exception):
            _onoff("maybe")

    def test_subcommand_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_policy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--just", "wizard"])

    @pytest.mark.parametrize("option, value", [("--games", "-3"), ("--parallelism", "0")])
    def test_out_of_range_count_rejected(self, capsys, option, value):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["run", option, value])
        assert exc.value.code == 2
        assert f"argument {option}: expected at least" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_temperature_rejected(self, capsys, value):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["run", f"--temperature={value}"])
        assert exc.value.code == 2
        assert f"argument --temperature: expected a finite number, got {value}" in capsys.readouterr().err

    def test_finite_temperature_accepted(self):
        assert build_parser().parse_args(["run", "--temperature", "1e-3"]).temperature == 0.001

    def test_zero_games_accepted(self):
        assert build_parser().parse_args(["run", "--games", "0"]).games == 0

    def test_llm_without_transport_rejected(self, capsys):
        with pytest.raises(SystemExit, match="llm policy requires"):
            main(["run", "--games", "1", "--just", "llm"])

    def test_base_url_without_model_rejected(self):
        with pytest.raises(SystemExit, match="llm-model"):
            main(["run", "--games", "1", "--llm-base-url", "http://x"])


class TestRun:
    def test_run_prints_report_and_digest(self, capsys):
        code, out, _ = run_cli(capsys, "run", "--games", "2", "--seed", "5")
        assert code == 0
        data = json.loads(out)
        assert len(data["digest"]) == 64
        assert data["report"]["n_games"] == 2
        assert [g["index"] for g in data["games"]] == [0, 1]
        assert all(g["quest_winner"] in ("just", "evil") for g in data["games"])

    def test_run_is_reproducible(self, capsys):
        _, out1, _ = run_cli(capsys, "run", "--games", "3", "--seed", "9")
        _, out2, _ = run_cli(capsys, "run", "--games", "3", "--seed", "9")
        assert json.loads(out1)["digest"] == json.loads(out2)["digest"]

    def test_run_writes_records(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "run", "--games", "2", "--seed", "5", "--record-dir", str(tmp_path)
        )
        assert code == 0
        paths = sorted(tmp_path.glob("*.jsonl"))
        assert len(paths) == 2
        data = json.loads(out)
        assert [g["record_path"] for g in data["games"]] == [str(p) for p in paths]
        load_record(paths[0])

    def test_digest_does_not_depend_on_the_record_dir(self, capsys, tmp_path):
        def digest(*extra):
            code, out, _ = run_cli(capsys, "run", "--games", "3", "--seed", "5", *extra)
            assert code == 0
            return json.loads(out)["digest"]

        plain = digest()
        assert digest("--record-dir", str(tmp_path / "a")) == plain
        assert digest("--record-dir", str(tmp_path / "b")) == plain

    @pytest.mark.parametrize(
        "games, argv",
        [
            (12, []),
            (4, ["--just", "llm", "--strategy", "codeact", "--mock-llm", str(MOCK_FIXTURE)]),
        ],
        ids=["deduction", "codeact-mock"],
    )
    def test_record_files_do_not_depend_on_parallelism(self, capsys, tmp_path, games, argv):
        def written(parallelism):
            out = tmp_path / f"parallelism-{parallelism}"
            code, _, _ = run_cli(
                capsys, "run", "--games", str(games), "--seed", "7", *argv,
                "--parallelism", str(parallelism), "--record-dir", str(out),
            )
            assert code == 0
            return {p.name: p.read_bytes() for p in out.iterdir()}

        serial = written(1)
        assert len(serial) == games
        if argv:
            assert all(b'"codeact": {' in text for text in serial.values())
        assert written(2) == serial

    def test_engine_flags_change_play(self, capsys):
        _, out, _ = run_cli(
            capsys,
            "run", "--games", "1", "--seed", "3",
            "--communication", "off", "--assassination", "off",
            "--just", "random", "--evil", "random",
        )
        data = json.loads(out)
        assert data["report"]["discussion_utterances"] == 0
        assert data["report"]["assassination_attempts"] == 0

    def test_play_all_rounds_runs_five_quests(self, capsys):
        _, out, _ = run_cli(
            capsys,
            "run", "--games", "1", "--seed", "3", "--play-all-rounds", "on",
        )
        data = json.loads(out)
        assert data["games"][0]["rounds_played"] == 5

    def test_mock_llm_fixture(self, capsys, tmp_path):
        fixture = tmp_path / "mock.json"
        fixture.write_text(
            json.dumps(
                {
                    "model": "scripted",
                    "rules": [
                        {"response": "[1, 2]", "phase": "team_selection", "pattern": "select 2 team members", "max_uses": None},
                        {"response": "[1, 2, 3]", "phase": "team_selection", "pattern": "select 3 team members", "max_uses": None},
                        {"response": "[1, 2, 3, 4]", "phase": "team_selection", "pattern": "select 4 team members", "max_uses": None},
                        {"response": "Nothing from me.", "phase": "discussion", "max_uses": None},
                        {"response": "{\"reasoning\": \"Fine.\", \"vote\": \"approve\"}", "phase": "team_vote", "max_uses": None},
                        {"response": "{\"reasoning\": \"Go.\", \"vote\": \"approve\"}", "phase": "quest_vote", "max_uses": None},
                        {"response": "player 2", "phase": "assassination", "max_uses": None},
                    ],
                }
            )
        )
        code, out, _ = run_cli(
            capsys,
            "run", "--games", "1", "--seed", "0",
            "--just", "llm", "--mock-llm", str(fixture),
        )
        assert code == 0
        data = json.loads(out)
        assert data["report"]["n_aborted"] == 0

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--record-dir", "{file}"], "cannot write {file}: File exists"),
            (["--just", "llm", "--mock-llm", "{missing}"], "cannot read {missing}: No such file or directory"),
        ],
        ids=["record-dir-is-a-file", "missing-mock-llm-fixture"],
    )
    def test_bad_path_is_one_error_line(self, tmp_path, argv, message):
        paths = {"file": tmp_path / "file", "missing": tmp_path / "missing.json"}
        paths["file"].write_text("")
        done = subprocess.run(
            [sys.executable, "-m", "avalonplay.cli", "run", "--games", "1", *(a.format(**paths) for a in argv)],
            capture_output=True, text=True, env=os.environ | {"PYTHONPATH": SRC},
        )
        assert done.returncode == 1
        assert done.stdout == ""
        assert done.stderr == message.format(**paths) + "\n"

    @pytest.mark.parametrize(
        "content, reason",
        [
            ("not json", "not JSON: Expecting value: line 1 column 1 (char 0)"),
            ('{"rules": [{"phase": "x"}]}', "rule 0: no string 'response'"),
            ('{"model": "m"}', "no 'rules' list"),
            ('[{"response": "a"}, {"response": "b", "pattern": "("}]',
             "rule 1: bad pattern: missing ), unterminated subpattern at position 0"),
            ('[{"response": "I agree \\ud800"}]',
             "rule 0: 'response' does not encode as UTF-8: "
             "'utf-8' codec can't encode character '\\ud800' in position 8: surrogates not allowed"),
        ],
        ids=["not-json", "rule-without-response", "no-rules", "bad-pattern", "lone-surrogate"],
    )
    def test_bad_fixture_is_one_error_line(self, tmp_path, content, reason):
        fixture = tmp_path / "fixture.json"
        fixture.write_text(content)
        done = subprocess.run(
            [sys.executable, "-m", "avalonplay.cli", "run", "--games", "1", "--just", "llm", "--mock-llm", str(fixture)],
            capture_output=True, text=True, env=os.environ | {"PYTHONPATH": SRC},
        )
        assert done.returncode == 1
        assert done.stdout == ""
        assert done.stderr == f"bad fixture {fixture}: {reason}\n"

    @pytest.mark.parametrize("http_option", [["--llm-model", "gpt-4o"], ["--llm-base-url", "http://127.0.0.1:9"]])
    def test_mock_llm_with_an_http_option_is_one_error_line(self, tmp_path, http_option):
        """The mock answers every request, so a model or URL given with it
        would only mislabel the records."""
        done = subprocess.run(
            [sys.executable, "-m", "avalonplay.cli", "run", "--games", "1", "--just", "llm",
             "--mock-llm", str(MOCK_FIXTURE), *http_option, "--record-dir", str(tmp_path)],
            capture_output=True, text=True, env=os.environ | {"PYTHONPATH": SRC},
        )
        assert done.returncode == 1
        assert done.stdout == ""
        assert done.stderr == "--mock-llm cannot be combined with --llm-base-url or --llm-model\n"
        assert list(tmp_path.iterdir()) == []


class TestReplayCommand:
    @pytest.fixture()
    def record_path(self, capsys, tmp_path):
        run_cli(capsys, "run", "--games", "1", "--seed", "5", "--record-dir", str(tmp_path))
        return next(tmp_path.glob("*.jsonl"))

    def test_verifies_a_good_record(self, capsys, record_path):
        code, out, err = run_cli(capsys, "replay", str(record_path))
        assert code == 0
        assert "verified" in out
        assert "outcome:" in out
        assert err == ""

    def test_rejects_a_tampered_record(self, capsys, record_path):
        # Schema 2 holds the quest results that schema 3 leaves to the engine.
        rows = v2_text(load_record(record_path)).splitlines()
        for i, row in enumerate(rows):
            data = json.loads(row)
            if data.get("kind") == "quest_result":
                data["payload"]["success"] = not data["payload"]["success"]
                rows[i] = json.dumps(data)
                break
        record_path.write_text("\n".join(rows) + "\n")
        code, out, err = run_cli(capsys, "replay", str(record_path))
        assert code == 1
        assert "replay mismatch" in err

    def test_rejects_a_decision_the_rules_forbid(self, capsys, record_path):
        rows = record_path.read_text().splitlines()
        assert rows[1].startswith('{"team": [')
        rows[1] = json.dumps(json.loads(rows[1]) | {"team": [8, 9]})
        record_path.write_text("\n".join(rows) + "\n")
        code, out, err = run_cli(capsys, "replay", str(record_path))
        assert (code, out) == (1, "")
        assert err == f"replay mismatch: {record_path}: line 2: the rules reject this decision: no such seat: 8\n"


class TestMetricsCommand:
    def test_aggregates_a_directory(self, capsys, tmp_path):
        run_cli(capsys, "run", "--games", "3", "--seed", "5", "--record-dir", str(tmp_path))
        code, out, _ = run_cli(capsys, "metrics", str(tmp_path))
        assert code == 0
        data = json.loads(out)
        assert data["n_games"] == 3
        assert "team_accuracy" in data

    def test_empty_directory_rejected(self, tmp_path):
        with pytest.raises(SystemExit, match="no .jsonl records"):
            main(["metrics", str(tmp_path)])

    def test_reads_one_record_at_a_time(self, capsys, monkeypatch, tmp_path):
        run_cli(capsys, "run", "--games", "3", "--seed", "5", "--record-dir", str(tmp_path))
        read = []
        monkeypatch.setattr(cli, "load_record", lambda path: read.append(path) or load_record(path))
        records = cli._verified_many(tmp_path)
        assert read == []
        next(records)
        assert read == sorted(tmp_path.glob("*.jsonl"))[:1]

    def test_a_tampered_last_record_prints_no_metrics(self, capsys, tmp_path):
        run_cli(capsys, "run", "--games", "3", "--seed", "5", "--record-dir", str(tmp_path))
        last = sorted(tmp_path.glob("*.jsonl"))[-1]
        rows = last.read_text().splitlines()
        rows.insert(3, "{not json")
        last.write_text("\n".join(rows) + "\n")
        code, out, err = run_cli(capsys, "metrics", str(tmp_path))
        assert code == 1
        assert out == ""
        assert err.startswith("bad record: ") and err.count("\n") == 1


class TestAnalyzeCommand:
    def test_single_file_and_directory(self, capsys, tmp_path):
        run_cli(capsys, "run", "--games", "2", "--seed", "5", "--record-dir", str(tmp_path))
        paths = sorted(tmp_path.glob("*.jsonl"))

        code, out, _ = run_cli(capsys, "analyze", str(paths[0]))
        assert code == 0
        single = json.loads(out)
        assert single["summary"]["n_games"] == 1
        assert single["findings"] == []  # scripted self-play is clean

        code, out, _ = run_cli(capsys, "analyze", str(tmp_path))
        assert code == 0
        assert json.loads(out)["summary"]["n_games"] == 2

    def test_folds_one_record_at_a_time(self, capsys, monkeypatch, tmp_path):
        run_cli(capsys, "run", "--games", "3", "--seed", "5", "--record-dir", str(tmp_path))
        loaded = []
        in_memory = []  # at each analysis, how many loaded records are still alive

        def load(path):
            record = load_record(path)
            loaded.append(weakref.ref(record))
            return record

        def analyze(record):
            in_memory.append(sum(ref() is not None for ref in loaded))
            return analyze_record(record)

        monkeypatch.setattr(cli, "load_record", load)
        monkeypatch.setattr(analyzer, "analyze_record", analyze)
        code, out, _ = run_cli(capsys, "analyze", str(tmp_path))
        assert code == 0
        assert json.loads(out)["summary"]["n_games"] == 3
        assert in_memory == [1, 1, 1]


class TestOneDrivePerRecord:
    """Loading checks a record of any schema against the engine, so each
    read command drives one engine per record."""

    @pytest.fixture(params=["v2", "v3"])
    def record_dir(self, request, tmp_path):
        if request.param == "v2":
            return V2_RECORDS_DIR
        for path in sorted(V2_RECORDS_DIR.glob("*.jsonl")):
            write_record(load_record(path), tmp_path / path.name)
        return tmp_path

    @pytest.mark.parametrize("command", ["replay", "metrics", "analyze"])
    def test_each_command_drives_one_engine_per_record(self, capsys, monkeypatch, record_dir, command):
        paths = sorted(record_dir.glob("*.jsonl"))
        assert len(paths) == 3
        drives = []
        monkeypatch.setattr(records, "drive", lambda engine, decide: drives.append(engine) or drive(engine, decide))
        for argv in ([[command, str(path)] for path in paths] if command == "replay" else [[command, str(record_dir)]]):
            code, _, err = run_cli(capsys, *argv)
            assert (code, err) == (0, "")
        assert len(drives) == len(paths)


class TestBadRecords:
    """Engine output edited in a schema 2 record, which holds it: replay
    finds the edit before a reader takes it as true."""

    @pytest.fixture()
    def record_path(self, capsys, tmp_path):
        run_cli(capsys, "run", "--games", "1", "--seed", "5", "--record-dir", str(tmp_path))
        path = next(tmp_path.glob("*.jsonl"))
        path.write_text(v2_text(load_record(path)))
        return path

    @pytest.mark.parametrize("command", ["replay", "metrics", "analyze"])
    def test_malformed_line_is_one_error_line(self, capsys, record_path, command):
        rows = record_path.read_text().splitlines()
        rows.insert(3, "{not json")
        record_path.write_text("\n".join(rows) + "\n")
        target = record_path if command == "replay" else record_path.parent
        code, out, err = run_cli(capsys, command, str(target))
        assert code == 1
        assert out == ""
        assert err.startswith("bad record: ") and err.count("\n") == 1
        assert "line 4 is not valid JSON" in err

    @staticmethod
    def _edit_first(record_path, kind, edit, public_only=False):
        """Apply `edit` to the payload of the first `kind` event; return its seq."""
        rows = record_path.read_text().splitlines()
        for i, row in enumerate(rows):
            data = json.loads(row)
            if data.get("kind") == kind and (not public_only or data["visibility"] == "public"):
                edit(data["payload"])
                rows[i] = json.dumps(data)
                record_path.write_text("\n".join(rows) + "\n")
                return data["seq"]
        raise AssertionError(f"no {kind} event")

    @staticmethod
    def _assert_replay_mismatch(result, record_path, seq):
        code, out, err = result
        assert code == 1
        assert out == ""
        assert "Traceback" not in err
        assert err.splitlines()[0] == f"replay mismatch: {record_path.stem}: seq {seq} differs:"

    def test_metrics_rejects_a_quest_round_out_of_range(self, capsys, record_path):
        seq = self._edit_first(record_path, "quest_result", lambda p: p.update(round=9))
        result = run_cli(capsys, "metrics", str(record_path.parent))
        self._assert_replay_mismatch(result, record_path, seq)

    @pytest.mark.parametrize("command", ["metrics", "analyze"])
    @pytest.mark.parametrize(
        "key, value, flaw",
        [
            ("success", None, "quest success None is not true or false"),  # key deleted
            ("round", 9, "quest round 9 is not 1..5"),
            ("team", "1, 2", "quest team '1, 2' is not a list of seats"),
            ("team", [1, "2"], "quest team [1, '2'] is not a list of seats"),
        ],
    )
    def test_bad_quest_result_is_one_error_line(self, capsys, record_path, command, key, value, flaw):
        def edit(payload):
            if value is None:
                del payload[key]
            else:
                payload[key] = value

        seq = self._edit_first(record_path, "quest_result", edit)
        result = run_cli(capsys, command, str(record_path.parent))
        self._assert_replay_mismatch(result, record_path, seq)

    @pytest.mark.parametrize("leader", [9, "3", None])  # None: key deleted
    def test_bad_proposal_leader_is_one_error_line(self, capsys, record_path, leader):
        def edit(payload):
            if leader is None:
                del payload["leader"]
            else:
                payload["leader"] = leader

        seq = self._edit_first(record_path, "team_proposed", edit)
        result = run_cli(capsys, "metrics", str(record_path.parent))
        self._assert_replay_mismatch(result, record_path, seq)

    @pytest.mark.parametrize("command", ["metrics", "analyze"])
    def test_retyped_ballot_result_is_a_replay_mismatch(self, capsys, record_path, command):
        # Read by truthiness, "no" and 1 would count as an approved, forced ballot.
        seq = self._edit_first(
            record_path, "ballot_result", lambda p: p.update(approved="no", forced=1), public_only=True
        )
        result = run_cli(capsys, command, str(record_path.parent))
        self._assert_replay_mismatch(result, record_path, seq)

    @pytest.mark.parametrize("command", ["replay", "metrics", "analyze"])
    @pytest.mark.parametrize("missing", [True, False])  # False: a directory named like a record
    def test_unreadable_path_is_one_error_line(self, tmp_path, command, missing):
        unreadable = tmp_path / "g0-00000.jsonl"
        if not missing:
            unreadable.mkdir()
        target = tmp_path if command != "replay" and not missing else unreadable
        done = subprocess.run(
            [sys.executable, "-m", "avalonplay.cli", command, str(target)],
            capture_output=True, text=True, env=os.environ | {"PYTHONPATH": SRC},
        )
        assert done.returncode == 1
        assert done.stdout == ""
        assert done.stderr.startswith(f"cannot read {unreadable}: ") and done.stderr.count("\n") == 1

    def test_record_that_is_not_utf8_is_one_error_line(self, capsys, tmp_path):
        (tmp_path / "binary.jsonl").write_bytes(b"\xff\xfe")
        code, out, err = run_cli(capsys, "metrics", str(tmp_path))
        assert code == 1
        assert out == ""
        assert err.startswith("bad record: ") and "not UTF-8 text" in err and err.count("\n") == 1
