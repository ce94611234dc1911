import json

import pytest

from avalonplay.cli import _onoff, build_parser, main
from avalonplay.records import load_record


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
        rows = record_path.read_text().splitlines()
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


class TestBadRecords:
    @pytest.fixture()
    def record_path(self, capsys, tmp_path):
        run_cli(capsys, "run", "--games", "1", "--seed", "5", "--record-dir", str(tmp_path))
        return next(tmp_path.glob("*.jsonl"))

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

    def test_metrics_rejects_a_quest_round_out_of_range(self, capsys, record_path):
        rows = record_path.read_text().splitlines()
        for i, row in enumerate(rows):
            data = json.loads(row)
            if data.get("kind") == "quest_result":
                data["payload"]["round"] = 9
                rows[i] = json.dumps(data)
                break
        record_path.write_text("\n".join(rows) + "\n")
        code, out, err = run_cli(capsys, "metrics", str(record_path.parent))
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1
        assert f"seq {data['seq']}: quest round 9 is not 1..5" in err
        assert record_path.stem in err

    @pytest.mark.parametrize("command", ["metrics", "analyze"])
    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("success", None, "quest success None is not true or false"),  # key deleted
            ("round", 9, "quest round 9 is not 1..5"),
            ("team", "1, 2", "quest team '1, 2' is not a list of seats"),
            ("team", [1, "2"], "quest team [1, '2'] is not a list of seats"),
        ],
    )
    def test_bad_quest_result_is_one_error_line(self, capsys, record_path, command, key, value, message):
        rows = record_path.read_text().splitlines()
        for i, row in enumerate(rows):
            data = json.loads(row)
            if data.get("kind") == "quest_result":
                if value is None:
                    del data["payload"][key]
                else:
                    data["payload"][key] = value
                rows[i] = json.dumps(data)
                break
        record_path.write_text("\n".join(rows) + "\n")
        code, out, err = run_cli(capsys, command, str(record_path.parent))
        assert code == 1
        assert out == ""
        assert err.startswith("bad record: ") and err.count("\n") == 1
        assert f"{record_path.stem}: seq {data['seq']}: {message}" in err

    @pytest.mark.parametrize("leader", [9, "3", None])  # None: key deleted
    def test_bad_proposal_leader_is_one_error_line(self, capsys, record_path, leader):
        rows = record_path.read_text().splitlines()
        for i, row in enumerate(rows):
            data = json.loads(row)
            if data.get("kind") == "team_proposed":
                proposal = i
            elif data.get("kind") == "quest_result":
                break
        data = json.loads(rows[proposal])
        if leader is None:
            del data["payload"]["leader"]
        else:
            data["payload"]["leader"] = leader
        rows[proposal] = json.dumps(data)
        record_path.write_text("\n".join(rows) + "\n")
        code, out, err = run_cli(capsys, "metrics", str(record_path.parent))
        assert code == 1
        assert out == ""
        assert err.startswith("bad record: ") and err.count("\n") == 1
        assert f"{record_path.stem}: seq {data['seq']}: proposal leader {leader!r} is not a seat" in err
