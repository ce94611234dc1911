"""The benchmark's hooks into the program still attach.

`bench/tracing.py` wraps module globals and engine methods by name, and
`bench/worker.py` times games by replacing `runner._run_one`. A rename or
an import that bypasses those names breaks the benchmark without failing
anything in the program, so these fast checks keep them in the suite.
"""

from __future__ import annotations

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402

from avalonplay import agents, game, records, runner  # noqa: E402
from avalonplay.agents import AgentSpec  # noqa: E402
from avalonplay.game import GameConfig  # noqa: E402
from avalonplay.llm import MockLLM  # noqa: E402
from helpers import STRATEGY_SMOKE_FIXTURE, STRATEGY_SMOKE_SEED, run_codeact_e2e  # noqa: E402

PLAY_SPANS = {
    "runner.run_game",
    "game.assign_first_leader",
    "game.propose_team",
    "game.add_discussion",
    "game.submit_ballots",
    "game.resolve_current_quest",
    "deduction.act",
    "deduction.belief",
    "agents.scripted_evil.act",
    "records.write_record",
}


def test_tracer_installs_and_restores_every_hook():
    before = {
        "run_game": runner.run_game,
        "build_bundle": runner.build_bundle,
        "write_record": runner.write_record,
        "replay": records.replay,
        "self_debug_loop": agents.self_debug_loop,
        "propose_team": game.GameEngine.__dict__["propose_team"],
    }
    tracer = tracing.Tracer()
    tracer.install(MockLLM([]))  # every wrapped name must exist
    try:
        assert runner.run_game is not before["run_game"]
        assert game.GameEngine.__dict__["propose_team"] is not before["propose_team"]
    finally:
        tracer.remove()
    after = {
        "run_game": runner.run_game,
        "build_bundle": runner.build_bundle,
        "write_record": runner.write_record,
        "replay": records.replay,
        "self_debug_loop": agents.self_debug_loop,
        "propose_team": game.GameEngine.__dict__["propose_team"],
    }
    assert after == before


LLM_SPANS = {
    "prompts.build_bundle",
    "memory.ingest_event",
    "agents.llm.act",
    "llm.complete",
    "parsing.parse_team_selection",
    "parsing.parse_vote",
}


def test_traced_tournament_and_replay_reach_the_wrapped_names(tmp_path):
    tc = runner.TournamentConfig(n_games=1, base_seed=3, record_dir=str(tmp_path))
    tracer = tracing.Tracer()
    tracer.install(None)
    try:
        runner.run_tournament(tc)
        (path,) = records.iter_record_paths(tmp_path)
        records.replay(records.load_record(path))
    finally:
        tracer.remove()
    names = {span[3] for span in tracer.spans}
    assert PLAY_SPANS | {"records.load_record", "records.replay"} <= names
    # Replay drives the engine through the same wrapped transitions.
    replay_span = next(s for s in tracer.spans if s[3] == "records.replay")
    assert any(s[1] == replay_span[0] and s[3] == "game.propose_team" for s in tracer.spans)


def test_serial_tournament_calls_run_one_through_the_module_global(monkeypatch):
    original = runner._run_one
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(runner, "_run_one", counting)
    runner.run_tournament(runner.TournamentConfig(n_games=3, base_seed=5))
    assert calls == [0, 1, 2]


def test_traced_llm_game_reaches_the_prompt_and_parsing_hooks():
    client = MockLLM.from_file(STRATEGY_SMOKE_FIXTURE)
    tc = runner.TournamentConfig(
        n_games=1,
        base_seed=STRATEGY_SMOKE_SEED,
        just_spec=AgentSpec("llm", model="mock"),
        evil_spec=AgentSpec("scripted_evil"),
        game=GameConfig(communication_enabled=False),
    )
    tracer = tracing.Tracer()
    tracer.install(client)
    try:
        runner.run_tournament(tc, client=client)
    finally:
        tracer.remove()
    assert LLM_SPANS <= {span[3] for span in tracer.spans}


def test_traced_codeact_game_notes_every_sandbox_run():
    tracer = tracing.Tracer()
    tracer.install(None)
    try:
        record, _ = run_codeact_e2e()
    finally:
        tracer.remove()
    assert not record.aborted
    runs = [s for s in tracer.spans if s[3] == "codeact.execute_sandboxed"]
    loops = [s for s in tracer.spans if s[3] == "codeact.self_debug_loop"]
    assert len(runs) == 5 and len(loops) == 4
    assert all(s[6] and s[7] == "ok" for s in runs)
    assert sorted(s[7] for s in loops) == [(1, False)] * 3 + [(2, False)]
    # Every sandbox run happens inside a self-debug loop.
    loop_ids = {s[0] for s in loops}
    assert all(s[1] in loop_ids for s in runs)
    metrics, _ = tracing.layer_metrics(tracer, 1, False)
    assert metrics["codeact.runs_per_game"] == 5
    assert metrics["codeact.ok_ratio"] == 1
    assert metrics["codeact.attempts_per_selection"] == 1.25
    assert metrics["codeact.run_ms_p50"] > 0 and metrics["codeact.run_ms_tail"] > 0
