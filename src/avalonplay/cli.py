"""Command-line entry point.

Subcommands:

* run      — play a seeded tournament and print its metrics as JSON.
* replay   — re-drive a recorded game and verify every event reproduces.
* metrics  — aggregate metrics across a directory of game records.
* analyze  — consistency findings for one record file or a directory.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path
from typing import Iterator

from .agents import POLICIES, STRATEGIES, AgentSpec
from .game import GameConfig
from .llm import FixtureError, HttpLLMClient, LLMClient, MockLLM
from .records import (
    GameRecord,
    RecordFormatError,
    RecordSchemaError,
    ReplayMismatch,
    iter_record_paths,
    load_record,
    replay,
)
from .runner import TournamentConfig, compute_metrics, run_tournament
from .analyzer import analyze_records


def _onoff(value: str) -> bool:
    v = value.strip().lower()
    if v in ("on", "true", "1", "yes"):
        return True
    if v in ("off", "false", "0", "no"):
        return False
    raise argparse.ArgumentTypeError(f"expected 'on' or 'off', got {value!r}")


def _at_least(low: int):
    """An argparse type: an integer no smaller than `low`."""
    def count(value: str) -> int:
        if int(value) < low:
            raise argparse.ArgumentTypeError(f"expected at least {low}, got {value}")
        return int(value)
    return count


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="avalonplay",
        description="Seven-player hidden-role benchmark: engine, agents, records, analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="play a seeded tournament and print metrics")
    run.add_argument("--games", type=_at_least(0), default=10, help="number of games (default 10)")
    run.add_argument("--seed", type=int, default=0, help="tournament base seed (default 0)")
    run.add_argument("--just", choices=POLICIES, default="deduction", help="policy for just seats")
    run.add_argument("--evil", choices=POLICIES, default="scripted_evil", help="policy for evil seats")
    run.add_argument("--strategy", choices=STRATEGIES, default="base", help="prompting strategy for llm seats")
    run.add_argument("--temperature", type=float, default=0.7, help="sampling temperature for text decisions")
    run.add_argument("--llm-base-url", default=None, help="OpenAI-compatible chat completions base URL")
    run.add_argument("--llm-model", default=None, help="model name for the HTTP client")
    run.add_argument("--mock-llm", default=None, metavar="FIXTURE", help="JSON fixture of scripted model replies")
    run.add_argument("--communication", type=_onoff, default=True, metavar="on|off", help="discussion before each vote (default on)")
    run.add_argument("--reveal-counts", type=_onoff, default=False, metavar="on|off", dest="reveal_sabotage_count", help="announce sabotage counts after quests (default off)")
    run.add_argument("--play-all-rounds", type=_onoff, default=False, metavar="on|off", help="always play five rounds (default off)")
    run.add_argument("--assassination", type=_onoff, default=True, metavar="on|off", help="assassination phase after a just quest win (default on)")
    run.add_argument("--parallelism", type=_at_least(1), default=1, help="worker count (default 1)")
    run.add_argument("--record-dir", default=None, help="write one JSONL record per game here")
    run.add_argument("--log-exchanges", action="store_true", help="embed raw model exchanges in records")

    rep = sub.add_parser("replay", help="re-drive a recorded game and verify it")
    rep.add_argument("file", help="JSONL game record")

    met = sub.add_parser("metrics", help="aggregate metrics over a record directory")
    met.add_argument("dir", help="directory of JSONL game records")

    ana = sub.add_parser("analyze", help="consistency findings for a record or directory")
    ana.add_argument("path", help="JSONL game record or a directory of them")
    return parser


def _make_client(args: argparse.Namespace) -> LLMClient | None:
    needs_llm = "llm" in (args.just, args.evil)
    if args.mock_llm:
        try:
            return MockLLM.from_file(args.mock_llm)
        except OSError as exc:
            raise SystemExit(f"cannot read {args.mock_llm}: {exc.strerror or exc}") from None
        except FixtureError as exc:
            raise SystemExit(f"bad fixture {exc.path}: {exc.reason}") from None
    if args.llm_base_url:
        if not args.llm_model:
            raise SystemExit("--llm-model is required with --llm-base-url")
        return HttpLLMClient(args.llm_base_url, args.llm_model)
    if needs_llm:
        raise SystemExit("llm policy requires --mock-llm FIXTURE or --llm-base-url/--llm-model")
    return None


def _cmd_run(args: argparse.Namespace) -> int:
    game = GameConfig(
        communication_enabled=args.communication,
        reveal_sabotage_count=args.reveal_sabotage_count,
        play_all_rounds=args.play_all_rounds,
        assassination_enabled=args.assassination,
    )
    model = args.llm_model or ("mock" if args.mock_llm else "")

    def spec(policy: str) -> AgentSpec:
        return AgentSpec(
            policy=policy,
            strategy=args.strategy,
            model=model if policy == "llm" else "",
            temperature_text=args.temperature,
        )

    tc = TournamentConfig(
        n_games=args.games,
        base_seed=args.seed,
        just_spec=spec(args.just),
        evil_spec=spec(args.evil),
        game=game,
        parallelism=args.parallelism,
        record_dir=args.record_dir,
        log_exchanges=args.log_exchanges,
    )
    client = _make_client(args)
    try:
        result = run_tournament(tc, client=client)
    except OSError as exc:
        if exc.filename is None:
            raise
        raise SystemExit(f"cannot write {exc.filename}: {exc.strerror}") from None
    out = {
        "digest": result.digest(),
        "report": result.report.to_json(),
        "games": [asdict(s) for s in result.summaries],
    }
    json.dump(out, sys.stdout, indent=2)
    print()
    return 0


def _verified(path: Path) -> GameRecord:
    """The record at `path`, loaded and then replayed: checked for every reader."""
    try:
        record = load_record(path)
    except OSError as exc:
        raise SystemExit(f"cannot read {path}: {exc.strerror or exc}") from None
    replay(record)
    return record


def _verified_many(path: Path) -> Iterator[GameRecord]:
    """The record at `path`, or each record in the directory `path`, verified
    as it is reached, so a reader can fold a directory of any size."""
    paths = [path]
    if path.is_dir():
        paths = iter_record_paths(path)
        if not paths:
            raise SystemExit(f"{path}: no .jsonl records found")
    return map(_verified, paths)


def _cmd_replay(args: argparse.Namespace) -> int:
    record = _verified(Path(args.file))
    status = "aborted" if record.aborted else "complete"
    print(f"{record.game_id}: verified {len(record.events)} events ({status} game)")
    if record.outcome is not None:
        print(f"outcome: {json.dumps(record.outcome.to_dict())}")
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    records = _verified_many(Path(args.dir))
    json.dump(compute_metrics(records).to_json(), sys.stdout, indent=2)
    print()
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    records = _verified_many(Path(args.path))
    findings, report = analyze_records(records)
    out = {
        "findings": [f.to_dict() for f in findings],
        "summary": report.to_json(),
    }
    json.dump(out, sys.stdout, indent=2)
    print()
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "replay": _cmd_replay,
        "metrics": _cmd_metrics,
        "analyze": _cmd_analyze,
    }
    # A bad record ends the command with one error line, not a traceback.
    try:
        return handlers[args.command](args)
    except ReplayMismatch as exc:
        print(f"replay mismatch: {exc}", file=sys.stderr)
    except (RecordFormatError, RecordSchemaError) as exc:
        print(f"bad record: {exc}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
