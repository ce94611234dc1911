"""Seeded game and tournament orchestration, with exact-count metrics.

Seeding is hierarchical and versioned ("sha256-stream-v1"): a tournament
base seed derives one 64-bit seed per game index, and each game seed
derives independent sub-seeds for the role deal, the first-leader draw,
and every seat's private stream.  Changing how one consumer draws never
perturbs the others, and the same (base seed, index) always reproduces
the same game bit for bit.

Metrics are kept as integer counts and reported as exact fractions, so
two runs of the same tournament compare equal with `==`, not almost-equal.
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields
from fractions import Fraction
from itertools import repeat
from pathlib import Path
from typing import Any, Iterable

from .agents import MEMORY_POLICIES, AgentReply, AgentSpec, make_agent, Observation
from .events import EventKind
from .game import ALL_SEATS, GameConfig, GameEngine, Phase, Side, drive
from .knowledge import deal_roles, knowledge_for
from .llm import LLMClient, MockScriptExhausted, TransportError
from .memory import GlobalMemory, PublicFact, public_facts_from_history
from .prompts import build_bundle
from .records import GameRecord, write_record

SEED_STREAM = "sha256-stream-v1"

_TRACE_KEYS = ("raw_attempts", "codeact", "fallback", "required_n")


def derive_seed(*parts: Any) -> int:
    """64-bit seed from a slash-joined label (stream scheme v1)."""
    label = "/".join(str(p) for p in parts)
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def seed_for_game(base_seed: int, index: int) -> int:
    return derive_seed("avalonplay", base_seed, "game", index)


def subseed(game_seed: int, consumer: str) -> int:
    return derive_seed("avalonplay", game_seed, consumer)


def _trace_payload(trace: dict[str, Any], log_exchanges: bool) -> dict[str, Any]:
    payload = {k: trace[k] for k in _TRACE_KEYS if k in trace}
    if log_exchanges and "exchanges" in trace:
        payload["exchanges"] = trace["exchanges"]
    return payload


def run_game(
    config: GameConfig,
    just_spec: AgentSpec,
    evil_spec: AgentSpec,
    game_seed: int,
    client: LLMClient | None = None,
    game_id: str | None = None,
    seed_info: dict[str, Any] | None = None,
    log_exchanges: bool = False,
) -> GameRecord:
    """Play one full seeded game and return its durable record.

    A transport failure (or an exhausted mock script) aborts the game at
    the current action boundary; the record is marked aborted and keeps
    every event produced up to that point.
    """
    config.validate()
    roles = deal_roles(random.Random(subseed(game_seed, "roles")))
    engine_seed = subseed(game_seed, "leader")
    engine = GameEngine(config, roles.as_dict(), engine_seed)
    views = {p: knowledge_for(roles, p) for p in ALL_SEATS}
    specs = {
        p: just_spec if roles.side(p) is Side.JUST else evil_spec for p in ALL_SEATS
    }
    agents = {
        p: make_agent(
            specs[p],
            p,
            views[p],
            random.Random(subseed(game_seed, f"agent/{p}")),
            client=client,
        )
        for p in ALL_SEATS
    }
    # Only seats whose policy reads memory get one; the rest never look.
    memories = {
        p: GlobalMemory(p, config.memory_window)
        for p in ALL_SEATS
        if specs[p].policy in MEMORY_POLICIES
    }
    # Rebuilt only after a quest result, so every observation in between
    # hands out the same tuple (which deduction seats memoise on).
    public_facts: tuple[PublicFact, ...] = ()

    def observe(seat: int | None, **kw: Any) -> Observation:
        """What `seat` sees now. Seats without a memory all see the same
        fields, so `seat` None builds the one observation they share."""
        nonlocal public_facts
        st = engine.state
        if len(public_facts) != len(st.quest_history):
            public_facts = public_facts_from_history(st.quest_history, config.reveal_sabotage_count)
        memory = memories.get(seat)
        if memory is not None:
            memory.catch_up(engine.events)
        return Observation(
            phase=st.phase,
            bundle=build_bundle(engine, views[seat], memory) if memory is not None else None,
            public_facts=public_facts,
            **kw,
        )

    def act(seat: int, obs: Observation) -> AgentReply:
        """`seat`'s reply to `obs`, with its audit note, if any, logged."""
        reply = agents[seat].act(obs)
        if reply.audit is not None:
            engine.log_agent_error(seat, *reply.audit)
        return reply

    def traces(reply: AgentReply) -> dict[str, Any]:
        return _trace_payload(reply.trace, log_exchanges) if reply.trace else {}

    # The observation that a step's memory-less seats share, and the
    # (phase, round, attempt) it was built for: a discussion calls `decide`
    # once per speaker, and all of its speakers see the same fields.
    shared_step: tuple = ()
    shared: Observation | None = None

    def decide(engine: GameEngine) -> tuple:
        nonlocal shared_step, shared
        st = engine.state
        if st.phase is Phase.TEAM_SELECTION:
            leader = st.leader
            reply = act(leader, observe(leader, team_size=st.team_size()))
            return reply.action.members, reply.trace.get("final_text"), traces(reply)
        if st.phase is Phase.ASSASSINATION:
            seat = engine.assassin_seat
            reply = act(seat, observe(seat))
            return seat, reply.action.target, traces(reply)
        team, threshold = engine.current_team, st.threshold()
        step = (st.phase, st.round, st.attempt)
        if step != shared_step:
            shared_step, shared = step, observe(None, proposed_team=team, threshold=threshold)

        def ask(seat: int) -> AgentReply:
            # Each seat with a memory gets its own observation, with the
            # bundle built when it is asked.
            obs = observe(seat, proposed_team=team, threshold=threshold) if seat in memories else shared
            return act(seat, obs)

        if st.phase is Phase.DISCUSSION:
            speaker = engine.next_speaker()
            reply = ask(speaker)
            return speaker, reply.action.text, traces(reply)
        if st.phase is Phase.TEAM_VOTE:
            replies = {seat: ask(seat) for seat in ALL_SEATS}
            ballots = {seat: r.action.approve for seat, r in replies.items()}
            payloads = {seat: {"reasoning": r.action.reasoning, **traces(r)} for seat, r in replies.items()}
            return ballots, payloads
        # Quest execution: the team members' quest votes.
        return ({seat: ask(seat).action.approve for seat in sorted(team)},)

    aborted = False
    error: str | None = None
    try:
        drive(engine, decide)
    except (TransportError, MockScriptExhausted) as exc:
        aborted = True
        error = f"{type(exc).__name__}: {exc}"
        engine.log_agent_error(None, "abort", error)

    info: dict[str, Any] = {
        "stream": SEED_STREAM,
        "game_seed": game_seed,
        "roles_seed": subseed(game_seed, "roles"),
        "engine_seed": engine_seed,
    }
    if seed_info:
        info.update(seed_info)
    return GameRecord(
        game_id=game_id if game_id is not None else f"game-{engine_seed:016x}",
        config=config,
        roles=roles,
        agents=specs,
        seed_info=info,
        events=list(engine.events),
        outcome=engine.outcome,
        aborted=aborted,
        error=error,
    )


# ----- metrics ----------------------------------------------------------------


@dataclass
class MetricsCounts:
    """Integer tallies folded across games; completed games only, except
    for the game/abort counters themselves."""

    n_games: int = 0
    n_aborted: int = 0
    just_overall_wins: int = 0
    just_quest_wins: int = 0
    quests_run: int = 0
    quests_succeeded: int = 0
    round_quests: list[int] = field(default_factory=lambda: [0] * 5)
    round_successes: list[int] = field(default_factory=lambda: [0] * 5)
    just_led_quests: int = 0
    just_led_successes: int = 0
    rejected_ballots: int = 0
    forced_approvals: int = 0
    assassination_attempts: int = 0
    assassination_hits: int = 0
    discussion_utterances: int = 0

    def add(self, other: "MetricsCounts") -> None:
        for f in fields(self):
            mine, theirs = getattr(self, f.name), getattr(other, f.name)
            if isinstance(mine, list):
                setattr(self, f.name, [a + b for a, b in zip(mine, theirs)])
            else:
                setattr(self, f.name, mine + theirs)


def counts_from_record(record: GameRecord) -> MetricsCounts:
    """One game's tallies; an aborted game counts only as aborted. `record`
    comes from `run_game` or `load_record`, which checks every field read
    here against the engine, whatever the record's schema."""
    if record.aborted:
        return MetricsCounts(n_games=1, n_aborted=1)
    return _tally(record)


def _tally(record: GameRecord) -> MetricsCounts:
    """One game's tallies from its outcome and events, aborted or not."""
    c = MetricsCounts(n_games=1)
    outcome = record.outcome
    if outcome is not None:
        c.just_overall_wins = int(outcome.overall_winner is Side.JUST)
        c.just_quest_wins = int(outcome.quest_winner is Side.JUST)
        if outcome.assassination_target is not None:
            c.assassination_attempts = 1
            c.assassination_hits = int(bool(outcome.assassination_hit))
    leader: int | None = None
    for event in record.events:
        payload = event.payload
        if event.kind is EventKind.TEAM_PROPOSED:
            leader = payload["leader"]
        elif event.kind is EventKind.DISCUSSION:
            c.discussion_utterances += 1
        elif event.kind is EventKind.BALLOT_RESULT and event.visibility == "public":
            if not payload["approved"]:
                c.rejected_ballots += 1
            if payload["forced"]:
                c.forced_approvals += 1
        elif event.kind is EventKind.QUEST_RESULT:
            rnd, success = payload["round"], payload["success"]
            c.quests_run += 1
            c.quests_succeeded += int(success)
            c.round_quests[rnd - 1] += 1
            c.round_successes[rnd - 1] += int(success)
            if leader is not None and record.roles.side(leader) is Side.JUST:
                c.just_led_quests += 1
                c.just_led_successes += int(success)
    return c


def _ratio(num: int, den: int) -> Fraction | None:
    return Fraction(num, den) if den else None


def _ratio_json(value: Fraction | None) -> dict[str, Any] | None:
    if value is None:
        return None
    return {
        "numerator": value.numerator,
        "denominator": value.denominator,
        "value": float(value),
    }


@dataclass(frozen=True)
class MetricsReport:
    """Exact tournament metrics; equal reports compare equal with `==`."""

    n_games: int
    n_completed: int
    n_aborted: int
    just_game_win_rate: Fraction | None
    just_quest_win_rate: Fraction | None
    quest_success_rate: Fraction | None
    team_accuracy: Fraction | None
    per_round_success: tuple[Fraction | None, ...]
    rejected_ballots_per_game: Fraction | None
    forced_approvals: int
    assassination_attempts: int
    assassination_hit_rate: Fraction | None
    discussion_utterances: int

    def to_json(self) -> dict[str, Any]:
        return {
            "n_games": self.n_games,
            "n_completed": self.n_completed,
            "n_aborted": self.n_aborted,
            "just_game_win_rate": _ratio_json(self.just_game_win_rate),
            "just_quest_win_rate": _ratio_json(self.just_quest_win_rate),
            "quest_success_rate": _ratio_json(self.quest_success_rate),
            "team_accuracy": _ratio_json(self.team_accuracy),
            "per_round_success": [_ratio_json(v) for v in self.per_round_success],
            "rejected_ballots_per_game": _ratio_json(self.rejected_ballots_per_game),
            "forced_approvals": self.forced_approvals,
            "assassination_attempts": self.assassination_attempts,
            "assassination_hit_rate": _ratio_json(self.assassination_hit_rate),
            "discussion_utterances": self.discussion_utterances,
        }


def report_from_counts(c: MetricsCounts) -> MetricsReport:
    completed = c.n_games - c.n_aborted
    return MetricsReport(
        n_games=c.n_games,
        n_completed=completed,
        n_aborted=c.n_aborted,
        just_game_win_rate=_ratio(c.just_overall_wins, completed),
        just_quest_win_rate=_ratio(c.just_quest_wins, completed),
        quest_success_rate=_ratio(c.quests_succeeded, c.quests_run),
        team_accuracy=_ratio(c.just_led_successes, c.just_led_quests),
        per_round_success=tuple(
            _ratio(c.round_successes[i], c.round_quests[i]) for i in range(5)
        ),
        rejected_ballots_per_game=_ratio(c.rejected_ballots, completed),
        forced_approvals=c.forced_approvals,
        assassination_attempts=c.assassination_attempts,
        assassination_hit_rate=_ratio(c.assassination_hits, c.assassination_attempts),
        discussion_utterances=c.discussion_utterances,
    )


def compute_metrics(records: Iterable[GameRecord]) -> MetricsReport:
    """Exact metrics over records from `run_game` or `load_record` (engine-checked, any schema)."""
    total = MetricsCounts()
    for record in records:
        total.add(counts_from_record(record))
    return report_from_counts(total)


# ----- tournaments -------------------------------------------------------------


@dataclass(frozen=True)
class TournamentConfig:
    n_games: int
    base_seed: int = 0
    just_spec: AgentSpec = AgentSpec(policy="deduction")
    evil_spec: AgentSpec = AgentSpec(policy="scripted_evil")
    game: GameConfig = GameConfig()
    parallelism: int = 1
    record_dir: str | None = None
    log_exchanges: bool = False


@dataclass(frozen=True)
class GameSummary:
    index: int
    game_id: str
    aborted: bool
    quest_winner: str | None
    overall_winner: str | None
    rounds_played: int
    record_path: str | None = None


@dataclass
class TournamentResult:
    config: TournamentConfig
    report: MetricsReport
    summaries: list[GameSummary]
    counts: MetricsCounts

    def digest(self) -> str:
        # Where the records were written is no part of the games, so every
        # record path hashes as null.
        games = [asdict(s) | {"record_path": None} for s in self.summaries]
        blob = json.dumps({"report": self.report.to_json(), "games": games}, sort_keys=True)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class GameFailed(RuntimeError):
    """An exception escaped one tournament game; the message names the game."""


def _run_one(
    tc: TournamentConfig,
    index: int,
    client: LLMClient | None,
) -> tuple[GameSummary, MetricsCounts]:
    """Play and summarise game `index` against its own copy of `client`,
    so that no rule budget or request log is shared between games."""
    game_seed = seed_for_game(tc.base_seed, index)
    try:
        record = run_game(
            tc.game,
            tc.just_spec,
            tc.evil_spec,
            game_seed,
            client=copy.deepcopy(client),
            game_id=f"g{tc.base_seed}-{index:05d}",
            seed_info={"base_seed": tc.base_seed, "game_index": index},
            log_exchanges=tc.log_exchanges,
        )
        path = None
        if tc.record_dir:
            path = Path(tc.record_dir) / f"{record.game_id}.jsonl"
            write_record(record, path)
        played = _tally(record)
    except Exception as exc:
        raise GameFailed(f"game index {index} (game seed {game_seed}): {type(exc).__name__}: {exc}") from exc
    outcome = record.outcome
    summary = GameSummary(
        index=index,
        game_id=record.game_id,
        aborted=record.aborted,
        quest_winner=outcome.quest_winner.value if outcome else None,
        overall_winner=outcome.overall_winner.value if outcome else None,
        rounds_played=played.quests_run,
        record_path=str(path) if path else None,
    )
    return summary, counts_from_record(record) if record.aborted else played


def run_tournament(
    tc: TournamentConfig,
    client: LLMClient | None = None,
) -> TournamentResult:
    """Run `n_games` seeded games and fold their metrics in index order.

    Each game plays against its own copy of `client`, so game i's outcome
    depends only on (base_seed, i), and the fold order is fixed by index:
    parallel scheduling never changes results.  Serial runs play every game
    in this process; parallel runs play them in one process pool, which
    without a client never starts more workers than `os.cpu_count()`.
    """
    tc.game.validate()
    if tc.record_dir:
        Path(tc.record_dir).mkdir(parents=True, exist_ok=True)
    indices = list(range(tc.n_games))
    if tc.parallelism > 1:
        # Pure-policy games only contend for cores; model-backed games spend
        # most of their time waiting on the model.  Chunks of a quarter of
        # each worker's share amortise task dispatch but still balance load.
        workers = tc.parallelism if client is not None else min(tc.parallelism, os.cpu_count() or 1)
        chunksize = max(1, tc.n_games // (4 * workers))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_one, repeat(tc), indices, repeat(client), chunksize=chunksize))
    else:
        results = [_run_one(tc, i, client) for i in indices]
    counts = MetricsCounts()
    summaries: list[GameSummary] = []
    for summary, game_counts in results:
        counts.add(game_counts)
        summaries.append(summary)
    return TournamentResult(config=tc, report=report_from_counts(counts), summaries=summaries, counts=counts)
