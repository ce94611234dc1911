"""Durable game records: JSONL serialization and replay verification.

A record file holds one game: a header line, one line per event in
sequence order, and a closing outcome line. Only the header and outcome
lines carry a `type`; only the header holds the game id and the config
(the `GameConfig` toggles, hashed as stored). Files are written as the
current schema; schema 1 files load through `_upgrade_v1`. Loading is the
exact inverse of writing, and `replay` re-drives the rules engine from the
recorded actions and verifies that every public and private event —
moderator announcements, ballots, quest results — reproduces exactly.
Audit-channel events (agent diagnostics) are record-only and excluded
from replay comparison, since no agents run during a replay.

Replay runs `game.drive`, the same phase loop as live play, with each
decision read from the record instead of asked of an agent. It stops
where the recorded actions run out, so an aborted game's record replays
up to the point where the game stopped.

Three errors cover every bad record: `RecordFormatError` for a file that
is not a well-formed record (naming the line), `RecordSchemaError` for a
record from another schema or configuration, and `ReplayMismatch` for a
record whose actions are malformed (naming the seq), rejected by the
rules, or do not reproduce the recorded events.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import deque
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Any, Callable, TextIO

from .agents import AgentSpec
from .events import AUDIT, PUBLIC, EventKind, EventLogEntry
from .game import MAJORITY, MAX_PROPOSAL_ATTEMPTS, NUM_PLAYERS, SABOTAGE_THRESHOLDS, TEAM_SIZES
from .game import GameConfig, GameEngine, GameOutcome, Phase, RuleError, drive
from .knowledge import RoleAssignment

SCHEMA_VERSION = 2


class RecordFormatError(ValueError):
    """A record file is structurally malformed (names the offending line)."""


class RecordSchemaError(ValueError):
    """A record file is well-formed but from an incompatible schema."""


class ReplayMismatch(AssertionError):
    """Re-driving the recorded actions diverged from the recorded events."""


@dataclass
class GameRecord:
    """One game. `events` are in seq order: `run_game` appends them in
    engine order and `load_record` rejects a file whose seqs do not rise,
    so readers walk them as they are."""

    game_id: str
    config: GameConfig
    roles: RoleAssignment
    agents: dict[int, AgentSpec]
    seed_info: dict[str, Any]
    events: list[EventLogEntry] = field(default_factory=list)
    outcome: GameOutcome | None = None
    aborted: bool = False
    error: str | None = None


def write_record(record: GameRecord, destination: str | Path | TextIO) -> None:
    """Write one game as JSON lines: header, events by seq, outcome.

    A path is written through a temporary file in the same directory (not
    matching ``*.jsonl``) that then replaces it, so a failed write leaves
    no partial record for `iter_record_paths` to find.
    """
    config = asdict(record.config)
    header = {
        "type": "header",
        "schema_version": SCHEMA_VERSION,
        "game_id": record.game_id,
        "config": config,
        "config_hash": _config_hash(config),
        "seed": record.seed_info,
        "roles": record.roles.to_json(),
        "agents": {str(s): spec.to_dict() for s, spec in sorted(record.agents.items())},
    }
    outcome = record.outcome.to_dict() if record.outcome else None
    tail = {"type": "outcome", "aborted": record.aborted, "error": record.error, "outcome": outcome}
    lines = [header, *(e.to_dict() for e in record.events), tail]
    text = "\n".join(json.dumps(obj, ensure_ascii=False) for obj in lines) + "\n"
    if isinstance(destination, (str, Path)):
        path = Path(destination)
        partial = path.with_name(path.name + ".partial")
        try:
            partial.write_text(text, encoding="utf-8")
            os.replace(partial, path)
        except BaseException:
            partial.unlink(missing_ok=True)
            raise
    else:
        destination.write(text)


def _config_hash(config: dict[str, Any]) -> str:
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


def _parse_lines(raw: str, source: str) -> list[tuple[int, dict[str, Any]]]:
    rows: list[tuple[int, dict[str, Any]]] = []
    for lineno, line in enumerate(raw.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except ValueError as exc:  # JSONDecodeError, or an over-long integer
            raise RecordFormatError(f"{source}: line {lineno} is not valid JSON: {exc}") from exc
        if not isinstance(obj, dict):
            raise RecordFormatError(f"{source}: line {lineno} is not a JSON object")
        rows.append((lineno, obj))
    return rows


# The keys an event line may hold, with the JSON types of each; a missing
# payload or visibility takes its default, and any other key is an error.
_EVENT_FIELD_TYPES = {
    "seq": (int,),
    "round": (int,),
    "attempt": (int,),
    "phase": (str,),
    "actor": (int, type(None)),
    "kind": (str,),
    "text": (str,),
    "payload": (dict,),
    "visibility": (str,),
}


# The JSON type of each `GameConfig` toggle is the type of its default (a
# bool toggle or an int window; `_checked` counts no bool as an int).
_CONFIG_FIELD_TYPES = {f.name: (type(f.default),) for f in fields(GameConfig)}


def _checked(value: Any, kinds: tuple[type, ...], what: str) -> Any:
    """`value`, if its exact type is one of `kinds` (so a bool is no int)."""
    if type(value) not in kinds:
        raise TypeError(f"{what} should be {' or '.join(k.__name__ for k in kinds)}, got {value!r}")
    return value


# The rule values a schema 1 header's config held ahead of the toggles.
_V1_RULES = {"num_players": NUM_PLAYERS, "team_sizes": TEAM_SIZES, "sabotage_thresholds": SABOTAGE_THRESHOLDS,
             "majority": MAJORITY, "max_proposal_attempts": MAX_PROPOSAL_ATTEMPTS}


def _upgrade_v1(rows: list[tuple[int, dict[str, Any]]], name: str) -> None:
    """Rewrite a schema 1 record's rows as schema 2 rows, in place: the
    header's config drops the rule values, which must equal the constants as
    JSON (so 7.0 or true is a bad header), and its hash stays for
    `load_record` to check over the config as stored; event lines drop their
    `type` and `game_id`."""
    lineno, header = rows[0]
    try:
        config = dict(_checked(header["config"], (dict,), "config"))
        for key, rule in _V1_RULES.items():
            value, rule = json.dumps(config.pop(key, rule)), json.dumps(rule)
            if value != rule:
                raise ValueError(f"{key} must be {rule}, got {value}")
    except (KeyError, TypeError, ValueError) as exc:
        raise RecordFormatError(f"{name}: line {lineno}: bad header: {exc!r}") from exc
    header["config"] = config
    for lineno, row in rows[1:]:
        if "type" not in row:
            raise RecordFormatError(f"{name}: line {lineno} has no record type")
        if row["type"] == "event":
            del row["type"]
            row.pop("game_id", None)


def load_record(source: str | Path | TextIO) -> GameRecord:
    """Exact inverse of `write_record`, with schema and order validation."""
    if isinstance(source, (str, Path)):
        name = str(source)
        raw = Path(source).read_text(encoding="utf-8")
    else:
        name = getattr(source, "name", "<stream>")
        raw = source.read()
    rows = _parse_lines(raw, name)
    if not rows:
        raise RecordFormatError(f"{name}: empty record")
    lineno, header = rows[0]
    if header.get("type") != "header":
        raise RecordFormatError(f"{name}: line {lineno} should be the header")
    version, stored_config = header.get("schema_version"), header.get("config")
    if version == 1:
        _upgrade_v1(rows, name)
    elif version != SCHEMA_VERSION:
        raise RecordSchemaError(f"{name}: schema version {version!r}, expected {SCHEMA_VERSION}")
    try:
        toggles = _checked(header["config"], (dict,), "config")
        for key, kinds in _CONFIG_FIELD_TYPES.items():
            if key in toggles:
                _checked(toggles[key], kinds, key)
        config = GameConfig(**toggles)
        config.validate()
        roles = RoleAssignment.from_json(header["roles"])
        agents = {int(s): AgentSpec.from_dict(spec) for s, spec in header.get("agents", {}).items()}
        game_id = _checked(header["game_id"], (str,), "game_id")
        seed_info = _checked(header.get("seed", {}), (dict,), "seed")
    except (KeyError, TypeError, ValueError, AttributeError, RuleError) as exc:
        raise RecordFormatError(f"{name}: line {lineno}: bad header: {exc!r}") from exc
    if _config_hash(stored_config) != header.get("config_hash"):
        raise RecordSchemaError(f"{name}: config hash does not match the stored configuration")

    events: list[EventLogEntry] = []
    outcome_row: dict[str, Any] | None = None
    for lineno, row in rows[1:]:
        if "type" not in row:
            if outcome_row is not None:
                raise RecordFormatError(f"{name}: line {lineno}: event after the outcome line")
            try:
                for key, value in row.items():
                    if key not in _EVENT_FIELD_TYPES:
                        raise ValueError(f"unknown event key {key!r}")
                    _checked(value, _EVENT_FIELD_TYPES[key], key)
                event = EventLogEntry.from_dict(row)
            except (KeyError, TypeError, ValueError) as exc:
                raise RecordFormatError(f"{name}: line {lineno}: bad event: {exc!r}") from exc
            if events and event.seq <= events[-1].seq:
                raise RecordFormatError(f"{name}: line {lineno}: event seq {event.seq} out of order")
            events.append(event)
        elif row["type"] == "outcome":
            if outcome_row is not None:
                raise RecordFormatError(f"{name}: line {lineno}: duplicate outcome line")
            outcome_row, outcome_lineno = row, lineno
        else:
            raise RecordFormatError(f"{name}: line {lineno}: unknown type {row['type']!r}")
    if outcome_row is None:
        raise RecordFormatError(f"{name}: missing outcome line")

    try:
        outcome = GameOutcome.from_dict(outcome_row["outcome"]) if outcome_row.get("outcome") else None
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise RecordFormatError(f"{name}: line {outcome_lineno}: bad outcome: {exc!r}") from exc
    return GameRecord(
        game_id=game_id,
        config=config,
        roles=roles,
        agents=agents,
        seed_info=dict(seed_info),
        events=events,
        outcome=outcome,
        aborted=bool(outcome_row.get("aborted", False)),
        error=outcome_row.get("error"),
    )


def iter_record_paths(directory: str | Path) -> list[Path]:
    return sorted(Path(directory).glob("*.jsonl"))


def quest_result_fields(record: GameRecord, event: EventLogEntry) -> tuple[int, frozenset[int], bool]:
    """The round, team and success of a quest_result event, type-checked.

    For readers of records that were loaded but not replayed; a bad value
    raises RecordFormatError naming the game and the seq.
    """
    payload = event.payload
    rnd, team, success = payload.get("round"), payload.get("team"), payload.get("success")
    where = f"{record.game_id}: seq {event.seq}"
    if type(rnd) is not int or not 1 <= rnd <= len(TEAM_SIZES):
        raise RecordFormatError(f"{where}: quest round {rnd!r} is not 1..{len(TEAM_SIZES)}")
    if type(team) is not list or any(type(p) is not int for p in team):
        raise RecordFormatError(f"{where}: quest team {team!r} is not a list of seats")
    if type(success) is not bool:
        raise RecordFormatError(f"{where}: quest success {success!r} is not true or false")
    return rnd, frozenset(team), success


# ----- replay verification ----------------------------------------------------

# Payload keys that carry game facts (as opposed to agent traces), per kind.
_CORE_PAYLOAD_KEYS = {
    EventKind.TEAM_PROPOSED: ("members", "leader"),
    EventKind.QUEST_RESULT: ("round", "team", "success", "sabotage_count"),
    EventKind.ASSASSINATION_RESULT: ("target", "hit"),
}


def _projection(event: EventLogEntry) -> dict[str, Any]:
    core: dict[str, Any] = {}
    if event.kind is EventKind.MODERATOR_NOTE:
        core = dict(event.payload)
    elif event.kind is EventKind.BALLOT_RESULT:
        keys = ("approve",) if event.visibility != "public" else ("approved", "approvals", "forced")
        core = {k: event.payload.get(k) for k in keys}
    else:
        core = {k: event.payload.get(k) for k in _CORE_PAYLOAD_KEYS.get(event.kind, ())}
    return {
        "kind": event.kind.value,
        "round": event.round,
        "attempt": event.attempt,
        "phase": event.phase,
        "actor": event.actor,
        "visibility": event.visibility,
        "text": event.text,
        "payload": core,
    }


# The decision phase whose transition each recorded action kind replays.
_ACTION_PHASES = {
    EventKind.TEAM_PROPOSED: Phase.TEAM_SELECTION,
    EventKind.DISCUSSION: Phase.DISCUSSION,
    EventKind.BALLOT_RESULT: Phase.TEAM_VOTE,
    EventKind.QUEST_RESULT: Phase.QUEST_EXECUTION,
    EventKind.ASSASSINATION_RESULT: Phase.ASSASSINATION,
}


def _recorded_decisions(record: GameRecord) -> Callable[[GameEngine], tuple | None]:
    """A `drive` callback that plays back the record's actions in order.

    Each decision phase takes the next recorded action of that phase, and
    None once they run out, so a replay stops where the recorded game
    stopped, aborted or not. A team vote's seven private ballots are
    gathered until the public result that closes the vote.
    """
    queues: dict[Phase, deque[tuple]] = {phase: deque() for phase in _ACTION_PHASES.values()}
    ballots: dict[int, bool] = {}
    for event in record.events:
        phase = _ACTION_PHASES.get(event.kind)
        if phase is None or event.visibility == AUDIT:
            continue
        payload = event.payload
        try:
            if event.kind is EventKind.TEAM_PROPOSED:
                members = _checked(payload["members"], (list,), "members")
                args: tuple = ([_checked(p, (int,), "a member") for p in members], event.text)
            elif event.kind is EventKind.DISCUSSION:
                args = (_checked(event.actor, (int,), "the speaker"), event.text)
            elif event.kind is EventKind.BALLOT_RESULT and event.visibility != PUBLIC:
                voter = _checked(event.actor, (int,), "the voter")
                ballots[voter] = _checked(payload["approve"], (bool,), "approve")
                continue
            elif event.kind is EventKind.BALLOT_RESULT:
                args, ballots = (ballots,), {}
            elif event.kind is EventKind.QUEST_RESULT:
                args = ()
            else:
                assassin = _checked(event.actor, (int,), "the assassin")
                args = (assassin, _checked(payload["target"], (int,), "target"))
        except (KeyError, TypeError) as exc:
            raise ReplayMismatch(
                f"{record.game_id}: recorded seq {event.seq} holds a malformed "
                f"{event.kind.value} action: {exc!r}"
            ) from exc
        queues[phase].append(args)

    def decide(engine: GameEngine) -> tuple | None:
        queue = queues[engine.state.phase]
        return queue.popleft() if queue else None

    return decide


def replay(record: GameRecord) -> GameEngine:
    """Re-drive the rules engine from recorded actions and verify the log.

    Runs the same `game.drive` loop as live play, with the recorded actions
    in place of agents. Returns the rebuilt engine on success; raises
    ReplayMismatch at the first diverging event, naming the recorded
    sequence number.
    """
    seed = record.seed_info.get("engine_seed")
    if type(seed) is not int:
        raise RecordSchemaError(f"{record.game_id}: record carries no engine seed")
    engine = GameEngine(record.config, record.roles.as_dict(), seed)
    try:
        drive(engine, _recorded_decisions(record))
    except RuleError as exc:
        # A recorded action the rules engine rejects means the log cannot
        # be an honest transcript of a real game.
        raise ReplayMismatch(f"{record.game_id}: recorded action rejected on replay: {exc}") from exc

    recorded = [e for e in record.events if e.visibility != AUDIT]
    replayed = [e for e in engine.events if e.visibility != AUDIT]
    for i, (want, got) in enumerate(zip(recorded, replayed)):
        if _projection(want) != _projection(got):
            raise ReplayMismatch(
                f"{record.game_id}: event {i} (recorded seq {want.seq}) diverged:\n"
                f"  recorded: {_projection(want)}\n"
                f"  replayed: {_projection(got)}"
            )
    if len(recorded) != len(replayed):
        raise ReplayMismatch(
            f"{record.game_id}: recorded {len(recorded)} comparable events, replay produced {len(replayed)}"
        )
    want_outcome = record.outcome.to_dict() if record.outcome else None
    got_outcome = engine.outcome.to_dict() if engine.outcome else None
    if want_outcome != got_outcome:
        raise ReplayMismatch(
            f"{record.game_id}: outcome diverged: recorded {want_outcome}, replayed {got_outcome}"
        )
    return engine
