"""Durable game records: JSONL serialization and replay verification.

A record file holds one game: a header line, one line per event in
sequence order, and a closing outcome line. Only the header and outcome
lines carry a `type`; only the header holds the game id and the config
(the `GameConfig` toggles, hashed as stored). Files are written as the
current schema; schema 1 files load through `_upgrade_v1`. Loading is the
exact inverse of writing, and `replay` re-drives the rules engine from the
recorded actions and requires the rebuilt event log to equal the recorded
one field for field, seq included and payload values of the same JSON
type, and the outcome to match. Audit-channel events (agent diagnostics)
follow from no rule, since no agents run during a replay, so replay
re-emits them from the record where they stand: one that was moved or
renumbered still differs.

Replay runs `game.drive`, the same phase loop as live play, with each
decision read from the record instead of asked of an agent. It stops
where the recorded actions run out, so an aborted game's record replays
up to the point where the game stopped.

Header and outcome lines go through one `json.JSONEncoder`. Each event
line is one template in the key order of `EventLogEntry.to_dict`, with its
strings quoted by the encoder's own `encode_basestring`; the phases, kinds
and visibilities a live game writes are quoted once, in a table. A flat
payload (keys exactly `str`; values exactly a str, bool, int, None or list
of ints), as is every payload of a deduction game, is written by the same
kind of template. Any other payload, such as one carrying an LLM trace,
goes through the encoder, which rejects NaN and the infinities. Every
line's bytes are the encoder's.

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
from dataclasses import asdict, dataclass, field, fields
from itertools import product, zip_longest
from json.encoder import encode_basestring as _quote
from pathlib import Path
from typing import Any, Callable, NoReturn, TextIO

from .agents import AgentSpec
from .events import AUDIT, PUBLIC, EventKind, EventLogEntry, private_to
from .game import ALL_SEATS, MAJORITY, MAX_PROPOSAL_ATTEMPTS, NUM_PLAYERS, SABOTAGE_THRESHOLDS, TEAM_SIZES
from .game import GameConfig, GameEngine, GameOutcome, Phase, RuleError, Side, drive
from .knowledge import RoleAssignment

SCHEMA_VERSION = 2


def _reject_constant(name: str) -> NoReturn:
    raise ValueError(f"{name} is not a JSON value")


# One encoder and one decoder for every record line: `json.dumps` with a
# keyword argument builds a new encoder for each, and `json.loads` adds a
# call and its argument checks to each. Neither takes NaN or the infinities,
# which JSON has no numbers for.
_encode_line = json.JSONEncoder(ensure_ascii=False, allow_nan=False).encode
_decoder = json.JSONDecoder(parse_constant=_reject_constant)
_decode_line = _decoder.decode


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
    lines = [_encode_line(header), *map(_event_line, record.events), _encode_line(tail)]
    text = "\n".join(lines) + "\n"
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


# Every phase, kind and visibility a live game writes, quoted once; a value
# not in the table, which a loaded record may hold, is quoted when written.
_QUOTED = {
    text: _quote(text)
    for text in (
        *(phase._value_ for phase in Phase),
        *(kind._value_ for kind in EventKind),
        PUBLIC,
        AUDIT,
        *(private_to(p) for p in ALL_SEATS),
    )
}


def _event_line(e: EventLogEntry) -> str:
    """`_encode_line(e.to_dict())`, for fields of the types in `_EVENT_FIELD_TYPES`."""
    quoted = _QUOTED
    return (
        f'{{"seq": {e.seq}, "round": {e.round}, "attempt": {e.attempt}, '
        f'"phase": {quoted.get(e.phase) or _quote(e.phase)}, '
        f'"actor": {"null" if e.actor is None else e.actor}, "kind": {quoted[e.kind._value_]}, '
        f'"text": {_quote(e.text)}, "payload": {_payload_text(e.payload) if e.payload else "{}"}, '
        f'"visibility": {quoted.get(e.visibility) or _quote(e.visibility)}}}'
    )


def _payload_text(payload: dict[str, Any]) -> str:
    """`_encode_line(payload)`. A flat payload, whose keys are all exactly
    `str` and whose values are all exactly a str, bool, int, None or list of
    ints, is written by template; any other goes through the encoder, which
    also rejects NaN and the infinities."""
    parts = []
    for key, value in payload.items():
        kind = type(value)
        if kind is str:
            text = _quote(value)
        elif kind is bool:
            text = "true" if value else "false"
        elif kind is int or (kind is list and all(type(item) is int for item in value)):
            text = repr(value)  # a list of ints reprs as its JSON: [1, 2, 6]
        elif value is None:
            text = "null"
        else:
            return _encode_line(payload)
        if type(key) is not str:
            return _encode_line(payload)
        parts.append(f"{_quote(key)}: {text}")
    return f"{{{', '.join(parts)}}}"


def _config_hash(config: dict[str, Any]) -> str:
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


def _parse_lines(raw: str, source: str) -> list[tuple[int, dict[str, Any]]]:
    rows: list[tuple[int, dict[str, Any]]] = []
    raw_decode = _decoder.raw_decode
    for lineno, line in enumerate(raw.splitlines(), start=1):
        if not line or line.isspace():
            continue
        # A written line is one JSON value from its first character to its
        # last, which `raw_decode` parses without `decode`'s two whitespace
        # scans. Any other line goes through `decode`: it parses one with
        # whitespace around its value, and raises its own error for the rest.
        try:
            obj, end = raw_decode(line)
        except ValueError:
            end = -1
        if end != len(line):
            try:
                obj = _decode_line(line)
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
# An event line as `write_record` writes it: every key, in the order of
# `_EVENT_FIELD_TYPES` and of `EventLogEntry`'s fields, with values of one
# of the type rows the key types allow (two: the actor is a seat or null)
# and a known kind. `load_record` builds such a line's event positionally,
# without checking key by key.
_EVENT_KEYS = tuple(_EVENT_FIELD_TYPES)
_EVENT_VALUE_TYPES = frozenset(product(*_EVENT_FIELD_TYPES.values()))
_EVENT_KINDS = {kind._value_: kind for kind in EventKind}


# The JSON type of each `GameConfig` toggle is the type of its default (a
# bool toggle or an int window; `_checked` counts no bool as an int).
_CONFIG_FIELD_TYPES = {f.name: (type(f.default),) for f in fields(GameConfig)}


def _checked(value: Any, kinds: tuple[type, ...], what: str) -> Any:
    """`value`, if its exact type is one of `kinds` (so a bool is no int)."""
    if type(value) not in kinds:
        raise TypeError(f"{what} should be {' or '.join(k.__name__ for k in kinds)}, got {value!r}")
    return value


# The JSON types of an `AgentSpec`'s fields; a header's spec holds exactly these keys.
_SPEC_FIELD_TYPES = {
    "policy": (str,),
    "strategy": (str,),
    "model": (str,),
    "temperature_text": (int, float),
    "temperature_code": (int, float),
}
_SEAT_KEYS = [str(p) for p in ALL_SEATS]


def _agent_specs(agents: dict[str, Any]) -> dict[int, AgentSpec]:
    """The header's `agents` map: one spec for each of seats 1..7."""
    if sorted(agents) != _SEAT_KEYS:
        raise ValueError(f"agents should name seats 1..{NUM_PLAYERS}, got {sorted(agents)}")
    specs = {}
    for seat, spec in agents.items():
        if _checked(spec, (dict,), f"agent {seat}").keys() != _SPEC_FIELD_TYPES.keys():
            raise ValueError(f"agent {seat} should hold {list(_SPEC_FIELD_TYPES)}, got {list(spec)}")
        for key, kinds in _SPEC_FIELD_TYPES.items():
            _checked(spec[key], kinds, f"agent {seat} {key}")
        specs[int(seat)] = AgentSpec.from_dict(spec)
    return specs


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
        try:
            raw = Path(source).read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise RecordFormatError(f"{name}: not UTF-8 text: {exc}") from exc
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
        agents = _agent_specs(_checked(header["agents"], (dict,), "agents"))
        game_id = _checked(header["game_id"], (str,), "game_id")
        seed_info = _checked(header.get("seed", {}), (dict,), "seed")
    except (KeyError, TypeError, ValueError, AttributeError, RuleError) as exc:
        raise RecordFormatError(f"{name}: line {lineno}: bad header: {exc!r}") from exc
    if _config_hash(stored_config) != header.get("config_hash"):
        raise RecordSchemaError(f"{name}: config hash does not match the stored configuration")

    events: list[EventLogEntry] = []
    outcome_row: dict[str, Any] | None = None
    for lineno, row in rows[1:]:
        values = tuple(row.values())
        if (
            outcome_row is None
            and tuple(row) == _EVENT_KEYS
            and tuple(map(type, values)) in _EVENT_VALUE_TYPES
            and (kind := _EVENT_KINDS.get(values[5])) is not None
        ):
            seq, round_, attempt, phase, actor, _, text, payload, visibility = values
            event = EventLogEntry(seq, round_, attempt, phase, actor, kind, text, payload, visibility)
        elif "type" not in row:
            if outcome_row is not None:
                raise RecordFormatError(f"{name}: line {lineno}: event after the outcome line")
            try:
                for key, value in row.items():
                    kinds = _EVENT_FIELD_TYPES.get(key)
                    if kinds is None:
                        raise ValueError(f"unknown event key {key!r}")
                    if type(value) not in kinds:  # `_checked` inline, as this runs for every key
                        _checked(value, kinds, key)
                event = EventLogEntry.from_dict(row)
            except (KeyError, TypeError, ValueError) as exc:
                raise RecordFormatError(f"{name}: line {lineno}: bad event: {exc!r}") from exc
        elif row["type"] == "outcome":
            if outcome_row is not None:
                raise RecordFormatError(f"{name}: line {lineno}: duplicate outcome line")
            outcome_row, outcome_lineno = row, lineno
            continue
        else:
            raise RecordFormatError(f"{name}: line {lineno}: unknown type {row['type']!r}")
        if events and event.seq <= events[-1].seq:
            raise RecordFormatError(f"{name}: line {lineno}: event seq {event.seq} out of order")
        events.append(event)
    if outcome_row is None:
        raise RecordFormatError(f"{name}: missing outcome line")

    try:
        aborted = _checked(outcome_row.get("aborted"), (bool,), "aborted")
        error = _checked(outcome_row.get("error"), (str, type(None)), "error")
        # An aborted game has no outcome, and a complete game has one.
        stored = _checked(outcome_row.get("outcome"), (type(None),) if aborted else (dict,), "outcome")
        outcome = None if aborted else GameOutcome(
            quest_winner=Side(stored["quest_winner"]),
            assassination_target=_checked(stored.get("assassination_target"), (int, type(None)), "assassination_target"),
            assassination_hit=_checked(stored.get("assassination_hit"), (bool, type(None)), "assassination_hit"),
        )
        if outcome is not None and stored.get("overall_winner") != outcome.overall_winner.value:
            raise ValueError(
                f"overall_winner should be {outcome.overall_winner.value!r}, got {stored.get('overall_winner')!r}"
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise RecordFormatError(f"{name}: line {outcome_lineno}: bad outcome: {exc!r}") from exc
    return GameRecord(
        game_id=game_id,
        config=config,
        roles=roles,
        agents=agents,
        seed_info=dict(seed_info),
        events=events,
        outcome=outcome,
        aborted=aborted,
        error=error,
    )


def iter_record_paths(directory: str | Path) -> list[Path]:
    return sorted(Path(directory).glob("*.jsonl"))


# ----- replay verification ----------------------------------------------------

# The decision phase whose transition each recorded action kind replays.
_ACTION_PHASES = {
    EventKind.TEAM_PROPOSED: Phase.TEAM_SELECTION,
    EventKind.DISCUSSION: Phase.DISCUSSION,
    EventKind.BALLOT_RESULT: Phase.TEAM_VOTE,
    EventKind.QUEST_RESULT: Phase.QUEST_EXECUTION,
    EventKind.ASSASSINATION_RESULT: Phase.ASSASSINATION,
}


def _action_phase(event: EventLogEntry) -> Phase | None:
    """The phase whose decision `event` records, or None: audit events, a
    vote's public result and moderator notes record no decision."""
    if event.visibility == AUDIT or (event.visibility == PUBLIC and event.kind is EventKind.BALLOT_RESULT):
        return None
    return _ACTION_PHASES.get(event.kind)


def _action_args(event: EventLogEntry) -> tuple:
    """The transition arguments of a recorded decision other than a ballot."""
    payload = event.payload
    if event.kind is EventKind.TEAM_PROPOSED:
        members = _checked(payload["members"], (list,), "members")
        return [_checked(p, (int,), "a member") for p in members], event.text, payload
    if event.kind is EventKind.DISCUSSION:
        return _checked(event.actor, (int,), "the speaker"), event.text, payload
    if event.kind is EventKind.QUEST_RESULT:
        return ()
    return _checked(event.actor, (int,), "the assassin"), _checked(payload["target"], (int,), "target"), payload


def _recorded_decisions(record: GameRecord) -> Callable[[GameEngine], tuple | None]:
    """A `drive` callback that walks `record.events` once, in order.

    Each call re-emits, as recorded, the audit events ahead of the next
    decision (the engine stamps their seq, round and phase) and passes over
    the events the engine emits itself. It then returns that decision's
    transition arguments with its recorded payload; for a team vote, the
    seven private ballots and their payloads. It returns None when the next
    decision is not of the engine's phase or the events run out, so a replay
    stops where the recorded game stopped, aborted or not.
    """
    events = record.events
    phases = [_action_phase(event) for event in events]
    end = len(events)
    at = 0

    def decide(engine: GameEngine) -> tuple | None:
        nonlocal at
        while at < end and (phase := phases[at]) is None:
            event = events[at]
            if event.visibility == AUDIT:
                engine.emit(event.kind, event.text, event.actor, event.payload, AUDIT)
            at += 1
        if at == end or phase is not engine.state.phase:
            return None
        event = events[at]
        try:
            if phase is not Phase.TEAM_VOTE:
                at += 1
                return _action_args(event)
            ballots: dict[int, bool] = {}
            payloads: dict[int, dict[str, Any]] = {}
            while at < end and phases[at] is Phase.TEAM_VOTE:
                event = events[at]
                voter = _checked(event.actor, (int,), "the voter")
                ballots[voter] = _checked(event.payload["approve"], (bool,), "approve")
                payloads[voter] = event.payload
                at += 1
            return ballots, payloads
        except (KeyError, TypeError) as exc:
            raise ReplayMismatch(
                f"{record.game_id}: recorded seq {event.seq} holds a malformed "
                f"{event.kind.value} action: {exc!r}"
            ) from exc

    return decide


def _same_json(a: Any, b: Any) -> bool:
    """`a == b` for JSON values, except that no two of bool, int and float
    are equal: a payload's `true`, `1` and `1.0` are three values."""
    if type(a) is not type(b):
        return False
    if type(a) is dict:
        if a.keys() != b.keys():
            return False
        for key, value in a.items():
            other = b[key]
            if value is not other and not _same_json(value, other):
                return False
        return True
    if type(a) is list:
        if len(a) != len(b):
            return False
        for value, other in zip(a, b):
            if value is not other and not _same_json(value, other):
                return False
        return True
    return a == b


def _same_event(want: EventLogEntry, got: EventLogEntry) -> bool:
    """`want == got`, with the payloads compared by `_same_json` alone."""
    return (
        want.seq == got.seq
        and want.round == got.round
        and want.attempt == got.attempt
        and want.phase == got.phase
        and want.actor == got.actor
        and want.kind == got.kind
        and want.text == got.text
        and want.visibility == got.visibility
        and _same_json(want.payload, got.payload)
    )


def replay(record: GameRecord) -> GameEngine:
    """Re-drive the rules engine from recorded actions and verify the log.

    Runs the same `game.drive` loop as live play, with the recorded actions
    in place of agents. Returns the rebuilt engine, whose events equal the
    record's, on success; raises ReplayMismatch at the first event that
    differs in any field, naming its recorded seq.
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

    # Past the end of the shorter log, one side is None.
    for want, got in zip_longest(record.events, engine.events):
        if want is None or got is None or not _same_event(want, got):
            raise ReplayMismatch(
                f"{record.game_id}: seq {(want or got).seq} differs:\n"
                f"  recorded: {want and want.to_dict()}\n"
                f"  replayed: {got and got.to_dict()}"
            )
    want_outcome = record.outcome.to_dict() if record.outcome else None
    got_outcome = engine.outcome.to_dict() if engine.outcome else None
    if want_outcome != got_outcome:
        raise ReplayMismatch(
            f"{record.game_id}: outcome diverged: recorded {want_outcome}, replayed {got_outcome}"
        )
    return engine
