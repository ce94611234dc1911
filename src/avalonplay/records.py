"""Durable game records: JSONL serialization and replay verification.

A schema 3 record file holds one game as the inputs that the rules engine
cannot derive: a header line, one line per decision or audit note in game
order, and a closing outcome line. Only the header and outcome lines carry
a `type`; only the header holds the game id and the config (the
`GameConfig` toggles, hashed as stored). A decision line's first key names
its kind:

- `{"team": members, "text": ..., "payload": {...}}`: a proposal;
- `{"speeches": [...], "payloads": [...]}`: a discussion's speeches in seat
  order, with their payloads when any is non-empty;
- `{"approve": [...], "reasoning": [...], "payloads": [...]}`: a team
  vote, the seven ballots, their reasonings and their payloads in seat
  order;
- `{"quest": {}}`: a quest, whose votes the roles decide;
- `{"target": seat, "payload": {...}}`: the assassination;
- `{"audit": "agent_error", "actor": ..., "text": ..., "payload": {...}}`:
  an audit note (an agent diagnostic), which follows from no rule.

A payload holds the keys the engine does not write itself (an agent's
trace) and is left out when empty. Moderator notes, ballot sentences,
public ballot results and quest results are engine output, and are not
written. The writer and the loader share one table, `_LINES`: the writer
builds each line from the recorded events of one step of the game, and the
loader turns each line into the transition arguments that `game.drive`
takes. Loading a schema 3 file parses its lines and drives the engine over
them, so the loaded record's events are the engine's own. A decision the
rules reject, a line the game has no use for where it stands, lines left
over after the game ended, and an outcome line that disagrees with where
the game stopped each raise `ReplayMismatch`, naming the file and line.

Schema 1 and 2 files hold every event. They still load, schema 1 through
`_upgrade_v1`, and re-write as schema 3. Loading one reads its events as
written and passes them through `replay`, which re-drives the rules engine
from them, with each decision read from the record instead of asked of an
agent, and requires the rebuilt event log to equal the recorded one field
for field, seq included and payload values of the same JSON type, and the
outcome to match. So a loaded record of any schema is engine-checked, and
its events are the engine's. `replay` stops where the recorded actions run
out, so an aborted game's record replays up to the point where the game
stopped.

Every line is written as `json.JSONEncoder` would write it: strings, bools,
ints, None, lists and `str`-keyed dicts by template (`_json`), and any
other value, such as a float, through the encoder, which rejects NaN and
the infinities.

Three errors cover every bad record: `RecordFormatError` for a file that
is not a well-formed record (naming the line), `RecordSchemaError` for a
record from another schema or configuration, and `ReplayMismatch` for a
record whose decisions are malformed, rejected by the rules, or do not
reproduce the recorded events or outcome.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass, field, fields
from functools import lru_cache
from itertools import zip_longest
from json.encoder import encode_basestring as _quote
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, NamedTuple, NoReturn, TextIO

from .agents import AgentSpec
from .events import AUDIT, PUBLIC, EventKind, EventLogEntry
from .game import ALL_SEATS, MAJORITY, MAX_PROPOSAL_ATTEMPTS, NUM_PLAYERS, SABOTAGE_THRESHOLDS, TEAM_SIZES
from .game import GameConfig, GameEngine, GameOutcome, Phase, RuleError, Side, drive
from .knowledge import RoleAssignment

SCHEMA_VERSION = 3


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
    """Write one game as JSON lines: header, decisions, outcome.

    A path is written through a temporary file in the same directory (not
    matching ``*.jsonl``) that then replaces it, so a failed write leaves
    no partial record for `iter_record_paths` to find.
    """
    outcome = record.outcome.to_dict() if record.outcome else None
    tail = {"type": "outcome", "aborted": record.aborted, "error": record.error, "outcome": outcome}
    lines = [_header_line(record)]
    lines += [line.text(step) if line.text else _json(line.line(step)) for line, step in _steps(record.events)]
    lines.append(_json(tail))
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


def _header_line(record: GameRecord) -> str:
    """`_encode_line` of the header."""
    config = record.config
    agents = {str(s): spec.to_dict() for s, spec in sorted(record.agents.items())}
    return (
        f'{{"type": "header", "schema_version": {SCHEMA_VERSION}, "game_id": {_json(record.game_id)}, '
        f'{_config_fields(config, tuple(map(type, vars(config).values())))}, "seed": {_json(record.seed_info)}, '
        f'"roles": {_json(record.roles.to_json())}, "agents": {_encode_line(agents)}}}'
    )


@lru_cache(maxsize=16)
def _config_fields(config: GameConfig, types: tuple[type, ...]) -> str:
    """The header's config and config hash for `config`, whose values are of
    `types`. Every game of a tournament writes the same config, so these are
    encoded once; the types are part of the key because configs that hold
    values of other types (`1` for `True`) compare equal but are written as
    they are."""
    stored = asdict(config)
    return f'"config": {_encode_line(stored)}, "config_hash": {_quote(_config_hash(stored))}'


def _json(value: Any) -> str:
    """`_encode_line(value)`. Strings, bools, ints, None, lists and dicts
    whose keys are all strings, each of exactly that type, are written by
    template; any other value, such as a float, an int or str subclass or a
    dict with another key, goes through the encoder, which also rejects NaN
    and the infinities."""
    kind = type(value)
    if kind is str:
        return _quote(value)
    if kind is list:
        kinds = set(map(type, value))
        if kinds <= _STR:
            return f"[{', '.join(map(_quote, value))}]"
        if kinds <= _INT:
            return repr(value)  # a list of ints reprs as its JSON: [1, 2, 6]
        if kinds <= _BOOL:
            return f"[{', '.join(map(_BOOL_TEXT.__getitem__, value))}]"
        return f"[{', '.join(map(_json, value))}]"
    if kind is dict:
        if set(map(type, value)) <= _STR:
            return f"{{{', '.join([f'{_quote(key)}: {_json(item)}' for key, item in value.items()])}}}"
    elif kind is bool:
        return "true" if value else "false"
    elif kind is int:
        return repr(value)
    elif value is None:
        return "null"
    return _encode_line(value)


_STR, _INT, _BOOL = {str}, {int}, {bool}
_BOOL_TEXT = {True: "true", False: "false"}


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


# The keys a schema 1 or 2 event line may hold, with the JSON types of each;
# a missing payload or visibility takes its default, and any other key is an
# error.
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
    """Exact inverse of `write_record`, with schema and order validation.

    The loaded record's events are the engine's, whatever the schema: a
    schema 3 record's driven over its decision lines, a schema 1 or 2
    record's checked by `replay` against the events as written."""
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
    elif version not in (2, SCHEMA_VERSION):
        raise RecordSchemaError(f"{name}: line {lineno}: schema version {version!r}, expected {SCHEMA_VERSION}")
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
        seed_info = dict(_checked(header.get("seed", {}), (dict,), "seed"))
    except (KeyError, TypeError, ValueError, AttributeError, RuleError) as exc:
        raise RecordFormatError(f"{name}: line {lineno}: bad header: {exc!r}") from exc
    if _config_hash(stored_config) != header.get("config_hash"):
        raise RecordSchemaError(f"{name}: line {lineno}: config hash does not match the stored configuration")

    if version == SCHEMA_VERSION:
        moves, (outcome_lineno, outcome_row) = _decision_rows(rows, name)
        events = []
    else:
        events, (outcome_lineno, outcome_row) = _event_rows(rows, name)
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
    record = GameRecord(
        game_id=game_id,
        config=config,
        roles=roles,
        agents=agents,
        seed_info=seed_info,
        events=events,
        outcome=outcome,
        aborted=aborted,
        error=error,
    )
    if version == SCHEMA_VERSION:
        engine = _drive_checked(record, iter(moves), name, "line", lineno, outcome_lineno)
    else:
        engine = replay(record)
    record.events = engine.events
    return record


def _outcome_row(
    outcome: tuple[int, dict[str, Any]] | None, lineno: int, row: dict[str, Any], name: str
) -> tuple[int, dict[str, Any]]:
    """The outcome line `row` at `lineno`, the first one or an error."""
    if row["type"] != "outcome":
        raise RecordFormatError(f"{name}: line {lineno}: unknown type {row['type']!r}")
    if outcome is not None:
        raise RecordFormatError(f"{name}: line {lineno}: duplicate outcome line")
    return lineno, row


def _event_rows(
    rows: list[tuple[int, dict[str, Any]]], name: str
) -> tuple[list[EventLogEntry], tuple[int, dict[str, Any]]]:
    """A schema 1 or 2 record's events, in seq order, and its outcome line."""
    events: list[EventLogEntry] = []
    outcome: tuple[int, dict[str, Any]] | None = None
    for lineno, row in rows[1:]:
        if "type" in row:
            outcome = _outcome_row(outcome, lineno, row, name)
            continue
        if outcome is not None:
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
        if events and event.seq <= events[-1].seq:
            raise RecordFormatError(f"{name}: line {lineno}: event seq {event.seq} out of order")
        events.append(event)
    if outcome is None:
        raise RecordFormatError(f"{name}: line {rows[-1][0]}: the record ends with no outcome line")
    return events, outcome


def _decision_rows(
    rows: list[tuple[int, dict[str, Any]]], name: str
) -> tuple[list[tuple[Phase | None, tuple, int]], tuple[int, dict[str, Any]]]:
    """A schema 3 record's moves, each with its line number, and its outcome line."""
    moves: list[tuple[Phase | None, tuple, int]] = []
    outcome: tuple[int, dict[str, Any]] | None = None
    for lineno, row in rows[1:]:
        if "type" in row:
            outcome = _outcome_row(outcome, lineno, row, name)
            continue
        if outcome is not None:
            raise RecordFormatError(f"{name}: line {lineno}: decision after the outcome line")
        key = next(iter(row), None)
        line = _LINE_KINDS.get(key)
        if line is None:
            raise RecordFormatError(f"{name}: line {lineno}: unknown line kind {key!r}")
        try:
            if not line.keys.issuperset(row):
                raise ValueError(f"unknown key {min(row.keys() - line.keys)!r}")
            moves += [(line.phase, args, lineno) for args in line.moves(row)]
        except (KeyError, TypeError, ValueError) as exc:
            raise RecordFormatError(f"{name}: line {lineno}: bad {key} line: {exc!r}") from exc
    if outcome is None:
        raise RecordFormatError(f"{name}: line {rows[-1][0]}: the record ends with no outcome line")
    return moves, outcome


def iter_record_paths(directory: str | Path) -> list[Path]:
    return sorted(Path(directory).glob("*.jsonl"))


# ----- the decision stream ----------------------------------------------------


def _without(payload: dict[str, Any], engine_keys: tuple[str, ...]) -> dict[str, Any]:
    """`payload` less the keys the engine writes itself."""
    return {key: value for key, value in payload.items() if key not in engine_keys}


def _with_payload(line: dict[str, Any], payload: dict[str, Any]) -> dict[str, Any]:
    """`line`, with `payload` under "payload" when it is not empty."""
    if payload:
        line["payload"] = payload
    return line


def _payload(line: dict[str, Any]) -> dict[str, Any]:
    return _checked(line.get("payload", {}), (dict,), "payload")


def _team_line(step: list[EventLogEntry]) -> dict[str, Any]:
    event = step[0]
    line = {"team": event.payload["members"], "text": event.text}
    return _with_payload(line, _without(event.payload, ("members", "leader")))


def _team_text(step: list[EventLogEntry]) -> str:
    """`_json(_team_line(step))`, by template when the payload holds only the engine's keys."""
    event = step[0]
    payload = event.payload
    if len(payload) != 2 or "leader" not in payload:
        return _json(_team_line(step))
    return f'{{"team": {_json(payload["members"])}, "text": {_json(event.text)}}}'


def _team_moves(line: dict[str, Any]) -> list[tuple]:
    members = [_checked(p, (int,), "a member") for p in _checked(line["team"], (list,), "team")]
    return [(members, _checked(line["text"], (str,), "text"), _payload(line))]


def _speech_line(step: list[EventLogEntry]) -> dict[str, Any]:
    line: dict[str, Any] = {"speeches": [event.text for event in step]}
    if any(event.payload for event in step):
        line["payloads"] = [event.payload for event in step]
    return line


def _speech_text(step: list[EventLogEntry]) -> str:
    """`_json(_speech_line(step))`, by template when no speech has a payload."""
    if any(event.payload for event in step):
        return _json(_speech_line(step))
    return f'{{"speeches": {_json([event.text for event in step])}}}'


def _speech_moves(line: dict[str, Any]) -> list[tuple]:
    texts = _checked(line["speeches"], (list,), "speeches")
    payloads = _checked(line.get("payloads", [{}] * len(texts)), (list,), "payloads")
    if not texts or len(payloads) != len(texts):
        raise ValueError(f"{len(texts)} speeches with {len(payloads)} payloads")
    return [(_checked(t, (str,), "a speech"), _checked(p, (dict,), "a payload")) for t, p in zip(texts, payloads)]


def _ballot_line(step: list[EventLogEntry]) -> dict[str, Any]:
    payloads = [event.payload for event in step]
    line = {"approve": [p["approve"] for p in payloads], "reasoning": [p["reasoning"] for p in payloads]}
    # A payload of two keys holds only the two read above.
    rest = [_without(p, ("approve", "reasoning")) if len(p) > 2 else {} for p in payloads]
    if any(rest):
        line["payloads"] = rest
    return line


def _ballot_text(step: list[EventLogEntry]) -> str:
    """`_json(_ballot_line(step))`, by template when each ballot's payload
    holds two keys, which can only be its `approve` and `reasoning`."""
    payloads = [event.payload for event in step]
    if any(len(p) != 2 for p in payloads):
        return _json(_ballot_line(step))
    approvals, reasonings = [p["approve"] for p in payloads], [p["reasoning"] for p in payloads]
    return f'{{"approve": {_json(approvals)}, "reasoning": {_json(reasonings)}}}'


def _ballot_moves(line: dict[str, Any]) -> list[tuple]:
    approvals = _checked(line["approve"], (list,), "approve")
    reasonings = _checked(line["reasoning"], (list,), "reasoning")
    rest = _checked(line.get("payloads", [{}] * NUM_PLAYERS), (list,), "payloads")
    if not len(approvals) == len(reasonings) == len(rest) == NUM_PLAYERS:
        raise ValueError(
            f"a team vote has {NUM_PLAYERS} ballots, got {len(approvals)} approvals, "
            f"{len(reasonings)} reasonings and {len(rest)} payloads"
        )
    ballots, payloads = {}, {}
    for seat, approve, reasoning, more in zip(ALL_SEATS, approvals, reasonings, rest):
        ballots[seat] = _checked(approve, (bool,), "approve")
        payloads[seat] = {"reasoning": reasoning, **_checked(more, (dict,), "a payload")}
    return [(ballots, payloads)]


def _quest_line(step: list[EventLogEntry]) -> dict[str, Any]:
    return {"quest": {}}


def _quest_moves(line: dict[str, Any]) -> list[tuple]:
    if _checked(line["quest"], (dict,), "quest"):
        raise ValueError(f"a quest holds no decision, got {line['quest']!r}")
    return [()]


def _assassination_line(step: list[EventLogEntry]) -> dict[str, Any]:
    event = step[0]
    return _with_payload({"target": event.payload["target"]}, _without(event.payload, ("target", "hit")))


def _assassination_moves(line: dict[str, Any]) -> list[tuple]:
    return [(_checked(line["target"], (int,), "target"), _payload(line))]


def _audit_line(step: list[EventLogEntry]) -> dict[str, Any]:
    event = step[0]
    return _with_payload({"audit": event.kind._value_, "actor": event.actor, "text": event.text}, event.payload)


def _audit_moves(line: dict[str, Any]) -> list[tuple]:
    # An agent's diagnostic is the one kind of audit event a game emits.
    if line["audit"] != EventKind.AGENT_ERROR._value_:
        raise ValueError(f"an audit note is an {EventKind.AGENT_ERROR._value_!r}, got {line['audit']!r}")
    actor = _checked(line["actor"], (int, type(None)), "actor")
    return [(EventKind.AGENT_ERROR, _checked(line["text"], (str,), "text"), actor, _payload(line))]


class _Line(NamedTuple):
    """One kind of decision line: the phase whose transition it feeds (None
    for an audit note), the key that names it (its first), every key it may
    hold, the line from the recorded events of one step, and the moves a
    line holds, each the arguments of one transition (an audit note's:
    `emit`'s), less the actor that the engine names itself. The lines a
    game writes most often also have a template, `text`, for their JSON."""

    phase: Phase | None
    key: str
    keys: frozenset[str]
    line: Callable[[list[EventLogEntry]], dict[str, Any]]
    moves: Callable[[dict[str, Any]], list[tuple]]
    text: Callable[[list[EventLogEntry]], str] | None = None


# The one table of what a decision is, that the writer, the loader and
# `replay` all read.
_TEAM = _Line(
    Phase.TEAM_SELECTION, "team", frozenset(("team", "text", "payload")), _team_line, _team_moves, _team_text
)
_SPEECHES = _Line(
    Phase.DISCUSSION, "speeches", frozenset(("speeches", "payloads")), _speech_line, _speech_moves, _speech_text
)
_BALLOTS = _Line(
    Phase.TEAM_VOTE, "approve", frozenset(("approve", "reasoning", "payloads")), _ballot_line, _ballot_moves,
    _ballot_text,
)
_QUEST = _Line(Phase.QUEST_EXECUTION, "quest", frozenset(("quest",)), _quest_line, _quest_moves)
_TARGET = _Line(
    Phase.ASSASSINATION, "target", frozenset(("target", "payload")), _assassination_line, _assassination_moves
)
_AUDIT = _Line(None, "audit", frozenset(("audit", "actor", "text", "payload")), _audit_line, _audit_moves)
_LINES = (_TEAM, _SPEECHES, _BALLOTS, _QUEST, _TARGET, _AUDIT)
# Each line kind by its first key.
_LINE_KINDS = {line.key: line for line in _LINES}
# The line of the step each non-audit event kind records, by the kind's
# value; the other kinds (moderator notes) are engine output. So is a
# ballot result that is public.
_STEP_LINES = {
    EventKind.TEAM_PROPOSED._value_: _TEAM,
    EventKind.DISCUSSION._value_: _SPEECHES,
    EventKind.BALLOT_RESULT._value_: _BALLOTS,
    EventKind.QUEST_RESULT._value_: _QUEST,
    EventKind.ASSASSINATION_RESULT._value_: _TARGET,
}


def _steps(events: Iterable[EventLogEntry]) -> Iterator[tuple[_Line, list[EventLogEntry]]]:
    """A record's events as the steps of its decision stream, in order, each
    with its line: a discussion's speeches together, a team vote's private
    ballots together, and every other decision and each audit event alone.
    The events the engine emits itself are passed over."""
    lines, runs = _STEP_LINES, (_SPEECHES, _BALLOTS)
    line: _Line | None = None
    step: list[EventLogEntry] = []
    for event in events:
        visibility = event.visibility
        if visibility == AUDIT:
            this = _AUDIT
        else:
            this = lines.get(event.kind._value_)
            if this is None or (this is _BALLOTS and visibility == PUBLIC):
                continue
        if step and (this is not line or this not in runs):
            yield line, step
            step = []
        line = this
        step.append(event)
    if step:
        yield line, step


class _Decisions:
    """A `drive` callback over a decision stream of (phase, arguments,
    where) moves; phase None is an audit note.

    Each call emits, as they stand, the audit notes ahead of the next
    decision (the engine stamps their seq, round and phase). It then returns
    that decision's transition arguments, with the speaker or the assassin
    that the engine names. It returns None when the next decision is not of
    the engine's phase or the moves run out, so a game stops where its
    decisions stop, aborted or not. `where` is the last move's place.
    """

    def __init__(self, moves: Iterator[tuple[Phase | None, tuple, Any]]) -> None:
        self._moves = moves
        self._pending: Any = None
        self.where: Any = None

    def __call__(self, engine: GameEngine) -> tuple | None:
        for phase, args, where in self._moves:
            self.where = where
            if phase is None:
                engine.emit(*args, AUDIT)
            elif phase is not engine.state.phase:
                self._pending = where
                return None
            elif phase is Phase.DISCUSSION:
                return (engine.next_speaker(), *args)
            elif phase is Phase.ASSASSINATION:
                return (engine.assassin_seat, *args)
            else:
                return args
        return None

    def left_over(self) -> Any:
        """The place of the first move not played, or None."""
        if self._pending is not None:
            return self._pending
        move = next(self._moves, None)
        return None if move is None else move[2]


def _recorded_moves(record: GameRecord) -> Iterator[tuple[Phase | None, tuple, int]]:
    """The moves of `record.events`, walked once and in order, each with the
    seq where its step starts: what `replay` drives the engine over."""
    for line, step in _steps(record.events):
        try:
            moves = line.moves(line.line(step))
        except (KeyError, TypeError, ValueError) as exc:
            event = step[0]
            raise ReplayMismatch(
                f"{record.game_id}: recorded seq {event.seq} holds a malformed "
                f"{event.kind.value} action: {exc!r}"
            ) from exc
        for args in moves:
            yield line.phase, args, step[0].seq


# ----- replay verification ----------------------------------------------------


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
    return _drive_checked(record, _recorded_moves(record), record.game_id, "seq", recorded=record.events)


def _drive_checked(
    record: GameRecord,
    moves: Iterator[tuple[Phase | None, tuple, int]],
    source: str,
    unit: str,
    header: int | None = None,
    end: int | None = None,
    recorded: list[EventLogEntry] | None = None,
) -> GameEngine:
    """A fresh engine for `record`'s config, roles and engine seed, driven
    over `moves`, each at a place (a line number or a seq).

    The engine must take every move, rebuild `recorded` field for field
    when it is given, and stop where the record does, with its outcome.
    Errors name `source` and, as `<unit> <place>`, the move's place, or
    `header` or `end` (the places of the engine seed and of the outcome,
    None where the record has none)."""

    def at(place: int | None) -> str:
        return source if place is None else f"{source}: {unit} {place}"

    seed = record.seed_info.get("engine_seed")
    if type(seed) is not int:
        raise RecordSchemaError(f"{at(header)}: the record carries no engine seed")
    engine = GameEngine(record.config, record.roles.as_dict(), seed)
    decisions = _Decisions(moves)
    try:
        drive(engine, decisions)
    except RuleError as exc:
        # A decision the rules engine rejects means the record cannot be an
        # honest transcript of a real game.
        raise ReplayMismatch(f"{at(decisions.where)}: the rules reject this decision: {exc}") from exc
    if recorded is not None:
        # Past the end of the shorter log, one side is None.
        for want, got in zip_longest(recorded, engine.events):
            if want is None or got is None or not _same_event(want, got):
                raise ReplayMismatch(
                    f"{source}: seq {(want or got).seq} differs:\n"
                    f"  recorded: {want and want.to_dict()}\n"
                    f"  replayed: {got and got.to_dict()}"
                )
    left = decisions.left_over()
    if left is not None:
        due = "after the game ended" if engine.finished else f"in {engine.state.phase.value}"
        raise ReplayMismatch(f"{at(left)}: no such decision is due {due}")
    if record.aborted == engine.finished:
        stopped = "the game ends" if engine.finished else f"the game stops in {engine.state.phase.value}"
        raise ReplayMismatch(
            f"{at(end)}: the record is {'aborted' if record.aborted else 'complete'}, "
            f"but {stopped} where its decisions run out"
        )
    if record.outcome != engine.outcome:
        want_outcome = record.outcome and record.outcome.to_dict()
        got_outcome = engine.outcome and engine.outcome.to_dict()
        raise ReplayMismatch(f"{at(end)}: outcome diverged: recorded {want_outcome}, replayed {got_outcome}")
    return engine
