"""Parsers that turn free-form agent text into engine actions.

Team selections accept "player N" references, enumerations like
"players 2, 3 and 6", bare bracketed lists, and "myself"/"me" as the
speaking seat. Votes accept the first well-formed JSON object carrying
``reasoning`` and ``vote`` fields; the vote value is matched
case-insensitively. Parsers fail loudly with typed errors so callers can
reprompt once and then fall back.
"""

from __future__ import annotations

import json
import re

from .game import ALL_SEATS

_BRACKET_LIST = re.compile(r"\[\s*(\d+(?:\s*,\s*\d+)*)\s*\]")
_PLAYER_ENUM = re.compile(
    r"\bplayers?\s+(\d+(?:(?:\s*,\s*(?:and\s+)?|\s+and\s+|\s*&\s*)(?:players?\s+)?\d+)*)",
    re.IGNORECASE,
)
_SELF_REF = re.compile(r"\b(?:myself|me)\b", re.IGNORECASE)
_NUMBER = re.compile(r"\d+")


class ParseError(Exception):
    """Base for text that cannot be turned into a legal action."""

    def __init__(self, message: str, ids: list[int] | None = None) -> None:
        super().__init__(message)
        self.ids = ids or []


class NoPlayersFound(ParseError):
    pass


class WrongSize(ParseError):
    pass


class InvalidPlayerRef(ParseError):
    pass


class VoteParseError(ParseError):
    pass


def extract_player_ids(text: str, speaker: int | None = None) -> list[int]:
    """All seat references in order of first mention, deduplicated."""
    ids: list[int] = []

    def _push(value: int) -> None:
        if value not in ids:
            ids.append(value)

    for m in _BRACKET_LIST.finditer(text):
        for num in _NUMBER.findall(m.group(1)):
            _push(int(num))
    for m in _PLAYER_ENUM.finditer(text):
        for num in _NUMBER.findall(m.group(1)):
            _push(int(num))
    if speaker is not None and _SELF_REF.search(text):
        _push(speaker)
    return ids


def parse_team_selection(text: str, speaker: int | None, required_n: int) -> frozenset[int]:
    ids = extract_player_ids(text, speaker)
    if not ids:
        raise NoPlayersFound("no player references found in the reply", ids)
    bad = [p for p in ids if p not in ALL_SEATS]
    if bad:
        raise InvalidPlayerRef(f"no such seats: {bad}", ids)
    if len(ids) != required_n:
        raise WrongSize(f"need exactly {required_n} distinct players, found {len(ids)}", ids)
    return frozenset(ids)


_DECODER = json.JSONDecoder()
# A JSON object opens with "{", any JSON whitespace, then '"' or "}"; the
# decoder rejects any other "{" at once, so only these are decoded.
_OBJECT_START = re.compile(r'\{[ \t\n\r]*["}]')


def extract_json_objects(text: str) -> list[dict]:
    """Top-level JSON objects in the text, left to right: at each ``{``,
    the object that starts there, if any; the scan goes on after it. An
    object nested too deeply to decode counts as no object."""
    objects: list[dict] = []
    # An object ends at a "}", so none starts after the last one.
    last = text.rfind("}") + 1
    start = _OBJECT_START.search(text, 0, last)
    while start:
        i = start.start()
        try:
            obj, end = _DECODER.raw_decode(text, i)
        except (json.JSONDecodeError, RecursionError):
            end = i + 1
        else:
            objects.append(obj)
        start = _OBJECT_START.search(text, end, last)
    return objects


def parse_vote(text: str) -> tuple[str, bool]:
    """(reasoning, approve) from the first well-formed JSON object."""
    objects = extract_json_objects(text)
    if not objects:
        raise VoteParseError("no JSON object found in the reply")
    obj = objects[0]
    if "reasoning" not in obj or "vote" not in obj:
        raise VoteParseError("the JSON object must contain 'reasoning' and 'vote' fields")
    reasoning = obj["reasoning"]
    vote = obj["vote"]
    if not isinstance(reasoning, str) or not isinstance(vote, str):
        raise VoteParseError("'reasoning' and 'vote' must be strings")
    vote_norm = vote.strip().lower()
    if vote_norm not in ("approve", "reject"):
        raise VoteParseError(f"vote must be 'approve' or 'reject', got {vote!r}")
    return reasoning, vote_norm == "approve"


_FENCE = re.compile(r"```(?:python|py)?\s*\n(.*?)```", re.DOTALL)
_ACTION_OUTPUT = re.compile(
    r"Action\s+Output\s*:\s*\n?(.*?)(?:\nObservation\s*:|\nFinal Answer\s*:|\Z)",
    re.DOTALL | re.IGNORECASE,
)
_ACTION_BLOCK = re.compile(
    r"Action\s*:\s*(?:Python_REPL\s*\n)?(.*?)(?:\nObservation\s*:|\nFinal Answer\s*:|\Z)",
    re.DOTALL | re.IGNORECASE,
)


def extract_program(text: str) -> str:
    """The program portion of a code-generation reply.

    Preference order: fenced code block, an ``Action Output:`` block, an
    ``Action:`` block, then the raw text.
    """
    m = _FENCE.search(text)
    if m:
        return m.group(1).strip()
    for pattern in (_ACTION_OUTPUT, _ACTION_BLOCK):
        m = pattern.search(text)
        if m and m.group(1).strip():
            return m.group(1).strip()
    return text.strip()
