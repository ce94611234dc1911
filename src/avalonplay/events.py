"""Append-only event log shared by the game engine, memories, and records.

Every state transition in a game appends at least one entry here. Entries
carry a visibility tag so that per-player memories and rendered prompts can
be filtered without ever exposing another seat's secrets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any

PUBLIC = "public"
# Audit-only entries are kept in the record for replay/analysis but are
# invisible to every seat (they never enter a memory or a prompt).
AUDIT = "audit"


def private_to(player: int) -> str:
    return f"private:{player}"


class EventKind(str, Enum):
    MODERATOR_NOTE = "moderator_note"
    DISCUSSION = "discussion"
    TEAM_PROPOSED = "team_proposed"
    BALLOT_RESULT = "ballot_result"
    QUEST_RESULT = "quest_result"
    ASSASSINATION_RESULT = "assassination_result"
    AGENT_ERROR = "agent_error"


@dataclass
class EventLogEntry:
    seq: int
    round: int
    attempt: int
    phase: str
    actor: int | None  # None means the moderator
    kind: EventKind
    text: str
    payload: dict[str, Any] = field(default_factory=dict)
    visibility: str = PUBLIC

    def visible_to(self, player: int) -> bool:
        return self.visibility == PUBLIC or self.visibility == private_to(player)

    def speaker_label(self) -> str:
        return "Moderator" if self.actor is None else f"Player {self.actor}"

    def to_dict(self) -> dict[str, Any]:
        # `_value_` skips the `Enum.value` descriptor, as `GameEngine.emit` does.
        return {
            "seq": self.seq,
            "round": self.round,
            "attempt": self.attempt,
            "phase": self.phase,
            "actor": self.actor,
            "kind": self.kind._value_,
            "text": self.text,
            "payload": self.payload,
            "visibility": self.visibility,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "EventLogEntry":
        return cls(
            seq=data["seq"],
            round=data["round"],
            attempt=data["attempt"],
            phase=data["phase"],
            actor=data["actor"],
            kind=EventKind(data["kind"]),
            text=data["text"],
            payload=data.get("payload", {}),
            visibility=data.get("visibility", PUBLIC),
        )
