"""Two-tier agent memory.

Each agent keeps a global memory: an append-only list of key information
plus a sliding window of the most recent k visible events (k = 15 by
default). Whether a discussion line counts as key information is decided
by a fixed, auditable pattern list; moderator notes, proposals, ballot
results, and quest results always do.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache

from .events import EventKind, EventLogEntry
from .game import QuestOutcome, sabotage_clause
from .templates import join_players, load_template, render

DEFAULT_WINDOW = 15

_ALWAYS_KEY_KINDS = frozenset(
    {
        EventKind.MODERATOR_NOTE,
        EventKind.TEAM_PROPOSED,
        EventKind.BALLOT_RESULT,
        EventKind.QUEST_RESULT,
    }
)


@lru_cache(maxsize=None)
def _key_info_patterns() -> tuple[re.Pattern[str], ...]:
    raw = load_template("key_info_patterns")
    patterns = []
    for line in raw.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        patterns.append(re.compile(line, re.IGNORECASE))
    return tuple(patterns)


def is_key_info(entry: EventLogEntry) -> bool:
    """Fixed classifier for long-term retention.

    This is a deliberate approximation: it flags role-name mentions and
    explicit side claims, not every strategically relevant remark.
    """
    if entry.kind in _ALWAYS_KEY_KINDS:
        return True
    if entry.kind is EventKind.DISCUSSION:
        return any(p.search(entry.text) for p in _key_info_patterns())
    return False


@dataclass
class GlobalMemory:
    owner: int
    k: int = DEFAULT_WINDOW
    key_info: list[EventLogEntry] = field(default_factory=list)
    window: deque[EventLogEntry] = field(default_factory=deque)
    seen: int = field(default=0, init=False)  # events of the game log ingested so far

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("window size must be at least 1")
        self.window = deque(self.window, maxlen=self.k)

    def ingest_event(self, entry: EventLogEntry) -> bool:
        """Store a visible event; entries for other seats are skipped."""
        if not entry.visible_to(self.owner):
            return False
        self.window.append(entry)
        if is_key_info(entry):
            self.key_info.append(entry)
        return True

    def catch_up(self, events: list[EventLogEntry]) -> None:
        """Ingest the entries of a game's event log not yet seen, in order."""
        for entry in events[self.seen:]:
            self.ingest_event(entry)
        self.seen = len(events)

    def evicted_key_info(self) -> list[EventLogEntry]:
        """Key entries no longer inside the recency window."""
        window_seqs = {e.seq for e in self.window}
        return [e for e in self.key_info if e.seq not in window_seqs]


@dataclass(frozen=True)
class PublicFact:
    round: int
    team: frozenset[int]
    success: bool
    sabotage_count: int | None = None

    def render(self) -> str:
        round_phrase = "the initial round" if self.round == 1 else f"round {self.round}"
        clause = sabotage_clause(self.sabotage_count) if self.sabotage_count is not None else ""
        return render(
            "fact_public_quest",
            round_phrase=round_phrase,
            players=join_players(self.team),
            result="success" if self.success else "failure",
            sabotage_clause=clause,
        )


def public_facts_from_history(
    quest_history: list[QuestOutcome], reveal_sabotage_count: bool
) -> tuple[PublicFact, ...]:
    return tuple(
        PublicFact(
            round=q.round,
            team=q.team,
            success=q.success,
            sabotage_count=q.sabotage_count if reveal_sabotage_count else None,
        )
        for q in sorted(quest_history, key=lambda q: q.round)
    )
