"""Seven-player hidden-role game engine.

Implements the fixed rule set: five quest rounds with team sizes 2/3/3/4/4,
sabotage thresholds 1/1/1/2/2, secret approval ballots needing a majority of
4, at most five proposal attempts per round (the fifth proceeds without
approval), mandatory sabotage by evil team members, and an optional
assassination phase when the just side wins three quests. These rules are
module constants; `GameConfig` holds only the toggles a game may vary.

The engine is deterministic given its seed and the submitted actions; every
transition appends to an event log that downstream memories, records, and
the analyzer consume. Beyond that log and `GameState`, the engine keeps only
what the next transition needs: the current attempt's team and how many
seats have spoken on it; what became of past proposals is in the log.
`drive` is the one phase loop over the engine: live play and record replay
differ only in where each decision comes from.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Iterable

from .events import AUDIT, PUBLIC, EventKind, EventLogEntry, private_to
from .templates import join_players

NUM_PLAYERS = 7
TEAM_SIZES = (2, 3, 3, 4, 4)
SABOTAGE_THRESHOLDS = (1, 1, 1, 2, 2)
MAJORITY = 4
MAX_PROPOSAL_ATTEMPTS = 5
ALL_SEATS = tuple(range(1, NUM_PLAYERS + 1))


class RuleError(Exception):
    """Base class for rule and protocol violations."""


class ValidationError(RuleError):
    pass


class ProtocolError(RuleError):
    pass


class SizeViolation(RuleError):
    pass


class InvalidPlayer(RuleError):
    pass


class IncompleteBallot(RuleError):
    pass


class Side(str, Enum):
    JUST = "just"
    EVIL = "evil"


class Role(str, Enum):
    MERLIN = "Merlin"
    PERCIVAL = "Percival"
    SERVANT = "Servant"
    MORGANA = "Morgana"
    ASSASSIN = "Assassin"
    MINION = "Minion"

    @property
    def side(self) -> Side:
        if self in (Role.MERLIN, Role.PERCIVAL, Role.SERVANT):
            return Side.JUST
        return Side.EVIL


# The deck dealt to seats 1..7: one Merlin, one Percival, two Servants,
# one Morgana, one Assassin, one Minion.
ROLE_DECK = (
    Role.MERLIN,
    Role.PERCIVAL,
    Role.SERVANT,
    Role.SERVANT,
    Role.MORGANA,
    Role.ASSASSIN,
    Role.MINION,
)


class Phase(str, Enum):
    LEADER_ASSIGNMENT = "leader_assignment"
    TEAM_SELECTION = "team_selection"
    DISCUSSION = "discussion"
    TEAM_VOTE = "team_vote"
    QUEST_EXECUTION = "quest_execution"
    ASSASSINATION = "assassination"
    FINISHED = "finished"


@dataclass(frozen=True)
class GameConfig:
    """The game's toggles; the rules themselves are the constants above."""

    communication_enabled: bool = True
    reveal_sabotage_count: bool = False
    assassination_enabled: bool = True
    play_all_rounds: bool = False
    memory_window: int = 15

    def validate(self) -> None:
        if self.memory_window < 1:
            raise ValidationError("memory window must be at least 1")


@dataclass(frozen=True)
class QuestOutcome:
    round: int
    team: frozenset[int]
    sabotage_count: int
    success: bool


@dataclass(frozen=True)
class GameOutcome:
    quest_winner: Side
    assassination_target: int | None = None
    assassination_hit: bool | None = None

    @property
    def overall_winner(self) -> Side:
        # A successful assassination flips the final result to evil even
        # though the quest record still shows a just quest win.
        if self.assassination_hit:
            return Side.EVIL
        return self.quest_winner

    def to_dict(self) -> dict[str, Any]:
        return {
            "quest_winner": self.quest_winner.value,
            "assassination_target": self.assassination_target,
            "assassination_hit": self.assassination_hit,
            "overall_winner": self.overall_winner.value,
        }


@dataclass
class GameState:
    config: GameConfig
    round: int = 1
    attempt: int = 1
    leader: int | None = None
    phase: Phase = Phase.LEADER_ASSIGNMENT
    quest_history: list[QuestOutcome] = field(default_factory=list)

    @property
    def successes(self) -> int:
        return sum(1 for q in self.quest_history if q.success)

    @property
    def failures(self) -> int:
        return sum(1 for q in self.quest_history if not q.success)

    def team_size(self) -> int:
        return TEAM_SIZES[self.round - 1]

    def threshold(self) -> int:
        return SABOTAGE_THRESHOLDS[self.round - 1]


def new_game(config: GameConfig) -> GameState:
    """Validated initial state: round 1, attempt 1, no leader drawn yet."""
    config.validate()
    return GameState(config=config)


def rotate_leader(current: int) -> int:
    """Next seat in ascending order, wrapping 7 back to 1."""
    if current not in ALL_SEATS:
        raise InvalidPlayer(f"no such seat: {current}")
    return 1 if current == NUM_PLAYERS else current + 1


def tally_approval(ballots: dict[int, bool]) -> bool:
    """True when approvals reach the majority of 4 out of 7."""
    if set(ballots) != set(ALL_SEATS):
        raise IncompleteBallot(f"expected ballots from seats 1..7, got {sorted(ballots)}")
    return sum(1 for v in ballots.values() if v) >= MAJORITY


def resolve_quest(round_no: int, team: Iterable[int], roles: dict[int, Role]) -> QuestOutcome:
    """Deterministic quest resolution under mandatory sabotage.

    Every evil member always sabotages, so the sabotage count equals the
    number of evil seats on the team and the quest fails exactly when that
    count reaches the round's threshold.
    """
    members = frozenset(team)
    for p in members:
        if p not in roles:
            raise InvalidPlayer(f"no such seat: {p}")
    if round_no < 1 or round_no > len(SABOTAGE_THRESHOLDS):
        raise ValidationError(f"round out of range: {round_no}")
    sabotage = sum(1 for p in members if roles[p].side is Side.EVIL)
    return QuestOutcome(
        round=round_no,
        team=members,
        sabotage_count=sabotage,
        success=sabotage < SABOTAGE_THRESHOLDS[round_no - 1],
    )


def check_game_end(state: GameState) -> GameOutcome | None:
    """Quest-phase winner, if already decided under the state's mode.

    With early termination (the default) the game ends the moment one side
    reaches three quests. With play_all_rounds the decision is deferred to
    the end of round 5; the winner is the side that reached three first,
    which is also the side holding the majority of the five quests.
    """
    if state.config.play_all_rounds and len(state.quest_history) < len(TEAM_SIZES):
        return None
    if state.successes >= 3:
        return GameOutcome(quest_winner=Side.JUST)
    if state.failures >= 3:
        return GameOutcome(quest_winner=Side.EVIL)
    return None


# Moderator texts emitted by the engine. The team announcement keeps the
# bracketed quoted-name list format used in live transcripts.
TEAM_ANNOUNCE_DISCUSS = (
    "The selected team by the leader include {team_literal}. "
    "Now everyone discuss if you agree the team."
)
TEAM_ANNOUNCE_VOTE = (
    "The selected team by the leader include {team_literal}. "
    "Now everyone secretly vote if you agree the team."
)
LEADER_NOTE_ROUND = "Player {leader} is the leader for round {round}."
LEADER_NOTE_ROTATION = "Player {leader} is now the leader."
BALLOT_PRIVATE_NOTE = "You voted to {vote} the team."
BALLOT_PUBLIC_NOTE = "The team is {result} with {approvals} approvals and {rejections} rejections."
FORCED_NOTE = (
    "After five rejected proposals this round, the last proposed team "
    "proceeds to the quest without approval."
)
QUEST_RESULT_NOTE = "The round-{round} quest ended in {result}.{sabotage_clause}"
ASSASSINATION_NOTE = "Player {assassin} has attempted to assassinate player {target}. {hit_clause}"


def team_literal(members: Iterable[int]) -> str:
    """Bracketed list of quoted seat names, e.g. ['player 2', 'player 3']."""
    return "[" + ", ".join(f"'player {p}'" for p in sorted(members)) + "]"


def sabotage_clause(n: int) -> str:
    """The sentence disclosing a quest's sabotage count, with a leading space."""
    return f" {n} sabotage vote{'s were' if n != 1 else ' was'} cast."


class GameEngine:
    """Drives one game: validates actions, mutates state, appends events."""

    def __init__(self, config: GameConfig, roles: dict[int, Role], seed: int) -> None:
        validate_roles(roles)
        self.state = new_game(config)
        self.roles = dict(roles)
        self.events: list[EventLogEntry] = []
        self._rng = random.Random(seed)
        self._team: frozenset[int] | None = None
        self._spoken = 0  # discussion speakers so far: seats 1.._spoken
        self._outcome: GameOutcome | None = None

    # ----- event helpers -------------------------------------------------

    def emit(
        self,
        kind: EventKind,
        text: str,
        actor: int | None = None,
        payload: dict[str, Any] | None = None,
        visibility: str = PUBLIC,
    ) -> EventLogEntry:
        """Append an event stamped with the next seq and the current round,
        attempt and phase. Replay re-emits recorded audit events here.
        This runs for every event of every game, so the entry is built
        positionally and the phase read as `_value_`, which skips the
        `Enum.value` descriptor."""
        st = self.state
        entry = EventLogEntry(
            len(self.events) + 1, st.round, st.attempt, st.phase._value_, actor, kind, text, payload or {}, visibility
        )
        self.events.append(entry)
        return entry

    def log_agent_error(self, actor: int | None, reason: str, detail: str, payload: dict[str, Any] | None = None) -> None:
        data = _with_engine_keys({"reason": reason, "detail": detail}, payload)
        self.emit(EventKind.AGENT_ERROR, f"agent error ({reason}): {detail}", actor=actor, payload=data, visibility=AUDIT)

    # ----- derived accessors ---------------------------------------------

    @property
    def current_team(self) -> frozenset[int] | None:
        """The members of the team proposed in this attempt, until its quest resolves."""
        return self._team

    @property
    def assassin_seat(self) -> int:
        return next(p for p, r in self.roles.items() if r is Role.ASSASSIN)

    @property
    def finished(self) -> bool:
        return self.state.phase is Phase.FINISHED

    @property
    def outcome(self) -> GameOutcome | None:
        return self._outcome if self.finished else None

    def next_speaker(self) -> int | None:
        if self.state.phase is not Phase.DISCUSSION:
            return None
        return self._spoken + 1 if self._spoken < NUM_PLAYERS else None

    def expected_actors(self) -> set[int]:
        phase = self.state.phase
        if phase is Phase.TEAM_SELECTION:
            return {self.state.leader} if self.state.leader else set()
        if phase is Phase.DISCUSSION:
            speaker = self.next_speaker()
            return {speaker} if speaker else set()
        if phase is Phase.TEAM_VOTE:
            return set(ALL_SEATS)
        if phase is Phase.QUEST_EXECUTION:
            return set(self._team) if self._team else set()
        if phase is Phase.ASSASSINATION:
            return {self.assassin_seat}
        return set()

    # ----- transitions ----------------------------------------------------

    def assign_first_leader(self) -> int:
        st = self.state
        if st.phase is not Phase.LEADER_ASSIGNMENT or st.round != 1 or st.leader is not None:
            raise ProtocolError("first leader can only be drawn once, at the start of round 1")
        return self._open_round(self._rng.randint(1, NUM_PLAYERS))

    def assign_next_leader(self) -> int:
        st = self.state
        if st.phase is not Phase.LEADER_ASSIGNMENT or st.round == 1:
            raise ProtocolError("next-round leader assignment requires a resolved quest")
        # The leader rotates only on a rejection, so the seat still leading
        # is the one whose team went on the last quest.
        return self._open_round(rotate_leader(st.leader))

    def _open_round(self, leader: int) -> int:
        """Seat `leader` for this round, announce it, and open team selection."""
        st = self.state
        st.leader = leader
        self.emit(
            EventKind.MODERATOR_NOTE,
            LEADER_NOTE_ROUND.format(leader=leader, round=st.round),
            payload={"leader": leader, "round": st.round},
        )
        st.phase = Phase.TEAM_SELECTION
        return leader

    def propose_team(
        self,
        members: Iterable[int],
        text: str | None = None,
        payload: dict[str, Any] | None = None,
    ) -> None:
        st = self.state
        if st.phase is not Phase.TEAM_SELECTION:
            raise ProtocolError(f"cannot propose a team during {st.phase.value}")
        team = frozenset(members)
        for p in team:
            if not isinstance(p, int) or p not in ALL_SEATS:
                raise InvalidPlayer(f"no such seat: {p}")
        need = st.team_size()
        if len(team) != need:
            raise SizeViolation(f"round {st.round} needs a team of {need}, got {len(team)}")
        self._team = team
        data = _with_engine_keys({"members": sorted(team), "leader": st.leader}, payload)
        utterance = text if text is not None else (
            "I choose " + join_players(team, lambda p: f"player {p}") + " for the quest."
        )
        self.emit(EventKind.TEAM_PROPOSED, utterance, actor=st.leader, payload=data)
        if st.config.communication_enabled:
            st.phase = Phase.DISCUSSION
            self._spoken = 0
            announce = TEAM_ANNOUNCE_DISCUSS.format(team_literal=team_literal(team))
        else:
            st.phase = Phase.TEAM_VOTE
            announce = TEAM_ANNOUNCE_VOTE.format(team_literal=team_literal(team))
        self.emit(EventKind.MODERATOR_NOTE, announce, payload={"members": sorted(team)})

    def add_discussion(self, speaker: int, text: str, payload: dict[str, Any] | None = None) -> None:
        st = self.state
        if st.phase is not Phase.DISCUSSION:
            raise ProtocolError(f"no discussion during {st.phase.value}")
        expected = self.next_speaker()
        if speaker != expected:
            raise ProtocolError(f"it is player {expected}'s turn to speak, not player {speaker}'s")
        self._spoken += 1
        self.emit(EventKind.DISCUSSION, text, actor=speaker, payload=payload or {})
        if self._spoken == NUM_PLAYERS:
            st.phase = Phase.TEAM_VOTE

    def submit_ballots(
        self,
        ballots: dict[int, bool],
        payloads: dict[int, dict[str, Any]] | None = None,
    ) -> bool:
        st = self.state
        if st.phase is not Phase.TEAM_VOTE:
            raise ProtocolError(f"cannot vote during {st.phase.value}")
        approved = tally_approval(ballots)
        payloads = payloads or {}
        for seat in ALL_SEATS:
            vote = ballots[seat]
            self.emit(
                EventKind.BALLOT_RESULT,
                BALLOT_PRIVATE_NOTE.format(vote="approve" if vote else "reject"),
                actor=seat,
                payload=_with_engine_keys({"approve": vote}, payloads.get(seat)),
                visibility=private_to(seat),
            )
        n_approve = sum(1 for v in ballots.values() if v)
        forced = not approved and st.attempt == MAX_PROPOSAL_ATTEMPTS
        self.emit(
            EventKind.BALLOT_RESULT,
            BALLOT_PUBLIC_NOTE.format(
                result="approved" if approved else "rejected",
                approvals=n_approve,
                rejections=NUM_PLAYERS - n_approve,
            ),
            payload={"approved": approved, "approvals": n_approve, "forced": forced},
        )
        if approved:
            st.phase = Phase.QUEST_EXECUTION
        elif forced:
            self.emit(EventKind.MODERATOR_NOTE, FORCED_NOTE, payload={"forced": True})
            st.phase = Phase.QUEST_EXECUTION
        else:
            st.attempt += 1
            st.leader = rotate_leader(st.leader)
            st.phase = Phase.TEAM_SELECTION
            self.emit(
                EventKind.MODERATOR_NOTE,
                LEADER_NOTE_ROTATION.format(leader=st.leader),
                payload={"leader": st.leader, "round": st.round},
            )
        return approved or forced

    def resolve_current_quest(self, quest_votes: dict[int, bool] | None = None) -> QuestOutcome:
        st = self.state
        if st.phase is not Phase.QUEST_EXECUTION:
            raise ProtocolError(f"cannot run a quest during {st.phase.value}")
        team = self._team
        outcome = resolve_quest(st.round, team, self.roles)
        if quest_votes:
            # Quest ballots are forced by side; a contrary attempt is
            # overridden and kept in the audit trail.
            for seat in sorted(quest_votes):
                if seat not in team:
                    raise ProtocolError(f"player {seat} is not on the quest team")
                expected = self.roles[seat].side is Side.JUST
                if quest_votes[seat] != expected:
                    self.log_agent_error(
                        seat,
                        "quest_vote_override",
                        f"player {seat} attempted a quest vote contrary to its side",
                        {"attempted": quest_votes[seat], "enforced": expected},
                    )
        st.quest_history.append(outcome)
        clause = sabotage_clause(outcome.sabotage_count) if st.config.reveal_sabotage_count else ""
        self.emit(
            EventKind.QUEST_RESULT,
            QUEST_RESULT_NOTE.format(
                round=outcome.round,
                result="success" if outcome.success else "failure",
                sabotage_clause=clause,
            ),
            payload={
                "round": outcome.round,
                "team": sorted(outcome.team),
                "success": outcome.success,
                "sabotage_count": outcome.sabotage_count,
            },
        )
        self._team = None
        self._after_quest()
        return outcome

    def _after_quest(self) -> None:
        st = self.state
        decided = check_game_end(st)
        if decided is None:
            st.round += 1
            st.attempt = 1
            st.phase = Phase.LEADER_ASSIGNMENT
            return
        if decided.quest_winner is Side.JUST and st.config.assassination_enabled:
            st.phase = Phase.ASSASSINATION
            return
        self._finish(decided)

    def run_assassination(self, actor: int, target: int, payload: dict[str, Any] | None = None) -> GameOutcome:
        st = self.state
        if st.phase is not Phase.ASSASSINATION:
            raise ProtocolError(f"no assassination during {st.phase.value}")
        if actor != self.assassin_seat:
            raise ProtocolError(f"only the assassin (player {self.assassin_seat}) may act now")
        if target not in ALL_SEATS:
            raise InvalidPlayer(f"no such seat: {target}")
        hit = self.roles[target] is Role.MERLIN
        self.emit(
            EventKind.ASSASSINATION_RESULT,
            ASSASSINATION_NOTE.format(
                assassin=actor,
                target=target,
                hit_clause="The target was Merlin." if hit else "The target was not Merlin.",
            ),
            actor=actor,
            payload=_with_engine_keys({"target": target, "hit": hit}, payload),
        )
        outcome = GameOutcome(
            quest_winner=Side.JUST,
            assassination_target=target,
            assassination_hit=hit,
        )
        self._finish(outcome)
        return outcome

    def _finish(self, outcome: GameOutcome) -> None:
        self.state.phase = Phase.FINISHED
        self._outcome = outcome


def _with_engine_keys(data: dict[str, Any], payload: dict[str, Any] | None) -> dict[str, Any]:
    """`data`, the engine's own payload keys, followed by the caller's other
    `payload` keys: a caller's payload never overrides what the engine says.
    (Unpacking `data` again keeps its keys first and its values last.)"""
    return {**data, **payload, **data} if payload else data


def validate_roles(roles: dict[int, Role]) -> None:
    """Raise ValidationError unless `roles` deals the standard deck to seats 1..7."""
    if sorted(roles) != list(ALL_SEATS):
        raise ValidationError(f"roles must cover seats 1..7, got {sorted(roles)}")
    deck = sorted(r.value for r in roles.values())
    if deck != sorted(r.value for r in ROLE_DECK):
        raise ValidationError(f"role multiset must match the standard deck, got {deck}")


# The engine transition that each decision phase's arguments are passed to.
# Names, not bound methods: the transition is looked up on the engine at
# call time, so a wrapper installed on the class is always the one called.
_TRANSITIONS = {
    Phase.TEAM_SELECTION: "propose_team",
    Phase.DISCUSSION: "add_discussion",
    Phase.TEAM_VOTE: "submit_ballots",
    Phase.QUEST_EXECUTION: "resolve_current_quest",
    Phase.ASSASSINATION: "run_assassination",
}


def drive(engine: GameEngine, decide: Callable[[GameEngine], tuple | None]) -> None:
    """Run the phase loop until the game ends or `decide` has no action.

    Leader assignment runs by itself. In every other phase `decide(engine)`
    returns the positional arguments of that phase's transition
    (`propose_team`, `add_discussion`, `submit_ballots`,
    `resolve_current_quest`, `run_assassination`), or None to stop there.
    Live play and replay are the same loop with different `decide`s.
    """
    while not engine.finished:
        phase = engine.state.phase
        if phase is Phase.LEADER_ASSIGNMENT:
            if engine.state.round == 1:
                engine.assign_first_leader()
            else:
                engine.assign_next_leader()
            continue
        args = decide(engine)
        if args is None:
            return
        getattr(engine, _TRANSITIONS[phase])(*args)
