"""Pluggable seat policies.

Four families:

* random   — uniform legal actions from a per-seat seeded stream.
* scripted_evil — a fixed heuristic evil policy (stack teams with evil,
  approve only teams containing evil, cast suspicion in discussion).
* deduction — possible-worlds reasoning: selects the seats most likely
  good, approves teams whose success probability is at least one half
  under its surviving worlds, and mirrors that judgement when evil.
* llm      — delegates decisions to a chat model under one of four
  prompting strategies (base, cot, react, codeact), with one reprompt on
  a parse failure and a legal fallback after that.

Every policy returns all it decides in its reply: the action, a trace
for the record and, when it fell back, an audit note that the runner logs.
All non-LLM policies are pure functions of (observation, seeded stream),
so games built from them replay bit-identically.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable

from .codeact import DebugLoopConfig, build_code_prompt, self_debug_loop
from .deduction import (
    Constraint,
    ConstraintSet,
    ContradictionError,
    belief,
    facts_from_history,
    facts_from_private,
    live_worlds,
    select_team,
    success_counts,
)
from .game import ALL_SEATS, Phase, Side
from .knowledge import KnowledgeView
from .llm import ChatMessage, LLMClient, logged_complete
from .memory import PublicFact
from .parsing import ParseError, parse_team_selection, parse_vote
from .prompts import PromptBundle
from .templates import render

STRATEGIES = ("base", "cot", "react", "codeact")
POLICIES = ("random", "scripted_evil", "deduction", "llm")
# Policies that read a seat's global memory (rendered into their prompts).
MEMORY_POLICIES = frozenset({"llm"})


# ----- actions ---------------------------------------------------------------


@dataclass(frozen=True)
class SelectTeam:
    members: frozenset[int]


@dataclass(frozen=True)
class Discuss:
    text: str


@dataclass(frozen=True)
class TeamVote:
    reasoning: str
    approve: bool


@dataclass(frozen=True)
class QuestVote:
    approve: bool


@dataclass(frozen=True)
class Assassinate:
    target: int


Action = SelectTeam | Discuss | TeamVote | QuestVote | Assassinate


@dataclass
class AgentReply:
    action: Action
    trace: dict[str, Any] = field(default_factory=dict)
    # A fallback's note for the engine's audit log: (reason, detail, payload).
    audit: tuple[str, str, dict[str, Any]] | None = None


@dataclass(frozen=True)
class Observation:
    """What a seat sees when asked to act; its seat and private knowledge
    are its agent's own.

    The prompt bundle is only needed by model-backed policies; pure
    policies act on the structured fields alone and callers may omit it.
    `team_size` is set for team selection, `proposed_team` and `threshold`
    for discussion, the team vote and the quest.
    """

    phase: Phase
    bundle: PromptBundle | None = None
    team_size: int | None = None
    threshold: int | None = None
    proposed_team: frozenset[int] | None = None
    public_facts: tuple[PublicFact, ...] = ()


@dataclass(frozen=True)
class AgentSpec:
    policy: str = "random"
    strategy: str = "base"
    model: str = ""
    temperature_text: float = 0.7
    temperature_code: float = 0.0

    def __post_init__(self) -> None:
        if self.policy not in POLICIES:
            raise ValueError(f"unknown policy {self.policy!r}; choose from {POLICIES}")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}; choose from {STRATEGIES}")

    def to_dict(self) -> dict[str, Any]:
        return {
            "policy": self.policy,
            "strategy": self.strategy,
            "model": self.model,
            "temperature_text": self.temperature_text,
            "temperature_code": self.temperature_code,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "AgentSpec":
        return cls(**data)


class Agent:
    """One seat's decision maker for a single game."""

    def __init__(self, seat: int, view: KnowledgeView, rng: random.Random) -> None:
        self.seat = seat
        self.view = view
        self.rng = rng
        # (the last public-facts tuple seen, this seat's constraints with
        # that history, the mask of their live worlds)
        self._history_memo: tuple[tuple[PublicFact, ...] | None, ConstraintSet | None, int] = (None, None, 0)

    def act(self, obs: Observation) -> AgentReply:
        raise NotImplementedError

    def _act_shared(self, obs: Observation) -> AgentReply:
        """The quest ballot and assassination every rule-based policy casts alike."""
        if obs.phase is Phase.QUEST_EXECUTION:
            return AgentReply(self._forced_quest_vote())
        if obs.phase is Phase.ASSASSINATION:
            return AgentReply(self._random_assassination())
        raise ValueError(f"no action for phase {obs.phase}")

    @staticmethod
    def _ballot(approve: bool) -> TeamVote:
        reasoning = "I agree with this team." if approve else "I disagree with this team."
        return TeamVote(reasoning=reasoning, approve=approve)

    def _random_team(self, size: int) -> frozenset[int]:
        return frozenset(self.rng.sample(ALL_SEATS, size))

    # An evil-side agent shoots a random seat not among those it knows are evil.
    def _random_assassination(self) -> Assassinate:
        known_evil: set[int] = set()
        for fact in self.view.private_facts:
            known_evil |= fact.players
        return Assassinate(self.rng.choice(sorted(set(ALL_SEATS) - known_evil)))

    def _forced_quest_vote(self) -> QuestVote:
        return QuestVote(approve=self.view.side is Side.JUST)

    @cached_property
    def _private_constraints(self) -> list[Constraint]:
        return facts_from_private(self.view)

    def _observed(self, obs: Observation) -> tuple[tuple[PublicFact, ...] | None, ConstraintSet, int]:
        """`_history_memo`, rebuilt when `obs` holds another facts tuple
        than the last one seen (the runner hands out one per quest result)."""
        memo = self._history_memo
        if memo[0] is not obs.public_facts:
            cs = ConstraintSet(tuple(self._private_constraints + facts_from_history(obs.public_facts)))
            memo = self._history_memo = (obs.public_facts, cs, live_worlds(cs))
        return memo

    # The deduction policy's constraints: this seat's private facts, then
    # the observed quest history.
    def _constraints(self, obs: Observation) -> ConstraintSet:
        return self._observed(obs)[1]

    def _live_worlds(self, obs: Observation) -> int:
        """`live_worlds(self._constraints(obs))`."""
        return self._observed(obs)[2]

    def _deduction_team(self, obs: Observation) -> tuple[frozenset[int], bool]:
        """The deduction policy's team: (`select_team` over the beliefs, True),
        or (a random legal team, False) when the beliefs are contradictory."""
        try:
            return select_team(belief(self._constraints(obs)), obs.team_size, self.seat), True
        except ContradictionError:
            return self._random_team(obs.team_size), False


class RandomAgent(Agent):
    def act(self, obs: Observation) -> AgentReply:
        phase = obs.phase
        if phase is Phase.TEAM_SELECTION:
            return AgentReply(SelectTeam(self._random_team(obs.team_size)))
        if phase is Phase.DISCUSSION:
            return AgentReply(Discuss("I have nothing to add."))
        if phase is Phase.TEAM_VOTE:
            return AgentReply(self._ballot(self.rng.random() < 0.5))
        return self._act_shared(obs)


class ScriptedEvilAgent(Agent):
    """Deterministic evil heuristic; assumes an evil-side view."""

    @cached_property
    def _evil_seats(self) -> list[int]:
        for fact in self.view.private_facts:
            if fact.players:
                return sorted(fact.players)
        return [self.seat]

    @cached_property
    def _suspects(self) -> list[int]:
        """The seats it names in discussion: those it does not know are evil."""
        return [p for p in ALL_SEATS if p not in self._evil_seats]

    def act(self, obs: Observation) -> AgentReply:
        phase = obs.phase
        evil = self._evil_seats
        if phase is Phase.TEAM_SELECTION:
            # Stack the team with as many evil seats as fit: itself first,
            # then evil teammates, then just seats, all ascending.
            ordered = [self.seat] + [p for p in evil if p != self.seat]
            ordered += [p for p in ALL_SEATS if p not in ordered]
            team = frozenset(ordered[: obs.team_size])
            return AgentReply(SelectTeam(team))
        if phase is Phase.DISCUSSION:
            target = self.rng.choice(self._suspects)
            return AgentReply(
                Discuss(f"I'm not sure about player {target}. Something about their choices feels off.")
            )
        if phase is Phase.TEAM_VOTE:
            approve = bool(obs.proposed_team) and not obs.proposed_team.isdisjoint(evil)
            return AgentReply(self._ballot(approve))
        return self._act_shared(obs)


def _backs_team(succeeds: int, live: int, side: Side) -> bool | None:
    """Whether a deduction seat of `side` backs a team whose quest succeeds
    in `succeeds` of its `live` worlds: a just seat when that chance is at
    least one half, an evil seat when it is at most one half. None when no
    world is live."""
    if not live:
        return None
    return 2 * succeeds >= live if side is Side.JUST else 2 * succeeds <= live


class DeductionAgent(Agent):
    # The last (live mask, team, threshold) judged and its `success_counts`:
    # a seat judges each proposal for its discussion line and again for its vote.
    _judged: tuple[tuple[int, frozenset[int], int] | None, tuple[int, int]] = (None, (0, 0))

    def _backs_proposal(self, obs: Observation, side: Side) -> bool | None:
        team, threshold = obs.proposed_team, obs.threshold
        if team is None or threshold is None:
            return None
        key = (self._live_worlds(obs), team, threshold)
        judged, counts = self._judged
        if key != judged:
            counts = success_counts(*key)
            self._judged = (key, counts)
        return _backs_team(*counts, side)

    def act(self, obs: Observation) -> AgentReply:
        phase = obs.phase
        if phase is Phase.TEAM_SELECTION:
            team, deduced = self._deduction_team(obs)
            if deduced:
                return AgentReply(SelectTeam(team))
            note = "belief state had no consistent world; selected a random legal team"
            return AgentReply(SelectTeam(team), {"fallback": True}, ("contradiction_fallback", note, {"team": sorted(team)}))
        if phase is Phase.DISCUSSION:
            # Either side speaks as a just seat would vote.
            if self._backs_proposal(obs, Side.JUST) is False:
                return AgentReply(Discuss("I am not convinced by this team."))
            return AgentReply(Discuss("I have no objection to this team."))
        if phase is Phase.TEAM_VOTE:
            approve = self._backs_proposal(obs, self.view.side)
            if approve is None:
                note = "belief state had no consistent world; voted approve"
                return AgentReply(self._ballot(True), audit=("contradiction_fallback", note, {}))
            return AgentReply(self._ballot(approve))
        return self._act_shared(obs)


# ----- LLM-backed agent -------------------------------------------------------


def build_strategy_prompt(strategy: str, bundle: PromptBundle) -> list[ChatMessage]:
    """Chat messages for one decision under a prompting strategy.

    The codeact strategy only changes leader team selection (handled by
    the code-action path); for every other decision it behaves like base.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    user = bundle.user_text()
    if strategy == "cot":
        user = user + "\n\n" + render("strategy_cot")
    elif strategy == "react":
        user = user + "\n\n" + render("strategy_react")
    return [ChatMessage("system", bundle.system_text()), ChatMessage("user", user)]


class LLMAgent(Agent):
    def __init__(self, seat: int, view: KnowledgeView, rng: random.Random, client: LLMClient, spec: AgentSpec) -> None:
        super().__init__(seat, view, rng)
        self.client = client
        self.spec = spec

    def act(self, obs: Observation) -> AgentReply:
        phase = obs.phase
        if phase is Phase.TEAM_SELECTION and self.spec.strategy == "codeact" and self.view.side is Side.JUST:
            return self._select_team_codeact(obs)
        if obs.bundle is None:
            raise ValueError("a model-backed agent needs the observation's prompt bundle")
        messages = build_strategy_prompt(self.spec.strategy, obs.bundle)
        if phase is Phase.DISCUSSION:
            trace: dict[str, Any] = {"exchanges": []}
            text = logged_complete(
                self.client, messages, self.spec.temperature_text, "discussion", trace["exchanges"]
            )
            return AgentReply(Discuss(text.strip()), trace)
        if phase is Phase.TEAM_SELECTION:
            n = obs.team_size
            return self._ask(
                messages,
                "team_selection",
                lambda text: SelectTeam(parse_team_selection(text, self.seat, n)),
                lambda: SelectTeam(self._random_team(n)),
                "team selection could not be parsed after a reprompt; using a random legal team",
                lambda team: {"team": sorted(team.members), "phase": phase.value},
                {"required_n": n},
            )
        if phase is Phase.TEAM_VOTE:
            return self._ask(
                messages,
                "team_vote",
                lambda text: TeamVote(*parse_vote(text)),
                lambda: TeamVote(reasoning="", approve=True),
                "ballot could not be parsed after a reprompt; voting approve",
                lambda _: {"phase": phase.value},
            )
        if phase is Phase.QUEST_EXECUTION:
            return self._ask(
                messages,
                "quest_vote",
                lambda text: QuestVote(parse_vote(text)[1]),
                self._forced_quest_vote,
                "quest ballot could not be parsed after a reprompt; casting the side-mandated vote",
                lambda _: {"phase": phase.value},
            )
        if phase is Phase.ASSASSINATION:
            return self._ask(
                messages,
                "assassination",
                lambda text: Assassinate(*parse_team_selection(text, self.seat, 1)),
                self._random_assassination,
                "assassination target could not be parsed after a reprompt; choosing a random just seat",
                lambda shot: {"target": shot.target},
            )
        raise ValueError(f"no action for phase {phase}")

    def _ask(
        self,
        messages: list[ChatMessage],
        tag: str,
        parse: Callable[[str], Action],
        fallback: Callable[[], Action],
        detail: str,
        payload: Callable[[Action], dict[str, Any]],
        trace: dict[str, Any] | None = None,
    ) -> AgentReply:
        """Ask, and reprompt once on a ParseError. After two failed parses
        the action is `fallback()`, with a parse_fallback audit note of
        `detail` and `payload(action)`."""
        trace = {} if trace is None else trace
        exchanges = trace.setdefault("exchanges", [])
        attempts = trace.setdefault("raw_attempts", [])
        for _ in range(2):
            text = logged_complete(self.client, messages, self.spec.temperature_text, tag, exchanges)
            try:
                action = parse(text)
            except ParseError as exc:
                error = str(exc)
                attempts.append(
                    {"text": text, "error": error, "error_kind": type(exc).__name__, "ids": exc.ids}
                )
                messages = messages + [
                    ChatMessage("assistant", text),
                    ChatMessage("user", render("reprompt", error=error)),
                ]
            else:
                trace["final_text"] = text
                return AgentReply(action, trace)
        action = fallback()
        trace["fallback"] = True
        return AgentReply(action, trace, ("parse_fallback", detail, payload(action)))

    def _select_team_codeact(self, obs: Observation) -> AgentReply:
        n = obs.team_size
        prompt = build_code_prompt(self.view.private_facts, obs.public_facts, n)
        outcome = self_debug_loop(self.client, prompt, n, DebugLoopConfig(), self.spec.temperature_code)
        trace = {
            "required_n": n,
            "exchanges": outcome.exchanges,
            "codeact": {
                "attempts_used": outcome.attempts_used,
                "fell_back": outcome.fell_back,
                "attempts": outcome.attempts,
            },
        }
        if outcome.team is not None:
            return AgentReply(SelectTeam(outcome.team), trace)
        team = self._deduction_team(obs)[0]
        trace["fallback"] = True
        note = "no generated program produced a usable team; used deduction instead"
        return AgentReply(
            SelectTeam(team), trace, ("codeact_fallback", note, {"team": sorted(team), "attempts": outcome.attempts_used})
        )


def make_agent(
    spec: AgentSpec,
    seat: int,
    view: KnowledgeView,
    rng: random.Random,
    client: LLMClient | None = None,
) -> Agent:
    if spec.policy == "random":
        return RandomAgent(seat, view, rng)
    if spec.policy == "scripted_evil":
        return ScriptedEvilAgent(seat, view, rng)
    if spec.policy == "deduction":
        return DeductionAgent(seat, view, rng)
    if spec.policy == "llm":
        if client is None:
            raise ValueError("llm policy requires a client")
        return LLMAgent(seat, view, rng, client, spec)
    raise ValueError(f"unknown policy {spec.policy!r}")
