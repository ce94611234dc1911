"""Shared test helpers: canonical role layouts and quick game drivers."""

from __future__ import annotations

import io
import json
from itertools import combinations
from pathlib import Path

from avalonplay.game import (
    ALL_SEATS,
    GameConfig,
    GameEngine,
    Phase,
    Role,
)

EVIL_ROLES = (Role.MORGANA, Role.ASSASSIN, Role.MINION)
JUST_ROLES = (Role.MERLIN, Role.PERCIVAL, Role.SERVANT, Role.SERVANT)


def canonical_roles(evil: set[int] | frozenset[int] | tuple[int, ...]) -> dict[int, Role]:
    """A concrete role layout with the given evil seats (ascending deal)."""
    evil_sorted = sorted(evil)
    assert len(evil_sorted) == 3
    just_sorted = [p for p in ALL_SEATS if p not in evil_sorted]
    roles: dict[int, Role] = {}
    for seat, role in zip(evil_sorted, EVIL_ROLES):
        roles[seat] = role
    for seat, role in zip(just_sorted, JUST_ROLES):
        roles[seat] = role
    return roles


def all_evil_sets() -> list[frozenset[int]]:
    return [frozenset(c) for c in combinations(ALL_SEATS, 3)]


def approve_all() -> dict[int, bool]:
    return {p: True for p in ALL_SEATS}


def reject_all() -> dict[int, bool]:
    return {p: False for p in ALL_SEATS}


def make_engine(
    evil: set[int] = frozenset({5, 6, 7}),
    seed: int = 1,
    config: GameConfig | None = None,
) -> GameEngine:
    return GameEngine(config or GameConfig(), canonical_roles(evil), seed)


def speak_all(engine: GameEngine, text: str = "I have nothing to add.") -> None:
    while engine.state.phase is Phase.DISCUSSION:
        engine.add_discussion(engine.next_speaker(), text)


def run_round(
    engine: GameEngine,
    team: set[int],
    ballots: dict[int, bool] | None = None,
) -> None:
    """Drive one proposal through discussion, vote, and (if approved) quest."""
    if engine.state.phase is Phase.LEADER_ASSIGNMENT:
        if engine.state.round == 1:
            engine.assign_first_leader()
        else:
            engine.assign_next_leader()
    engine.propose_team(team)
    speak_all(engine)
    engine.submit_ballots(ballots or approve_all())
    if engine.state.phase is Phase.QUEST_EXECUTION:
        engine.resolve_current_quest()


def random_constraint_set(rng) -> "ConstraintSet":
    """A uniform mix of the five constraint kinds over the seven seats."""
    from avalonplay.deduction import Constraint, ConstraintKind, ConstraintSet

    kinds = list(ConstraintKind)
    out = []
    for _ in range(rng.randint(1, 6)):
        kind = rng.choice(kinds)
        if kind in (ConstraintKind.IS_GOOD, ConstraintKind.IS_EVIL):
            out.append(Constraint(kind, frozenset({rng.randint(1, 7)})))
        else:
            size = rng.randint(1, 7)
            players = frozenset(rng.sample(range(1, 8), size))
            out.append(Constraint(kind, players, rng.randint(0, size)))
    return ConstraintSet(tuple(out))


# --- scripted fixture games -------------------------------------------------

FIXTURE_DIR = Path(__file__).parent / "fixtures"
# Schema 1 record files, and the rule keys their header configs held.
V1_RECORDS_DIR = FIXTURE_DIR / "records_v1"
V1_RULE_KEYS = ("num_players", "team_sizes", "sabotage_thresholds", "majority", "max_proposal_attempts")
# Schema 2 record files: two deduction/scripted_evil games and a mock codeact
# game with its model exchanges, as the schema 2 writer wrote them.
V2_RECORDS_DIR = FIXTURE_DIR / "records_v2"


def v2_text(record) -> str:
    """`record` as the schema 2 writer wrote it: the header, one line per
    event, and the outcome line, each as `json.JSONEncoder` writes it."""
    from dataclasses import replace

    from avalonplay.records import _encode_line, write_record

    out = io.StringIO()
    write_record(replace(record, events=[]), out)  # the header and the outcome line
    lines = out.getvalue().splitlines()
    header = json.loads(lines[0]) | {"schema_version": 2}
    return "\n".join([_encode_line(header), *(_encode_line(e.to_dict()) for e in record.events), lines[-1]]) + "\n"

CODEACT_E2E_FIXTURE = FIXTURE_DIR / "codeact_e2e.json"
CODEACT_E2E_SEED = 164

GENERIC_LINE = "This team seems reasonable to me."

# The scripted seven-player round-5 exchange of the codeact_e2e fixture.
# Player 5's remark about player 6 contradicts the recorded round-4 team.
ROUND5_LINES = {
    1: (
        "This team includes players who have been part of successful quests before. "
        "It's a logical choice to maintain a strong team dynamic. I agree with the "
        "team selection."
    ),
    2: (
        "Player 3, player 6, and player 7 were on the last successful quest with me, "
        "and I believe this consistency will help us ensure another victory. I'm in "
        "favor of this team."
    ),
    3: (
        "I've chosen players who have either been part of successful quests or have "
        "not shown any suspicious behavior so far. It's important to maintain a "
        "strong team dynamic, and I believe this selection will lead us to victory."
    ),
    4: (
        "The team seems solid with previous successful quest members. Including "
        "player 6 could either solidify their trustworthiness or provide us with "
        "more information. I agree to proceed."
    ),
    5: (
        "The inclusion of player 6, who hasn't been on a quest recently, along with "
        "proven successful quest members, provides a chance to validate their "
        "loyalty. We should be wary, but I am inclined to give this team a chance."
    ),
    6: (
        "The team includes players who have consistently been part of successful "
        "quests, and as a trusted member myself, I feel confident we can achieve "
        "success once more. I agree with this selection and am prepared to "
        "contribute to the quest's success."
    ),
    7: (
        "The team selected by player 3 includes myself and other players who have "
        "been part of successful quests, which instills confidence in this group's "
        "potential for success. Player 6's inclusion is a variable, but it is "
        "essential to evaluate all players. Based on the track record of success "
        "we've had, I agree with this team selection and am optimistic about our "
        "prospects."
    ),
}

STRATEGY_SMOKE_FIXTURE = FIXTURE_DIR / "strategy_smoke.json"
STRATEGY_SMOKE_SEED = 11


def run_codeact_e2e():
    """Play the scripted five-round game that exercises every LLM code path.

    Returns (record, client). Both sides run llm/codeact agents; just leaders
    pick teams by writing programs, the evil round-3 leader answers in prose,
    ballots include one mismatched-reasoning vote and one malformed vote that
    is recovered on reprompt, round 4 needs a two-attempt self-debug cycle,
    and the round-5 discussion is a scripted seven-player exchange containing
    one counterfactual claim. The assassin then correctly names Merlin.
    """
    from avalonplay.game import GameConfig
    from avalonplay.llm import MockLLM
    from avalonplay.runner import AgentSpec, run_game

    client = MockLLM.from_file(CODEACT_E2E_FIXTURE)
    spec = AgentSpec(policy="llm", strategy="codeact", model="mock")
    record = run_game(
        GameConfig(), spec, spec, game_seed=CODEACT_E2E_SEED, client=client, game_id="e2e-codeact"
    )
    return record, client


def run_strategy_smoke(strategy: str):
    """Play a short fixture game with just = llm(strategy), evil = scripted.

    Covers the base / cot / react prompt paths; the fixture answers team
    selections by size and approves every ballot, so the same seed yields the
    same game for each strategy. Returns (record, client).
    """
    from avalonplay.game import GameConfig
    from avalonplay.llm import MockLLM
    from avalonplay.runner import AgentSpec, run_game

    client = MockLLM.from_file(STRATEGY_SMOKE_FIXTURE)
    record = run_game(
        GameConfig(communication_enabled=False),
        AgentSpec(policy="llm", strategy=strategy, model="mock"),
        AgentSpec(policy="scripted_evil"),
        game_seed=STRATEGY_SMOKE_SEED,
        client=client,
        game_id=f"smoke-{strategy}",
    )
    return record, client


# --- mock LLM games with a request budget -------------------------------------

VOTE_APPROVE = '{"reasoning": "I support this team.", "vote": "approve"}'
VOTE_REJECT = '{"reasoning": "I doubt this team.", "vote": "reject"}'


def budgeted_mock(budgets: dict[str, int] | None = None):
    """A MockLLM that answers every request kind of a full game, unless
    `budgets` caps a request tag: the request past the cap finds no rule,
    so the game aborts there.

    Team selections pick the lowest seats; seats 1-4 reject the first six
    ballots they cast, so early proposals fail; every first quest vote is
    unparseable, so it is reprompted.
    """
    from avalonplay.llm import MockLLM, MockRule, MockScriptExhausted

    rules = [
        MockRule(
            phase="team_selection",
            pattern=f"select {n} team members",
            response=f"I pick players {list(range(1, n + 1))} for this quest.",
            max_uses=None,
        )
        for n in (2, 3, 4)
    ]
    rules += [
        MockRule(phase="discussion", response="Player 2 is Merlin, I think.", max_uses=2),
        MockRule(phase="discussion", response="I have nothing to add.", max_uses=None),
        MockRule(phase="team_vote", pattern=r"your turn, player [1-4]\.", response=VOTE_REJECT, max_uses=6),
        MockRule(phase="team_vote", response=VOTE_APPROVE, max_uses=None),
        MockRule(phase="quest_vote", response="Let me think about it.", max_uses=1),
        MockRule(phase="quest_vote", response=VOTE_APPROVE, max_uses=None),
        MockRule(phase="assassination", response="Final answer: player 4.", max_uses=None),
    ]
    left = dict(budgets or {})

    class Budgeted(MockLLM):
        def complete(self, messages, temperature, tag):
            if tag in left:
                if left[tag] == 0:
                    raise MockScriptExhausted(f"the {tag!r} budget is spent")
                left[tag] -= 1
            return super().complete(messages, temperature, tag)

    return Budgeted(rules)
