"""Acceptance gate: one test per release criterion, run in order.

Each test prints a single ``PASS criterion N`` line with the measured
numbers; pytest's own verdict per test is the pass/fail record. The
criteria cover exact-oracle equivalence for the deduction engine, a frozen
worked scenario, exhaustive rule checks, tournament determinism and the
deduction-vs-random signal, knowledge soundness over ten thousand deals,
the scripted end-to-end LLM game, sandbox containment, and persistence
round-trips.
"""

from __future__ import annotations

import itertools
import random
import time
from fractions import Fraction

from avalonplay.analyzer import analyze_record
from avalonplay.codeact import DebugLoopConfig, ExecStatus, execute_sandboxed
from avalonplay.deduction import (
    Constraint,
    ConstraintKind,
    ConstraintSet,
    belief,
    brute_force_oracle,
    facts_from_history,
    facts_from_private,
    select_team,
)
from avalonplay.game import (
    ALL_SEATS,
    EventKind,
    GameConfig,
    Phase,
    SABOTAGE_THRESHOLDS,
    Side,
    TEAM_SIZES,
    resolve_quest,
    tally_approval,
)
from avalonplay.knowledge import deal_roles, knowledge_for
from avalonplay.memory import PublicFact
from avalonplay.records import load_record, replay, write_record
from avalonplay.runner import (
    AgentSpec,
    TournamentConfig,
    run_game,
    run_tournament,
    seed_for_game,
)

from helpers import (
    ROUND5_LINES,
    all_evil_sets,
    canonical_roles,
    make_engine,
    random_constraint_set,
    reject_all,
    run_codeact_e2e,
    run_strategy_smoke,
)


def test_criterion_1_deduction_oracle_equivalence():
    """belief() matches the brute-force oracle on 500 random constraint sets."""
    rng = random.Random(20260825)
    started = time.monotonic()
    n_contradictory = 0
    for _ in range(500):
        cs = random_constraint_set(rng)
        fast = belief(cs)
        slow = brute_force_oracle(cs)
        assert fast.p_good == slow.p_good
        assert fast.contradictory == slow.contradictory
        if fast.contradictory:
            n_contradictory += 1
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"oracle sweep took {elapsed:.2f}s"
    assert 0 < n_contradictory < 500  # both outcomes genuinely exercised
    print(
        f"PASS criterion 1: 500 constraint sets, belief == oracle pointwise "
        f"({n_contradictory} contradictory), {elapsed:.2f}s < 10s"
    )


def test_criterion_2_frozen_scenario():
    """The worked four-constraint scenario pins beliefs and the team choice."""
    cs = ConstraintSet(
        (
            Constraint(ConstraintKind.EXACTLY, frozenset({2, 4, 7}), 0),
            Constraint(ConstraintKind.EXACTLY, frozenset({1, 3}), 1),
            Constraint(ConstraintKind.AT_LEAST, frozenset({1, 2, 4}), 1),
            Constraint(ConstraintKind.AT_MOST, frozenset({2, 3, 5, 7}), 1),
        )
    )
    beliefs = belief(cs)
    for seat in (2, 3, 4, 7):
        assert beliefs.p_good[seat] == Fraction(1)
    for seat in (1, 5, 6):
        assert beliefs.p_good[seat] == Fraction(0)
    for leader in ALL_SEATS:
        assert select_team(beliefs, 4, leader) == frozenset({2, 3, 4, 7})
    print(
        "PASS criterion 2: frozen scenario gives p_good=1 on {2,3,4,7}, "
        "0 on {1,5,6}; select_team(4) == {2,3,4,7} for every leader"
    )


def test_criterion_3_exhaustive_rules():
    """Quest thresholds, ballot majority, and the forced fifth proposal."""
    started = time.monotonic()
    n_quests = 0
    for evil in all_evil_sets():
        roles = canonical_roles(evil)
        for round_no, size in enumerate(TEAM_SIZES, start=1):
            threshold = SABOTAGE_THRESHOLDS[round_no - 1]
            for team in itertools.combinations(sorted(ALL_SEATS), size):
                outcome = resolve_quest(round_no, team, roles)
                assert outcome.sabotage_count == len(set(team) & evil)
                assert outcome.success == (outcome.sabotage_count < threshold)
                n_quests += 1

    n_sheets = 0
    for bits in itertools.product([False, True], repeat=7):
        sheet = dict(zip(sorted(ALL_SEATS), bits))
        assert tally_approval(sheet) == (sum(bits) >= 4)
        n_sheets += 1

    engine = make_engine(
        evil={5, 6, 7}, seed=3, config=GameConfig(communication_enabled=False)
    )
    engine.assign_first_leader()
    for attempt in range(1, 6):
        engine.propose_team({1, 2})
        # Only the fifth rejected team proceeds, and its result says forced.
        assert engine.submit_ballots(reject_all()) == (attempt == 5)
        ballot = [
            e
            for e in engine.events
            if e.kind is EventKind.BALLOT_RESULT and e.visibility == "public"
        ][-1]
        assert ballot.payload["forced"] == (attempt == 5)
    assert engine.state.phase is Phase.QUEST_EXECUTION

    elapsed = time.monotonic() - started
    assert elapsed < 5.0, f"rule sweep took {elapsed:.2f}s"
    print(
        f"PASS criterion 3: {n_quests} quest resolutions across 35 evil sets, "
        f"{n_sheets} ballot sheets, forced 5th proposal; {elapsed:.2f}s < 5s"
    )


def test_criterion_4_tournament_determinism_and_signal():
    """1000 seeded games: bit-identical metrics; deduction beats random."""
    started = time.monotonic()
    base = dict(n_games=1000, base_seed=42)
    first = run_tournament(TournamentConfig(**base, parallelism=1))
    second = run_tournament(TournamentConfig(**base, parallelism=1))
    parallel = run_tournament(TournamentConfig(**base, parallelism=8))
    assert first.report.to_json() == second.report.to_json()
    assert first.report.to_json() == parallel.report.to_json()
    assert first.digest() == second.digest() == parallel.digest()
    assert first.digest() == "e23ad1363cec3d5fcb1d152d14b7e394c0dbd6f37d2179e148760367f8f570cc"

    baseline = run_tournament(
        TournamentConfig(**base, parallelism=8, just_spec=AgentSpec(policy="random"))
    )
    gap = first.report.team_accuracy - baseline.report.team_accuracy
    assert gap >= Fraction(15, 100), f"team-accuracy gap {float(gap):.3f} < 0.15"

    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"criterion-4 runs took {elapsed:.2f}s"
    print(
        f"PASS criterion 4: 1000-game metrics bit-identical across runs and "
        f"parallelism 1 vs 8 (digest {first.digest()[:12]}...); team accuracy "
        f"{float(first.report.team_accuracy):.3f} vs random-led "
        f"{float(baseline.report.team_accuracy):.3f}, gap "
        f"{float(gap):.3f} >= 0.15; {elapsed:.1f}s < 60s"
    )


def _constraint_satisfied(c: Constraint, evil: frozenset[int]) -> bool:
    """Independent satisfaction check used only by this sweep."""
    overlap = len(c.players & evil)
    if c.kind is ConstraintKind.IS_GOOD:
        return overlap == 0
    if c.kind is ConstraintKind.IS_EVIL:
        return overlap == len(c.players)
    if c.kind is ConstraintKind.AT_LEAST:
        return overlap >= c.count
    if c.kind is ConstraintKind.AT_MOST:
        return overlap <= c.count
    return overlap == c.count


def test_criterion_5_knowledge_soundness_sweep():
    """10,000 deals: no private fact or history constraint excludes the truth."""
    n_constraints = 0
    for i in range(10_000):
        rng = random.Random(i)
        assignment = deal_roles(rng)
        evil = frozenset(s for s in ALL_SEATS if assignment.side(s) is Side.EVIL)

        constraints: list[Constraint] = []
        for seat in ALL_SEATS:
            constraints.extend(facts_from_private(knowledge_for(assignment, seat)))

        hidden, revealed = [], []
        for round_no in range(1, rng.randint(2, 6)):
            team = rng.sample(sorted(ALL_SEATS), TEAM_SIZES[round_no - 1])
            quest = resolve_quest(round_no, team, assignment.as_dict())
            hidden.append(PublicFact(quest.round, quest.team, quest.success, None))
            revealed.append(
                PublicFact(quest.round, quest.team, quest.success, quest.sabotage_count)
            )
        constraints.extend(facts_from_history(hidden))
        constraints.extend(facts_from_history(revealed))

        for c in constraints:
            assert _constraint_satisfied(c, evil), (i, c, sorted(evil))
        n_constraints += len(constraints)
        assert not belief(ConstraintSet(tuple(constraints))).contradictory, i
    print(
        f"PASS criterion 5: 10,000 deals, {n_constraints} private and history "
        f"constraints all satisfied by the true assignment; no world set pruned "
        f"to contradiction"
    )


def test_criterion_6_mock_llm_end_to_end(tmp_path):
    """The scripted game covers all strategies and yields the exact findings."""
    record, client = run_codeact_e2e()
    assert not record.aborted, record.error

    tags = {req["tag"] for req in client.requests_log}
    assert {
        "code_generation",
        "team_selection",
        "discussion",
        "team_vote",
        "quest_vote",
        "assassination",
    } <= tags

    # scripted seven-player round-5 exchange, verbatim
    round5 = {
        e.actor: e.text
        for e in record.events
        if e.kind is EventKind.DISCUSSION and e.round == 5
    }
    assert round5 == ROUND5_LINES

    # malformed ballot recovered through a single reprompt
    ballot = next(
        e
        for e in record.events
        if e.kind is EventKind.BALLOT_RESULT
        and e.round == 1
        and e.actor == 2
        and e.visibility.startswith("private")
    )
    assert [a["error_kind"] for a in ballot.payload["raw_attempts"]] == ["VoteParseError"]
    assert ballot.payload.get("fallback") is None

    # two-attempt self-debug cycle on the round-4 proposal
    (round4_prop,) = [
        e
        for e in record.events
        if e.kind is EventKind.TEAM_PROPOSED and e.round == 4
    ]
    trace = round4_prop.payload["codeact"]
    assert trace["attempts_used"] == 2 and not trace["fell_back"]

    # the record replays exactly after a round-trip through disk
    path = tmp_path / "e2e.jsonl"
    write_record(record, path)
    loaded = load_record(path)
    assert loaded.events == record.events and loaded.outcome == record.outcome
    assert replay(loaded).outcome.to_dict() == record.outcome.to_dict()

    # exactly the injected findings, nothing else
    findings = analyze_record(record)
    assert [f.kind for f in findings] == [
        "VoteReasoningMismatch",
        "TeamSizeViolation",
        "CounterfactualClaim",
    ]

    # the remaining prompt styles each play a clean, replayable game
    for strategy in ("base", "cot", "react"):
        smoke_record, smoke_client = run_strategy_smoke(strategy)
        assert not smoke_record.aborted, smoke_record.error
        blob = "\n".join(
            message["content"]
            for req in smoke_client.requests_log
            for message in req["messages"]
        )
        if strategy == "cot":
            assert "step by step" in blob
        if strategy == "react":
            assert "Thought:" in blob
        assert analyze_record(smoke_record) == []
        assert replay(smoke_record).outcome.to_dict() == smoke_record.outcome.to_dict()

    print(
        "PASS criterion 6: scripted game covers base/cot/react/codeact, the "
        "seven-line discussion, one vote reprompt, a two-attempt self-debug; "
        "record replays exactly; findings == {VoteReasoningMismatch, "
        "TeamSizeViolation, CounterfactualClaim}"
    )


def test_criterion_7_sandbox_containment():
    """Network blocked, runaway loops killed on time, output capped."""
    limits = DebugLoopConfig(per_run_timeout=1.0, output_cap=2048)

    probe = (
        "import socket\n"
        "try:\n"
        "    socket.create_connection(('1.1.1.1', 80), timeout=2)\n"
        "    print('CONNECTED')\n"
        "except Exception as exc:\n"
        "    print('BLOCKED', type(exc).__name__)\n"
    )
    result = execute_sandboxed(probe, limits)
    assert "CONNECTED" not in result.stdout
    assert result.status is not ExecStatus.TIMEOUT

    started = time.monotonic()
    loop = execute_sandboxed("while True:\n    pass\n", limits)
    elapsed = time.monotonic() - started
    assert loop.status is ExecStatus.TIMEOUT
    assert elapsed <= limits.per_run_timeout + 1.0, f"kill took {elapsed:.2f}s"

    flood = execute_sandboxed("print('x' * 100_000)", limits)
    assert flood.status is ExecStatus.OUTPUT_TRUNCATED
    assert flood.stdout_truncated
    assert len(flood.stdout.encode()) <= limits.output_cap

    print(
        f"PASS criterion 7: network probe blocked, infinite loop killed in "
        f"{elapsed:.2f}s <= timeout+1s, 100kB output truncated to "
        f"{len(flood.stdout.encode())} bytes with OUTPUT_TRUNCATED"
    )


def test_criterion_8_persistence_round_trips(tmp_path):
    """100 scripted games: files round-trip and replays rebuild the outcome."""
    policies = ("random", "deduction")
    for i in range(100):
        just = AgentSpec(policy=policies[i % 2])
        evil = AgentSpec(policy="scripted_evil" if (i // 2) % 2 == 0 else "random")
        record = run_game(
            GameConfig(),
            just,
            evil,
            game_seed=seed_for_game(777, i),
            game_id=f"persist-{i:03d}",
        )
        assert not record.aborted
        path = tmp_path / f"{record.game_id}.jsonl"
        write_record(record, path)
        loaded = load_record(path)
        assert loaded.game_id == record.game_id
        assert loaded.roles == record.roles
        assert loaded.seed_info == record.seed_info
        assert loaded.events == record.events
        assert loaded.outcome == record.outcome
        engine = replay(loaded)
        assert engine.outcome.to_dict() == record.outcome.to_dict()
    print(
        "PASS criterion 8: 100 scripted games round-trip through disk exactly "
        "and every replay reproduces the recorded outcome"
    )
