from __future__ import annotations

import dataclasses
import io
import json
import random
from itertools import combinations, product

import pytest
from hypothesis import given, strategies as st

from avalonplay.agents import AgentSpec
from avalonplay.events import AUDIT, EventKind
from avalonplay.game import (
    ALL_SEATS,
    MAJORITY,
    MAX_PROPOSAL_ATTEMPTS,
    NUM_PLAYERS,
    SABOTAGE_THRESHOLDS,
    TEAM_SIZES,
    GameConfig,
    GameEngine,
    IncompleteBallot,
    InvalidPlayer,
    Phase,
    ProtocolError,
    Role,
    Side,
    SizeViolation,
    ValidationError,
    check_game_end,
    new_game,
    resolve_quest,
    rotate_leader,
    tally_approval,
)
from avalonplay.knowledge import RoleAssignment
from avalonplay.records import GameRecord, RecordFormatError, load_record, write_record
from helpers import (
    V1_RECORDS_DIR,
    V1_RULE_KEYS,
    all_evil_sets,
    approve_all,
    canonical_roles,
    make_engine,
    reject_all,
    run_round,
    speak_all,
)


V1_RECORD = V1_RECORDS_DIR / "deduction.jsonl"


def _header_record(config: GameConfig) -> list[str]:
    # With no decisions and no outcome, the game is one that aborted.
    agents = {p: AgentSpec() for p in ALL_SEATS}
    roles = RoleAssignment(canonical_roles({5, 6, 7}))
    record = GameRecord("g", config, roles, agents, {"engine_seed": 1}, aborted=True)
    out = io.StringIO()
    write_record(record, out)
    return out.getvalue().splitlines()


def _load_with_header_config(rows: list[str], field: str, value) -> None:
    header = json.loads(rows[0])
    header["config"][field] = value
    load_record(io.StringIO("\n".join([json.dumps(header), *rows[1:]]) + "\n"))


class TestConfig:
    def test_defaults_are_canonical(self):
        cfg = GameConfig()
        cfg.validate()
        assert [f.name for f in dataclasses.fields(cfg)] == [
            "communication_enabled",
            "reveal_sabotage_count",
            "assassination_enabled",
            "play_all_rounds",
            "memory_window",
        ]
        assert cfg.memory_window == 15
        # A header's config holds the toggles only: the rules are constants.
        assert json.loads(_header_record(cfg)[0])["config"] == {
            "communication_enabled": True,
            "reveal_sabotage_count": False,
            "assassination_enabled": True,
            "play_all_rounds": False,
            "memory_window": 15,
        }

    def test_memory_window_validated(self):
        with pytest.raises(ValidationError):
            dataclasses.replace(GameConfig(), memory_window=0).validate()

    @pytest.mark.parametrize(
        "field,value",
        [
            ("num_players", 5),
            ("team_sizes", (2, 3, 3, 4)),
            ("team_sizes", (2, 3, 3, 4, 5)),
            ("sabotage_thresholds", (1, 1, 1, 1, 2)),
            ("majority", 3),
            ("max_proposal_attempts", 4),
            ("memory_window", 0),
            ("sabotage_thresholds", (True, True, True, 2, 2)),
            ("majority", 4.0),
        ]
        + [(key, 7.0) for key in V1_RULE_KEYS]
        + [(key, True) for key in V1_RULE_KEYS],
    )
    def test_noncanonical_values_rejected(self, field, value):
        # The rules are constants, so a schema 1 header naming other rule
        # values (or the right ones as floats or bools) is not a record of
        # this game.
        rows = V1_RECORD.read_text().splitlines()
        assert json.loads(rows[0])["schema_version"] == 1
        with pytest.raises(RecordFormatError, match="bad header"):
            _load_with_header_config(rows, field, value)

    @pytest.mark.parametrize(
        "field,value",
        zip(V1_RULE_KEYS, (NUM_PLAYERS, TEAM_SIZES, SABOTAGE_THRESHOLDS, MAJORITY, MAX_PROPOSAL_ATTEMPTS)),
    )
    def test_current_headers_name_no_rules(self, field, value):
        with pytest.raises(RecordFormatError, match="bad header"):
            _load_with_header_config(_header_record(GameConfig()), field, value)

    def test_round_trip_and_hash(self):
        cfg = GameConfig(reveal_sabotage_count=True, play_all_rounds=True)
        rows = _header_record(cfg)
        assert load_record(io.StringIO("\n".join(rows) + "\n")).config == cfg
        config_hash = json.loads(rows[0])["config_hash"]
        assert config_hash != json.loads(_header_record(GameConfig())[0])["config_hash"]
        assert len(config_hash) == 16


class TestPureRules:
    def test_rotate_leader_wraps(self):
        assert [rotate_leader(p) for p in ALL_SEATS] == [2, 3, 4, 5, 6, 7, 1]

    def test_tally_approval_exhaustive(self):
        # All 2^7 ballot sheets against the majority-of-four rule.
        for bits in product([False, True], repeat=NUM_PLAYERS):
            ballots = {p: bits[p - 1] for p in ALL_SEATS}
            assert tally_approval(ballots) == (sum(bits) >= MAJORITY)

    def test_tally_approval_requires_all_seats(self):
        with pytest.raises(IncompleteBallot):
            tally_approval({p: True for p in range(1, 7)})
        with pytest.raises(IncompleteBallot):
            tally_approval({p: True for p in range(2, 9)})

    def test_resolve_quest_exhaustive_thresholds(self):
        # Every evil set x every legal team x every round: a quest fails
        # exactly when the evil seats aboard reach the round's threshold,
        # and the sabotage count equals the evil membership.
        for evil in all_evil_sets():
            roles = canonical_roles(evil)
            for rnd in range(1, 6):
                size = TEAM_SIZES[rnd - 1]
                threshold = SABOTAGE_THRESHOLDS[rnd - 1]
                for team in combinations(ALL_SEATS, size):
                    outcome = resolve_quest(rnd, frozenset(team), roles)
                    n_evil = len(evil & set(team))
                    assert outcome.sabotage_count == n_evil
                    assert outcome.success == (n_evil < threshold)
                    assert outcome.round == rnd

    def test_check_game_end(self):
        state = new_game(GameConfig())
        assert check_game_end(state) is None
        for success in (True, True, True):
            state.quest_history.append(
                resolve_quest(1, frozenset({2, 3}), canonical_roles({5, 6, 7}))
            )
        decided = check_game_end(state)
        assert decided is not None and decided.quest_winner is Side.JUST

    def test_check_game_end_play_all_rounds(self):
        state = new_game(GameConfig(play_all_rounds=True))
        roles = canonical_roles({5, 6, 7})
        for _ in range(3):
            state.quest_history.append(resolve_quest(1, frozenset({2, 3}), roles))
        assert check_game_end(state) is None  # deferred to the fifth quest
        for _ in range(2):
            state.quest_history.append(resolve_quest(4, frozenset({5, 6, 7, 1}), roles))
        decided = check_game_end(state)
        assert decided is not None and decided.quest_winner is Side.JUST


class TestEngineFlow:
    def test_first_leader_is_seeded_and_in_range(self):
        leaders = {GameEngine(GameConfig(), canonical_roles({5, 6, 7}), s).assign_first_leader() for s in range(40)}
        assert leaders <= set(ALL_SEATS)
        assert len(leaders) > 1
        # Same seed, same leader.
        a = make_engine(seed=99).assign_first_leader()
        b = make_engine(seed=99).assign_first_leader()
        assert a == b

    def test_phase_sequence_single_round(self):
        eng = make_engine()
        assert eng.state.phase is Phase.LEADER_ASSIGNMENT
        leader = eng.assign_first_leader()
        assert eng.state.phase is Phase.TEAM_SELECTION
        assert eng.expected_actors() == {leader}
        eng.propose_team({1, 2})
        assert eng.state.phase is Phase.DISCUSSION
        speak_all(eng)
        assert eng.state.phase is Phase.TEAM_VOTE
        assert eng.expected_actors() == set(ALL_SEATS)
        eng.submit_ballots(approve_all())
        assert eng.state.phase is Phase.QUEST_EXECUTION
        assert eng.expected_actors() == {1, 2}
        eng.resolve_current_quest()
        assert eng.state.phase is Phase.LEADER_ASSIGNMENT
        assert eng.state.round == 2

    def test_leader_rotation_across_rounds_follows_last_proposer(self):
        eng = make_engine(seed=3)
        first = eng.assign_first_leader()
        eng.propose_team({1, 2})
        speak_all(eng)
        eng.submit_ballots(reject_all())  # attempt 2, next seat proposes
        second = eng.state.leader
        assert second == rotate_leader(first)
        eng.propose_team({1, 2})
        speak_all(eng)
        eng.submit_ballots(approve_all())
        eng.resolve_current_quest()
        # Round 2's leader continues from the last proposer, not the first.
        next_leader = eng.assign_next_leader()
        assert next_leader == rotate_leader(second)

    def test_five_rejections_force_approval(self):
        eng = make_engine(seed=5)
        eng.assign_first_leader()
        proposers = []
        for attempt in range(1, MAX_PROPOSAL_ATTEMPTS + 1):
            assert eng.state.attempt == attempt
            proposers.append(eng.state.leader)
            eng.propose_team({1, 2})
            speak_all(eng)
            proceeds = eng.submit_ballots(reject_all())
        # The fifth rejection still executes the quest.
        assert eng.state.phase is Phase.QUEST_EXECUTION
        assert proceeds
        result = [e for e in eng.events if e.kind is EventKind.BALLOT_RESULT and e.visibility == "public"][-1]
        assert result.payload == {"approved": False, "approvals": 0, "forced": True}
        assert len({*proposers}) == 5  # a fresh proposer each attempt
        forced_notes = [e for e in eng.events if e.kind is EventKind.MODERATOR_NOTE and e.payload.get("forced")]
        assert len(forced_notes) == 1

    def test_team_validation(self):
        eng = make_engine()
        eng.assign_first_leader()
        with pytest.raises(SizeViolation):
            eng.propose_team({1, 2, 3})
        with pytest.raises(InvalidPlayer):
            eng.propose_team({1, 8})
        with pytest.raises(InvalidPlayer):
            eng.propose_team({0, 2})
        # Duplicates collapse before the size check.
        eng.propose_team([1, 1, 2])
        assert eng.current_team == frozenset({1, 2})

    def test_propose_requires_selection_phase(self):
        eng = make_engine()
        with pytest.raises(ProtocolError):
            eng.propose_team({1, 2})

    def test_discussion_speaker_order_enforced(self):
        eng = make_engine()
        eng.assign_first_leader()
        eng.propose_team({1, 2})
        assert eng.next_speaker() == 1
        with pytest.raises(ProtocolError):
            eng.add_discussion(3, "out of turn")
        for p in ALL_SEATS:
            eng.add_discussion(p, f"statement {p}")
        assert eng.state.phase is Phase.TEAM_VOTE
        with pytest.raises(ProtocolError):
            eng.add_discussion(1, "too late")

    def test_ballots_must_cover_every_seat(self):
        eng = make_engine()
        eng.assign_first_leader()
        eng.propose_team({1, 2})
        speak_all(eng)
        with pytest.raises(IncompleteBallot):
            eng.submit_ballots({p: True for p in range(1, 7)})

    def test_communication_disabled_goes_straight_to_vote(self):
        eng = make_engine(config=GameConfig(communication_enabled=False))
        eng.assign_first_leader()
        eng.propose_team({1, 2})
        assert eng.state.phase is Phase.TEAM_VOTE
        announce = [e for e in eng.events if e.kind is EventKind.MODERATOR_NOTE][-1]
        assert "secretly vote" in announce.text

    def test_quest_vote_overrides_are_audited(self):
        eng = make_engine(evil={5, 6, 7})
        eng.assign_first_leader()
        eng.propose_team({5, 1})
        speak_all(eng)
        eng.submit_ballots(approve_all())
        outcome = eng.resolve_current_quest({5: True, 1: True})  # evil seat 5 tries to pass
        assert outcome.success is False and outcome.sabotage_count == 1
        overrides = [
            e
            for e in eng.events
            if e.kind is EventKind.AGENT_ERROR and e.payload.get("reason") == "quest_vote_override"
        ]
        assert [e.actor for e in overrides] == [5]
        assert all(e.visibility == AUDIT for e in overrides)

    @pytest.mark.parametrize("payload", [{"leader": 9}, {"members": [6, 7], "leader": 9, "trace": 1}])
    def test_a_callers_payload_keeps_the_engines_keys(self, payload):
        eng = make_engine()
        leader = eng.assign_first_leader()
        eng.propose_team({1, 2}, payload=payload)
        proposed = eng.events[-2]
        assert proposed.kind is EventKind.TEAM_PROPOSED
        assert list(proposed.payload) == ["members", "leader", *(k for k in payload if k not in ("members", "leader"))]
        assert proposed.payload["members"] == [1, 2] and proposed.payload["leader"] == leader

    def test_a_callers_ballot_payload_keeps_the_vote(self):
        eng = make_engine()
        eng.assign_first_leader()
        eng.propose_team({1, 2})
        speak_all(eng)
        eng.submit_ballots(approve_all(), {seat: {"approve": False, "reasoning": "no"} for seat in ALL_SEATS})
        ballots = [e for e in eng.events if e.kind is EventKind.BALLOT_RESULT and e.actor is not None]
        assert [e.payload for e in ballots] == [{"approve": True, "reasoning": "no"}] * NUM_PLAYERS

    def test_quest_vote_from_off_team_seat_rejected(self):
        eng = make_engine()
        eng.assign_first_leader()
        eng.propose_team({1, 2})
        speak_all(eng)
        eng.submit_ballots(approve_all())
        with pytest.raises(ProtocolError):
            eng.resolve_current_quest({3: False})


class TestEndings:
    def _win_three_quests(self, eng: GameEngine) -> None:
        # Teams drawn from just seats only; evil is {5, 6, 7}.
        run_round(eng, {1, 2})
        run_round(eng, {1, 2, 3})
        run_round(eng, {1, 2, 4})

    def test_just_quest_win_triggers_assassination(self):
        eng = make_engine(evil={5, 6, 7})
        self._win_three_quests(eng)
        assert eng.state.phase is Phase.ASSASSINATION
        assert eng.assassin_seat == 6  # canonical layout: second evil seat
        with pytest.raises(ProtocolError):
            eng.run_assassination(5, 1)

    def test_assassination_hit_flips_overall_winner(self):
        eng = make_engine(evil={5, 6, 7})
        self._win_three_quests(eng)
        merlin = next(s for s, r in eng.roles.items() if r is Role.MERLIN)
        outcome = eng.run_assassination(eng.assassin_seat, merlin)
        assert outcome.quest_winner is Side.JUST
        assert outcome.assassination_hit is True
        assert outcome.overall_winner is Side.EVIL
        assert eng.finished

    def test_assassination_miss_keeps_just_win(self):
        eng = make_engine(evil={5, 6, 7})
        self._win_three_quests(eng)
        servant = next(s for s, r in eng.roles.items() if r is Role.SERVANT)
        outcome = eng.run_assassination(eng.assassin_seat, servant)
        assert outcome.assassination_hit is False
        assert outcome.overall_winner is Side.JUST

    def test_a_callers_payload_keeps_the_hit(self):
        eng = make_engine(evil={5, 6, 7})
        self._win_three_quests(eng)
        servant = next(s for s, r in eng.roles.items() if r is Role.SERVANT)
        eng.run_assassination(eng.assassin_seat, servant, {"target": 1, "hit": True, "trace": 1})
        assert eng.events[-1].payload == {"target": servant, "hit": False, "trace": 1}

    def test_assassination_disabled_finishes_immediately(self):
        eng = make_engine(evil={5, 6, 7}, config=GameConfig(assassination_enabled=False))
        self._win_three_quests(eng)
        assert eng.finished
        assert eng.outcome.quest_winner is Side.JUST
        assert eng.outcome.assassination_target is None

    def test_evil_quest_win_ends_without_assassination(self):
        eng = make_engine(evil={5, 6, 7})
        run_round(eng, {5, 6})
        run_round(eng, {5, 6, 7})
        run_round(eng, {5, 6, 1})
        assert eng.finished
        assert eng.outcome.quest_winner is Side.EVIL
        assert eng.outcome.overall_winner is Side.EVIL

    def test_play_all_rounds_runs_five_quests(self):
        eng = make_engine(evil={5, 6, 7}, config=GameConfig(play_all_rounds=True))
        run_round(eng, {1, 2})
        run_round(eng, {1, 2, 3})
        run_round(eng, {1, 2, 4})
        assert not eng.finished  # three just wins already banked
        run_round(eng, {1, 2, 3, 4})
        run_round(eng, {1, 2, 3, 4})
        assert eng.state.phase is Phase.ASSASSINATION
        assert len(eng.state.quest_history) == 5

    def test_reveal_counts_appears_in_quest_note(self):
        eng = make_engine(evil={5, 6, 7}, config=GameConfig(reveal_sabotage_count=True))
        run_round(eng, {5, 1})
        note = [e for e in eng.events if e.kind is EventKind.QUEST_RESULT][-1]
        assert "1 sabotage vote was cast." in note.text
        assert note.payload["sabotage_count"] == 1

    def test_no_sabotage_clause_by_default(self):
        eng = make_engine(evil={5, 6, 7})
        run_round(eng, {5, 1})
        note = [e for e in eng.events if e.kind is EventKind.QUEST_RESULT][-1]
        assert "sabotage" not in note.text


class TestEventHygiene:
    def test_seq_monotonic(self):
        eng = make_engine()
        run_round(eng, {1, 2})
        seqs = [e.seq for e in eng.events]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)

    def test_ballot_secrecy(self):
        eng = make_engine()
        eng.assign_first_leader()
        eng.propose_team({1, 2})
        speak_all(eng)
        ballots = {p: p % 2 == 0 for p in ALL_SEATS}
        ballots[6] = True  # 2,4,6 approve -> rejected
        eng.submit_ballots(ballots)
        private = [e for e in eng.events if e.kind is EventKind.BALLOT_RESULT and e.visibility != "public"]
        public = [e for e in eng.events if e.kind is EventKind.BALLOT_RESULT and e.visibility == "public"]
        assert [e.visibility for e in private] == [f"private:{p}" for p in ALL_SEATS]
        for event in private:
            assert event.visible_to(event.actor)
            assert not any(event.visible_to(other) for other in ALL_SEATS if other != event.actor)
        assert len(public) == 1
        # The public aggregate reports counts, never per-seat ballots.
        assert public[0].payload == {"approved": False, "approvals": 3, "forced": False}
        assert "seat" not in public[0].text

    def test_moderator_announcement_wording(self):
        eng = make_engine(seed=11)
        eng.assign_first_leader()
        eng.propose_team({2, 3})
        announce = [e for e in eng.events if e.kind is EventKind.MODERATOR_NOTE][-1]
        assert announce.text == (
            "The selected team by the leader include ['player 2', 'player 3']. "
            "Now everyone discuss if you agree the team."
        )


@given(st.integers(min_value=0, max_value=2**32), st.randoms(use_true_random=False))
def test_random_legal_drives_never_corrupt_state(seed, rng):
    """Property: any sequence of legal actions keeps the state invariants."""
    eng = GameEngine(GameConfig(), canonical_roles({5, 6, 7}), seed)
    eng.assign_first_leader()
    steps = 0
    while not eng.finished and steps < 200:
        steps += 1
        phase = eng.state.phase
        assert 1 <= eng.state.round <= 5
        assert 1 <= eng.state.attempt <= MAX_PROPOSAL_ATTEMPTS
        if phase is Phase.LEADER_ASSIGNMENT:
            eng.assign_next_leader() if eng.state.round > 1 else eng.assign_first_leader()
        elif phase is Phase.TEAM_SELECTION:
            team = rng.sample(ALL_SEATS, eng.state.team_size())
            eng.propose_team(team)
        elif phase is Phase.DISCUSSION:
            eng.add_discussion(eng.next_speaker(), "hmm")
        elif phase is Phase.TEAM_VOTE:
            eng.submit_ballots({p: rng.random() < 0.7 for p in ALL_SEATS})
        elif phase is Phase.QUEST_EXECUTION:
            eng.resolve_current_quest()
        elif phase is Phase.ASSASSINATION:
            eng.run_assassination(eng.assassin_seat, rng.choice(ALL_SEATS))
    assert eng.finished
    successes = sum(1 for q in eng.state.quest_history if q.success)
    failures = len(eng.state.quest_history) - successes
    assert successes <= 3 and failures <= 3
    assert eng.outcome is not None
    if eng.outcome.quest_winner is Side.JUST:
        assert successes == 3
    else:
        assert failures == 3
