import hashlib
import json
import pickle
from fractions import Fraction

import pytest

from avalonplay import runner
from avalonplay.agents import POLICIES, AgentSpec, DeductionAgent, LLMAgent, Observation, ScriptedEvilAgent
from avalonplay.deduction import live_worlds
from avalonplay.events import AUDIT, EventKind
from avalonplay.game import GameConfig, GameEngine, Phase, Side
from avalonplay.llm import MockLLM, MockRule
from avalonplay.records import load_record, replay
from avalonplay.runner import (
    SEED_STREAM,
    GameFailed,
    MetricsCounts,
    TournamentConfig,
    compute_metrics,
    counts_from_record,
    derive_seed,
    report_from_counts,
    run_game,
    run_tournament,
    seed_for_game,
    subseed,
)

from helpers import STRATEGY_SMOKE_FIXTURE, STRATEGY_SMOKE_SEED, run_codeact_e2e, run_strategy_smoke

DEDUCTION = AgentSpec("deduction")
SCRIPTED = AgentSpec("scripted_evil")
RANDOM = AgentSpec("random")


def approving_rules() -> list[MockRule]:
    """Unlimited rules that pick the lowest seats and approve everything."""
    return [
        MockRule("[1, 2]", phase="team_selection", pattern=r"select 2 team members", max_uses=None),
        MockRule("[1, 2, 3]", phase="team_selection", pattern=r"select 3 team members", max_uses=None),
        MockRule("[1, 2, 3, 4]", phase="team_selection", pattern=r"select 4 team members", max_uses=None),
        MockRule("Nothing to add.", phase="discussion", max_uses=None),
        MockRule('{"reasoning": "Fine.", "vote": "approve"}', phase="team_vote", max_uses=None),
        MockRule('{"reasoning": "Go.", "vote": "approve"}', phase="quest_vote", max_uses=None),
        MockRule("player 2", phase="assassination", max_uses=None),
    ]


class TestSeeds:
    def test_stream_name(self):
        assert SEED_STREAM == "sha256-stream-v1"

    def test_frozen_values(self):
        assert seed_for_game(42, 0) == 14347451550736972493
        assert seed_for_game(42, 1) == 13166699750335757183
        assert subseed(seed_for_game(42, 0), "roles") == 6711049363402196892
        assert subseed(seed_for_game(42, 0), "leader") == 8490069030903544509
        assert subseed(seed_for_game(42, 0), "agent/3") == 15879437079338324755

    def test_derivation_is_the_documented_hash(self):
        digest = hashlib.sha256(b"avalonplay/42/game/0").digest()
        assert seed_for_game(42, 0) == int.from_bytes(digest[:8], "big")

    def test_seeds_fit_in_64_bits_and_differ(self):
        seeds = {seed_for_game(7, i) for i in range(200)}
        assert len(seeds) == 200
        assert all(0 <= s < 2**64 for s in seeds)


class TestRunGame:
    def test_identical_seeds_give_identical_records(self):
        a = run_game(GameConfig(), DEDUCTION, SCRIPTED, game_seed=seed_for_game(5, 0))
        b = run_game(GameConfig(), DEDUCTION, SCRIPTED, game_seed=seed_for_game(5, 0))
        assert [e.to_dict() for e in a.events] == [e.to_dict() for e in b.events]
        assert a.outcome == b.outcome
        assert a.roles.as_dict() == b.roles.as_dict()

    def test_different_seeds_differ(self):
        a = run_game(GameConfig(), DEDUCTION, SCRIPTED, game_seed=seed_for_game(5, 0))
        b = run_game(GameConfig(), DEDUCTION, SCRIPTED, game_seed=seed_for_game(5, 1))
        assert [e.to_dict() for e in a.events] != [e.to_dict() for e in b.events]

    def test_specs_assigned_by_side(self):
        record = run_game(GameConfig(), DEDUCTION, SCRIPTED, game_seed=seed_for_game(5, 0))
        for seat in range(1, 8):
            expected = DEDUCTION if record.roles.side(seat) is Side.JUST else SCRIPTED
            assert record.agents[seat] == expected

    def test_seed_info_contents(self):
        game_seed = seed_for_game(5, 0)
        record = run_game(GameConfig(), DEDUCTION, SCRIPTED, game_seed=game_seed)
        assert record.seed_info == {
            "stream": SEED_STREAM,
            "game_seed": game_seed,
            "roles_seed": subseed(game_seed, "roles"),
            "engine_seed": subseed(game_seed, "leader"),
        }

    def test_record_replays(self):
        record = run_game(GameConfig(), DEDUCTION, SCRIPTED, game_seed=seed_for_game(5, 2))
        assert replay(record).outcome == record.outcome

    def test_aborted_game_when_the_script_runs_dry(self):
        client = MockLLM([])  # no rules: the first model call fails
        record = run_game(
            GameConfig(),
            AgentSpec("llm"),
            SCRIPTED,
            game_seed=seed_for_game(5, 0),
            client=client,
        )
        assert record.aborted
        assert record.outcome is None
        assert "no fixture rule" in record.error
        audit = [e for e in record.events if e.visibility == AUDIT]
        assert audit and audit[-1].payload.get("reason") == "abort"

    def test_logged_exchanges_keep_their_keys(self):
        client = MockLLM.from_file(STRATEGY_SMOKE_FIXTURE)
        record = run_game(
            GameConfig(communication_enabled=False),
            AgentSpec("llm", model="mock"),
            SCRIPTED,
            game_seed=STRATEGY_SMOKE_SEED,
            client=client,
            log_exchanges=True,
        )
        exchanges = [x for e in record.events for x in e.payload.get("exchanges", [])]
        assert exchanges
        for exchange in exchanges:
            assert list(exchange) == ["request", "response", "tag", "temperature"]

    def test_llm_policy_requires_a_client(self):
        with pytest.raises(ValueError, match="client"):
            run_game(GameConfig(), AgentSpec("llm"), SCRIPTED, game_seed=1)


class TestMetricsCounts:
    def test_counts_match_a_manual_event_walk(self):
        record = run_game(GameConfig(), DEDUCTION, SCRIPTED, game_seed=seed_for_game(9, 4))
        counts = counts_from_record(record)

        quest_events = [e for e in record.events if e.kind is EventKind.QUEST_RESULT]
        n_success = sum(1 for e in quest_events if e.payload["success"])
        assert counts.n_games == 1
        assert counts.n_aborted == 0
        assert counts.quests_run == len(quest_events)
        assert counts.quests_succeeded == n_success
        assert counts.discussion_utterances == sum(
            1 for e in record.events if e.kind is EventKind.DISCUSSION
        )
        public_ballots = [
            e
            for e in record.events
            if e.kind is EventKind.BALLOT_RESULT and e.visibility == "public"
        ]
        assert counts.rejected_ballots == sum(
            1 for e in public_ballots if not e.payload["approved"]
        )
        assert counts.forced_approvals == sum(1 for e in public_ballots if e.payload["forced"])
        for e in quest_events:
            rnd = e.payload["round"]
            assert counts.round_quests[rnd - 1] >= 1

    def test_team_accuracy_counts_just_led_quest_successes(self):
        record = run_game(GameConfig(), DEDUCTION, SCRIPTED, game_seed=seed_for_game(9, 4))
        counts = counts_from_record(record)
        evil = record.roles.evil_seats()
        leader = None
        just_led = just_led_success = 0
        for e in sorted(record.events, key=lambda e: e.seq):
            if e.kind is EventKind.TEAM_PROPOSED:
                leader = e.payload["leader"]
            elif e.kind is EventKind.QUEST_RESULT:
                if leader not in evil:
                    just_led += 1
                    just_led_success += int(e.payload["success"])
        assert counts.just_led_quests == just_led
        assert counts.just_led_successes == just_led_success

    def test_aborted_records_only_count_as_aborted(self):
        record = run_game(
            GameConfig(), AgentSpec("llm"), SCRIPTED, game_seed=seed_for_game(5, 0), client=MockLLM([])
        )
        counts = counts_from_record(record)
        assert counts.n_games == 1
        assert counts.n_aborted == 1
        assert counts.quests_run == 0
        assert counts.discussion_utterances == 0

    def test_add_accumulates(self):
        a = counts_from_record(run_game(GameConfig(), DEDUCTION, SCRIPTED, game_seed=seed_for_game(9, 0)))
        b = counts_from_record(run_game(GameConfig(), DEDUCTION, SCRIPTED, game_seed=seed_for_game(9, 1)))
        total = MetricsCounts()
        total.add(a)
        total.add(b)
        assert total.n_games == 2
        assert total.quests_run == a.quests_run + b.quests_run


class TestMetricsReport:
    def test_ratios_are_exact_fractions(self):
        counts = MetricsCounts()
        counts.n_games = 4
        counts.n_aborted = 1
        counts.just_overall_wins = 2
        counts.just_quest_wins = 1
        counts.quests_run = 10
        counts.quests_succeeded = 7
        counts.just_led_quests = 5
        counts.just_led_successes = 2
        counts.rejected_ballots = 6
        counts.forced_approvals = 1
        counts.assassination_attempts = 2
        counts.assassination_hits = 1
        counts.discussion_utterances = 70
        report = report_from_counts(counts)
        assert report.n_games == 4
        assert report.n_completed == 3
        assert report.just_game_win_rate == Fraction(2, 3)
        assert report.just_quest_win_rate == Fraction(1, 3)
        assert report.quest_success_rate == Fraction(7, 10)
        assert report.team_accuracy == Fraction(2, 5)
        assert report.rejected_ballots_per_game == Fraction(2, 1)
        assert report.assassination_hit_rate == Fraction(1, 2)
        assert report.discussion_utterances == 70

    def test_empty_denominators_become_none(self):
        report = report_from_counts(MetricsCounts())
        assert report.just_game_win_rate is None
        assert report.team_accuracy is None
        assert report.assassination_hit_rate is None

    def test_to_json_carries_numerator_and_denominator(self):
        counts = MetricsCounts()
        counts.n_games = 2
        counts.just_overall_wins = 1
        report = report_from_counts(counts)
        data = report.to_json()
        assert data["just_game_win_rate"] == {
            "numerator": 1,
            "denominator": 2,
            "value": 0.5,
        }
        assert data["team_accuracy"] is None
        json.dumps(data)  # must be serializable as-is

    def test_compute_metrics_over_records(self):
        records = [
            run_game(GameConfig(), DEDUCTION, SCRIPTED, game_seed=seed_for_game(3, i))
            for i in range(4)
        ]
        report = compute_metrics(records)
        assert report.n_games == 4
        assert report.n_completed == 4
        folded = MetricsCounts()
        for r in records:
            folded.add(counts_from_record(r))
        assert report == report_from_counts(folded)


class TestTournament:
    def test_repeat_runs_are_bit_identical(self):
        config = TournamentConfig(n_games=12, base_seed=21)
        a = run_tournament(config)
        b = run_tournament(config)
        assert a.report == b.report
        assert a.summaries == b.summaries
        assert a.digest() == b.digest()

    def test_parallelism_does_not_change_results(self):
        serial = run_tournament(TournamentConfig(n_games=12, base_seed=21, parallelism=1))
        parallel = run_tournament(TournamentConfig(n_games=12, base_seed=21, parallelism=8))
        assert serial.report == parallel.report
        assert serial.summaries == parallel.summaries
        assert serial.digest() == parallel.digest()

    def test_default_tournament_digest_is_pinned(self):
        # Default specs (deduction vs scripted_evil); any change to a game,
        # the metrics or the summaries moves this digest.
        result = run_tournament(TournamentConfig(n_games=50, base_seed=42))
        assert result.digest() == "1cd5285733c8026183a4699aef785a2568035d7398cda77e10528d937339beef"

    def test_process_pool_is_capped_at_cpu_count(self, monkeypatch):
        requested = []
        real_pool = runner.ProcessPoolExecutor

        def recording_pool(max_workers):
            requested.append(max_workers)
            return real_pool(max_workers=max_workers)

        monkeypatch.setattr(runner, "ProcessPoolExecutor", recording_pool)
        monkeypatch.setattr(runner.os, "cpu_count", lambda: 2)
        capped = run_tournament(TournamentConfig(n_games=6, base_seed=21, parallelism=8))
        assert requested == [2]
        assert capped.digest() == run_tournament(TournamentConfig(n_games=6, base_seed=21)).digest()

    def test_game_ids_and_order(self):
        result = run_tournament(TournamentConfig(n_games=3, base_seed=21))
        assert [s.game_id for s in result.summaries] == [
            "g21-00000",
            "g21-00001",
            "g21-00002",
        ]

    def test_records_written_and_replayable(self, tmp_path):
        run_tournament(TournamentConfig(n_games=3, base_seed=21, record_dir=str(tmp_path)))
        paths = sorted(tmp_path.glob("*.jsonl"))
        assert [p.stem for p in paths] == ["g21-00000", "g21-00001", "g21-00002"]
        for path in paths:
            record = load_record(path)
            replay(record)

    def test_mock_client_games_run_in_the_process_pool(self):
        config = TournamentConfig(
            n_games=2,
            base_seed=3,
            just_spec=AgentSpec("llm"),
            evil_spec=SCRIPTED,
            parallelism=4,
        )
        result = run_tournament(config, client=MockLLM(approving_rules()))
        assert result.report.n_games == 2
        assert result.report.n_aborted == 0

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_rule_budgets_belong_to_one_game(self, tmp_path, parallelism):
        # A one-use rule answers the first proposal of every game, not only
        # of the game that happens to ask first.
        once = MockRule("[6, 7]", phase="team_selection", pattern=r"select 2 team members", max_uses=1)
        config = TournamentConfig(
            n_games=4,
            base_seed=3,
            just_spec=AgentSpec("llm"),
            evil_spec=AgentSpec("llm"),
            parallelism=parallelism,
            record_dir=str(tmp_path),
        )
        run_tournament(config, client=MockLLM([once] + approving_rules()))
        paths = sorted(tmp_path.glob("*.jsonl"))
        assert len(paths) == 4
        for path in paths:
            proposals = [e for e in load_record(path).events if e.kind is EventKind.TEAM_PROPOSED]
            assert proposals[0].payload["members"] == [6, 7], path.name
            assert all(e.payload["members"] != [6, 7] for e in proposals[1:]), path.name

    def test_finite_budgets_give_the_serial_digest_at_parallelism_4(self):
        def digest(parallelism):
            budget = MockRule("[3, 4]", phase="team_selection", max_uses=20)
            config = TournamentConfig(
                n_games=12,
                base_seed=3,
                just_spec=AgentSpec("llm"),
                evil_spec=SCRIPTED,
                parallelism=parallelism,
            )
            return run_tournament(config, client=MockLLM([budget] + approving_rules())).digest()

        serial = digest(1)
        assert [digest(4) for _ in range(20)] == [serial] * 20

    def test_an_aborted_game_reports_its_quests_but_counts_only_as_aborted(self, tmp_path):
        # No rule answers a four-seat selection, so a game whose just seat
        # leads a four-seat quest aborts after three quests.
        rules = [rule for rule in approving_rules() if rule.pattern != r"select 4 team members"]
        config = TournamentConfig(
            n_games=6, base_seed=3, just_spec=AgentSpec("llm"), evil_spec=SCRIPTED, record_dir=str(tmp_path)
        )
        result = run_tournament(config, client=MockLLM(rules))
        aborted = [s for s in result.summaries if s.aborted]
        assert aborted and all(s.rounds_played == 3 for s in aborted)
        records = [load_record(path) for path in sorted(tmp_path.glob("*.jsonl"))]
        assert result.report == compute_metrics(records)
        assert result.counts.n_aborted == len(aborted)
        assert result.counts.quests_run == sum(s.rounds_played for s in result.summaries if not s.aborted)

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_the_callers_client_is_untouched(self, parallelism):
        client = MockLLM(approving_rules())
        config = TournamentConfig(
            n_games=2, base_seed=3, just_spec=AgentSpec("llm"), evil_spec=SCRIPTED, parallelism=parallelism
        )
        assert run_tournament(config, client=client).report.n_aborted == 0
        assert [rule.uses for rule in client.rules] == [0] * len(client.rules)
        assert client.requests_log == []

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_a_failing_game_is_named(self, monkeypatch, parallelism):
        def broken_act(self, obs):
            raise RuntimeError("agent bug")

        monkeypatch.setattr(DeductionAgent, "act", broken_act)
        config = TournamentConfig(n_games=2, base_seed=3, parallelism=parallelism)
        with pytest.raises(GameFailed) as info:
            run_tournament(config)
        assert str(info.value) == f"game index 0 (game seed {seed_for_game(3, 0)}): RuntimeError: agent bug"
        if parallelism == 1:
            assert isinstance(info.value.__cause__, RuntimeError)
        else:
            # A process-pool worker sends the exception back pickled, with
            # its traceback text, cause included, as the new cause.
            assert "RuntimeError: agent bug" in str(info.value.__cause__)
        assert str(pickle.loads(pickle.dumps(info.value))) == str(info.value)

    def test_a_record_that_cannot_be_encoded_is_named(self, tmp_path):
        class SurrogateLLM(MockLLM):
            def complete(self, messages, temperature, tag):
                reply = super().complete(messages, temperature, tag)
                return reply + " \ud800" if tag == "discussion" else reply

        config = TournamentConfig(
            n_games=2, base_seed=3, just_spec=AgentSpec("llm"), evil_spec=SCRIPTED, record_dir=str(tmp_path)
        )
        with pytest.raises(GameFailed) as info:
            run_tournament(config, client=SurrogateLLM(approving_rules()))
        assert str(info.value).startswith(f"game index 0 (game seed {seed_for_game(3, 0)}): UnicodeEncodeError: ")
        assert isinstance(info.value.__cause__, UnicodeEncodeError)
        assert list(tmp_path.iterdir()) == []  # neither a record nor a partial file

    def test_deduction_beats_random_on_team_accuracy(self):
        deduction = run_tournament(TournamentConfig(n_games=60, base_seed=33)).report
        baseline = run_tournament(
            TournamentConfig(n_games=60, base_seed=33, just_spec=RANDOM)
        ).report
        assert deduction.team_accuracy - baseline.team_accuracy >= Fraction(15, 100)


class TestObservationCaches:
    """The runner's per-quest facts tuple and each deduction seat's memoised
    live-world mask never go stale."""

    @pytest.mark.parametrize(
        "config", [GameConfig(), GameConfig(reveal_sabotage_count=True, play_all_rounds=True)], ids=["default", "all-rounds"]
    )
    def test_facts_change_at_each_quest_result_and_masks_follow(self, config, monkeypatch):
        quests = 0
        resolve = GameEngine.resolve_current_quest

        def counting_resolve(engine, *args):
            nonlocal quests
            outcome = resolve(engine, *args)
            quests += 1
            return outcome

        handed_out = []  # (quest results so far, the observation's facts tuple)

        def observation(**fields):
            obs = Observation(**fields)
            handed_out.append((quests, obs.public_facts))
            return obs

        act = DeductionAgent.act
        decisions = []

        def checked_act(agent, obs):
            reply = act(agent, obs)
            if obs.phase in (Phase.DISCUSSION, Phase.TEAM_VOTE):
                assert agent._history_memo[0] is obs.public_facts
            assert agent._live_worlds(obs) == live_worlds(agent._constraints(obs))
            decisions.append(obs.phase)
            return reply

        monkeypatch.setattr(GameEngine, "resolve_current_quest", counting_resolve)
        monkeypatch.setattr(runner, "Observation", observation)
        monkeypatch.setattr(DeductionAgent, "act", checked_act)
        record = run_game(config, DEDUCTION, SCRIPTED, game_seed=seed_for_game(5, 3))

        assert quests == sum(1 for e in record.events if e.kind is EventKind.QUEST_RESULT) >= 3
        assert Phase.TEAM_VOTE in decisions and Phase.DISCUSSION in decisions
        facts_at: dict[int, tuple] = {}
        for n_quests, facts in handed_out:
            assert len(facts) == n_quests
            # The same tuple between quest results ...
            assert facts_at.setdefault(n_quests, facts) is facts
        # ... and a new one after each.
        assert set(facts_at) >= set(range(quests))
        assert len({id(facts) for facts in facts_at.values()}) == len(facts_at)


def _prompt_log_digest(client) -> str:
    blob = json.dumps([req["messages"] for req in client.requests_log], sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class TestMemoryIngestion:
    """Only seats whose policy reads memory ingest events; the prompts that
    LLM seats see must not depend on whether the other seats ingest too."""

    PINNED = {
        # just = llm(base), evil = scripted_evil: three seats never ingest.
        "smoke-base": "aeeceb2f2646e5fca7fc61776f49c6d73b2c694a69c4b28fbc86ae77ed4b2340",
        # all seven seats are llm/codeact.
        "e2e-codeact": "6a8d95eeaba2558dd6bb41e8af2c2423c714f5589183c98735160a157858640e",
    }

    @staticmethod
    def _play(game: str):
        return run_strategy_smoke("base") if game == "smoke-base" else run_codeact_e2e()

    @pytest.mark.parametrize("game", sorted(PINNED))
    def test_llm_prompts_are_pinned(self, game):
        record, client = self._play(game)
        assert not record.aborted, record.error
        assert _prompt_log_digest(client) == self.PINNED[game]

    def test_prompts_unchanged_when_every_seat_ingests(self, monkeypatch):
        _, skipping = self._play("smoke-base")
        monkeypatch.setattr(runner, "MEMORY_POLICIES", frozenset(POLICIES))
        _, everyone = self._play("smoke-base")
        assert [r["messages"] for r in skipping.requests_log] == [
            r["messages"] for r in everyone.requests_log
        ]

    def test_non_reading_seats_get_no_memory(self, monkeypatch):
        ingested: set[int] = set()
        original = runner.GlobalMemory.ingest_event

        def spy(memory, entry):
            ingested.add(memory.owner)
            return original(memory, entry)

        monkeypatch.setattr(runner.GlobalMemory, "ingest_event", spy)
        record, _ = run_strategy_smoke("base")
        llm_seats = {p for p, spec in record.agents.items() if spec.policy == "llm"}
        assert ingested == llm_seats
        run_game(GameConfig(), DEDUCTION, SCRIPTED, game_seed=5)
        assert ingested == llm_seats


class TestSharedObservation:
    """A decision step's seats without a memory share one observation; a
    seat with a memory gets its own, with a bundle, on every turn."""

    @staticmethod
    def _asked(monkeypatch, just_spec, client=None, game_seed=seed_for_game(42, 0)):
        """(step, seat, observation) for every agent call of one game; a
        step is the engine's (phase, round, attempt) when `decide` ran."""
        asked = []
        step = None
        drive = runner.drive

        def spying_drive(engine, decide):
            def spying_decide(engine):
                nonlocal step
                step = (engine.state.phase, engine.state.round, engine.state.attempt)
                return decide(engine)

            return drive(engine, spying_decide)

        def spying_act(policy_act):
            def act(agent, obs):
                asked.append((step, agent.seat, obs))
                return policy_act(agent, obs)

            return act

        monkeypatch.setattr(runner, "drive", spying_drive)
        for cls in (DeductionAgent, ScriptedEvilAgent, LLMAgent):
            monkeypatch.setattr(cls, "act", spying_act(cls.act))
        record = run_game(GameConfig(), just_spec, SCRIPTED, game_seed=game_seed, client=client)
        assert not record.aborted
        return record, asked

    def test_memoryless_seats_share_one_observation_per_step(self, monkeypatch):
        record, asked = self._asked(monkeypatch, DEDUCTION)
        shared: dict[tuple, Observation] = {}
        for step, _, obs in asked:
            if step[0] is not Phase.TEAM_SELECTION:
                assert shared.setdefault(step, obs) is obs
        # A new observation for each phase, round and attempt.
        assert len({id(obs) for obs in shared.values()}) == len(shared)
        steps = set(shared)
        assert {Phase.DISCUSSION, Phase.TEAM_VOTE, Phase.QUEST_EXECUTION} <= {phase for phase, _, _ in steps}
        assert any(attempt > 1 for _, _, attempt in steps), "the game should hold a rejected proposal"
        assert any(rnd > 1 for _, rnd, _ in steps)
        first = min(step for step in steps if step[0] is Phase.DISCUSSION)
        assert sorted(seat for step, seat, _ in asked if step == first) == list(range(1, 8))
        assert sum(1 for e in record.events if e.kind is EventKind.DISCUSSION) == sum(
            1 for step, _, _ in asked if step[0] is Phase.DISCUSSION
        )

    def test_llm_seats_get_their_own_observation_each_turn(self, monkeypatch):
        record, asked = self._asked(monkeypatch, AgentSpec("llm"), client=MockLLM(approving_rules()))
        llm_seats = {p for p in range(1, 8) if record.roles.side(p) is Side.JUST}
        llm_obs = [obs for _, seat, obs in asked if seat in llm_seats]
        assert all(obs.bundle is not None for obs in llm_obs)
        assert len({id(obs) for obs in llm_obs}) == len(llm_obs)
        shared: dict[tuple, Observation] = {}
        for step, seat, obs in asked:
            if seat not in llm_seats and step[0] is not Phase.TEAM_SELECTION:
                assert obs.bundle is None
                assert shared.setdefault(step, obs) is obs
        assert any(step[0] is Phase.DISCUSSION for step in shared)
