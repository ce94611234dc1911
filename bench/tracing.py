"""In-memory span tracing around each avalonplay module's public entry points.

The tracer patches names where their callers look them up (for example
``runner.build_bundle``, which the runner imported into its own namespace)
and restores them afterwards; nothing under ``src/`` is edited. Spans are
kept in memory with a game id and a parent span id, and are written out
once the traced pass ends. A span's self time is its duration minus the
time its direct child spans cover.

The traced pass is serial: the open-span stack is a plain list, which is
only sound while one thread calls into the program.
"""

from __future__ import annotations

import json
import time
import types
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

from avalonplay import agents, analyzer, codeact, game, memory, records, runner
from avalonplay.events import EventKind

from stats import mean, p50, ratio, tail

Note = Callable[[tuple, dict, Any], Any]

_FALLBACK_REASONS = ("parse_fallback", "contradiction_fallback", "codeact_fallback")
_TRANSITIONS = (
    "assign_first_leader",
    "assign_next_leader",
    "propose_team",
    "add_discussion",
    "submit_ballots",
    "resolve_current_quest",
    "run_assassination",
)
_ACT_POLICIES = (
    (agents.ScriptedEvilAgent, "scripted_evil"),
    (agents.RandomAgent, "random"),
    (agents.LLMAgent, "llm"),
)


def _chars(messages) -> int:
    return sum(len(m.content) for m in messages)


def _game_note(args, kwargs, result) -> dict[str, int]:
    reasons = [e.payload.get("reason") for e in result.events if e.kind is EventKind.AGENT_ERROR]
    return {
        "events": len(result.events),
        "fallbacks": sum(1 for r in reasons if r in _FALLBACK_REASONS),
        "overrides": reasons.count("quest_vote_override"),
    }


class Tracer:
    """Collects spans: (id, parent id, game id, name, start, end, ok, note).

    A note is computed from a call's arguments and result, for calls that
    return normally.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.game: str | None = None
        self._stack = [0]
        self._next_id = 1
        self._restore: list[Callable[[], None]] = []

    # -- patching ---------------------------------------------------------

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        note: Note | None = None,
        game_of: Callable[[tuple, dict], str] | None = None,
    ) -> None:
        """Replace owner.attr by a span-recording wrapper until `remove`."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(owner, (type, types.ModuleType)):
            self._restore.append(lambda: setattr(owner, attr, original))
        else:  # an instance: shadow the bound method, then drop the shadow
            self._restore.append(lambda: delattr(owner, attr))
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1]
            stack.append(span_id)
            if game_of is not None:
                self.game = game_of(args, kwargs)
            ok = True
            result = None
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
                return result
            except Exception:
                ok = False
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                extra = note(args, kwargs, result) if note is not None and ok else None
                spans.append((span_id, parent, self.game, name, start, end, ok, extra))

        setattr(owner, attr, traced)

    def install(self, client: Any | None) -> None:
        """Wrap every layer boundary the benchmark reports on."""
        w = self.wrap
        w(runner, "run_game", "runner.run_game", note=_game_note,
          game_of=lambda a, k: k.get("game_id"))
        for method in _TRANSITIONS:
            w(game.GameEngine, method, f"game.{method}")
        w(agents.DeductionAgent, "act", "deduction.act",
          note=lambda a, k, r: a[1].phase.value)
        for cls, policy in _ACT_POLICIES:
            w(cls, "act", f"agents.{policy}.act")
        w(agents, "belief", "deduction.belief")
        w(memory.GlobalMemory, "ingest_event", "memory.ingest_event",
          note=lambda a, k, r: id(a[0]))
        w(runner, "build_bundle", "prompts.build_bundle",
          note=lambda a, k, r: (id(a[2]), len(r.system_text()) + len(r.user_text())))
        w(agents, "parse_team_selection", "parsing.parse_team_selection")
        w(agents, "parse_vote", "parsing.parse_vote")
        w(codeact, "parse_team_selection", "parsing.parse_team_selection")
        w(codeact, "extract_program", "parsing.extract_program")
        if client is not None:
            w(client, "complete", "llm.complete", note=lambda a, k, r: _chars(a[0]))
        w(agents, "self_debug_loop", "codeact.self_debug_loop",
          note=lambda a, k, r: (r.attempts_used, r.fell_back))
        w(codeact, "execute_sandboxed", "codeact.execute_sandboxed",
          note=lambda a, k, r: r.status.value)
        w(runner, "write_record", "records.write_record",
          note=lambda a, k, r: Path(a[1]).stat().st_size)
        w(records, "load_record", "records.load_record",
          note=lambda a, k, r: Path(a[0]).stat().st_size,
          game_of=lambda a, k: Path(a[0]).stem)
        w(records, "replay", "records.replay", note=lambda a, k, r: len(r.events))
        w(analyzer, "analyze_record", "analyzer.analyze_record")

    def remove(self) -> None:
        while self._restore:
            self._restore.pop()()

    # -- output -----------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        covered: dict[int, float] = defaultdict(float)
        for span_id, parent, _, _, start, end, _, _ in self.spans:
            covered[parent] += end - start
        return {s[0]: (s[5] - s[4]) - covered.get(s[0], 0.0) for s in self.spans}

    def write(self, path: Path) -> None:
        """One JSON row per span, in start order, times in microseconds."""
        self_time = self.self_times()
        rows = sorted(self.spans, key=lambda s: s[0])
        origin = rows[0][4] if rows else 0.0
        with path.open("w", encoding="utf-8") as fh:
            fh.write(json.dumps(["id", "parent", "game", "name", "start_us", "dur_us", "self_us", "ok", "note"]) + "\n")
            for span_id, parent, game_id, name, start, end, ok, extra in rows:
                fh.write(json.dumps([
                    span_id, parent, game_id, name,
                    round((start - origin) * 1e6, 1), round((end - start) * 1e6, 1),
                    round(self_time[span_id] * 1e6, 1), ok, extra,
                ]) + "\n")


def layer_metrics(tracer: Tracer, n_items: int, netns_active: bool) -> tuple[dict[str, float], dict[str, str]]:
    """Per-layer metrics from one traced pass over n_items games or records.

    Returns (metrics, notes); notes say which percentile and sample count
    each tail figure is. A layer that did not run reports 0.
    """
    spans = tracer.spans
    self_time = tracer.self_times()
    by_name: dict[str, list[tuple]] = defaultdict(list)
    layer_self: dict[str, float] = defaultdict(float)
    for s in spans:
        by_name[s[3]].append(s)
        layer_self[s[3].split(".")[0]] += self_time[s[0]]
    parent_of = {s[0]: s[1] for s in spans}

    def durations(name: str, where: Callable[[tuple], bool] = lambda s: True) -> list[float]:
        return [s[5] - s[4] for s in by_name[name] if where(s)]

    def per_item(count: float) -> float:
        return ratio(count, n_items)

    transitions = [s for s in spans if s[3].startswith("game.")]
    acts = [s for s in spans if s[3].endswith(".act")]

    def noted(name: str) -> list:
        """Notes of the spans that returned normally."""
        return [s[7] for s in by_name[name] if s[6]]

    games = noted("runner.run_game")
    events = [g["events"] for g in games] + noted("records.replay")

    # LLM decisions, excluding the time spent inside the transport.
    llm_acts = {s[0]: s for s in by_name["agents.llm.act"]}
    transport: dict[int, float] = defaultdict(float)
    for s in by_name["llm.complete"]:
        node = s[1]
        while node and node not in llm_acts:
            node = parent_of.get(node, 0)
        if node:
            transport[node] += s[5] - s[4]
    llm_act_us = [(s[5] - s[4] - transport[i]) for i, s in llm_acts.items()]

    # First parse of each LLM decision that parsed directly.
    first_parse: dict[int, tuple] = {}
    for name in ("parsing.parse_team_selection", "parsing.parse_vote"):
        for s in by_name[name]:
            if s[1] in llm_acts and (s[1] not in first_parse or s[0] < first_parse[s[1]][0]):
                first_parse[s[1]] = s
    parse_calls = [s for s in spans if s[3].startswith("parsing.")]

    # Memory ingestion into seats whose memory is ever rendered into a prompt.
    bundles = [s for s in by_name["prompts.build_bundle"] if s[6]]
    readers = {(s[2], s[7][0]) for s in bundles}
    ingests = by_name["memory.ingest_event"]
    read_ingests = sum(1 for s in ingests if (s[2], s[7]) in readers)

    runs = by_name["codeact.execute_sandboxed"]
    loops = noted("codeact.self_debug_loop")
    run_ms = durations("codeact.execute_sandboxed")
    complete_us = durations("llm.complete")
    llm_tail, llm_pct, llm_n = tail(complete_us)
    run_tail, run_pct, run_n = tail(run_ms)
    record_bytes = noted("records.write_record") + noted("records.load_record")

    def phase_us(phase: str) -> float:
        return p50(durations("deduction.act", lambda s: s[7] == phase)) * 1e6

    metrics = {
        "runner.self_ms_per_game": per_item(layer_self["runner"]) * 1e3,
        "game.transitions_per_game": per_item(len(transitions)),
        "game.transition_us_p50": p50([s[5] - s[4] for s in transitions]) * 1e6,
        "game.self_ms_per_game": per_item(layer_self["game"]) * 1e3,
        "game.events_per_game": mean(events),
        "agents.decisions_per_game": per_item(len(acts)),
        "agents.deduction.act_us_p50": p50(durations("deduction.act")) * 1e6,
        "agents.scripted_evil.act_us_p50": p50(
            durations("agents.scripted_evil.act")) * 1e6,
        "agents.llm.act_us_p50": p50(llm_act_us) * 1e6,
        "agents.parse_first_try_ratio": ratio(
            sum(1 for s in first_parse.values() if s[6]), len(first_parse)),
        "agents.fallbacks": float(sum(g["fallbacks"] for g in games)),
        "agents.quest_vote_overrides": float(sum(g["overrides"] for g in games)),
        "deduction.team_selection_us_p50": phase_us("team_selection"),
        "deduction.team_vote_us_p50": phase_us("team_vote"),
        "deduction.discussion_us_p50": phase_us("discussion"),
        "deduction.belief_calls": per_item(len(by_name["deduction.belief"])),
        "deduction.belief_us_p50": p50(durations("deduction.belief")) * 1e6,
        "deduction.self_ms_per_game": per_item(layer_self["deduction"]) * 1e3,
        "memory.ingests_per_game": per_item(len(ingests)),
        "memory.ingest_us_p50": p50(durations("memory.ingest_event")) * 1e6,
        "memory.self_ms_per_game": per_item(layer_self["memory"]) * 1e3,
        "memory.read_ratio": ratio(read_ingests, len(ingests)),
        "prompts.bundles_per_game": per_item(len(by_name["prompts.build_bundle"])),
        "prompts.build_bundle_us_p50": p50(durations("prompts.build_bundle")) * 1e6,
        "prompts.chars_p50": p50([s[7][1] for s in bundles]),
        "parsing.calls_per_game": per_item(len(parse_calls)),
        "parsing.us_p50": p50([s[5] - s[4] for s in parse_calls]) * 1e6,
        "parsing.fail_ratio": ratio(sum(1 for s in parse_calls if not s[6]), len(parse_calls)),
        "llm.requests_per_game": per_item(len(complete_us)),
        "llm.complete_us_p50": p50(complete_us) * 1e6,
        "llm.complete_us_tail": llm_tail * 1e6,
        "llm.request_chars_p50": p50(noted("llm.complete")),
        "codeact.runs_per_game": per_item(len(runs)),
        "codeact.run_ms_p50": p50(run_ms) * 1e3,
        "codeact.run_ms_tail": run_tail * 1e3,
        "codeact.ok_ratio": ratio(sum(1 for s in runs if s[7] == "ok"), len(runs)),
        "codeact.attempts_per_selection": mean([used for used, _ in loops]),
        "codeact.fallbacks": float(sum(1 for _, fell_back in loops if fell_back)),
        "codeact.netns_active": float(netns_active),
        "records.write_ms_p50": p50(durations("records.write_record")) * 1e3,
        "records.bytes_per_game": mean(record_bytes),
        "records.load_ms_p50": p50(durations("records.load_record")) * 1e3,
        "records.replay_ms_p50": p50(durations("records.replay")) * 1e3,
        "records.replay_mismatches": float(sum(1 for s in by_name["records.replay"] if not s[6])),
        "analyzer.analyze_ms_p50": p50(durations("analyzer.analyze_record")) * 1e3,
    }
    notes = {
        "llm.complete_us_tail": f"p{llm_pct} of {llm_n} samples",
        "codeact.run_ms_tail": f"p{run_pct} of {run_n} samples",
    }
    return metrics, notes
