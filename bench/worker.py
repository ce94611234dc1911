"""One benchmark run of one workload, in a fresh interpreter.

``run.py`` starts this script and reads the JSON object it prints as its
last line. Set-up is everything from interpreter start to the first timed
item: the imports, the fixtures, the audit corpus and one untimed warm-up
item. With ``--setup-only`` the script stops there and reports only its
set-up time; otherwise it goes on to the timed passes and the correctness
gate, and with ``--trace 1`` to a traced pass.

Every pass runs the workload's fixed item count (a tournament of that many
games, or an audit of a corpus of that many records). Serial and parallel
passes alternate while the next one fits in ``--seconds`` of pass time; at
least two serial passes and one parallel pass always run. Each item's time
and CPU come from its fastest serial pass, and the serial figures are built
from those: other tenants of the machine only ever add time, so the minimum
is the figure they disturb least. The parallel rate comes from the median
parallel pass.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import multiprocessing
import os
import resource
import shutil
import sys
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"
# Keep the program's scratch files (sandbox directories, pool state) inside
# the checkout; tempfile reads TMPDIR on first use and children inherit it.
os.environ["TMPDIR"] = str(OUT / "tmp")
(OUT / "tmp").mkdir(parents=True, exist_ok=True)
sys.path.insert(0, str(BENCH.parent / "src"))

from avalonplay import analyzer, codeact, records, runner  # noqa: E402
from avalonplay.agents import AgentSpec  # noqa: E402
from avalonplay.game import GameConfig  # noqa: E402
from avalonplay.llm import MockLLM  # noqa: E402

from stats import p50, tail  # noqa: E402

FIXTURE = BENCH / "fixtures" / "mock_llm.json"
PINS = BENCH / "pins.json"
PIN_SEED = 42
CORES = len(os.sched_getaffinity(0))

# Fixed item counts: the pinned digests hold for these sizes at PIN_SEED.
# codeact-mock games take about half a second, so 30 of them leave room for
# a second serial pass within a run.
DEFAULT_ITEMS = {
    "selfplay-deduction": 100,
    "codeact-mock": 30,
    "record-audit": 48,
}
# Each item's time is its fastest over at least this many serial passes.
MIN_SERIAL_PASSES = 2
# Audit corpora come from base seeds the play workloads do not use.
CORPUS_SEED_OFFSETS = (1_000_000, 2_000_000)


def llm_spec(strategy: str) -> AgentSpec:
    return AgentSpec(policy="llm", strategy=strategy, model="mock")


DEDUCTION = AgentSpec(policy="deduction")
SCRIPTED_EVIL = AgentSpec(policy="scripted_evil")


def fresh_client() -> MockLLM:
    """One client per tournament: the fixture's rules are all unlimited-use,
    so answers do not depend on which thread asks first."""
    return MockLLM.from_file(FIXTURE)


def cpu_now() -> float:
    """User + system seconds of this process and its waited-for children
    (getrusage counts in microseconds; os.times only in clock ticks)."""
    usage = [resource.getrusage(who) for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
    return sum(u.ru_utime + u.ru_stime for u in usage)


def fingerprint(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode("utf-8")).hexdigest()[:16]


@dataclass
class Rep:
    """One pass over all of a workload's items."""

    seconds: float
    fingerprints: list[tuple[str, str]]  # (game id, fingerprint) in item order
    digest: str
    failures: list[str]
    findings_per_100_utterances: float = 0.0
    # Serial passes only: each item's wall and CPU seconds (user + system, of
    # the process and its waited-for children), and the same for the
    # corpus-level step of an audit (metrics and summary over all records).
    item_wall: list[float] = field(default_factory=list)
    item_cpu: list[float] = field(default_factory=list)
    fold_wall: float = 0.0
    fold_cpu: float = 0.0


class ItemTimer:
    """Collects each item's wall and CPU seconds in a serial pass."""

    def __init__(self) -> None:
        self.wall: list[float] = []
        self.cpu: list[float] = []

    def time(self, fn, *args, **kwargs):
        cpu_start, start = cpu_now(), time.perf_counter()
        result = fn(*args, **kwargs)
        self.wall.append(time.perf_counter() - start)
        self.cpu.append(cpu_now() - cpu_start)
        return result


class Tournament:
    """A seeded tournament run through `runner.run_tournament`."""

    def __init__(self, just: AgentSpec, evil: AgentSpec, mock: bool, write_records: bool,
                 seed: int, items: int, workdir: Path, game: GameConfig = GameConfig()) -> None:
        self.mock = mock
        self.tc = runner.TournamentConfig(
            n_games=items,
            base_seed=seed,
            just_spec=just,
            evil_spec=evil,
            game=game,
            record_dir=str(workdir / "records") if write_records else None,
        )

    def warm_up(self) -> None:
        runner.run_tournament(replace(self.tc, n_games=1), client=fresh_client() if self.mock else None)

    def run(self, parallel: bool = False, timed: bool = False, tracer=None) -> Rep:
        tc = replace(self.tc, parallelism=CORES) if parallel else self.tc
        client = fresh_client() if self.mock else None
        run_one = runner._run_one
        timer = ItemTimer()
        if timed:
            # run_tournament's serial loop looks _run_one up per game.
            runner._run_one = lambda *args, **kwargs: timer.time(run_one, *args, **kwargs)
        if tracer is not None:
            tracer.install(client)
        try:
            start = time.perf_counter()
            result = runner.run_tournament(tc, client=client)
            seconds = time.perf_counter() - start
        finally:
            runner._run_one = run_one
            if tracer is not None:
                tracer.remove()
        # Record paths are run-local, so compare games and digests without them.
        result.summaries = [replace(s, record_path=None) for s in result.summaries]
        return Rep(
            seconds=seconds,
            fingerprints=[(s.game_id, fingerprint(asdict(s))) for s in result.summaries],
            digest=result.digest(),
            failures=[f"game index {s.index} ({s.game_id}): aborted" for s in result.summaries if s.aborted],
            item_wall=timer.wall,
            item_cpu=timer.cpu,
        )

    def close(self) -> None:
        pass


def audit_one(path: Path):
    """Load, replay and analyze one record.

    Returns (record, game id, fingerprint, findings, error); a record that
    does not load or replay is a failed item, with record and findings None.
    """
    try:
        record = records.load_record(path)
        records.replay(record)
    except (records.RecordFormatError, records.RecordSchemaError, records.ReplayMismatch, OSError) as exc:
        return None, path.stem, None, None, f"{type(exc).__name__}: {exc}"
    findings = analyzer.analyze_record(record)
    summary = [
        record.game_id,
        len(record.events),
        record.outcome.to_dict() if record.outcome else None,
        [(f.seq, f.kind, f.detail) for f in findings],
    ]
    return record, record.game_id, fingerprint(summary), findings, None


class Audit:
    """The CLI's replay / metrics / analyze path over a corpus written in set-up.

    Per record: `load_record`, `replay` and `analyze_record`; then over the
    corpus `compute_metrics` and `summarize`, which with the per-record
    analyses make up `analyze_records`.
    """

    def __init__(self, seed: int, items: int, workdir: Path) -> None:
        corpus = workdir / "corpus"
        # Two thirds deduction records (slow to audit), one third LLM records
        # (fast, with findings): the median and tail items then fall inside
        # the deduction group instead of on the gap between the two groups.
        n_deduction = items * 2 // 3
        for offset, n, just, evil, client in (
            (CORPUS_SEED_OFFSETS[0], n_deduction, DEDUCTION, SCRIPTED_EVIL, None),
            (CORPUS_SEED_OFFSETS[1], items - n_deduction, llm_spec("cot"), llm_spec("react"), fresh_client()),
        ):
            tc = runner.TournamentConfig(n_games=n, base_seed=seed + offset, just_spec=just,
                                         evil_spec=evil, record_dir=str(corpus))
            runner.run_tournament(tc, client=client)
        self.paths = records.iter_record_paths(corpus)
        self.pool: ProcessPoolExecutor | None = None

    def warm_up(self) -> None:
        audit_one(self.paths[0])

    def run(self, parallel: bool = False, timed: bool = False, tracer=None) -> Rep:
        if parallel and self.pool is None:
            # The program has no parallel audit; this is what one audit
            # process per core gives.
            self.pool = ProcessPoolExecutor(CORES, mp_context=multiprocessing.get_context("spawn"))
        if tracer is not None:
            tracer.install(None)
        timer = ItemTimer()
        try:
            start = time.perf_counter()
            if parallel:
                results = list(self.pool.map(audit_one, self.paths))
            elif timed:
                results = [timer.time(audit_one, path) for path in self.paths]
            else:
                results = [audit_one(path) for path in self.paths]
            fold_cpu_start, fold_start = cpu_now(), time.perf_counter()
            loaded = [r[0] for r in results if r[0] is not None]
            report = runner.compute_metrics(loaded)
            summary = analyzer.summarize([f for r in results if r[3] for f in r[3]], loaded)
            end = time.perf_counter()
            fold_cpu = cpu_now() - fold_cpu_start
        finally:
            if tracer is not None:
                tracer.remove()
        rate = summary.findings_per_100_utterances
        return Rep(
            seconds=end - start,
            fingerprints=[(game_id, fp) for _, game_id, fp, _, _ in results],
            digest=fingerprint([report.to_json(), summary.to_json()]),
            failures=[f"game index {i} ({r[1]}): {r[4]}" for i, r in enumerate(results) if r[4]],
            findings_per_100_utterances=float(rate) if rate is not None else 0.0,
            item_wall=timer.wall,
            item_cpu=timer.cpu,
            fold_wall=end - fold_start,
            fold_cpu=fold_cpu,
        )

    def close(self) -> None:
        if self.pool is not None:
            self.pool.shutdown(wait=True)


def build(name: str, seed: int, items: int, workdir: Path):
    if name == "selfplay-deduction":
        return Tournament(DEDUCTION, SCRIPTED_EVIL, False, True, seed, items, workdir)
    if name == "codeact-mock":
        # All five rounds, so every game has 4-seat selections and their
        # self-debug runs; game lengths, and so pass times, also vary less.
        return Tournament(llm_spec("codeact"), SCRIPTED_EVIL, True, False, seed, items, workdir,
                          GameConfig(play_all_rounds=True))
    if name == "record-audit":
        return Audit(seed, items, workdir)
    raise ValueError(f"unknown workload {name!r}")


# ----- timed passes and the correctness gate ----------------------------------


def timed_passes(workload, budget: float) -> tuple[list[Rep], list[Rep]]:
    """Alternate serial and parallel passes, so both see the same stretch of
    machine load, while the next one fits in `budget` seconds of pass time
    (judged by the last pass of its kind). MIN_SERIAL_PASSES serial passes
    and one parallel pass always run."""
    serial: list[Rep] = []
    parallel: list[Rep] = []
    used = 0.0
    while True:
        is_serial = len(serial) <= len(parallel)
        reps = serial if is_serial else parallel
        required = MIN_SERIAL_PASSES if is_serial else 1
        if len(reps) >= required and used + reps[-1].seconds > budget:
            return serial, parallel
        gc.collect()  # start every pass with the previous pass's garbage gone
        reps.append(workload.run(parallel=not is_serial, timed=is_serial))
        used += reps[-1].seconds


def compare(reference: Rep, other: Rep, label: str, prefix: str) -> list[str]:
    errors = []
    for index, (want, got) in enumerate(zip(reference.fingerprints, other.fingerprints)):
        if want != got:
            errors.append(f"{prefix} game index {index} ({want[0]}): serial fingerprint {want[1]}, {label} {got[1]}")
    if len(reference.fingerprints) != len(other.fingerprints):
        errors.append(f"{prefix} {label} pass has {len(other.fingerprints)} items, serial {len(reference.fingerprints)}")
    if not errors and reference.digest != other.digest:
        errors.append(f"{prefix} {label} digest {other.digest} differs from serial {reference.digest}")
    return errors


def gate(name: str, seed: int, items: int, serial: list[Rep], others: list[tuple[str, Rep]]) -> list[str]:
    """Every mismatch names the workload, the game index and the seed."""
    prefix = f"{name} seed {seed}:"
    ref = serial[0]
    errors = [f"{prefix} {f}" for rep in serial + [r for _, r in others] for f in rep.failures]
    for label, rep in [("repeated serial", r) for r in serial[1:]] + others:
        errors += compare(ref, rep, label, prefix)
    if seed == PIN_SEED:
        pin = json.loads(PINS.read_text(encoding="utf-8")).get(name)
        if pin is None:
            return errors + [f"{prefix} no pinned digests for this workload"]
        for index, (game_id, fp) in enumerate(ref.fingerprints):
            if game_id in pin["games"] and pin["games"][game_id] != fp:
                errors.append(f"{prefix} game index {index} ({game_id}): pinned fingerprint "
                              f"{pin['games'][game_id]}, got {fp}")
        if items == pin["items"] and ref.digest != pin["digest"]:
            errors.append(f"{prefix} digest {ref.digest} differs from pinned {pin['digest']}")
    return errors


def fastest_per_item(passes: list[list[float]]) -> list[float]:
    """Each item's least value over the passes."""
    return [min(values) for values in zip(*passes)]


def measure(name: str, seed: int, items: int, seconds: float, trace: bool, workload) -> dict:
    serial, parallel = timed_passes(workload, seconds)
    per_item = fastest_per_item([r.item_wall for r in serial])
    per_item_cpu = fastest_per_item([r.item_cpu for r in serial])
    serial_seconds = sum(per_item) + min(r.fold_wall for r in serial)
    items_per_s = items / serial_seconds
    # A parallel pass needs both cores fast at once; its fastest time is a
    # rarer event than a serial item's, so the median pass is the steadier figure.
    items_per_s_parallel = items / p50([r.seconds for r in parallel])
    item_tail, tail_pct, n = tail(per_item)
    metrics = {
        "items_per_s": items_per_s,
        "items_per_s_parallel": items_per_s_parallel,
        "item_ms_p50": p50(per_item) * 1e3,
        "item_ms_tail": item_tail * 1e3,
        "cpu_ms_per_item": (sum(per_item_cpu) + min(r.fold_cpu for r in serial)) / items * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {
        "items_per_s": f"each item's fastest of {len(serial)} passes; the median pass gives "
                       f"{items / p50([r.seconds for r in serial]):.4g} 1/s",
        "items_per_s_parallel": f"median of {len(parallel)} passes",
        "item_ms_tail": f"p{tail_pct} of {n} samples",
        "cpu_ms_per_item": f"each item's least of {len(serial)} passes",
    }
    others = [("parallel", r) for r in parallel]
    netns = codeact._probe_namespace_support()
    if trace:
        import tracing

        tracer = tracing.Tracer()
        traced = workload.run(tracer=tracer)
        others.append(("traced", traced))
        metrics, notes = tracing.layer_metrics(tracer, items, netns)
        metrics["runner.parallel_efficiency"] = items_per_s_parallel / (CORES * items_per_s)
        metrics["analyzer.findings_per_100_utterances"] = traced.findings_per_100_utterances
        # Whole passes on both sides: the traced pass against the fastest untraced one.
        metrics["trace.overhead_ratio"] = min(r.seconds for r in serial) / traced.seconds
        spans_path = OUT / f"spans-{name}-seed{seed}.jsonl"
        tracer.write(spans_path)
        notes["spans"] = str(spans_path.relative_to(BENCH.parent))
    attempted = items * (len(serial) + len(parallel))
    failed = sum(len(r.failures) for r in serial + parallel)
    return {
        "metrics": metrics,
        "notes": notes,
        "attempted": attempted,
        "failed": failed,
        "gate_errors": gate(name, seed, items, serial, others),
        "env": {
            "python": sys.version.split()[0],
            "usable_cores": CORES,
            "cpu_count": os.cpu_count(),
            "netns_active": netns,
        },
        "pass_seconds": {
            "serial": [r.seconds for r in serial],
            "parallel": [r.seconds for r in parallel],
        },
        "item_seconds": [r.item_wall for r in serial],
        "item_cpu_seconds": [r.item_cpu for r in serial],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(DEFAULT_ITEMS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--items", type=int, default=None)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() of the parent just before it started this process")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    items = args.items or DEFAULT_ITEMS[args.workload]
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    workload = None
    try:
        workload = build(args.workload, args.seed, items, workdir)
        workload.warm_up()
        setup_s = time.monotonic() - args.spawned_at
        out = {"setup_s": setup_s, "items": items}
        if not args.setup_only:
            out |= measure(args.workload, args.seed, items, args.seconds, bool(args.trace), workload)
    finally:
        if workload is not None:
            workload.close()
        shutil.rmtree(workdir, ignore_errors=True)
    # After close(), so the audit pool's workers have been waited for.
    out["peak_rss_children_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
