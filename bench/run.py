"""AvalonPlay benchmark: one workload, every metric by name with its unit.

Usage (from the repository root):

    python3 bench/run.py --workload selfplay-deduction --seed 42 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics named in BENCHMARK.json,
``--trace 1`` the per-layer metrics of a traced pass. Set-up time is the
median of several fresh interpreters, each timed from its start to the
first timed item; the last of them goes on to measure. Outputs are checked
(see worker.py) and the results, with the run environment, are written to
``bench/out/``. The last line of standard output is one JSON object; the
exit code is non-zero when a correctness check fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 150


def spawn(args: argparse.Namespace, setup_only: bool, timeout: float) -> dict:
    """Run worker.py in a fresh interpreter and return its JSON result."""
    cmd = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if args.items:
        cmd += ["--items", str(args.items)]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--spawned-at", repr(time.monotonic())]
    # Own process group, so a timeout can stop the worker's pool and sandbox children too.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"bench: {args.workload} worker exceeded {timeout:.0f} s")
    if proc.returncode != 0:
        raise SystemExit(f"bench: {args.workload} worker exited with code {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def commit() -> str | None:
    """HEAD of the checkout, or None outside a git repository."""
    try:
        # The ceiling keeps git from reporting an enclosing repository's HEAD.
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
                              env=os.environ | {"GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_sha256() -> str:
    """Digest of the package sources, for checkouts without a commit."""
    h = hashlib.sha256()
    src = ROOT / "src" / "avalonplay"
    for path in sorted(p for p in src.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description="AvalonPlay benchmark")
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True, help="tournament base seed")
    parser.add_argument("--seconds", type=float, required=True, help="measuring time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--items", type=int, default=None,
                        help="games or records per pass (default: the workload's pinned size)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "avalonplay" / "__init__.py").is_file():
        print(f"bench: no avalonplay sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    samples = []
    if not args.trace:
        samples = [spawn(args, True, 60)["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
    result = spawn(args, False, CHILD_TIMEOUT_S)
    samples.append(result["setup_s"])
    metrics = dict(result["metrics"])
    notes = dict(result["notes"])
    if not args.trace:
        metrics["setup_s"] = statistics.median(samples)
        notes["setup_s"] = f"median of {len(samples)} interpreters"

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise SystemExit(f"bench: worker reported no value for {missing}")
    shown = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted}
    errors = result["gate_errors"]
    attempted, failed = result["attempted"], result["failed"]
    env = result["env"] | {"seed": args.seed, "commit": commit()}
    if env["commit"] is None:
        env["source_sha256"] = source_sha256()

    print(f"workload {args.workload}  seed {args.seed}  items {result['items']}  trace {args.trace}")
    for name, m in shown.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:40s} {m['value']:14.4f} {m['unit']}{note}")
    print(f"  fail_ratio {failed}/{attempted}; children peak RSS {result['peak_rss_children_mb']:.1f} MB")
    print("  env " + json.dumps(env))
    for error in errors:
        print(f"MISMATCH {error}", file=sys.stderr)

    OUT.mkdir(exist_ok=True)
    out_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "items": result["items"],
        "metrics": shown,
        "notes": notes,
        "setup_samples_s": samples,
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "peak_rss_children_mb": result["peak_rss_children_mb"],
        "gate_errors": errors,
        "pass_seconds": result["pass_seconds"],
        "item_seconds": result["item_seconds"],
        "item_cpu_seconds": result["item_cpu_seconds"],
        "env": env,
    }, indent=2) + "\n", encoding="utf-8")
    print(f"  results written to {out_path.relative_to(ROOT)}")
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed, "metrics": shown}))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
