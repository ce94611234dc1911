"""Regenerate bench/pins.json: per-game fingerprints and the digest of each
workload at seed 42 and its default size.

The pins are the benchmark's behaviour check. Regenerate them only when a
workload's definition changes (its specs, fixture or size), never to make
a changed program pass: a program change that moves a pin changes games.

    python3 bench/make_pins.py
"""

from __future__ import annotations

import json
import shutil
import tempfile
from pathlib import Path

import worker


def main() -> None:
    pins = {}
    for name, items in worker.DEFAULT_ITEMS.items():
        workdir = Path(tempfile.mkdtemp(prefix=f"pins-{name}-", dir=worker.OUT))
        workload = worker.build(name, worker.PIN_SEED, items, workdir)
        try:
            rep = workload.run()
        finally:
            workload.close()
            shutil.rmtree(workdir, ignore_errors=True)
        if rep.failures:
            raise SystemExit(f"{name}: cannot pin a pass with failures: {rep.failures}")
        pins[name] = {"items": items, "digest": rep.digest, "games": dict(rep.fingerprints)}
        print(f"{name}: {items} items, digest {rep.digest}")
    worker.PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
