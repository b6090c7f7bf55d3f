"""Regenerate bench/pinned.json, the digests every benchmark run checks its
answers against.

    python3 bench/pin.py [SEED ...]        (default: seeds 0 to 10)

For each workload and seed, runs every op once, checks each answer, and
pins one digest per round of ops. Run it only at a commit whose answers are
known to be right: a later run fails every op of a round whose answers
differ from the pin.
"""

from __future__ import annotations

import json
import sys

import run

run.import_library()

import workloads  # noqa: E402  (needs the library on sys.path)

DEFAULT_SEEDS = range(11)


def pin(workload, seed):
    ops = workload.build(seed)
    checker = run.Checker(workload, seed, ops)
    session = workloads.Session()
    for index, op in enumerate(ops):
        try:
            out = workloads.run_op(op, session)
        except Exception as exc:  # reported below as a failed answer
            out = exc
        checker.see(index, out)
    if checker.failed_ops:
        raise SystemExit(f"{workload.name} seed {seed}: {checker.messages}")
    return " ".join(checker.round_digests())


def main(argv):
    seeds = [int(s) for s in argv] or DEFAULT_SEEDS
    pinned = json.loads(run.PINNED.read_text())
    for name, workload in workloads.WORKLOADS.items():
        for seed in seeds:
            pinned.setdefault(name, {})[str(seed)] = pin(workload, seed)
            print(f"pinned {name} seed {seed}", flush=True)
    run.PINNED.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
