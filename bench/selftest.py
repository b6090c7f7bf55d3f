"""Fast self-test of the benchmark.

    python3 bench/selftest.py

Runs every workload on a tiny slice of its ops, with tracing off and on,
and checks the result line's schema, the metric names and units against
BENCHMARK.json, and that every answer check passed. Then checks that the
benchmark refuses to run, printing no result, where there is no library.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# Rounds of each workload to run: every op kind, small family sizes.
ROUNDS = {"projection": 2, "separation": 1, "enumeration": 1}


def run(cwd, workload, trace):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0"]
    cmd += ["--seconds", "0.2", "--trace", str(trace)]
    cmd += ["--rounds", str(ROUNDS[workload])]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_result(workload, trace, proc):
    where = f"{workload} --trace {trace}"
    assert proc.returncode == 0, f"{where}: exit {proc.returncode}\n{proc.stderr}"
    *_, context_line, result_line = proc.stdout.strip().splitlines()
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    pinned = json.loads(context_line)["context"]["rounds_checked_against_pins"]
    assert pinned >= 1, f"{where}: no round was checked against its pin"
    assert result["correct"] is True and result["failed"] == 0, f"{where}: {result}"
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, where
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}, where
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], f"{where}: {m['name']} unit"
        assert isinstance(got["value"], (int, float)), f"{where}: {m['name']}"
    return result


def check_refuses_without_library():
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run(bare, "projection", 0)
        assert proc.returncode != 0, "ran without a library"
        assert '"metrics"' not in proc.stdout, "printed a result without a library"
    finally:
        shutil.rmtree(bare)


def main():
    for workload in ROUNDS:
        for trace in (0, 1):
            result = check_result(workload, trace, run(ROOT, workload, trace))
            print(f"ok {workload} trace={trace} attempted={result['attempted']}")
    check_refuses_without_library()
    print("ok refuses to run without src/mixedgraphs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
