"""Benchmark for mixedgraphs: one closed-loop, single-threaded client.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
``src/`` there and from nowhere else. The client builds the workload's ops
from the seed, then issues each op only when the previous one has returned,
until the ops' own time adds up to S seconds, at least MIN_OPS ops ran and
the ops make whole cycles of the workload's fixed families. Every answer is
checked between ops, outside the timed intervals, by an independent check
and against the digests pinned in ``bench/pinned.json``.

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``:
with ``--trace 0`` the end-to-end metrics, with ``--trace 1`` the per-layer
split of a traced replay. The line before it holds the run context. A full
report goes to ``.bench_out/``. The exit code is 1 if any answer failed.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
PINNED = Path(__file__).resolve().parent / "pinned.json"

# Set-up is timed in this many fresh interpreters; the median is reported.
SETUP_SAMPLES = 3
# Enough ops that ten or more samples lie beyond the 90th percentile.
MIN_OPS = 100

# A shared host's speed drifts as other tenants load its cores: by up to
# 1.7x, over stretches of seconds to minutes, on a shared 2-core VM. A whole
# run can fall in a slow stretch. So every time is scaled to a reference speed: a fixed pure-Python
# BFS that belongs to the benchmark, not the library, is timed between ops,
# and each op's time is multiplied by REFERENCE_S over the median of the
# last CALIBRATION_WINDOW probe times. Raw figures go in the run context.
REFERENCE_S = 300e-6
CALIBRATION_WINDOW = 5
CALIBRATE_EVERY_S = 0.01


class HostSpeed:
    """The recent speed of the host, from timing a fixed probe."""

    def __init__(self):
        rng = random.Random(0)
        self._graph = {v: tuple(rng.sample(range(60), 4)) for v in range(60)}
        self._samples = collections.deque(maxlen=CALIBRATION_WINDOW)
        for _ in range(CALIBRATION_WINDOW):
            self.sample()

    def _probe(self):
        edges = []
        for source in range(0, 60, 6):
            seen = {source}
            frontier = [source]
            while frontier:
                nxt = []
                for x in frontier:
                    for y in self._graph[x]:
                        if y not in seen:
                            seen.add(y)
                            nxt.append(y)
                            edges.append((x, y))
                frontier = nxt
        return sorted(edges)

    def sample(self):
        start = time.perf_counter()
        self._probe()
        self._samples.append(time.perf_counter() - start)

    def scale(self):
        """Factor that turns a time measured now into reference time."""
        return REFERENCE_S / statistics.median(self._samples)


def import_library():
    sys.path.insert(0, str(SRC))
    try:
        import mixedgraphs
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import mixedgraphs from {SRC}: {exc}")
    if not Path(mixedgraphs.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"bench: mixedgraphs was imported from outside {SRC}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--rounds",
        type=int,
        default=None,
        help="use only the ops of the first N rounds (self-test)",
    )
    parser.add_argument(
        "--setup-probe",
        action="store_true",
        help="set up, print the wall-clock time and exit (used to time set-up)",
    )
    return parser.parse_args(argv)


def set_up(args):
    """Build the workload's ops from the seed and warm up on the smallest
    input of each op kind."""
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    ops = workload.build(args.seed)
    if args.rounds is not None:
        ops = [op for op in ops if op.round < args.rounds]
    smallest = {}
    for op in ops:
        if op.kind not in smallest or len(op.text) < len(smallest[op.kind].text):
            smallest[op.kind] = op
    for op in smallest.values():
        workloads.run_op(op, workloads.Session())
    return workload, ops


def time_setup(args):
    """Median wall time, scaled to reference speed, from spawning an
    interpreter to the point where it would issue its first timed op."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe"]
    cmd += ["--workload", args.workload, "--seed", str(args.seed)]
    if args.rounds is not None:
        cmd += ["--rounds", str(args.rounds)]
    samples = []
    for _ in range(SETUP_SAMPLES):
        spawned = time.time()
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True
        )
        ready, scale = map(float, proc.stdout.split()[-2:])
        samples.append((ready - spawned) * scale)
    return statistics.median(samples), samples


class Checker:
    """Checks each answer once per distinct op, and each repeat against the
    first answer; compares complete rounds with the pinned digests."""

    def __init__(self, workload, seed, ops):
        import workloads

        self._workloads = workloads
        self.ops = ops
        self.digests = [None] * len(ops)
        self.failed_ops = set()  # op indices whose answer failed
        self.messages = []
        self._verdicts = {}
        pinned = json.loads(PINNED.read_text()).get(workload.name, {})
        rounds = pinned.get(str(seed))
        self.pinned_rounds = rounds.split() if rounds is not None else None

    def see(self, index, out):
        i = index % len(self.ops)
        op = self.ops[i]
        if isinstance(out, Exception):
            self.fail(i, f"{type(out).__name__}: {out}")
            return
        digest = hashlib.sha256(out.encode()).hexdigest()
        if self.digests[i] is None:
            self.digests[i] = digest
        elif self.digests[i] != digest:
            self.fail(i, "answer differs from the same op's earlier answer")
            return
        key = (op.kind, op.text, op.query)
        if key not in self._verdicts:
            try:
                self._verdicts[key] = self._workloads.check_op(op, out)
            except Exception as exc:  # a crashing check is a failed answer
                self._verdicts[key] = f"check raised {type(exc).__name__}: {exc}"
        if self._verdicts[key] is not None:
            self.fail(i, self._verdicts[key])

    def fail(self, i, message):
        if i not in self.failed_ops and len(self.messages) < 20:
            op = self.ops[i]
            self.messages.append(f"op {i} ({op.kind} on {op.source}): {message}")
        self.failed_ops.add(i)

    def round_digests(self):
        """Short digests of the rounds whose every op has an answer: the
        sha256 of the round's answer digests, in op order."""
        rounds = {}
        for op, digest in zip(self.ops, self.digests):
            rounds.setdefault(op.round, []).append(digest)
        return [
            hashlib.sha256(json.dumps(digests).encode()).hexdigest()[:8]
            for digests in rounds.values()
            if None not in digests
        ]

    def compare_pinned(self):
        """Mark every op of a round whose digest differs from the pin.
        Returns the number of rounds compared."""
        if self.pinned_rounds is None:
            return 0
        digests = self.round_digests()
        for r, (got, want) in enumerate(zip(digests, self.pinned_rounds)):
            if got != want:
                for i, op in enumerate(self.ops):
                    if op.round == r:
                        self.fail(i, f"round {r} digest {got} != pinned {want}")
        return min(len(digests), len(self.pinned_rounds))


def timed_loop(ops, seconds, min_ops, cycle, checker):
    """Closed loop over the ops, in order, until their raw time reaches
    `seconds`, min_ops ran, and the count is a whole number of cycles.
    Returns the raw and the scaled latencies, in seconds."""
    import workloads

    session = workloads.Session()
    speed = HostSpeed()
    raw, scaled = [], []
    busy = since_probe = 0.0
    while busy < seconds or len(raw) < min_ops or len(raw) % cycle:
        if since_probe >= CALIBRATE_EVERY_S:
            speed.sample()
            since_probe = 0.0
        index = len(raw)
        start = time.perf_counter()
        try:
            out = workloads.run_op(ops[index % len(ops)], session)
        except Exception as exc:  # a raising op is a failed answer
            out = exc
        elapsed = time.perf_counter() - start
        raw.append(elapsed)
        scaled.append(elapsed * speed.scale())
        busy += elapsed
        since_probe += elapsed
        checker.see(index, out)
    return raw, scaled


def percentile(values, q):
    """The q-th percentile (1-99), as statistics.quantiles gives it."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def kind_table(ops, latencies):
    by_kind = {}
    for index, latency in enumerate(latencies):
        by_kind.setdefault(ops[index % len(ops)].kind, []).append(latency)
    return {
        kind: {
            "samples": len(values),
            "p50_ms": percentile(values, 50) * 1e3,
            "p90_ms": percentile(values, 90) * 1e3,
        }
        for kind, values in sorted(by_kind.items())
    }


def traced_replay(workload, ops, scaled, checker):
    """Replay the first trace_ops ops of the timed run under the wrappers.
    Returns the tracer, the op count, the traced ops' raw time, and the
    ratio of their scaled traced time to their scaled untraced time."""
    import tracing
    import workloads

    count = min(workload.trace_ops, len(scaled))
    tracer = tracing.Tracer()
    session = workloads.Session()
    speed = HostSpeed()
    traced_raw = traced_scaled = 0.0
    tracer.install()
    try:
        for index in range(count):
            speed.sample()
            start = time.perf_counter()
            i = index % len(ops)
            try:
                out = tracer.run_op(index, workloads.run_op, ops[i], session)
            except Exception as exc:  # a raising op is a failed answer
                out = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
            traced_raw += elapsed
            traced_scaled += elapsed * speed.scale()
            if hashlib.sha256(out.encode()).hexdigest() != checker.digests[i]:
                checker.fail(i, "traced replay gave another answer")
    finally:
        tracer.uninstall()
    return tracer, count, traced_raw, traced_scaled / sum(scaled[:count])


def layer_metrics(tracer, count, traced_s, overhead_ratio):
    """Per-layer values by metric name: calls and self time per span name,
    self time per layer, the wrappers' counters, and the tracing overhead."""
    import tracing

    values = {}
    for name, (calls, _total, self_s) in tracer.totals().items():
        values[f"{name}.calls"] = calls
        values[f"{name}.self_s"] = self_s
        layer = f"layer.{tracing.layer_of(name)}.self_s"
        values[layer] = values.get(layer, 0.0) + self_s
    values.update(tracer.counts)
    values["trace.ops"] = count
    values["trace.traced_s"] = traced_s
    values["trace.overhead_ratio"] = overhead_ratio
    return values


def declared_metrics(section):
    """(name, unit) of each metric BENCHMARK.json declares in a section."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec[section]]


def run_context(args):
    head = ROOT / ".git" / "HEAD"
    commit = "unknown"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit,
        "pythonhashseed": os.environ.get("PYTHONHASHSEED", "unset"),
    }


def main(argv=None):
    args = parse_args(argv)
    import_library()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"bench: unknown workload {args.workload!r}")
    if args.setup_probe:
        set_up(args)
        ready = time.time()
        print(repr(ready), repr(HostSpeed().scale()), flush=True)
        return 0

    setup_s, setup_samples = time_setup(args)
    workload, ops = set_up(args)
    checker = Checker(workload, args.seed, ops)
    cycle = min(workload.cycle_ops, len(ops))
    raw, latencies = timed_loop(
        ops, args.seconds, min(MIN_OPS, len(ops)), cycle, checker
    )
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    end_to_end = {
        "ops_per_s": len(latencies) / sum(latencies),
        "latency_p50_ms": percentile(latencies, 50) * 1e3,
        "latency_p90_ms": percentile(latencies, 90) * 1e3,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }
    values = end_to_end
    tracer = None
    if args.trace:
        tracer, *rest = traced_replay(workload, ops, latencies, checker)
        values = layer_metrics(tracer, *rest)
    rounds_pinned = checker.compare_pinned()

    attempted = len(latencies)
    failed = sum(1 for i in range(attempted) if i % len(ops) in checker.failed_ops)
    section = "per_layer" if args.trace else "end_to_end"
    absent = tracer.absent if tracer else []
    metrics = {}
    for name, unit in declared_metrics(section):
        if name in values:
            metrics[name] = {"value": values[name], "unit": unit}
        elif not any(name.startswith(span + ".") for span in absent):
            # A wrapped function this workload never called.
            metrics[name] = {"value": 0, "unit": unit}
    context = run_context(args)
    context.update(
        {
            "ops_in_corpus": len(ops),
            "cycle_ops": cycle,
            "setup_samples_s": setup_samples,
            "failed_ratio": failed / attempted,
            "raw_ops_per_s": len(raw) / sum(raw),
            "raw_latency_p50_ms": percentile(raw, 50) * 1e3,
            "raw_latency_p90_ms": percentile(raw, 90) * 1e3,
            "median_speed_scale": statistics.median(
                s / r for s, r in zip(latencies, raw) if r > 0
            ),
            "rounds_checked_against_pins": rounds_pinned,
            "latency_by_kind": kind_table(ops, latencies),
            "failures": checker.messages,
        }
    )
    report = {
        "context": context,
        "workloads": workloads.describe(),
        "end_to_end": end_to_end,
        "per_layer": values if tracer else {},
        "absent": absent,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(report, indent=2) + "\n")
    if tracer is not None:
        tracer.write(OUT_DIR / f"{stem}.spans.jsonl.gz")

    correct = failed == 0
    print(json.dumps({"context": context}))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
