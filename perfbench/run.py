#!/usr/bin/env python3
"""Traveller-path benchmark: one workload per run, checked against an oracle.

Run from the root of a checkout::

    python3 perfbench/run.py --workload commute --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seconds 10

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` alternates untraced and traced rounds and reports the
per-layer metrics and the tracing overhead. The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``; the lines above it are the same figures for people.
See ``perfbench/README.md`` for the workloads, metrics and seeds.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: End-to-end metrics every untraced run reports: (name, unit).
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("throughput_qps", "1/s"),
    ("first_after_epoch_ms", "ms"),
    ("epoch_apply_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 7
#: Percentiles tried, highest first, for the tail latency. The tail
#: stops at p95: on fleet-2x2 the top 1-2% of queries are the seed's
#: costliest stitched OD pairs, so p99 moved with the seed (ten-run
#: spread 0.37) while p95 stayed put.
TAIL_LEVELS = (95.0, 90.0, 75.0, 50.0)
#: Samples that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10

clock = time.perf_counter


def load_program() -> None:
    """Import the program from this checkout's ``src``, or exit non-zero."""
    sys.path.insert(0, str(SRC))
    try:
        import repro
    except ImportError as error:
        raise SystemExit(f"perfbench: cannot import the program from {SRC}: {error}")
    if SRC.resolve() not in Path(repro.__file__).resolve().parents:
        raise SystemExit(
            f"perfbench: imported repro from {repro.__file__}, not from {SRC}"
        )


def ref_loop_ms(repeats: int = 5) -> float:
    """Median time of a fixed pure-Python loop: how fast the host is now."""
    samples = []
    for _ in range(repeats):
        started = clock()
        total = 0
        table: Dict[int, int] = {}
        for i in range(100_000):
            total += i * i % 7
            table[i & 1023] = total
        samples.append((clock() - started) * 1e3)
    return statistics.median(samples)


def tail(samples: Sequence[float]) -> Tuple[float, float]:
    """``(level, value)``: the highest percentile with enough samples beyond."""
    ordered = sorted(samples)
    n = len(ordered)
    for level in TAIL_LEVELS:
        index = max(0, math.ceil(level / 100.0 * n) - 1)
        if n - 1 - index >= TAIL_BEYOND:
            return level, ordered[index]
    return 50.0, statistics.median(ordered)


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(name: str, seed: int, seconds: float, traced: bool) -> dict:
    from layers import PER_LAYER, Tracer, layer_metrics
    from workloads import WORKLOADS

    cls = WORKLOADS[name]
    ref_before = ref_loop_ms()
    tracer = Tracer() if traced else None
    setups: List[float] = []
    repeats = 1 if traced else SETUP_REPEATS
    workload = None
    if tracer is not None:
        tracer.install()
    for index in range(repeats):
        if workload is not None:
            workload.close()
        workload = cls(seed)
        gc.collect()
        started = clock()
        workload.setup()
        setups.append(clock() - started)
    preprocess = []
    if tracer is not None:
        tracer.active = False
        preprocess = [s for s in tracer.spans if s.name == "accel.preprocess"]
        tracer.spans.clear()
    workload.prepare()
    gc.collect()  # garbage left by the set-ups, before timing starts

    # Whole rounds until one more would take the rounds' own time
    # further from the run length than stopping (the untimed checks
    # between rounds do not count). A traced run alternates untraced
    # and traced rounds and stops after a traced one.
    plain_latencies: List[float] = []
    traced_latencies: List[float] = []
    client_s = 0.0
    traced_ops = traced_epochs = 0
    counters: Dict[str, float] = {}
    rounds = 0
    measured = 0.0
    started = clock()
    while True:
        tracing = tracer is not None and rounds % 2 == 1
        ops_before = len(workload.latencies)
        epochs_before = len(workload.epoch_seconds())
        if tracing:
            before = workload.counters()
            tracer.active = True
            workload.tracer = tracer
        began = clock()
        workload.round()
        wall = clock() - began
        measured += wall
        if tracing:
            workload.tracer = None
            tracer.active = False
            for key, value in workload.counters().items():
                counters[key] = counters.get(key, 0.0) + value - before[key]
        workload.settle()
        latencies = workload.latencies[ops_before:]
        epochs = workload.epoch_seconds()[epochs_before:]
        if tracing:
            traced_latencies.extend(latencies)
            traced_ops += len(latencies)
            traced_epochs += len(epochs)
            client_s += wall
        else:
            plain_latencies.extend(latencies)
        rounds += 1
        if measured + measured / rounds / 2 >= seconds and (tracer is None or tracing):
            break
    rss = peak_rss_mb()
    ref_after = ref_loop_ms()
    attempted, failed, complaints = workload.verify()
    known = workload.known
    workload.close()
    if tracer is not None:
        tracer.uninstall()

    lines = [
        f"workload {name}: seed {seed}, {rounds} rounds, {measured:.1f} s timed "
        f"of {clock() - started:.1f} s",
        f"host.ref_loop_ms {ref_before:.3f} before, {ref_after:.3f} after",
        f"attempted {attempted}, failed {failed} ({known} of them the known fault)",
    ]
    lines.extend(f"complaint: {text}" for text in complaints[:5])
    if tracer is None:
        level, p_tail = tail(workload.latencies)
        values = {
            "setup_s": statistics.median(setups),
            "latency_p50_ms": statistics.median(workload.latencies) * 1e3,
            "latency_p95_ms": p_tail * 1e3,
            "throughput_qps": workload.answered / workload.busy_s,
            "first_after_epoch_ms": statistics.median(workload.first_after_epoch) * 1e3,
            "epoch_apply_ms": statistics.median(workload.epoch_seconds()) * 1e3,
            "peak_rss_mb": rss,
        }
        units = dict(END_TO_END)
        lines.append(
            f"latency_p95_ms is the p{level:g} of {len(workload.latencies)} samples; "
            f"first_after_epoch_ms of {len(workload.first_after_epoch)}, "
            f"epoch_apply_ms of {len(workload.epoch_seconds())}"
        )
    else:
        counters["host.ref_loop_ms"] = statistics.median([ref_before, ref_after])
        counters["trace.overhead_ms"] = (
            statistics.fmean(traced_latencies) - statistics.fmean(plain_latencies)
        ) * 1e3
        values = layer_metrics(
            tracer.spans, workload.client_thread, client_s, traced_ops,
            traced_epochs, preprocess, counters,
        )
        units = dict(PER_LAYER)
        lines.append(
            f"{len(tracer.spans)} spans over {traced_ops} traced operations "
            f"and {traced_epochs} epochs"
        )
    metrics = {
        key: {"value": float(values[key]), "unit": unit} for key, unit in units.items()
    }
    lines.extend(f"{key} {m['value']:.6g} {m['unit']}" for key, m in metrics.items())
    return {
        "lines": lines,
        "result": {
            "correct": failed == known,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        },
    }


def run_all(seed: int, seconds: float, traced: bool) -> int:
    """Every workload, each in its own process, one after another."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "workloads": {}}
    for name in WORKLOADS:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "1" if traced else "0"],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        output = child.stdout.strip().splitlines()
        if child.returncode != 0 or not output:
            print(f"workload {name} exited with code {child.returncode}", file=sys.stderr)
            return child.returncode or 1
        print("\n".join(output[:-1]))
        result = json.loads(output[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["workloads"][name] = result
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    load_program()
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    if args.workload not in WORKLOADS:
        parser.error(
            f"unknown workload {args.workload!r}; choose from "
            f"{', '.join(WORKLOADS)} or all"
        )
    outcome = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(outcome["lines"]))
    print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
