"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload decide --seed 1 --seconds 10 --trace 0

Each workload runs in this fresh process, pinned to one CPU with BLAS
limited to one thread.  Earlier lines of standard output describe the
run (versions, phases, extra figures, checks); the last line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``, its
per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import os

# Before numpy is imported anywhere: one BLAS thread per process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import importlib
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(SRC_DIR))

WORKLOADS = ("decide", "stream", "explain", "prune")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def pin_to_one_cpu() -> int:
    """Run every thread of this process on one CPU; returns which.

    The serving tier's threads take turns on the interpreter lock.  Spread
    over two CPUs, each hand-off is a cross-CPU wake-up, and windows of
    arrivals read 2-5x slower at the tail whenever the other CPU was busy;
    on one CPU the hand-offs are plain context switches.
    """
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


# Busy loop of the process that keeps the benchmark's CPU awake; it ends
# itself within milliseconds once its parent is gone.
_AWAKE = """
import os, sys
cpu, parent = int(sys.argv[1]), int(sys.argv[2])
os.sched_setaffinity(0, {cpu})
os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
while os.getppid() == parent:
    for _ in range(100000):
        pass
"""


def keep_awake(cpu: int) -> subprocess.Popen:
    """Keep ``cpu`` from idling with a busy loop at idle priority.

    On a virtual machine an idle CPU halts, and a thread that wakes on it
    waits until the hypervisor runs that CPU again: on a 2-vCPU virtual
    machine a 1 ms sleep overslept by 2-5 ms at the 99th percentile, and
    the open-loop workloads, whose threads sleep and wake thousands of
    times a second, read 40-100% slower whenever the host was busy.  With
    the loop running the CPU never halts; the loop is ``SCHED_IDLE``, so
    any thread of the benchmark preempts it at once, and the same sleep
    overslept by 0.1-0.4 ms.
    """
    return subprocess.Popen([sys.executable, "-c", _AWAKE, str(cpu), str(os.getpid())])


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC_DIR / "repro").is_dir():
        print(f"the program under test is not in this checkout: no {SRC_DIR / 'repro'}", file=sys.stderr)
        return 2
    cpu = pin_to_one_cpu()
    awake = keep_awake(cpu)
    try:
        return run(args, cpu)
    finally:
        awake.kill()
        awake.wait()


def run(args, cpu: int) -> int:
    from common import OUT_DIR, SETUP_REPEATS, Outcome, StealMeter, log, peak_rss_mb, run_info, timed_setups

    workload = importlib.import_module(args.workload)
    log("run " + json.dumps({"workload": args.workload, "trace": args.trace, "cpu": cpu, **run_info(args.seed)}))
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    outcome = Outcome()
    if args.trace:
        metrics = traced(workload, args, outcome)
    else:
        state, setup_s = timed_setups(lambda: workload.prepare(args.seed),
                                      lambda prepared: workload.State(args.seed, prepared),
                                      getattr(workload, "SETUP_REPEATS", SETUP_REPEATS))
        gc.collect()  # the earlier set-ups' garbage, before the timed phases
        steal = StealMeter(cpu)
        try:
            workload.measure(state, args.seed, args.seconds, outcome)
            outcome.info["cpu_steal_share"] = steal.share()
            outcome.metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")  # before the checks' own work
            workload.check(state, args.seed, outcome)
        finally:
            state.close()
        outcome.metrics["setup_s"] = (setup_s, "s")
        metrics = outcome.metrics

    for phase in outcome.phases:
        log(phase.line())
    log("info " + json.dumps(outcome.info, default=float))
    for name, ok in outcome.checks.items():
        log(f"check {'ok  ' if ok else 'FAIL'} {name}")
    result = {
        "correct": bool(outcome.checks) and all(outcome.checks.values()),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


def traced(workload, args, outcome) -> dict:
    """An untraced pass, then the same inputs on a fresh set-up with tracing on.

    The per-layer metrics come from the traced pass; the change of the
    workload's primary metric between the two passes is the tracing
    overhead.  Spans are written to ``perfbench/out/`` when the run ends.
    """
    from common import OUT_DIR, Outcome
    from tracing import Tracer, instrument, layer_metrics, store_counts

    # Both passes train before either serves (see common.timed_setups).
    prepared = [workload.prepare(args.seed) for _ in range(2)]
    state = workload.State(args.seed, prepared[0])
    gc.collect()
    try:
        untraced = workload.measure(state, args.seed, args.seconds, Outcome())
    finally:
        state.close()
    state = workload.State(args.seed, prepared[1])
    gc.collect()
    tracer = Tracer()
    outcome.tracer = tracer
    try:
        instrument(tracer)
        try:
            probe = workload.measure(state, args.seed, args.seconds, outcome)
        finally:
            tracer.restore()
        workload.check(state, args.seed, outcome)
    finally:
        state.close()
    hits, misses = store_counts(tracer.stores)
    probe["store_hits"] = probe.get("store_hits", 0.0) + hits
    probe["store_misses"] = probe.get("store_misses", 0.0) + misses
    probe["trace_overhead"] = probe["primary"] / untraced["primary"] - 1.0
    tracer.write(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl")
    return layer_metrics(tracer, probe)


if __name__ == "__main__":
    sys.exit(main())
