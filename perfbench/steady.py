"""Steadiness check: run workloads under several seeds and show the spread.

    python3 perfbench/steady.py --runs 10 [--workloads decide,stream] [--first-seed 1] [--compare FILE]

Each run is a fresh ``run.py`` process (one at a time).  For every
end-to-end metric of ``BENCHMARK.json`` it prints the median, the
quartiles (``statistics.quantiles(values, n=4)``), the spread -- the
distance between the quartiles as a share of the median -- and the
metric's bound.  A spread above a third of its bound is flagged; so is a
run that is not correct or whose failed share differs from the others.
With ``--compare`` an earlier report's medians are set beside this
set's, and a median that got worse by more than its bound is flagged.
Raw results go to ``perfbench/out/steady-<workloads>-seed<first>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


# Figures from the run's "info" line worth a median next to the metrics.
INFO_KEYS = ("max_rps", "burst_rps", "tokens_per_s", "itl_p50_ms", "itl_tail_ms",
             "generator_lag_p50_ms", "cpu_steal_share")


def run_once(workload: str, seed: int, seconds: int) -> dict:
    command = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr[-2000:]}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    info = [json.loads(line[5:]) for line in lines if line.startswith("info ")]
    result["info"] = info[0] if info else {}
    return result


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--compare", type=Path, help="an earlier report of the same workloads")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    lower_is_better = {m["name"]: m["better"] == "lower" for m in spec["end_to_end"]}
    earlier = json.loads(args.compare.read_text()) if args.compare else {}
    workloads = args.workloads.split(",")
    report = {}
    steady = True
    for workload in workloads:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            runs.append(run_once(workload, seed, spec["run_seconds"]))
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in runs[-1]["metrics"].items()), flush=True)
        report[workload] = runs
        shares = {r["failed"] / r["attempted"] for r in runs}
        correct = all(r["correct"] for r in runs)
        print(f"\n{workload}: correct={correct} failed shares={sorted(shares)}")
        steady &= correct and len(shares) == 1
        print(f"  {'metric':<14}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>8}{'change':>8}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            med, q1, q3, rel = spread(values)
            flag = "" if rel <= bound / 3 else "  spread > bound/3"
            change = ""
            if workload in earlier:
                before = statistics.median(r["metrics"][name]["value"] for r in earlier[workload])
                moved = med / before - 1.0
                change = f"{moved:+8.3f}"
                if (moved if lower_is_better[name] else -moved) > bound:
                    flag += "  median worse by > bound"
            steady &= not flag
            print(f"  {name:<14}{med:>12.5g}{q1:>12.5g}{q3:>12.5g}{rel:>9.3f}{bound:>8.2f}{change:>8}{flag}")
        for key in INFO_KEYS:
            values = [r["info"][key] for r in runs if isinstance(r["info"].get(key), (int, float))]
            if values:
                print(f"  info {key}: median {statistics.median(values):.5g} "
                      f"(min {min(values):.5g}, max {max(values):.5g})")
        print(flush=True)
    out = BENCH_DIR / "out" / f"steady-{'-'.join(workloads)}-seed{args.first_seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1))
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
