#!/usr/bin/env python3
"""Steadiness report for the end-to-end benchmark.

Runs the benchmark command from BENCHMARK.json on every workload, once
per seed 2-11, and then the whole set a second time. For every
end-to-end metric it prints the median and quartiles of the first set,
the spread (interquartile range as a share of the median, the widest of
the two sets) and how much worse the second set's median is than the
first one's, next to the metric's bound. This is the procedure the
bounds in BENCHMARK.json were set with: every spread should stay below
a third of its bound, and every spread and drift, setup_s included,
within it.

Run from the repository root (takes about 40 minutes):

    python3 e2ebench/steadiness.py
"""

import json
import statistics
import subprocess
import sys

SEEDS = range(2, 12)
SETS = 2


def run_once(bench, workload, seed):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", "0",
    ]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}, no result")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: answers failed the check: {lines[-1]}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    runs = {(s, w): [] for s in range(SETS) for w in workloads}
    for s in range(SETS):
        for workload in workloads:
            for seed in SEEDS:
                values = run_once(bench, workload, seed)
                runs[s, workload].append(values)
                shown = " ".join(f"{k}={v:.6g}" for k, v in values.items())
                print(f"  set {s + 1} {workload} seed {seed}: {shown}", file=sys.stderr)
    worst = 0.0
    for workload in workloads:
        print(f"\n{workload}: seeds {SEEDS.start}-{SEEDS.stop - 1} x {SETS} sets, "
              f"{bench['run_seconds']} s per run")
        print(f"{'metric':<16}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}{'drift':>9}{'bound':>8}")
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            sets = [[r[name] for r in runs[s, workload]] for s in range(SETS)]
            q1, q2, q3, _ = spread(sets[0])
            sp = max(spread(values)[3] for values in sets)
            med2 = statistics.median(sets[1])
            drift = (med2 - q2) / q2 if m["better"] == "lower" else (q2 - med2) / q2
            worst = max(worst, sp / bound, drift / bound)
            flag = "  <- above a third of the bound" if max(sp, drift) > bound / 3 else ""
            print(f"{name:<16}{q2:>14.6g}{q1:>14.6g}{q3:>14.6g}{sp:>9.3f}{drift:>+9.3f}"
                  f"{bound:>8}{flag}")
    print(f"\nworst spread or drift as a share of its bound: {worst:.2f}")
    sys.exit(0 if worst <= 1 else 1)


if __name__ == "__main__":
    main()
