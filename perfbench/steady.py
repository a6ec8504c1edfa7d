#!/usr/bin/env python3
"""Steadiness check: run one commit k times per workload and show, for every
end-to-end metric, its median, quartiles and spread next to its bound.

    python3 perfbench/steady.py --runs 10                  # one set
    python3 perfbench/steady.py --runs 10 --sets 2         # two-set agreement
    python3 perfbench/steady.py --runs 5 --workloads serve-exact-4096
    python3 perfbench/steady.py --runs 10 --out /tmp/a      # /tmp/a-set1.json
    python3 perfbench/steady.py --compare a-set1.json b-set1.json

Run from the repository root.  Each run is `perfbench/run.py` with its own
seed (set s, run i -> seed = --seed-base + 1000 * s + i).  The spread is
(Q3 - Q1) / median with the quartiles of statistics.quantiles(values, n=4).
A metric is "steady" when its spread is below a third of its bound, and
"tenth" marks a spread within 0.10.  Every end-to-end metric, setup_s
included, must keep its spread within its bound.  With two sets, every
metric's two medians must agree within its bound, in either direction:
|median 2 - median 1| / median 1 <= bound.  --out PREFIX saves each set's values as
PREFIX-set<k>.json, for a later --compare (two sets of one commit, or the
same seeds on two commits).
The exit status is 0 only when every check passes.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run_once(workload, seed, seconds):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload} seed {seed}: run.py exited {done.returncode}")
    return json.loads(lines[-1])


def run_set(bench, workloads, runs, seed_base, seconds):
    values = {w: {m["name"]: [] for m in bench["end_to_end"]} for w in workloads}
    for workload in workloads:
        for i in range(runs):
            result = run_once(workload, seed_base + i, seconds)
            if not result["correct"] or result["failed"]:
                raise SystemExit(f"{workload} seed {seed_base + i}: "
                                 f"correct={result['correct']} failed={result['failed']}")
            for name, metric in result["metrics"].items():
                values[workload][name].append(metric["value"])
            print(f"  {workload} seed {seed_base + i}: " + ", ".join(
                f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()),
                flush=True)
    return values


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def report_set(bench, values):
    ok = True
    print(f"{'workload':<20} {'metric':<10} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}  verdict")
    for workload, metrics in values.items():
        for m in bench["end_to_end"]:
            vals = metrics[m["name"]]
            med, q1, q3, s = spread(vals)
            if s < m["bound"] / 3:
                verdict = "steady"
            elif s <= m["bound"]:
                verdict = "within bound"
            else:
                verdict = "TOO NOISY"
                ok = False
            if s <= 0.10:
                verdict += ", tenth"
            print(f"{workload:<20} {m['name']:<10} {med:>12.6g} {q1:>12.6g} "
                  f"{q3:>12.6g} {s:>8.4f} {m['bound']:>6}  {verdict}")
    return ok


def compare(bench, first, second):
    ok = True
    print(f"\n{'workload':<20} {'metric':<10} {'median 1':>12} {'median 2':>12} "
          f"{'differ by':>9} {'bound':>6}  verdict")
    for workload in first:
        for m in bench["end_to_end"]:
            a = statistics.median(first[workload][m["name"]])
            b = statistics.median(second[workload][m["name"]])
            differ = abs(b - a) / a
            verdict = "agree" if differ <= m["bound"] else "DISAGREE"
            ok = ok and differ <= m["bound"]
            print(f"{workload:<20} {m['name']:<10} {a:>12.6g} {b:>12.6g} "
                  f"{differ:>9.4f} {m['bound']:>6}  {verdict}")
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--workloads", help="comma-separated (default: all)")
    parser.add_argument("--seed-base", type=int, default=100)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--out", help="save the runs as JSON")
    parser.add_argument("--compare", nargs=2, metavar="SET_JSON")
    args = parser.parse_args()

    bench = json.loads(Path("BENCHMARK.json").read_text())
    if args.compare:
        first, second = (json.loads(Path(p).read_text()) for p in args.compare)
        ok = report_set(bench, first)
        ok = report_set(bench, second) and ok
        ok = compare(bench, first, second) and ok
        return 0 if ok else 1

    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    seconds = args.seconds or bench["run_seconds"]
    sets = []
    ok = True
    for s in range(args.sets):
        print(f"set {s + 1}: {args.runs} runs x {len(workloads)} workloads")
        sets.append(run_set(bench, workloads, args.runs,
                            args.seed_base + 1000 * s, seconds))
        ok = report_set(bench, sets[-1]) and ok
    if len(sets) == 2:
        ok = compare(bench, sets[0], sets[1]) and ok
    if args.out:
        for s, values in enumerate(sets, 1):
            Path(f"{args.out}-set{s}.json").write_text(json.dumps(values))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
