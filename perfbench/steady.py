#!/usr/bin/env python3
"""Steadiness check: run workloads repeatedly and report each metric's
median, quartiles and spread against its bound in BENCHMARK.json.

    python3 perfbench/steady.py --workloads bank-zipf,f2-window --runs 10
    python3 perfbench/steady.py --workloads ring-topk --runs 5 --first-seed 100

The spread is (q3 - q1) / median with the quartiles of
statistics.quantiles(values, n=4); a metric is steady when its spread is
below a third of its bound. Runs go one at a time, each with its own seed
(first-seed, first-seed + 1, ...). --json FILE also writes every run's
metrics, so two sets can be compared with --compare A.json B.json, which
prints each metric's median shift against its bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    return json.loads(lines[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def report(runs, spec, trace):
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    for workload, results in runs.items():
        fails = {r["failed"] / r["attempted"] for r in results}
        print(f"\n{workload}: {len(results)} runs, correct={all(r['correct'] for r in results)}, "
              f"failed share {sorted(fails)}")
        print(f"  {'metric':34s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s} {'/bound':>7s}")
        names = sorted(results[0]["metrics"])
        for name in names:
            vals = [r["metrics"][name]["value"] for r in results]
            unit = results[0]["metrics"][name]["unit"]
            if len(vals) < 2:
                print(f"  {name:34s} {vals[0]:12.4g} ({unit})")
                continue
            med, q1, q3, sp = spread(vals)
            b = bounds.get(name, {}).get("bound") if not trace else None
            rel = f"{sp / b:7.2f}" if b else "       "
            bs = f"{b:6.2f}" if b else "      "
            print(f"  {name + ' (' + unit + ')':34s} {med:12.4g} {q1:12.4g} {q3:12.4g} {sp:8.3f} {bs} {rel}")


def compare(a_path, b_path, spec):
    with open(a_path) as f:
        a = json.load(f)
    with open(b_path) as f:
        b = json.load(f)
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    for workload in a:
        if workload not in b:
            continue
        print(f"\n{workload}")
        for name, m in sorted(metrics.items()):
            va = [r["metrics"][name]["value"] for r in a[workload]]
            vb = [r["metrics"][name]["value"] for r in b[workload]]
            ma, mb = statistics.median(va), statistics.median(vb)
            shift = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            verdict = "worse beyond bound" if shift > m["bound"] else "ok"
            print(f"  {name:24s} {ma:12.4g} -> {mb:12.4g}  worse by {shift:+.3f} (bound {m['bound']}) {verdict}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", help="comma-separated (default: all in BENCHMARK.json)")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--json", help="write every run's result here")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two --json files")
    args = ap.parse_args()
    spec = load_spec()
    if args.compare:
        compare(args.compare[0], args.compare[1], spec)
        return
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    runs = {}
    for w in workloads:
        runs[w] = []
        for i in range(args.runs):
            seed = args.first_seed + i
            runs[w].append(run_once(w, seed, seconds, args.trace))
            print(f"{w} seed {seed} done", file=sys.stderr, flush=True)
    if args.json:
        with open(args.json, "w") as f:
            json.dump(runs, f)
    report(runs, spec, args.trace)


if __name__ == "__main__":
    main()
