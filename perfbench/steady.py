#!/usr/bin/env python3
"""Steadiness check for the repository benchmark.

    python3 perfbench/steady.py [--runs N] [--seconds S] [--seed N]
                                [--fresh-seeds] [--workload NAME ...]

Runs two interleaved sets of N runs of every workload (A1 B1 A2 B2 ...,
one process at a time, workloads one after another) through run.py and
prints, per end-to-end metric and per set, the median, the quartiles and
their spread (interquartile distance over the median). It checks that

  * every run is correct, and failed operations are exactly the same share
    of the attempted ones in every run of a workload;
  * the deterministic count metrics are identical across all runs (with one
    seed for every run, the default) — the two sets did the same work;
  * the two sets' medians agree within each metric's bound from
    BENCHMARK.json, and each set's spread stays within it (setup_s, whose
    bound only limits drift between commits, is exempt from the spread
    check).

--fresh-seeds gives run i of both sets the seed `--seed + i` instead, the
way a claim is re-checked on new inputs; counts then differ between seeds
and only the bounds are checked. Exits 1 when a check fails.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True

import pbstats  # noqa: E402

COUNT_METRICS = ("heal_msgs_per_event", "heal_rounds_per_step",
                 "topology_changes_per_event", "hops_per_op")


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"run.py failed on {workload} seed {seed}")
    return json.loads(out.stdout.splitlines()[-1])


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--fresh-seeds", action="store_true")
    ap.add_argument("--workload", action="append",
                    choices=[w["name"] for w in spec["workloads"]])
    args = ap.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    results = {w: {"A": [], "B": []} for w in workloads}
    for i in range(args.runs):
        seed = args.seed + i if args.fresh_seeds else args.seed
        for label in ("A", "B"):
            for w in workloads:
                res = run_once(w, seed, args.seconds)
                results[w][label].append(res)
                print(f"[{label}{i + 1}] {w} seed {seed}: " + ", ".join(
                    f"{k}={v['value']:.6g}"
                    for k, v in res["metrics"].items()), flush=True)

    failures = []
    for w in workloads:
        print(f"\n{w}: {args.runs} runs per set, "
              f"{'fresh seeds' if args.fresh_seeds else f'seed {args.seed}'}")
        print(f"  {'metric':<28} {'set':<3} {'median':>12} {'q1':>12} "
              f"{'q3':>12} {'spread':>8} {'bound':>6}")
        runs = results[w]["A"] + results[w]["B"]
        if not all(r["correct"] for r in runs):
            failures.append(f"{w}: a run was incorrect")
        first = runs[0]
        if any(r["failed"] * first["attempted"] !=
               first["failed"] * r["attempted"] for r in runs):
            failures.append(f"{w}: the share of failed operations differs "
                            f"between runs")
        medians = {}
        for metric, bound in bounds.items():
            for label in ("A", "B"):
                vals = [r["metrics"][metric]["value"]
                        for r in results[w][label]]
                q1, q2, q3 = pbstats.quartiles(vals)
                s = pbstats.spread(vals)
                medians[metric, label] = q2
                flag = ""
                if metric != "setup_s" and s > bound:
                    flag = "  SPREAD > BOUND"
                    failures.append(f"{w} {metric} set {label}: spread "
                                    f"{s:.3f} > bound {bound}")
                elif metric != "setup_s" and s > bound / 3:
                    flag = "  (spread > bound/3)"
                print(f"  {metric:<28} {label:<3} {q2:>12.6g} {q1:>12.6g} "
                      f"{q3:>12.6g} {100 * s:>7.2f}% {bound:>6}{flag}")
            a, b = medians[metric, "A"], medians[metric, "B"]
            if a and abs(b - a) / a > bound:
                failures.append(f"{w} {metric}: set medians {a:.6g} vs "
                                f"{b:.6g} differ by more than {bound}")
        if not args.fresh_seeds:
            for metric in COUNT_METRICS:
                vals = {r["metrics"][metric]["value"] for r in runs}
                if len(vals) != 1:
                    failures.append(f"{w} {metric}: counts differ between "
                                    f"runs of one seed: {sorted(vals)}")
    print()
    for f in failures:
        print(f"FAIL {f}")
    print("steady" if not failures else "NOT steady")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
