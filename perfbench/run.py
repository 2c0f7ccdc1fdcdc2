#!/usr/bin/env python3
"""The repository benchmark: builds the benchmark binaries from the
checkout's sources and runs one workload.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S]
                             [--trace 0|1]

Run from the root of a checkout; without --workload it runs every workload,
one after another. The binary runs whole rounds of the
workload (set-up, warm-up, measured steps, checks) until --seconds have
passed; this script turns the rounds into metrics. With --trace 0 the
result holds the end-to-end metrics; with --trace 1 it holds the per-layer
metrics of the traced rounds (see README.md). The last line of standard
output is the result as one JSON object; the line before it is the result
row with the program version (git describe) and build type.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BUILD_TYPE = "Release"
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True  # leave nothing behind in the checkout

import pbstats  # noqa: E402

WORKLOADS = ("kv-zipf", "churn-burst", "serve-uniform")
# Wall figures are reported in reference time: each round's wall times are
# scaled by REFERENCE_PROBE_MS / (the round's median speed-probe time), i.e.
# to what they would read were the machine running the probe kernel at this
# speed (README: "Reference time"). The reference is the probe's typical time
# on the machine the reference figures were taken on, per probe size (nodes).
REFERENCE_PROBE_MS = {1 << 17: 7.5, 1 << 15: 1.4}
DEFAULT_SEED = 1
RUN_TIMEOUT_S = 175


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def fail(msg, code=2):
    log(msg)
    sys.exit(code)


def build(target):
    """Configures (once) and builds `target`; build output goes to a log
    file so standard output stays the benchmark's."""
    if not (ROOT / "src" / "sim" / "scenario.h").is_file():
        fail(f"no program sources under {ROOT / 'src'}")
    BUILD.mkdir(parents=True, exist_ok=True)
    log_path = BUILD / "build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    with open(log_path, "a") as out:
        if not (BUILD / "CMakeCache.txt").is_file():
            cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                   f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=out, stderr=out).returncode != 0:
                fail(f"cmake configure failed; see {log_path}")
        cmd = ["cmake", "--build", str(BUILD), "--target", target, "-j", jobs]
        if subprocess.run(cmd, stdout=out, stderr=out).returncode != 0:
            fail(f"build of {target} failed; see {log_path}")
    return BUILD / target


def git_describe():
    # The ceiling keeps git from searching above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "describe", "--always", "--dirty",
             "--tags"], env=env, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def per(num, den):
    return num / den if den else 0.0


def speed_factor(r):
    """Scale from a round's wall time to reference time."""
    return (REFERENCE_PROBE_MS[r["probe_nodes"]]
            / pbstats.median(r["probe_ms"]))


def end_to_end(rounds, done, scaled=True):
    """The end-to-end metrics over the untraced rounds (wall figures in
    reference time unless scaled is False), plus the tail percentile
    actually reported and its per-round sample count."""
    counts = rounds[0]["counts"]
    f = [speed_factor(r) if scaled else 1.0 for r in rounds]
    meas = [r["measured_s"] * k for r, k in zip(rounds, f)]
    tails = [pbstats.tail(r["step_ms"]) for r in rounds]
    metrics = {
        "ops_per_s": (pbstats.median(
            [per(r["counts"]["ops"], m) for r, m in zip(rounds, meas)]),
            "ops/s"),
        "churn_events_per_s": (pbstats.median(
            [per(r["counts"]["events"], m) for r, m in zip(rounds, meas)]),
            "events/s"),
        "step_ms_p50": (pbstats.median(
            [pbstats.median(r["step_ms"]) * k for r, k in zip(rounds, f)]),
            "ms"),
        "step_ms_tail": (pbstats.median(
            [v * k for (_, v), k in zip(tails, f)]), "ms"),
        "setup_s": (pbstats.median(
            [r["setup_s"] * k for r, k in zip(rounds, f)]), "s"),
        "peak_rss_mb": (done["peak_rss_mb"], "MB"),
        "heal_msgs_per_event": (
            per(counts["heal_messages"], counts["events"]), "msgs/event"),
        "heal_rounds_per_step": (
            per(counts["heal_rounds"], counts["steps"]), "rounds/step"),
        "topology_changes_per_event": (
            per(counts["topology_changes"], counts["events"]),
            "changes/event"),
        "hops_per_op": (
            per(counts["op_hops"], counts["delivered_ops"]), "hops/op"),
    }
    return metrics, tails[0][0], len(rounds[0]["step_ms"])


def per_layer(traced, untraced):
    """The per-layer metrics: medians over the traced rounds of each
    layer's span time per unit of work, plus the modeled counts."""
    c = traced[0]["counts"]

    def layer_median(name, fn):
        # Span times in reference time, like the end-to-end wall figures.
        empty = {"calls": 0, "total_us": 0.0, "self_us": 0.0}
        return pbstats.median([fn(r["layers"].get(name, empty))
                               * speed_factor(r) for r in traced])

    def measured(rounds):
        return pbstats.median([r["measured_s"] * speed_factor(r)
                               for r in rounds])

    steps, ops = c["steps"], c["ops"]
    overhead = per(measured(traced) - measured(untraced),
                   measured(untraced)) * 100.0
    return {
        "adversary.decide_us_per_step": (layer_median(
            "adversary.decide", lambda l: per(l["total_us"], steps)),
            "us/step"),
        "dex.precondition_us_per_batch": (layer_median(
            "dex.precondition", lambda l: per(l["total_us"], l["calls"])),
            "us/batch"),
        "dex.heal_us_per_step": (layer_median(
            "dex.apply", lambda l: per(l["self_us"], steps)), "us/step"),
        "dex.walk_epochs_per_batch": (
            per(c["walk_epochs"], c["batch_steps"]), "epochs/batch"),
        "dex.type2_steps": (c["type2_steps"], "count"),
        "dex.max_degree": (c["max_degree"], "count"),
        "sim.view_us_per_step": (layer_median(
            "sim.view", lambda l: per(l["total_us"], steps)), "us/step"),
        "sim.placement_us_per_step": (layer_median(
            "sim.placement", lambda l: per(l["total_us"], steps)),
            "us/step"),
        "sim.moved_keys_per_event": (
            per(c["moved_keys"], c["events"]), "keys/event"),
        "sim.rehash_msgs_per_event": (
            per(c["rehash_messages"], c["events"]), "msgs/event"),
        "sim.issue_us_per_op": (layer_median(
            "sim.issue", lambda l: per(l["total_us"], l["calls"])), "us/op"),
        "sim.op_us": (layer_median(
            "sim.op", lambda l: per(l["total_us"], l["calls"])), "us/op"),
        "sim.route_us_per_op": (layer_median(
            "sim.route", lambda l: per(l["total_us"], ops)), "us/op"),
        "sim.oracle_us_per_op": (layer_median(
            "sim.oracle", lambda l: per(l["total_us"], ops)), "us/op"),
        "sim.stretch": (per(c["op_hops"], c["opt_hops"]), "ratio"),
        "event.dropped_per_step": (per(c["dropped"], steps), "count/step"),
        "event.max_in_flight": (c["max_in_flight"], "count"),
        "serve.latency_p50_ticks": (c["latency_p50_ticks"], "ticks"),
        "serve.latency_p99_ticks": (c["latency_p99_ticks"], "ticks"),
        "serve.peak_queue": (c["serve_peak_queue"], "count"),
        "metrics.emit_ms": (pbstats.median([r["emit_ms"] for r in traced]),
                            "ms"),
        "trace.overhead_pct": (overhead, "%"),
    }


# Layers whose work judges the modeled system rather than being part of it.
HARNESS_LAYERS = {"adversary.decide", "dex.precondition", "sim.oracle",
                  "metrics.emit"}


def print_layer_table(traced):
    """Per-layer self time over the measured steps (median traced round)."""
    r = sorted(traced, key=lambda r: r["measured_s"])[(len(traced) - 1) // 2]
    wall_ms = r["measured_s"] * 1e3
    print(f"per-layer self time, traced round {r['round']}, measured wall "
          f"{wall_ms:.1f} ms:")
    print(f"  {'layer':<18} {'kind':<8} {'calls':>8} {'total_ms':>10} "
          f"{'self_ms':>10} {'self_%':>7}")
    rows = sorted(r["layers"].items(), key=lambda kv: -kv[1]["self_us"])
    covered = 0.0
    for name, l in rows:
        covered += l["self_us"] / 1e3
        kind = "harness" if name in HARNESS_LAYERS else "modeled"
        print(f"  {name:<18} {kind:<8} {l['calls']:>8} "
              f"{l['total_us'] / 1e3:>10.2f} {l['self_us'] / 1e3:>10.2f} "
              f"{100 * l['self_us'] / 1e3 / wall_ms:>6.1f}%")
    print(f"  {'(outside spans)':<18} {'':<8} {'':>8} {'':>10} "
          f"{wall_ms - covered:>10.2f} "
          f"{100 * (wall_ms - covered) / wall_ms:>6.1f}%")
    print(f"  metrics.emit (after the run): {r['emit_ms']:.3f} ms")


def run_workload(workload, args):
    """Runs one workload; prints its report and result line."""
    binary = build("perfbench_traced" if args.trace else "perfbench")
    spans_path = BUILD / "spans" / f"{workload}-seed{args.seed}.csv"
    spans_path.parent.mkdir(exist_ok=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", str(spans_path)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"benchmark binary exited with {proc.returncode}")
    lines = [json.loads(l) for l in proc.stdout.splitlines()
             if l.startswith("{")]
    rounds = [l for l in lines if "round" in l]
    done = lines[-1] if lines and lines[-1].get("done") else None
    if not rounds or done is None:
        fail("benchmark binary printed no complete run")

    # Correct: every round's own checks pass, and every round — traced or
    # not — did exactly the same deterministic work.
    problems = sorted({p for r in rounds for p in r["checks"]})
    if any(r["counts"] != rounds[0]["counts"] for r in rounds):
        problems.append("deterministic counts differ between rounds")
    untraced = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    if args.trace and not traced:
        problems.append("no traced round")
    for p in problems:
        log(f"check failed: {p}")

    e2e, tail_pct, tail_n = end_to_end(untraced, done)
    print(f"workload {workload} seed {args.seed}: {len(untraced)} "
          f"untraced + {len(traced)} traced rounds; step_ms_tail is p"
          f"{tail_pct:g} of {tail_n} step samples per round (median over "
          f"rounds)")
    for r in rounds:
        c = r["counts"]
        print(f"  round {r['round']}{' traced' if r['traced'] else ''}: "
              f"setup {r['setup_s']:.3f} s, measured {r['measured_s']:.3f} s"
              f" wall for {c['steps']} steps, {c['events']} churn events, "
              f"{c['ops']} ops; probe median "
              f"{pbstats.median(r['probe_ms']):.3f} ms (x"
              f"{speed_factor(r):.3f} to reference time)")
    if args.trace:
        layers = per_layer(traced, untraced)
        print_layer_table(traced)
        print(f"tracing overhead: {layers['trace.overhead_pct'][0]:+.2f}% of "
              f"the untraced measured time; spans written to {spans_path}")
        metrics = layers
    else:
        metrics = e2e
    for name, (value, unit) in metrics.items():
        print(f"  {name:<30} {value:>14.6g} {unit}")

    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    kinds = {k: sum(r["failed_by_kind"][k] for r in rounds)
             for k in rounds[0]["failed_by_kind"]}
    print(f"operations: {attempted} attempted, {failed} failed ("
          + ", ".join(f"{v} {k}" for k, v in kinds.items()) + ")")
    row = {"workload": workload, "seed": args.seed,
           "trace": args.trace, "binary": binary.name,
           "git_describe": git_describe(),
           "build_type": BUILD_TYPE, "nproc": os.cpu_count(),
           "rounds": len(rounds), "tail_percentile": tail_pct,
           "tail_samples": tail_n,
           "reference_probe_ms":
               REFERENCE_PROBE_MS[rounds[0]["probe_nodes"]],
           "metrics": {k: v for k, (v, _) in {**e2e, **metrics}.items()},
           "wall_metrics": {k: v for k, (v, _) in
                            end_to_end(untraced, done, scaled=False)[0]
                            .items()}}
    with open(BUILD / "results.jsonl", "a") as out:
        out.write(json.dumps(row) + "\n")
    print(json.dumps({"row": row}))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }), flush=True)
    return not problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="one workload (default: all, one after another)")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    ok = True
    for workload in [args.workload] if args.workload else WORKLOADS:
        ok = run_workload(workload, args) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
