#!/usr/bin/env python3
"""A/B comparison of two source trees on one end-to-end benchmark workload.

    python3 bench/ab.py --parent DIR --change DIR --workload W --seeds A-B \\
        [--seconds 20]

Runs one pair of benchmark runs per seed in A..B, each side through its own
tree's perfbench/run.py at --trace 0, alternating which side runs first. The
first run of a side builds that tree, into $CARGO_TARGET_DIR/ab-parent or
$CARGO_TARGET_DIR/ab-change (.bench_build when the variable is unset;
relative paths resolve against the working directory), so the two builds
never share a directory even when both sides name the same tree.

Every run is printed as it completes. Then, for each end-to-end metric that
the change tree's BENCHMARK.json lists, one row gives each side's median and
quartiles, the pairs the change won (ties count for neither side) and a
verdict:

  gain        at least 10 pairs, the change won at least 9 in 10 of them,
              and the medians differ by more than the parent's IQR
  worse       the change's median is worse than the parent's by more than
              the metric's bound (a fraction of the parent's median)
  unresolved  the parent's IQR exceeds the bound times its median: the
              runs spread too widely to tell
  flat        none of these

Exits 1 when any run failed or was incorrect, or when any verdict is worse;
2 on a usage error.
"""
import argparse
import json
import os
import subprocess
import sys

SIDES = ("parent", "change")


def parse_seeds(text):
    try:
        lo, _, hi = text.partition("-")
        first, last = int(lo), int(hi or lo)
    except ValueError:
        first, last = 0, -1
    if first < 0 or last < first:
        raise argparse.ArgumentTypeError(
            f"expected A-B with 0 <= A <= B, got {text!r}")
    return list(range(first, last + 1))


def quartiles(values):
    """(q1, median, q3) by linear interpolation between order statistics."""
    xs = sorted(values)

    def at(q):
        pos = q * (len(xs) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(xs) - 1)
        return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)

    return at(0.25), at(0.5), at(0.75)


def run_once(tree, target, workload, seed, seconds):
    """One run.py call; returns {metric: value}, or None when it failed."""
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        print(f"  run failed (exit {proc.returncode}): {' '.join(cmd)}\n{tail}")
        return None
    result = json.loads(lines[-1])
    if not result.get("correct"):
        print(f"  run incorrect: {lines[-1]}")
        return None
    return {k: v["value"] for k, v in result["metrics"].items()}


def verdict(metric, parent, change, wins, pairs):
    lower = metric["better"] == "lower"
    bound = float(metric["bound"])
    p_q1, p_med, p_q3 = quartiles(parent)
    c_med = quartiles(change)[1]
    gap = (p_med - c_med) if lower else (c_med - p_med)  # > 0: change better
    if pairs >= 10 and wins >= 0.9 * pairs and gap > p_q3 - p_q1:
        return "gain"
    if -gap > bound * abs(p_med):
        return "worse"
    if p_q3 - p_q1 > bound * abs(p_med):
        return "unresolved"
    return "flat"


def main():
    ap = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", required=True, help="parent source tree")
    ap.add_argument("--change", required=True, help="changed source tree")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, type=parse_seeds,
                    help="inclusive seed range A-B, one pair per seed")
    ap.add_argument("--seconds", type=float, default=20.0)
    args = ap.parse_args()

    trees = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    for side, tree in trees.items():
        if not os.path.isfile(os.path.join(tree, "perfbench", "run.py")):
            ap.error(f"--{side} {tree} has no perfbench/run.py")
    with open(os.path.join(trees["change"], "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]
    base = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    targets = {side: os.path.join(base, "ab-" + side) for side in SIDES}
    seconds = f"{args.seconds:g}"

    print(f"workload {args.workload}: {len(args.seeds)} pairs, seeds "
          f"{args.seeds[0]}-{args.seeds[-1]}, {seconds} s runs, trace off")
    results = {side: [] for side in SIDES}  # aligned by pair; None = failed
    for i, seed in enumerate(args.seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for side in order:
            results[side].append(run_once(trees[side], targets[side],
                                          args.workload, seed, seconds))
        cells = []
        for side in SIDES:
            r = results[side][-1]
            cells.append(side + " " + (" ".join(
                f"{m['name']}={r[m['name']]:.6g}" for m in metrics)
                if r else "FAILED"))
        print(f"pair {i + 1} seed {seed} ({order[0]} first): "
              + " | ".join(cells), flush=True)

    failed = sum(r is None for side in SIDES for r in results[side])
    ok_pairs = [(p, c) for p, c in zip(results["parent"], results["change"])
                if p is not None and c is not None]
    print(f"\n{len(ok_pairs)} complete pairs, {failed} failed runs")
    print(f"{'metric':<18} {'parent median [q1, q3]':<36} "
          f"{'change median [q1, q3]':<36} {'wins':<7} verdict")
    any_worse = False
    for m in metrics:
        name = m["name"]
        if not ok_pairs:
            print(f"{name:<18} no complete pair")
            continue
        parent = [p[name] for p, _ in ok_pairs]
        change = [c[name] for _, c in ok_pairs]
        lower = m["better"] == "lower"
        wins = sum((c < p) if lower else (c > p)
                   for p, c in zip(parent, change))
        v = verdict(m, parent, change, wins, len(ok_pairs))
        any_worse |= v == "worse"
        cols = []
        for xs in (parent, change):
            q1, med, q3 = quartiles(xs)
            cols.append(f"{med:.6g} [{q1:.6g}, {q3:.6g}] {m['unit']}")
        print(f"{name:<18} {cols[0]:<36} {cols[1]:<36} "
              f"{f'{wins}/{len(ok_pairs)}':<7} {v}")
    return 1 if failed or any_worse or not ok_pairs else 0


if __name__ == "__main__":
    sys.exit(main())
