#!/usr/bin/env python3
"""A/B runner for perfbench: a parent revision against the working tree.

    python3 tools/ab.py --parent HEAD --workload fed16 --pairs 10
    python3 tools/ab.py --summarize results.jsonl

Checks the parent revision out in a temporary `git worktree` (or uses
--parent-src, an existing checkout of it), builds each side in its own
CARGO_TARGET_DIR and alternates `perfbench/run.py` runs of the two sides
--pairs times, swapping which side goes first on every pair.  Each run's
result line is appended to --out (JSON lines: pair, side, first, result).
The summary prints, per metric, each side's median and quartiles, the
change/parent ratio of the medians, whether the medians differ by more
than the parent's interquartile range, and in how many pairs the change
was better (direction from BENCHMARK.json); then each side's failed
operations and failed runs.  Nothing under perfbench/ is edited.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")


def directions(root):
    """Metric name -> "higher"/"lower", from BENCHMARK.json."""
    try:
        with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as f:
            bench = json.load(f)
    except (OSError, ValueError):
        return {}
    out = {}
    for key in ("end_to_end", "per_layer"):
        for m in bench.get(key, []):
            out[m["name"]] = m.get("better", "")
    return out


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def summarize(records, better):
    """The summary as a list of lines."""
    runs = {side: [r for r in records if r["side"] == side] for side in SIDES}
    pairs = sorted({r["pair"] for r in records})
    lines = [f"ab: {len(pairs)} pair(s), {len(runs['parent'])} parent and "
             f"{len(runs['change'])} change run(s)"]
    values = {side: {} for side in SIDES}  # side -> metric -> {pair: v}
    for side in SIDES:
        for r in runs[side]:
            for name, m in ((r.get("result") or {}).get("metrics") or {}).items():
                values[side].setdefault(name, {})[r["pair"]] = m["value"]
    names = sorted(set(values["parent"]) & set(values["change"]))
    lines.append(f"{'metric':<34} {'parent median [q1, q3]':>30} "
                 f"{'change median [q1, q3]':>30} {'ratio':>7} "
                 f"{'gap>IQR':>7} {'better':>7}")
    for name in names:
        p, c = values["parent"][name], values["change"][name]
        pq, cq = quartiles(list(p.values())), quartiles(list(c.values()))
        ratio = cq[1] / pq[1] if pq[1] else float("nan")
        gap = "yes" if abs(cq[1] - pq[1]) > pq[2] - pq[0] else "no"
        both = sorted(set(p) & set(c))
        wins = "-"
        if better.get(name) in ("higher", "lower"):
            up = better[name] == "higher"
            won = sum(1 for i in both if (c[i] > p[i] if up else c[i] < p[i]))
            wins = f"{won}/{len(both)}"
        lines.append(
            f"{name:<34} "
            f"{f'{pq[1]:.6g} [{pq[0]:.6g}, {pq[2]:.6g}]':>30} "
            f"{f'{cq[1]:.6g} [{cq[0]:.6g}, {cq[2]:.6g}]':>30} "
            f"{ratio:>7.3f} {gap:>7} {wins:>7}")
    for side in SIDES:
        failed_ops = sum((r.get("result") or {}).get("failed", 0)
                         for r in runs[side])
        bad = sum(1 for r in runs[side] if not r.get("result")
                  or not r["result"].get("correct", False))
        lines.append(f"{side}: failed operations {failed_ops}, "
                     f"failed or incorrect runs {bad}/{len(runs[side])}")
    return lines


def run_side(src, build_dir, args):
    """One perfbench run of the checkout at `src`: its result, or None."""
    env = dict(os.environ, CARGO_TARGET_DIR=build_dir)
    cmd = [sys.executable, os.path.join(src, "perfbench", "run.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    with open(os.path.join(build_dir, "ab-stderr.log"), "a") as err:
        proc = subprocess.run(cmd, cwd=src, env=env, stdout=subprocess.PIPE,
                              stderr=err, text=True, check=False)
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    try:
        return json.loads(lines[-1]) if proc.returncode == 0 else None
    except (IndexError, ValueError):
        return None


def run(args):
    tmp = tempfile.mkdtemp(prefix="sparcle-ab-")
    worktree = None
    try:
        parent_src = args.parent_src
        if parent_src is None:
            worktree = os.path.join(tmp, "parent")
            subprocess.run(["git", "-C", ROOT, "worktree", "add", "--detach",
                            worktree, args.parent], check=True,
                           stdout=subprocess.DEVNULL)
            parent_src = worktree
        build_root = args.build_root or tmp
        srcs = {"parent": os.path.abspath(parent_src), "change": ROOT}
        builds = {side: os.path.join(os.path.abspath(build_root),
                                     f"build-{side}") for side in SIDES}
        for d in builds.values():
            os.makedirs(d, exist_ok=True)
        records = []
        with open(args.out, "a", encoding="utf-8") as out:
            for pair in range(args.pairs):
                order = SIDES if pair % 2 == 0 else SIDES[::-1]
                for k, side in enumerate(order):
                    result = run_side(srcs[side], builds[side], args)
                    rec = {"pair": pair, "side": side, "first": k == 0,
                           "workload": args.workload, "seed": args.seed,
                           "result": result}
                    records.append(rec)
                    out.write(json.dumps(rec) + "\n")
                    out.flush()
                    print(f"ab: pair {pair} {side}: "
                          f"{'ok' if result else 'FAILED'}", file=sys.stderr)
        print("\n".join(summarize(records, directions(ROOT))))
        return 0
    finally:
        if worktree is not None:
            subprocess.run(["git", "-C", ROOT, "worktree", "remove", "--force",
                            worktree], check=False)
        shutil.rmtree(tmp, ignore_errors=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", default="HEAD",
                        help="parent revision (default HEAD)")
    parser.add_argument("--parent-src",
                        help="existing checkout of the parent, instead of a "
                             "temporary git worktree")
    parser.add_argument("--build-root",
                        help="keep the two build directories here")
    parser.add_argument("--workload", default="fed16")
    parser.add_argument("--seed", type=int, default=20260808)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", default="ab-results.jsonl",
                        help="JSON lines file the runs are appended to")
    parser.add_argument("--summarize", metavar="RESULTS",
                        help="print the summary of a results file and exit")
    args = parser.parse_args()
    if args.summarize:
        try:
            with open(args.summarize, encoding="utf-8") as f:
                records = [json.loads(line) for line in f if line.strip()]
        except (OSError, ValueError) as err:
            print(f"ab: {err}", file=sys.stderr)
            return 2
        print("\n".join(summarize(records, directions(ROOT))))
        return 0
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
