#!/usr/bin/env python3
"""Benchmark this checkout against a git revision in alternating pairs of runs.

Run from anywhere inside the repository:

    python3 tools/pair_bench.py REV [--workloads shipped,nd-wide,nc-eval] [--seeds 1-10]
                                    [--seconds 30]

REV is checked out in a temporary git worktree (under ``$TMPDIR``, as
``check_identical.py`` does). For each workload and seed, one pair of runs
is made: ``perfbench/run.py --trace 0`` in REV's tree and in this one, each
tree running its own benchmark on its own ``src/``. Which tree runs first
alternates from pair to pair, so a drift in the machine's speed falls on
both sides alike. The runs are merged into two results files,
``.perfbench_work/pairs/base.json`` (REV) and ``.perfbench_work/pairs/this.json``.

Then ``perfbench/run.py --compare`` prints, per workload and end-to-end
metric, each side's median and quartiles and a verdict, followed by the
pair win counts of this checkout per workload and metric (ties count for
neither side). The exit code is that of ``--compare`` (1 when a metric is
worse by more than its bound), or 1 when any benchmark run failed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from check_identical import ROOT, parse_seeds, worktree

PAIRS = ROOT / ".perfbench_work" / "pairs"


def bench(tree: Path, workload: str, seed: int, seconds: int, results: Path) -> dict | None:
    """One ``--trace 0`` run of the tree's benchmark; its record, or None when it wrote none."""
    results.unlink(missing_ok=True)
    cmd = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0", "--results", str(results)]
    done = subprocess.run(cmd, cwd=tree, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    if not results.is_file():
        print(f"  {workload} seed {seed} in {tree}: no results ({done.stderr.strip()[-300:]})")
        return None
    return json.loads(results.read_text(encoding="utf-8"))


def win_counts(base: dict, this: dict, metrics: list[dict]) -> list[str]:
    """Per workload and metric: in how many seed-matched pairs this checkout reads better."""
    lines = []
    for m in metrics:
        sign = 1.0 if m["better"] == "lower" else -1.0
        pairs: dict[str, list[tuple[float, float]]] = {}
        values = {(r["workload"], r["seed"]): r["metrics"][m["name"]]["value"] for r in base["runs"]}
        for r in this["runs"]:
            a, b = values.get((r["workload"], r["seed"])), r["metrics"][m["name"]]["value"]
            if a is not None and b is not None:
                pairs.setdefault(r["workload"], []).append((a, b))
        for workload, ab in sorted(pairs.items()):
            wins = sum(1 for a, b in ab if sign * (b - a) < 0)
            losses = sum(1 for a, b in ab if sign * (b - a) > 0)
            lines.append(f"{workload:<9} {m['name']:<21} better in {wins} of {len(ab)} pairs, "
                         f"worse in {losses}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="git revision to compare against, e.g. HEAD or a commit SHA")
    parser.add_argument("--workloads", default="shipped,nd-wide,nc-eval")
    parser.add_argument("--seeds", default="1-10", help="one pair per seed, e.g. 21-30 or 1,5 (default 1-10)")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)

    (PAIRS / "parts").mkdir(parents=True, exist_ok=True)
    docs = {"base": None, "this": None}
    failed = False
    with worktree(args.rev) as base:
        trees = {"base": base, "this": ROOT}
        turn = 0
        for workload in args.workloads.split(","):
            for seed in seeds:
                order = ("base", "this") if turn % 2 == 0 else ("this", "base")
                turn += 1
                for side in order:
                    part = PAIRS / "parts" / f"{side}-{workload}-seed{seed}.json"
                    doc = bench(trees[side], workload, seed, args.seconds, part)
                    if doc is None or not all(r["correct"] for r in doc["runs"]):
                        failed = True
                    if doc is None:
                        continue
                    if docs[side] is None:
                        docs[side] = {"stamp": dict(doc["stamp"], seeds=seeds), "runs": []}
                    docs[side]["runs"].extend(doc["runs"])
                print(f"{workload} seed {seed}: pair {turn} done ({order[0]} first)", flush=True)
    if docs["base"] is None or docs["this"] is None:
        print("pair_bench: a side wrote no results")
        return 1
    docs["base"]["stamp"]["git_sha"] = f"{args.rev} ({docs['base']['stamp'].get('git_sha')})"
    paths = {side: PAIRS / f"{side}.json" for side in docs}
    for side, doc in docs.items():
        paths[side].write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")

    compare = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"), "--compare",
                              str(paths["base"]), str(paths["this"])], cwd=ROOT)
    print("\n".join(win_counts(docs["base"], docs["this"], spec["end_to_end"])))
    if failed:
        print("pair_bench: at least one benchmark run failed its checks")
    return 1 if failed else compare.returncode


if __name__ == "__main__":
    sys.exit(main())
