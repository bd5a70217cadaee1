#!/usr/bin/env python3
"""Performance benchmark for vmfcl: whole protocol runs, timed end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload nd-wide --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --sweep --seeds 1-10 --seconds 30 --results bench-a.json
    python3 perfbench/run.py --compare bench-a.json bench-b.json

One run repeats the workload's protocol runs (see workloads.py) for
``--seconds`` seconds, at least twice, in one process, through
``vmfcl.bench.run_experiment_full``. With ``--trace 0`` nothing is wrapped and
the end-to-end metrics are printed; ``setup_s`` is the median of five fresh
processes that import vmfcl, load the configs and build or read the data
pools. With ``--trace 1`` untraced and traced repetitions alternate, and the
per-layer metrics of the traced ones are printed (medians over repetitions,
each the total of one repetition) together with the tracing overhead.

The metric names, units and bounds come from BENCHMARK.json at the
repository root. The last line of standard output is one JSON object with
``correct``, ``attempted`` (protocol runs), ``failed`` and ``metrics``; the
full record, with result checksums and an environment stamp, goes to the
results file (default ``.perfbench_work/results/``). The exit code is 1 when
any protocol run failed its checks.

``--sweep`` runs every workload on each seed in its own process and merges
the records into one results file; ``--compare A B`` prints, per workload and
end-to-end metric, each side's median and quartiles and a verdict by the
metric's bound.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / ".perfbench_work"
NPROC = len(os.sched_getaffinity(0))
# One BLAS thread: a second gave no speed-up at these matrix sizes, and a
# fixed count keeps runs comparable. Set before NumPy is first imported.
BLAS_THREADS = min(1, NPROC)
SETUP_PROBES = 5
WAITING_NOTE = "not measured: every layer runs on the caller's thread with no queue"

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)


def _load_package():
    src = ROOT / "src"
    if not (src / "vmfcl" / "__init__.py").is_file():
        sys.exit(f"perfbench: no vmfcl package under {src}")
    sys.path.insert(0, str(src))


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _git_sha() -> str | None:
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def stamp(seeds) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": NPROC,
        "seeds": list(seeds),
    }


def _setup_samples(name: str, seed: int) -> list[float]:
    cmd = [sys.executable, str(Path(__file__)), "--setup-only", "--workload", name, "--seed", str(seed)]
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL)
        # wait() with a timeout polls in 50 ms steps; a blocking wait plus a
        # watchdog keeps the sample exact and the run bounded
        watchdog = threading.Timer(120, proc.kill)
        watchdog.start()
        try:
            code = proc.wait()
        finally:
            watchdog.cancel()
        samples.append(time.perf_counter() - t0)
        if code != 0:
            raise RuntimeError(f"set-up probe exited with {code}: {' '.join(cmd)}")
    return samples


def measure(name: str, seed: int, seconds: int, trace: bool) -> dict:
    """Repeat the workload's protocol runs for ``seconds``; return the run record."""
    import tracing
    import workloads

    workload = workloads.WORKLOADS[name]
    workloads.write_inputs(workload, seed)
    cfgs = [workloads.run_config(workload, run, seed) for run in workload.runs]
    setup = [] if trace else _setup_samples(name, seed)

    tracer = tracing.Tracer()
    first: dict[str, workloads.RunOutcome] = {}
    reps, spans = [], []
    deadline = time.perf_counter() + seconds
    while len(reps) < 2 or time.perf_counter() < deadline:
        traced_rep = trace and len(reps) % 2 == 1
        tracer.reset()
        outcomes = []
        with tracing.traced(tracer) if traced_rep else contextlib.nullcontext():
            for run, cfg in zip(workload.runs, cfgs):
                tracer.run_id += 1
                outcome = workloads.execute(workload, run, cfg, first.get(run.label))
                first.setdefault(run.label, outcome)
                outcomes.append(outcome)
        rep = {"traced": traced_rep, "wall_s": sum(o.seconds for o in outcomes),
               "runs": [asdict(o) for o in outcomes]}
        if traced_rep:
            rep["layers"] = tracing.layer_metrics(tracer, rep["wall_s"])
            spans.extend(dict(asdict(s), rep=len(reps)) for s in tracer.spans)
        reps.append(rep)

    runs = [o for rep in reps for o in rep["runs"]]
    failed = sum(1 for o in runs if o["failures"])
    run_s = statistics.median(r["wall_s"] for r in reps if not r["traced"])
    record = {
        "workload": name, "seed": seed, "trace": int(trace), "seconds": seconds,
        "correct": failed == 0, "attempted": len(runs), "failed": failed,
        "fail_rate": failed / len(runs),
        "failures": sorted({f"{o['label']}: {f}" for o in runs for f in o["failures"]}),
        "checksums": [{"label": o.label, "sha256": o.sha256,
                       "avg_inc_acc": o.values.get("avg_inc_acc"),
                       "final_acc": o.values.get("final_acc")} for o in first.values()],
        "reps": reps,
        "waiting": WAITING_NOTE,
    }
    quality = workloads.summary(workload, list(first.values()))
    if "replay_gap_pts" in quality:
        record["replay_gap_pts"] = quality.pop("replay_gap_pts")
    if trace:
        traced = [r for r in reps if r["traced"]]
        values = {k: statistics.median(r["layers"][k] for r in traced) for k in traced[0]["layers"]}
        values["trace.overhead_s"] = statistics.median(r["wall_s"] for r in traced) - run_s
        WORK.joinpath("trace").mkdir(parents=True, exist_ok=True)
        with open(WORK / "trace" / f"{name}-seed{seed}.jsonl", "w", encoding="utf-8") as fh:
            fh.writelines(json.dumps(s) + "\n" for s in spans)
    else:
        examples = sum(o.examples for o in first.values())
        values = {
            "run_s": run_s,
            "train_examples_per_s": examples / run_s,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            **quality,
        }
        record["setup_samples"] = setup
    declared = _spec()["per_layer" if trace else "end_to_end"]
    # a failed protocol run leaves its quality metrics out: they print as null
    record["metrics"] = {m["name"]: {"value": values.get(m["name"]), "unit": m["unit"]} for m in declared}
    return record


def _parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def _write(path: Path, doc: dict):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


def sweep(names, seeds, seconds: int, trace: int, results: Path) -> int:
    """Each workload on each seed in its own process, merged into one results file."""
    import compare

    runs = []
    for name in names:
        for seed in seeds:
            part = WORK / "sweep" / f"{name}-seed{seed}-trace{trace}.json"
            part.unlink(missing_ok=True)
            cmd = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace), "--results", str(part)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
            print(f"{name} seed={seed} exit={proc.returncode}", file=sys.stderr)
            if not part.exists():
                sys.exit(f"perfbench: {name} seed {seed} wrote no results")
            runs.extend(json.loads(part.read_text(encoding="utf-8"))["runs"])
    doc = {"stamp": stamp(seeds), "runs": runs}
    _write(results, doc)
    if not trace:
        print(compare.spread_table(doc, _spec()["end_to_end"]))
    return 0 if all(r["correct"] for r in runs) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", help="shipped, nd-wide or nc-eval")
    parser.add_argument("--workloads", default="shipped,nd-wide,nc-eval", help="for --sweep")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seeds", default="1-10", help="for --sweep, e.g. 1-10 or 3,7")
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", type=Path, help="results file to write")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--sweep", action="store_true")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    args = parser.parse_args(argv)
    _load_package()

    if args.compare:
        import compare

        docs = [json.loads(p.read_text(encoding="utf-8")) for p in args.compare]
        text, worse = compare.compare_table(docs[0], docs[1], _spec()["end_to_end"])
        print(text)
        return 1 if worse else 0
    if args.sweep:
        results = args.results or WORK / "results" / "sweep.json"
        return sweep(args.workloads.split(","), _parse_seeds(args.seeds), args.seconds, args.trace, results)
    import workloads

    if args.workload not in workloads.WORKLOADS or args.seed is None:
        parser.error(f"--workload (one of {', '.join(workloads.WORKLOADS)}) and --seed are required")
    if args.setup_only:
        workloads.set_up(workloads.WORKLOADS[args.workload], args.seed)
        return 0
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    results = args.results or WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    _write(results, {"stamp": stamp([args.seed]), "runs": [record]})
    for key, m in record["metrics"].items():
        print(f"{args.workload} {key} = {m['value']} {m['unit']}", file=sys.stderr)
    for failure in record["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    if args.trace:
        print(f"waiting time: {WAITING_NOTE}", file=sys.stderr)
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
