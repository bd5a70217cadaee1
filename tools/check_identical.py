#!/usr/bin/env python3
"""Check that this checkout writes the same run outputs, byte for byte, as a git revision.

Run from anywhere inside the repository:

    python3 tools/check_identical.py REV [--seeds 1-3]

REV is checked out in a temporary git worktree (under ``$TMPDIR``), and
``python -m vmfcl run`` runs in both trees, each on its own ``src/``, for
every seed on:

* ``configs/nd_gain.cfg`` and ``configs/ncd_purity.cfg``, under both methods;
* ``perfbench/configs/nd_wide.cfg`` and ``perfbench/configs/nc_eval.cfg``,
  read as they are, under their configured method.

For each run the sha256 of ``report.json``, ``model.vmfb`` and ``train.log``
are compared and one line is printed per file. ``train.log`` is hashed
without its ``wall_clock_sec=`` line, so the per-epoch loss terms and the
merge maps it logs are compared but the wall time is not. The exit code is 1
when any file differs, is missing, or a run fails in either tree, and 0 when
everything is identical. The configs are read from this checkout in both
trees, so both run the same inputs.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import os
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# (config relative to the repository root, method or None for the configured one)
RUNS = [
    ("configs/nd_gain.cfg", "domain_aware"),
    ("configs/nd_gain.cfg", "replay_baseline"),
    ("configs/ncd_purity.cfg", "domain_aware"),
    ("configs/ncd_purity.cfg", "replay_baseline"),
    ("perfbench/configs/nd_wide.cfg", None),
    ("perfbench/configs/nc_eval.cfg", None),
]
OUTPUTS = ("report.json", "model.vmfb", "train.log")


def parse_seeds(text: str) -> list[int]:
    """``1-3`` or ``1,4,7`` (or a mix) as a list of seeds."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run(tree: Path, config: str, method: str | None, seed: int, out: Path) -> bool:
    cmd = [sys.executable, "-m", "vmfcl", "run", "--config", str(ROOT / config),
           "--seed", str(seed), "--out", str(out)]
    if method:
        cmd += ["--method", method]
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    done = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        print(f"  run failed in {tree}: {done.stderr.strip()}")
    return done.returncode == 0


def _exit_on_sigterm(signum, frame):
    raise SystemExit(128 + signum)


@contextlib.contextmanager
def worktree(rev: str):
    """Yield the path of REV checked out in a temporary git worktree, removed on exit.

    SIGTERM raises SystemExit while the worktree exists, so a killed run
    removes it too; worktrees whose directory is gone (a SIGKILLed run's)
    are pruned before the new one is added.
    """
    previous = signal.signal(signal.SIGTERM, _exit_on_sigterm)
    try:
        with tempfile.TemporaryDirectory(prefix="worktree-") as tmp:
            path = Path(tmp) / "base"
            subprocess.run(["git", "worktree", "prune"], cwd=ROOT, check=True)
            subprocess.run(["git", "worktree", "add", "--detach", "--quiet", str(path), rev],
                           cwd=ROOT, check=True)
            try:
                yield path
            finally:
                subprocess.run(["git", "worktree", "remove", "--force", str(path)], cwd=ROOT, check=False)
    finally:
        signal.signal(signal.SIGTERM, previous)


def digest(path: Path) -> str | None:
    """sha256 of a file, a ``train.log`` without its wall-clock line; None when it is missing."""
    if not path.is_file():
        return None
    data = path.read_bytes()
    if path.name == "train.log":  # its wall_clock_sec= line differs between identical runs
        lines = data.splitlines(keepends=True)
        data = b"".join(line for line in lines if not line.startswith(b"wall_clock_sec="))
    return hashlib.sha256(data).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="git revision to compare against, e.g. HEAD or a commit SHA")
    parser.add_argument("--seeds", default="1-3", help="run seeds, e.g. 1-3 or 1,5 (default 1-3)")
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)

    differ = 0
    with worktree(args.rev) as base, tempfile.TemporaryDirectory(prefix="check_identical-") as tmp:
        for config, method in RUNS:
            for seed in seeds:
                label = f"{Path(config).stem}.{method or 'configured'}.seed{seed}"
                outs = {name: Path(tmp) / name / label for name in ("base", "this")}
                ok = run(base, config, method, seed, outs["base"])
                ok = run(ROOT, config, method, seed, outs["this"]) and ok
                for name in OUTPUTS:
                    a, b = digest(outs["base"] / name), digest(outs["this"] / name)
                    same = ok and a is not None and a == b
                    differ += not same
                    verdict = "identical" if same else "DIFFERENT"
                    print(f"{label:42s} {name:12s} {verdict:9s} {a or 'missing'}"
                          + ("" if same else f" vs {b or 'missing'}"))
    total = len(RUNS) * len(seeds) * len(OUTPUTS)
    print(f"{total - differ} of {total} files identical to {args.rev}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
