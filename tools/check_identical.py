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

A VMFS leg follows, per seed: ``python -m vmfcl synth`` writes
``train.vmfs`` and ``test.vmfs`` from ``perfbench/configs/nc_eval.cfg`` in
both trees, and then that config runs in both trees from the base tree's
files, through a temporary copy whose ``[synth]`` section is replaced by a
``[data]`` section naming them.

Then ``python -m vmfcl export-embeddings`` runs that ``[data]`` copy in both
trees, so the embeddings of a pool read from VMFS files are compared too.

An export leg ends it, per seed: ``python -m vmfcl export-embeddings`` runs
``configs/nd_gain.cfg`` in both trees, and its ``embeddings.csv`` is compared
along with the run files.

For each run the sha256 of ``report.json``, ``model.vmfb`` and ``train.log``
are compared and one line is printed per file; so are the two VMFS files of
each ``synth`` and the ``embeddings.csv`` of each export. ``train.log`` is hashed without its ``wall_clock_sec=``
line, so the per-epoch loss terms and the merge maps it logs are compared
but the wall time is not. The exit code is 1 when any file differs, is
missing, or a command fails in either tree, and 0 when everything is
identical. The configs are read from this checkout in both trees, so both
run the same inputs.
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
VMFS_CONFIG = "perfbench/configs/nc_eval.cfg"  # its [synth] section feeds the VMFS leg
VMFS_FILES = ("train.vmfs", "test.vmfs")
EXPORT_CONFIG = "configs/nd_gain.cfg"  # the config of the export-embeddings leg
EXPORT_OUTPUTS = ("embeddings.csv", *OUTPUTS)


def parse_seeds(text: str) -> list[int]:
    """``1-3`` or ``1,4,7`` (or a mix) as a list of seeds."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def vmfcl(tree: Path, *args: str) -> bool:
    """``python -m vmfcl ARGS`` on ``tree``'s ``src/``; False (and the error printed) when it fails."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    done = subprocess.run([sys.executable, "-m", "vmfcl", *args], cwd=tree, env=env,
                          capture_output=True, text=True)
    if done.returncode != 0:
        print(f"  vmfcl {args[0]} failed in {tree}: {done.stderr.strip()}")
    return done.returncode == 0


def run(tree: Path, config: str, method: str | None, seed: int, out: Path) -> bool:
    args = ["run", "--config", str(ROOT / config), "--seed", str(seed), "--out", str(out)]
    return vmfcl(tree, *args, *(["--method", method] if method else []))


def export(tree: Path, config: str, seed: int, out: Path) -> bool:
    return vmfcl(tree, "export-embeddings", "--config", config, "--seed", str(seed), "--out", str(out))


def data_config(config: Path, files: Path) -> str:
    """The text of ``config`` with its [synth] section replaced by a [data] section naming ``files``."""
    kept, section = [], None
    for line in config.read_text(encoding="utf-8").splitlines():
        if line.strip().startswith("["):
            section = line.strip()
        if section != "[synth]":
            kept.append(line)
    data = [f"{Path(name).stem} = {files / name}" for name in VMFS_FILES]  # the keys are train and test
    return "\n".join(kept + ["", "[data]", *data, ""])


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


def compare(label: str, names, base: Path, this: Path, ok: bool) -> int:
    """Print one line per file of ``names`` in the two directories; return how many differ."""
    differ = 0
    for name in names:
        a, b = digest(base / name), digest(this / name)
        same = ok and a is not None and a == b
        differ += not same
        verdict = "identical" if same else "DIFFERENT"
        print(f"{label:42s} {name:14s} {verdict:9s} {a or 'missing'}"
              + ("" if same else f" vs {b or 'missing'}"))
    return differ


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="git revision to compare against, e.g. HEAD or a commit SHA")
    parser.add_argument("--seeds", default="1-3", help="run seeds, e.g. 1-3 or 1,5 (default 1-3)")
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)

    differ = 0
    with worktree(args.rev) as base, tempfile.TemporaryDirectory(prefix="check_identical-") as tmp:
        def dirs(label: str) -> tuple[Path, Path]:
            return Path(tmp) / "base" / label, Path(tmp) / "this" / label

        for config, method in RUNS:
            for seed in seeds:
                label = f"{Path(config).stem}.{method or 'configured'}.seed{seed}"
                outs = dirs(label)
                ok = run(base, config, method, seed, outs[0])
                ok = run(ROOT, config, method, seed, outs[1]) and ok
                differ += compare(label, OUTPUTS, *outs, ok)
        for seed in seeds:
            label = f"{Path(VMFS_CONFIG).stem}.synth.seed{seed}"
            files = dirs(label)
            synth = ["synth", "--config", str(ROOT / VMFS_CONFIG), "--seed", str(seed), "--out"]
            ok = vmfcl(base, *synth, str(files[0]))
            ok = vmfcl(ROOT, *synth, str(files[1])) and ok
            differ += compare(label, VMFS_FILES, *files, ok)
            label = f"{Path(VMFS_CONFIG).stem}.data.seed{seed}"
            config = Path(tmp) / f"{label}.cfg"
            config.write_text(data_config(ROOT / VMFS_CONFIG, files[0]), encoding="utf-8")
            outs = dirs(label)
            ok = run(base, str(config), None, seed, outs[0])
            ok = run(ROOT, str(config), None, seed, outs[1]) and ok
            differ += compare(label, OUTPUTS, *outs, ok)
            label = f"{Path(VMFS_CONFIG).stem}.data-export.seed{seed}"
            outs = dirs(label)
            ok = export(base, str(config), seed, outs[0])
            ok = export(ROOT, str(config), seed, outs[1]) and ok
            differ += compare(label, EXPORT_OUTPUTS, *outs, ok)
        for seed in seeds:
            label = f"{Path(EXPORT_CONFIG).stem}.export.seed{seed}"
            outs = dirs(label)
            ok = export(base, str(ROOT / EXPORT_CONFIG), seed, outs[0])
            ok = export(ROOT, str(ROOT / EXPORT_CONFIG), seed, outs[1]) and ok
            differ += compare(label, EXPORT_OUTPUTS, *outs, ok)
    per_seed = len(RUNS) * len(OUTPUTS) + len(VMFS_FILES) + len(OUTPUTS) + 2 * len(EXPORT_OUTPUTS)
    total = len(seeds) * per_seed
    print(f"{total - differ} of {total} files identical to {args.rev}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
