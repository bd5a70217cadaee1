#!/usr/bin/env python3
"""Check that this checkout writes the same run outputs, byte for byte, as a git revision.

Run from anywhere inside the repository:

    python3 tools/check_identical.py REV [--seeds 1-3]

REV is checked out in a temporary git worktree (under ``$TMPDIR``), and for
every seed each leg of ``LEGS`` runs one ``python -m vmfcl`` command in both
trees, each on its own ``src/``:

* ``run`` on ``configs/nd_gain.cfg`` and ``configs/ncd_purity.cfg``, under
  both methods, and on ``perfbench/configs/nd_wide.cfg`` and
  ``perfbench/configs/nc_eval.cfg``, read as they are, under their
  configured method;
* a VMFS leg: ``synth`` writes ``train.vmfs`` and ``test.vmfs`` from
  ``perfbench/configs/nc_eval.cfg``; then that config runs, and
  ``export-embeddings`` runs it, in both trees from the base tree's files,
  through a temporary copy whose ``[synth]`` section is replaced by a
  ``[data]`` section naming them, so the path of a pool read from VMFS files
  is compared too;
* an export leg: ``export-embeddings`` on ``configs/nd_gain.cfg``.

For each leg the sha256 of its output files (``report.json``,
``model.vmfb``, ``train.log``; the two VMFS files of ``synth``; and
``embeddings.csv`` of an export) are compared and one line is printed per
file. ``train.log`` is hashed without its ``wall_clock_sec=``
line, so the per-epoch loss terms and the merge maps it logs are compared
but the wall time is not. The exit code is 1 when any file differs, is
missing, or a command fails in either tree, and 0 when everything is
identical. The configs are read from this checkout in both trees, so both
run the same inputs.

The legs marked ``pinned`` are also a tier-1 test: ``tests/test_identity.py``
runs them in-process at seed 1 and compares their files with the digests
pinned in ``tests/identity_digests.json``. The two ``[data]`` legs name
temporary paths in their reports, so they run here only.
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
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
OUTPUTS = ("report.json", "model.vmfb", "train.log")
VMFS_CONFIG = "perfbench/configs/nc_eval.cfg"  # its [synth] section feeds the VMFS leg
VMFS_FILES = ("train.vmfs", "test.vmfs")
EXPORT_OUTPUTS = ("embeddings.csv", *OUTPUTS)


class Leg(NamedTuple):
    """One vmfcl command, run per seed with ``--seed`` and ``--out`` appended.

    In ``args``, ``{root}`` stands for the repository root and ``{data}`` for
    the [data] copy of ``VMFS_CONFIG`` that names the files of ``SYNTH``.
    """

    name: str
    args: tuple[str, ...]
    outputs: tuple[str, ...]
    pinned: bool = False  # also run at seed 1 by tests/test_identity.py


SYNTH = Leg("nc_eval.synth", ("synth", "--config", "{root}/" + VMFS_CONFIG), VMFS_FILES, pinned=True)
LEGS = [
    *(Leg(f"{config}.{method}", ("run", "--config", f"{{root}}/configs/{config}.cfg", "--method", method),
          OUTPUTS, pinned=True)
      for config in ("nd_gain", "ncd_purity") for method in ("domain_aware", "replay_baseline")),
    *(Leg(f"{config}.configured", ("run", "--config", f"{{root}}/perfbench/configs/{config}.cfg"), OUTPUTS,
          pinned=True)
      for config in ("nd_wide", "nc_eval")),
    SYNTH,
    Leg("nc_eval.data", ("run", "--config", "{data}"), OUTPUTS),
    Leg("nc_eval.data-export", ("export-embeddings", "--config", "{data}"), EXPORT_OUTPUTS),
    Leg("nd_gain.export", ("export-embeddings", "--config", "{root}/configs/nd_gain.cfg"), EXPORT_OUTPUTS,
        pinned=True),
]


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

        for seed in seeds:
            data = Path(tmp) / f"data.seed{seed}.cfg"
            data.write_text(data_config(ROOT / VMFS_CONFIG, dirs(f"{SYNTH.name}.seed{seed}")[0]), encoding="utf-8")
            for leg in LEGS:
                label = f"{leg.name}.seed{seed}"
                outs = dirs(label)
                command = [a.format(root=ROOT, data=data) for a in leg.args] + ["--seed", str(seed), "--out"]
                ok = vmfcl(base, *command, str(outs[0]))
                ok = vmfcl(ROOT, *command, str(outs[1])) and ok
                differ += compare(label, leg.outputs, *outs, ok)
    total = len(seeds) * sum(len(leg.outputs) for leg in LEGS)
    print(f"{total - differ} of {total} files identical to {args.rev}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
