"""Command line front end.

Subcommands: ``synth`` (emit VMFS feature files from a [synth] config),
``run`` (execute a full benchmark run), ``report`` (pretty-print or compare
report JSON files) and ``export-embeddings`` (dump final-session test
embeddings with class/domain labels for external plotting).

Exit codes: 0 success, 1 configuration error, 2 runtime abort.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import replace

from .backbone import forward_batch
from .bench import METHODS, load_run_config, run_experiment_full
from .errors import ConfigError, VmfclError
from .mixture import PREDICT_BLOCK_ROWS
from .streams import ROLE_TEST, generate_synthetic, write_stream


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="vmfcl", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="generate synthetic VMFS train/test files")
    synth.add_argument("--config", required=True, help="config file with a [synth] section")
    synth.add_argument("--seed", type=int, default=None, help="override the [synth] seed")
    synth.add_argument("--out", required=True, help="output directory")

    for name in ("run", "export-embeddings"):
        p = sub.add_parser(name, help=f"{name.replace('-', ' ')} for one config")
        p.add_argument("--config", required=True, help="run config file")
        p.add_argument("--seed", type=int, default=None, help="override the [run] seed")
        p.add_argument("--method", choices=METHODS, default=None,
                       help="override the configured method")
        p.add_argument("--out", required=True, help="output directory")

    rep = sub.add_parser("report", help="pretty-print one report or compare two")
    rep.add_argument("files", nargs="+", help="one or two report.json paths")
    return parser


def _load(args):
    cfg = load_run_config(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
    if args.method:
        cfg.method = args.method
    return cfg


def _cmd_synth(args) -> int:
    cfg = load_run_config(args.config)
    if cfg.synth is None:
        raise ConfigError(f"{args.config}: synth requires a [synth] section")
    if args.seed is not None:
        cfg.synth = replace(cfg.synth, seed=args.seed)
    train, test, _ = generate_synthetic(cfg.synth)
    train_path = os.path.join(args.out, "train.vmfs")
    test_path = os.path.join(args.out, "test.vmfs")
    try:
        os.makedirs(args.out, exist_ok=True)
        write_stream(train_path, train)
        write_stream(test_path, test, ROLE_TEST)
    except OSError as e:
        raise ConfigError(f"cannot write the output directory {args.out}: {e}") from None
    print(f"wrote {train_path} ({len(train)} records) and {test_path} ({len(test)} records)")
    return 0


def _cmd_run(args) -> int:
    cfg = _load(args)
    result = run_experiment_full(cfg, out_dir=args.out)
    r = result.report
    print(f"report: {os.path.join(args.out, 'report.json')}")
    print(f"avg_inc_acc={r.avg_inc_acc:.2f} final_acc={r.final_acc:.2f} forgetting={r.forgetting}")
    return 0


def _cmd_export(args) -> int:
    cfg = _load(args)
    path = os.path.join(args.out, "embeddings.csv")
    if os.path.isdir(path):  # checked before the run, which writes it last
        raise ConfigError(f"cannot write {path}: it is a directory")
    result = run_experiment_full(cfg, out_dir=args.out)
    pool, params = result.test_pool, result.state.params
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["example_id", "class", "domain"] + [f"e{i}" for i in range(result.state.bank.dim)])
            # forwarded in blocks, as evaluation is, so no float64 copy of the whole pool is made
            for lo in range(0, len(pool), PREDICT_BLOCK_ROWS):
                feats = forward_batch(params, pool.x[lo : lo + PREDICT_BLOCK_ROWS])
                for i, row in enumerate(feats, lo):
                    writer.writerow(
                        [int(pool.ids[i]), int(pool.y[i]), int(pool.domain[i])] + [repr(float(v)) for v in row]
                    )
    except OSError as e:
        raise ConfigError(f"cannot write {path}: {e}") from None
    print(f"wrote {path} ({len(pool)} embeddings)")
    return 0


_SUMMARY_KEYS = ("avg_inc_acc", "final_acc", "forgetting")


def _cmd_report(args) -> int:
    if len(args.files) > 2:
        raise ConfigError("report takes one or two files")
    loaded = []
    for path in args.files:
        try:
            with open(path, encoding="utf-8") as fh:
                loaded.append(json.load(fh))
        except (OSError, ValueError, RecursionError) as e:  # ValueError: bad JSON or bad UTF-8
            raise ConfigError(f"cannot read report {path}: {e}") from None
        if not isinstance(loaded[-1], dict):
            raise ConfigError(f"report {path} is not a JSON object")
    if len(loaded) == 1:
        rep = loaded[0]
        for key in _SUMMARY_KEYS:
            print(f"{key:>12}: {rep.get(key)}")
        print(f"{'per_session':>12}: {rep.get('per_session_acc')}")
        print(f"{'components':>12}: {rep.get('components_per_class')}")
        print(f"{'purity':>12}: {rep.get('purity_per_session')}")
    else:
        a, b = loaded
        print(f"{'metric':>12}  {'A':>10}  {'B':>10}  {'B-A':>10}")
        for key in _SUMMARY_KEYS:
            va, vb = a.get(key), b.get(key)
            if isinstance(va, (int, float)) and isinstance(vb, (int, float)):
                print(f"{key:>12}  {va:>10.3f}  {vb:>10.3f}  {vb - va:>+10.3f}")
            else:
                print(f"{key:>12}  {va!s:>10}  {vb!s:>10}  {'-':>10}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "synth": _cmd_synth,
        "run": _cmd_run,
        "export-embeddings": _cmd_export,
        "report": _cmd_report,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    except VmfclError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # noqa: BLE001 - runtime abort contract
        print(f"unexpected error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
