"""Command-line front end.

Subcommands:

* ``run <config> [--out DIR] [--campaign NAME]`` or
  ``run --all`` for the built-in suite; exit status is nonzero when any
  check fails.
* ``ml-eval --alpha A --z Z``: print E_alpha(z) with 15 significant digits.
* ``eig --s S --n N --domain a,b``: print lambda1 and write the eigenvector
  CSV.

``run --out`` and ``eig --out`` both default to ./fracrd_out.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import FracRDError
from .fraclap import Grid1D, assemble_regional, dump_eigenpair, principal_eigenpair
from .harness import _parse_value, default_campaigns, parse_config, run_campaigns, write_outputs
from .special import ml_eval


def _cmd_run(args) -> int:
    if args.all:
        campaigns = default_campaigns()
    elif args.config:
        campaigns = parse_config(args.config)
    else:
        print("error: provide a config path or --all", file=sys.stderr)
        return 2
    if args.campaign:
        campaigns = [c for c in campaigns if c.name == args.campaign]
        if not campaigns:
            print(f"error: no campaign named '{args.campaign}'", file=sys.stderr)
            return 2
    report, traces = run_campaigns(campaigns)
    paths = write_outputs(report, traces, args.out)
    sys.stdout.write(report.text())
    print(f"wrote {len(paths)} file(s) to {args.out}")
    return 0 if report.overall else 1


def _cmd_ml_eval(args) -> int:
    value = ml_eval(args.alpha, args.z)
    print(f"{value:.15g}")
    return 0


def _cmd_eig(args) -> int:
    a, b = _parse_value(None, "domain", "domain", "(-inf, inf)", args.domain)
    grid = Grid1D(a, b, args.n)
    op = assemble_regional(grid, args.s)
    pair = principal_eigenpair(op, grid)
    print(f"{pair.lambda1:.15g}")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"e1_s{args.s:g}_n{args.n}.csv"
    dump_eigenpair(pair, grid, csv_path)
    print(f"wrote {csv_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracrd",
        description="Fractional reaction-diffusion simulator and verification harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run verification campaigns from a config file")
    p_run.add_argument("config", nargs="?", help="campaign configuration file (INI)")
    p_run.add_argument("--all", action="store_true", help="run the built-in default suite")
    p_run.add_argument("--out", default="fracrd_out", help="output directory")
    p_run.add_argument("--campaign", help="run only the named campaign")
    p_run.set_defaults(func=_cmd_run)

    p_ml = sub.add_parser("ml-eval", help="evaluate the Mittag-Leffler function")
    p_ml.add_argument("--alpha", type=float, required=True)
    p_ml.add_argument("--z", type=float, required=True)
    p_ml.set_defaults(func=_cmd_ml_eval)

    p_eig = sub.add_parser("eig", help="principal eigenpair of the discrete operator")
    p_eig.add_argument("--s", type=float, required=True)
    p_eig.add_argument("--n", type=int, required=True)
    p_eig.add_argument("--domain", default="0,1", help="interval endpoints 'a,b'")
    p_eig.add_argument("--out", default="fracrd_out",
                       help="output directory for the eigenvector CSV")
    p_eig.set_defaults(func=_cmd_eig)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FracRDError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
