"""Command-line entry point: stable-tv-lab <campaign> [--config FILE] ...

Exit status is 1 when at least one check fails, and 2, with argparse's
usage message, for a bad command line or config (an unknown campaign,
config or params key, a config file that is missing or not a JSON object,
params that are not an object, a seed that is not an integer in
[0, 2^64), workers that are not an integer >= 1).  STABLE_TV_LAB_SEED and
STABLE_TV_LAB_WORKERS override seed and worker count.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from stable_tv_lab.campaigns import CAMPAIGNS, ExperimentConfig, run_campaign


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="stable-tv-lab")
    parser.add_argument("campaign", choices=sorted(CAMPAIGNS))
    parser.add_argument("--config", help="JSON config file {seed, params, output_dir}")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", default=None, help="output directory for report.json and data/")
    parser.add_argument("--workers", type=int, default=None)
    return parser


def _config(args) -> ExperimentConfig:
    seed = args.seed
    if seed is None and "STABLE_TV_LAB_SEED" in os.environ:
        seed = int(os.environ["STABLE_TV_LAB_SEED"])
    workers = args.workers
    if workers is None and "STABLE_TV_LAB_WORKERS" in os.environ:
        workers = int(os.environ["STABLE_TV_LAB_WORKERS"])
    if args.config:
        return ExperimentConfig.from_file(
            args.config, campaign=args.campaign, seed=seed, output_dir=args.out, workers=workers
        )
    return ExperimentConfig(
        campaign=args.campaign,
        seed=seed if seed is not None else 0,
        output_dir=args.out,
        workers=workers if workers is not None else 1,
    )


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config(args)
    except (ValueError, OSError) as exc:
        parser.error(str(exc))
    report = run_campaign(cfg)
    json.dump(report.as_dict(), sys.stdout, indent=2)
    print()
    return 0 if report.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
