#!/usr/bin/env python3
"""Run every verification campaign and write reports under an output root.

Usage:
    python3 scripts/run_all_campaigns.py [--seed N] [--out runs] [--skip NAME ...]

Heavy campaigns can be skipped with --skip: at workers = 1 on a 2-vCPU
machine tv-theorem takes ~36 s and gradient-probe ~9 s; the rest take
about 1 s together.
"""

import argparse
import sys
from pathlib import Path

from stable_tv_lab.campaigns import CAMPAIGNS, ExperimentConfig, run_campaign


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="runs")
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--skip", nargs="*", default=[], choices=sorted(CAMPAIGNS))
    args = parser.parse_args(argv)

    failed = []
    for name in sorted(CAMPAIGNS):
        if name in args.skip:
            print(f"{name:.<24} skipped")
            continue
        out_dir = Path(args.out) / name
        cfg = ExperimentConfig(name, seed=args.seed, output_dir=str(out_dir), workers=args.workers)
        report = run_campaign(cfg)
        n_ok = sum(c["pass"] for c in report.checks)
        status = "ok" if report.passed else "FAILED"
        print(f"{name:.<24} {status}  ({n_ok}/{len(report.checks)} checks, {report.elapsed_s:.1f}s)")
        if not report.passed:
            failed.append(name)
            for c in report.checks:
                if not c["pass"]:
                    want = (f"{c['relation']} {c['expected']:.6g}" if "relation" in c
                            else f"vs {c['expected']:.6g} +- {c['tolerance']:.2g}")
                    print(f"    {c['name']}: {c['value']:.6g} {want}")
    if failed:
        print(f"failed campaigns: {', '.join(failed)}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
