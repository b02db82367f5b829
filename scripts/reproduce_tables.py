#!/usr/bin/env python3
"""Reproduce the reference simulation tables.

By default runs the three bundled blocks (one per table), read from
scenarios/table1_block1.scenario, table2_block2.scenario and
table3_block3.scenario. With --full, runs every block of all three tables,
read from scenarios/tables_full.scenario: three blocks of decreasing
best-link quality, three blocks around high match coverage, and four
blocks of medium and high linkage quality.

Usage:
    python scripts/reproduce_tables.py [--replicates K] [--seed S]
                                       [--workers W] [--full]
"""

import argparse
import dataclasses
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from greglink.harness import (  # noqa: E402
    load_scenario_file,
    run_scenario,
    se_drift,
    summarize_to_table,
)

SCENARIOS = ROOT / "scenarios"
BUNDLED = ("table1_block1", "table2_block2", "table3_block3")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--replicates", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=15)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--full", action="store_true",
                        help="run every block of all three tables")
    args = parser.parse_args()

    if args.full:
        configs = load_scenario_file(SCENARIOS / "tables_full.scenario")
    else:
        configs = [config for name in BUNDLED
                   for config in load_scenario_file(SCENARIOS / f"{name}.scenario")]
    summaries = []
    for config in configs:
        config = dataclasses.replace(config, replicates=args.replicates,
                                     seed=args.seed)
        t0 = time.time()
        summary = run_scenario(config, workers=args.workers)
        summaries.append(summary)
        print(f"[{config.name} done in {time.time() - t0:.1f}s]",
              file=sys.stderr)

    print(summarize_to_table(summaries))
    for key, per_est in se_drift(summaries).items():
        spread = ", ".join(f"{tag} {value:.4f}" for tag, value in per_est.items())
        print(f"SE drift across comparable blocks: {spread}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
