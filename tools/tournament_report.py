#!/usr/bin/env python3
"""Render a tournament report (sim::TournamentReport JSON) for humans.

Input is the JSON file written by the tournament driver:

    ./build/examples/tournament --json tournament.json

Outputs:
  * (default) the ranked standings table: final rank, scheme, borda score,
    mean energy/QoE/stall, and the three per-metric mean ranks.
  * --cells: additionally one row per grid cell (scheme x trace x fault
    profile x fleet size) so a scheme's standing can be traced back to the
    environments that produced it.
  * --csv OUT.csv: the standings as CSV for spreadsheets/plots.

The report is deterministic (same seed, any thread count -> identical
bytes), so diffing two JSON files is a meaningful regression check.
"""

from __future__ import annotations

import argparse
import csv
import json
import pathlib
import sys


def load_report(path: pathlib.Path) -> dict:
    with path.open() as fh:
        report = json.load(fh)
    for key in ("seed", "standings", "cells"):
        if key not in report:
            raise SystemExit(f"{path}: not a tournament report (missing '{key}')")
    return report


def print_standings(report: dict) -> None:
    standings = report["standings"]
    schemes = len(standings)
    groups = len(report["cells"]) // schemes if schemes else 0
    print(f"tournament seed {report['seed']}: "
          f"{schemes} schemes x {groups} environment groups")
    print()
    header = (f"{'rank':>4}  {'scheme':<12} {'borda':>7} | "
              f"{'mJ/user':>8} {'QoE':>6} {'stall':>6} | "
              f"{'rE':>6} {'rQ':>5} {'rS':>5}")
    print(header)
    print("-" * len(header))
    for s in standings:
        print(f"{s['rank']:>4}  {s['scheme']:<12} {s['borda']:>7.2f} | "
              f"{s['mean_energy_mj']:>8.0f} {s['mean_qoe']:>6.1f} "
              f"{s['mean_stall_ratio'] * 100:>5.2f}% | "
              f"{s['energy_rank']:>6.2f} {s['qoe_rank']:>5.2f} "
              f"{s['stall_rank']:>5.2f}")
    print()
    print("rE/rQ/rS: mean per-group rank on energy / QoE / stall (1 = best); "
          "borda = rE + rQ + rS.")


def print_cells(report: dict) -> None:
    print()
    header = (f"{'scheme':<12} {'trace':>5} {'faults':<8} {'fleet':>5} | "
              f"{'mJ/user':>8} {'QoE':>6} {'stall':>6} {'util':>5}")
    print(header)
    print("-" * len(header))
    for c in report["cells"]:
        m = c["metrics"]
        print(f"{c['scheme']:<12} {c['trace']:>5} {c['faults']:<8} "
              f"{c['sessions']:>5} | {m['energy_per_session_mj']:>8.0f} "
              f"{m['mean_qoe']:>6.1f} {m['stall_ratio'] * 100:>5.2f}% "
              f"{m['link_utilization'] * 100:>4.0f}%")


def write_csv(report: dict, path: pathlib.Path) -> None:
    fields = ["rank", "scheme", "borda", "energy_rank", "qoe_rank",
              "stall_rank", "mean_energy_mj", "mean_qoe", "mean_stall_ratio"]
    with path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        for s in report["standings"]:
            writer.writerow({k: s[k] for k in fields})
    print(f"wrote {path}")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("report", type=pathlib.Path,
                        help="JSON file from ./build/examples/tournament --json")
    parser.add_argument("--cells", action="store_true",
                        help="also print one row per grid cell")
    parser.add_argument("--csv", type=pathlib.Path, metavar="OUT.csv",
                        help="write the standings as CSV")
    args = parser.parse_args(argv)

    report = load_report(args.report)
    print_standings(report)
    if args.cells:
        print_cells(report)
    if args.csv:
        write_csv(report, args.csv)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except BrokenPipeError:  # e.g. piped into `head`
        sys.exit(0)
