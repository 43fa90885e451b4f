#!/usr/bin/env python3
"""Compares two `sparcle_soak --json` reports cell by cell.

    python3 tools/soak_diff.py BEFORE.json AFTER.json

Cells are matched by (scenario, policy).  Every field is compared except
the timing- and host-dependent ones (submit_p50_us, submit_p99_us,
rss_drift).  Prints each differing (scenario, policy, field) and each cell
that only one report has.  Exits 0 when the reports agree, 1 on any
difference or missing cell, 2 on a usage or read error.
"""

import json
import sys

IGNORED = frozenset({"scenario", "policy", "submit_p50_us", "submit_p99_us",
                     "rss_drift"})


def load_cells(path):
    with open(path, encoding="utf-8") as f:
        report = json.load(f)
    cells = {}
    for cell in report["cells"]:
        key = (cell["scenario"], cell["policy"])
        if key in cells:
            raise ValueError(f"{path}: duplicate cell {key[0]}/{key[1]}")
        cells[key] = cell
    return cells


def differences(before, after):
    lines = []
    for key in sorted(before.keys() | after.keys()):
        cell = "/".join(key)
        if key not in after:
            lines.append(f"{cell}: missing from the second report")
            continue
        if key not in before:
            lines.append(f"{cell}: missing from the first report")
            continue
        a, b = before[key], after[key]
        for field in sorted((a.keys() | b.keys()) - IGNORED):
            if a.get(field) != b.get(field):
                lines.append(f"{cell} {field}: {a.get(field, '<absent>')} -> "
                             f"{b.get(field, '<absent>')}")
    return lines


def main(argv):
    if len(argv) != 3:
        print("usage: soak_diff.py BEFORE.json AFTER.json", file=sys.stderr)
        return 2
    try:
        before, after = load_cells(argv[1]), load_cells(argv[2])
    except (OSError, ValueError, KeyError, TypeError) as err:
        print(f"soak_diff: {err}", file=sys.stderr)
        return 2
    lines = differences(before, after)
    for line in lines:
        print(line)
    if lines:
        print(f"soak_diff: {len(lines)} difference(s)")
        return 1
    print(f"soak_diff: all {len(before)} cells identical")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
