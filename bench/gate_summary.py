#!/usr/bin/env python3
"""Tabulates the gates of bench JSON files as markdown.

Usage: gate_summary.py BENCH_X.json [BENCH_Y.json ...]

Prints one table per file from its top-level "gates" array and appends it
to $GITHUB_STEP_SUMMARY when that is set. A file that is missing or holds
no gates gets a one-line notice instead. Always exits 0: the benches' own
exit codes are the gates.
"""
import json
import os
import sys

for path in sys.argv[1:]:
    try:
        with open(path) as f:
            gates = json.load(f)["gates"]
    except (OSError, ValueError, KeyError) as e:
        print(f"::notice::no gates to summarise in {path}: {e!r}")
        continue
    rows = ["| gate | value | bound | verdict |", "|---|---|---|---|"]
    for g in gates:
        rows.append(f"| `{g['name']}` | {json.dumps(g['value'])} "
                    f"| {g['op']} {json.dumps(g['bound'])} "
                    f"| {g['verdict']} |")
    table = f"### {path} gates\n\n" + "\n".join(rows) + "\n"
    print(table)
    if os.environ.get("GITHUB_STEP_SUMMARY"):
        with open(os.environ["GITHUB_STEP_SUMMARY"], "a") as f:
            f.write(table)
