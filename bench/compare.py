"""Compare two benchmark result files metric by metric.

    python3 bench/compare.py OLD/result.json NEW/result.json

For every metric in both files it prints the old and new value and the
change, flags end-to-end metrics that got worse by more than their bound in
``BENCHMARK.json``, and lists output files whose bytes differ.  One pair of
runs is one sample: a claim needs the repeated-runs rule in README.md.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import metrics

BOUNDS = {name: (better, bound) for name, _, better, bound in metrics.END_TO_END}


def compare(old: dict, new: dict) -> list[str]:
    lines = [f"{'metric':<44} {'old':>14} {'new':>14} {'change':>9}"]
    for name in old["metrics"]:
        if name not in new["metrics"]:
            lines.append(f"{name:<44} missing from the new file")
            continue
        a, b = old["metrics"][name]["value"], new["metrics"][name]["value"]
        change = (b - a) / a if a else float("nan")
        flag = ""
        if name in BOUNDS:
            better, bound = BOUNDS[name]
            worse = -change if better == "higher" else change
            if worse > bound:
                flag = f"  WORSE than bound {bound:g}"
        lines.append(f"{name:<44} {a:>14.6g} {b:>14.6g} {change:>+9.2%}{flag}")
    for label, files in old.get("fingerprints", {}).items():
        new_files = new.get("fingerprints", {}).get(label, {})
        for file, digest in sorted(files.items()):
            same = "same bytes" if new_files.get(file) == digest else "DIFFERENT bytes"
            lines.append(f"{label}/{file}: {same}")
    return lines


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    old, new = (json.loads(Path(p).read_text(encoding="utf-8")) for p in argv)
    if (old["workload"], old["trace"]) != (new["workload"], new["trace"]):
        print("error: the files are for different workloads or trace modes", file=sys.stderr)
        return 2
    print("\n".join(compare(old, new)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
