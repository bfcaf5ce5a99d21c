"""Reference outputs per workload and seed, and the script that makes them.

    python3 bench/reference.py --workload fish --seeds 0-31

runs one repetition of the workload's commands per seed at the benchmark's
sizes and stores, per command, the discrete outputs (as sha256 digests) and
the trained parameters in ``reference/<workload>.json``.  Seeds already in
the file are kept unless ``--seeds`` names them again.  Only make a
reference from a commit whose outputs are known to be right.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

import workloads
from clock import Clock

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def lookup(workload: str, seed: int, sizes: dict,
           reference_dir: Path | None = None) -> tuple[dict | None, str]:
    """(entries per command label, or None; a note saying what is checked)."""
    path = (reference_dir or REFERENCE_DIR) / f"{workload}.json"
    how = f"make one with: python3 bench/reference.py --workload {workload} --seeds {seed}"
    if not path.is_file():
        return None, f"reference SKIPPED: no {path.name}; {how}"
    doc = json.loads(path.read_text(encoding="utf-8"))
    if doc["sizes"] != sizes:
        return None, f"reference SKIPPED: {path.name} is for sizes {doc['sizes']}"
    entries = doc["seeds"].get(str(seed))
    if entries is None:
        return None, f"reference SKIPPED: no entry for seed {seed}; {how}"
    return entries, f"checked against {path.name} seed {seed}"


def make(workload: str, seeds: list[int], sizes: dict, root: Path,
         reference_dir: Path) -> Path:
    """Add (or replace) the reference entries of ``seeds``; returns the file."""
    import run

    run.use_checkout_src(root)
    path = reference_dir / f"{workload}.json"
    doc = {"workload": workload, "sizes": sizes,
           "params_tolerance": workloads.PARAMS_TOLERANCE, "seeds": {}}
    if path.is_file():
        old = json.loads(path.read_text(encoding="utf-8"))
        if old["sizes"] == sizes:
            doc["seeds"] = old["seeds"]
    work = root / ".bench_work" / f"reference-{workload}-{os.getpid()}"
    for seed in seeds:
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        setup = workloads.setup_command(workload, seed, work, sizes)
        commands = workloads.commands(workload, seed, work, sizes)
        checker = run.Checker(None)
        run.repetition(([setup] if setup else []) + commands, checker, Clock())
        if checker.failed:
            raise SystemExit(f"seed {seed}: {checker.problems}")
        doc["seeds"][str(seed)] = {c.label: workloads.reference_entry(checker.first[c.label])
                                   for c in commands}
        print(f"{workload} seed {seed}: recorded", file=sys.stderr)
    shutil.rmtree(work, ignore_errors=True)
    doc["seeds"] = dict(sorted(doc["seeds"].items(), key=lambda kv: int(kv[0])))
    reference_dir.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=0, sort_keys=True) + "\n", encoding="utf-8")
    return path


def _seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Record reference outputs.")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SIZES))
    parser.add_argument("--seeds", required=True, help="e.g. 0-31 or 3,7,40-45")
    args = parser.parse_args(argv)
    import run

    path = make(args.workload, _seed_list(args.seeds), workloads.SIZES[args.workload],
                run.ROOT, REFERENCE_DIR)
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
