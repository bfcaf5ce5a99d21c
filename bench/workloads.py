"""The three workloads: the CLI commands each runs, and what each writes.

Every workload repeats the same two user-facing commands on one seed, in
process, through ``selfreward.cli.dispatch``.  One command exercises the
autodiff engine (``kind == "train"``); the other is the evaluation path that
bypasses it or records nothing (``kind == "eval"``), so an engine change
should move the first and leave the second flat.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import statistics
from dataclasses import dataclass
from pathlib import Path

WHY = {
    "fish": "fish1d train re-walks 8 judgment graphs per step (per-op engine overhead);"
            " fish1d run takes the hand-written values path and never touches the engine",
    "lavaland": "12x12 maps: deconv3x3 and the make_plan scatter/gather chain; train"
                " records ~245 ops and one wide backward per map, eval runs under no_grad",
    "auction": "Optim spends ~97% of its time in srd_finetune's many tiny graphs;"
               " noOptim never touches the engine; each runs an honest and a"
               " half-malicious market",
}

# Sizes chosen so one repetition of both commands takes one to ten seconds
# on a 2-core machine; the reference outputs in reference/ are for these.
# Lavaland evaluates 512 maps so that its accuracy, a share of maps solved,
# moves by only a few percent from one seed's bank to the next.
#
# The auction runs one supply point, r = 1/16 (4 units for 64 agents): the
# price climbs for at least four rounds there, so fine-tuning always spans
# its whole window.  The number of rounds after that still varies a lot
# from one auction to the next (4 to 64), which moves the noOptim cost per
# auction by about a third, so noOptim runs many more trials than Optim
# (about 25 ms per auction against 0.5 s) to keep the rate steady across
# seeds.  Trial t of Optim uses the same agents as trial t of noOptim.
SIZES = {
    "fish": {"iters": 500, "steps": 20000},
    "lavaland": {"maps": 512, "preset": "project-a"},
    "auction": {"r_grid": "0.0625:0.0625:1", "malicious_frac": 0.5,
                "nooptim_trials": 128, "optim_trials": 6},
}

# Small enough for the benchmark's own tests.
TINY_SIZES = {
    "fish": {"iters": 20, "steps": 200},
    "lavaland": {"maps": 3, "preset": "project-a"},
    "auction": {"r_grid": "0.5:0.5:1", "malicious_frac": 0.5,
                "nooptim_trials": 2, "optim_trials": 1},
}

# Trained parameters must match the reference to this absolute tolerance.
# Reordering the float sums in backward (e.g. summing cached per-judgment
# Jacobians instead of re-walking graphs) moves the last bits of a
# parameter; 1e-12 admits that and nothing that could flip a decision.
PARAMS_TOLERANCE = 1e-12

# Files whose bytes change on every run (manifest.json holds wall_clock_s).
UNSTABLE_FILES = {"manifest.json"}


@dataclass
class Command:
    label: str        # stable key for references and results
    kind: str         # "train", "eval" or "setup"
    argv: list
    units: int
    unit: str


def commands(workload: str, seed: int, work: Path, sizes: dict) -> list[Command]:
    """The timed commands of one repetition, in order."""
    s = str(seed)
    if workload == "fish":
        params = str(work / "fish_params.json")
        return [
            Command("train", "train", ["fish1d", "train", "--iters", str(sizes["iters"]),
                                       "--seed", s, "--out", params],
                    sizes["iters"], "step"),
            Command("run", "eval", ["fish1d", "run", "--steps", str(sizes["steps"]),
                                    "--seed", s, "--trained", params,
                                    "--out", str(work / "fish_run")],
                    sizes["steps"], "step"),
        ]
    if workload == "lavaland":
        bank, params = str(work / "bank.json"), str(work / "lava_params.json")
        return [
            Command("train", "train", ["lavaland", "train", "--bank", bank, "--seed", s,
                                       "--out", params], sizes["maps"], "map"),
            Command("eval", "eval", ["lavaland", "eval", "--bank", bank, "--params", params,
                                     "--report", str(work / "lava_eval"), "--seed", s,
                                     "--jobs", "1"], sizes["maps"], "map"),
        ]
    if workload == "auction":
        base = ["auction", "run", "--malicious-frac", str(sizes["malicious_frac"]),
                "--r-grid", sizes["r_grid"], "--seed", s]
        per_trial = int(sizes["r_grid"].split(":")[2]) * (2 if sizes["malicious_frac"] else 1)
        nooptim, optim = sizes["nooptim_trials"], sizes["optim_trials"]
        return [
            Command("nooptim", "eval", base + ["--trials", str(nooptim),
                                               "--out", str(work / "auction_nooptim")],
                    nooptim * per_trial, "auction"),
            Command("optim", "train", base + ["--trials", str(optim), "--optim",
                                              "--out", str(work / "auction_optim")],
                    optim * per_trial, "auction"),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def setup_command(workload: str, seed: int, work: Path, sizes: dict) -> Command | None:
    """The command a user runs once before the timed ones (lavaland's bank)."""
    if workload != "lavaland":
        return None
    return Command("gen", "setup", ["lavaland", "gen", "--preset", sizes["preset"],
                                    "--count", str(sizes["maps"]), "--seed", str(seed),
                                    "--out", str(work / "bank.json")],
                   sizes["maps"], "map")


# -- outputs ------------------------------------------------------------------------


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _read_params(path: Path) -> dict:
    doc = json.loads(path.read_text(encoding="utf-8"))
    return {name: entry["values"] for name, entry in sorted(doc["params"].items())}


def _rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _output_paths(command: Command) -> list[Path]:
    argv = command.argv
    for flag in ("--report", "--out"):
        if flag in argv:
            target = Path(argv[argv.index(flag) + 1])
            if target.suffix == ".json":
                return [target]
            return sorted(p for p in target.iterdir() if p.is_file())
    return []


def collect(command: Command) -> dict:
    """Fingerprints, checked digests, trained params and outcome values.

    ``files`` maps every output file (bar ``manifest.json``) to its sha256.
    ``digests`` holds the discrete outputs that must equal the reference
    exactly; ``params`` the trained values checked within PARAMS_TOLERANCE.
    """
    paths = _output_paths(command)
    files = {p.name: _sha256(p.read_bytes()) for p in paths
             if p.name not in UNSTABLE_FILES}
    out = {"files": files, "digests": {}, "params": {}, "outcome": []}
    by_name = {p.name: p for p in paths}
    if command.label == "train":
        out["params"] = _read_params(paths[0])
    elif command.label == "run":
        rows = _rows(by_name["trace.csv"])
        decisions = "".join(f"{r['action']},{r['judge']}\n" for r in rows)
        out["digests"]["trace.csv:action,judge"] = _sha256(decisions.encode())
        out["outcome"] = [statistics.fmean(float(r["F"]) for r in rows)]
    elif command.label == "eval":
        for name in ("accuracy.json", "histograms.csv"):
            out["digests"][name] = files[name]
        doc = json.loads(by_name["accuracy.json"].read_text(encoding="utf-8"))
        out["outcome"] = [doc["accuracy"]]
    elif command.label in ("nooptim", "optim"):
        for name in ("results.csv", "purchases.csv"):
            out["digests"][name] = files[name]
        out["outcome"] = [float(r["purchase_rate"]) for r in _rows(by_name["results.csv"])]
    return out


def check(outputs: dict, reference: dict | None, first: dict | None) -> list[str]:
    """Problems with one command's outputs; an empty list means they pass.

    ``reference`` is the stored entry for this seed and command, ``first``
    the outputs of the same command earlier in this run (reruns must give
    the same bytes).
    """
    problems = []
    if first is not None and outputs["files"] != first["files"]:
        changed = sorted(k for k in set(outputs["files"]) | set(first["files"])
                         if outputs["files"].get(k) != first["files"].get(k))
        problems.append(f"rerun changed bytes of {changed}")
    for key, value in outputs["params"].items():
        if not all(math.isfinite(v) for v in value):
            problems.append(f"non-finite trained parameter in {key}")
    if reference is None:
        return problems
    for key, want in reference.get("digests", {}).items():
        if outputs["digests"].get(key) != want:
            problems.append(f"{key} differs from the reference")
    want_params = reference.get("params", {})
    if set(want_params) != set(outputs["params"]):
        problems.append(f"trained parameter names {sorted(outputs['params'])} "
                        f"differ from the reference {sorted(want_params)}")
    for key in sorted(set(want_params) & set(outputs["params"])):
        got, want = outputs["params"][key], want_params[key]
        if len(got) != len(want):
            problems.append(f"trained parameter {key} has {len(got)} values, "
                            f"reference has {len(want)}")
            continue
        worst = max((abs(a - b) for a, b in zip(got, want)), default=0.0)
        if not worst <= PARAMS_TOLERANCE:
            problems.append(f"trained parameter {key} differs from the reference "
                            f"by {worst:.3g} > {PARAMS_TOLERANCE:g}")
    return problems


def reference_entry(outputs: dict) -> dict:
    """What a reference keeps of one command's outputs."""
    entry = {}
    if outputs["digests"]:
        entry["digests"] = outputs["digests"]
    if outputs["params"]:
        entry["params"] = outputs["params"]
    return entry
