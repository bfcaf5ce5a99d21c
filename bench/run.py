"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload fish --seed 0 --seconds 30 --trace 0

Run it from the root of a checkout; it imports the package from ``src/``
of that checkout and writes only under ``.bench_work/`` there.  With
``--trace 0`` it measures set-up time, then repeats the workload's two
commands through ``selfreward.cli.dispatch`` for ``--seconds`` seconds and
reports the end-to-end metrics (medians over repetitions).  With
``--trace 1`` it times the ops alone (micro tier), then alternates untraced
and traced repetitions and reports the per-layer metrics and the tracing
slowdown.  Every command's outputs are checked against ``reference/``; the
last line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shlex
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import metrics
import reference
import workloads
from clock import Clock, pin_to_current_cpu
from tracer import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_REPS = 7
# Set-up time scale: roughly what `python3 -c "import numpy"` takes on a quiet
# 2-core x86-64 host.
BARE_REFERENCE_S = 0.15

# A fresh interpreter doing what a CLI user's process does before the first
# command: import the package and, for lavaland, generate the bank.
_SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); from selfreward.cli import dispatch; "
    "sys.exit(dispatch(sys.argv[2:]) if len(sys.argv) > 2 else 0)"
)


def use_checkout_src(root: Path) -> Path:
    """Put ``root/src`` first on the import path; refuse to run without it."""
    src = root / "src"
    if not (src / "selfreward" / "cli.py").is_file():
        raise SystemExit(f"error: {src / 'selfreward'} not found: run the benchmark "
                         "from the root of a checkout of the repository")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import selfreward

    if Path(selfreward.__file__).resolve().parent != (src / "selfreward").resolve():
        raise SystemExit(f"error: imported selfreward from {selfreward.__file__}, "
                         f"not from {src}")
    return src


def provenance() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "platform": platform.platform(),
    }


def rerun_line(command: workloads.Command, root: Path) -> str:
    """A shell line that reruns the command by hand from the checkout root."""
    prefix = str(root) + os.sep
    argv = [a.replace(prefix, "") for a in command.argv]
    return ("PYTHONPATH=src python3 -c 'import sys; from selfreward.cli import dispatch; "
            "sys.exit(dispatch(sys.argv[1:]))' " + shlex.join(argv))


class Checker:
    """Counts operations (dispatch calls) and those that failed.

    A call fails on a non-zero exit code, on outputs that cannot be read,
    on outputs whose bytes differ from an earlier call of the same command
    in this run, and on outputs that differ from the reference.
    """

    def __init__(self, reference_entries: dict | None):
        self.reference = reference_entries
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first: dict[str, dict] = {}
        self.last: dict[str, dict] = {}

    def record(self, command: workloads.Command, code: int) -> None:
        self.attempted += 1
        problems = [f"{command.label}: {p}" for p in self._problems(command, code)]
        if problems:
            self.failed += 1
            self.problems.extend(problems[:max(0, 20 - len(self.problems))])

    def _problems(self, command: workloads.Command, code: int) -> list[str]:
        if code != 0:
            return [f"dispatch exited with code {code}"]
        if command.kind == "setup":
            return []
        try:
            outputs = workloads.collect(command)
        except (OSError, KeyError, ValueError, IndexError) as err:
            return [f"unreadable output: {err!r}"]
        expected = self.reference.get(command.label) if self.reference else None
        problems = workloads.check(outputs, expected, self.first.get(command.label))
        self.first.setdefault(command.label, outputs)
        self.last[command.label] = outputs
        return problems


def _dispatch(argv: list) -> int:
    """``dispatch`` with its chatter silenced; a traceback counts as exit 1."""
    from selfreward.cli import dispatch

    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return dispatch(argv)
    except Exception:
        traceback.print_exc()
        return 1


def repetition(commands, checker: Checker, clock: Clock,
               tracer: Tracer | None = None) -> dict:
    """Run every command once; (wall, scaled) seconds per command label."""
    times = {}
    for command in commands:
        def call(command=command):
            scope = (tracer.command(command.label, command.units) if tracer
                     else contextlib.nullcontext())
            with scope:
                return _dispatch(command.argv)

        code, wall, scaled = clock.time(call)
        times[command.label] = (wall, scaled)
        checker.record(command, code)
    return times


def measure_setup(src: Path, setup: workloads.Command | None, checker: Checker,
                  reps: int = SETUP_REPS) -> list[tuple]:
    """(wall, scaled) seconds of fresh processes importing the package (and gen).

    Set-up is mostly process start and imports, which the host's slow
    phases stretch less than computation, so ``clock.probe`` does not fit
    it.  Each process is scaled instead by a bare interpreter that imports
    numpy, started just before it: to the time it would take on a host
    where the bare one takes BARE_REFERENCE_S.
    """
    argv = [sys.executable, "-c", _SETUP_CODE, str(src)] + (setup.argv if setup else [])
    bare = [sys.executable, "-c", "import numpy"]
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        subprocess.run(bare, capture_output=True, timeout=120, check=True)
        bare_s = time.perf_counter() - start
        start = time.perf_counter()
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=120)
        wall = time.perf_counter() - start
        times.append((wall, wall * BARE_REFERENCE_S / bare_s))
        if setup:
            checker.record(setup, proc.returncode)
        elif proc.returncode != 0:
            raise SystemExit(f"error: importing the package failed:\n{proc.stderr}")
    return times


def _make_plan_hook(tracer: Tracer, plan) -> None:
    tracer.count("lavaland.make_plan.steps", plan.steps)
    tracer.count("lavaland.make_plan.reached", int(plan.reached))


def _classify_record(out) -> str:
    return ("autodiff.record.graph_ops" if out._op is not None
            else "autodiff.record.nograd_ops")


def make_tracer() -> Tracer:
    spans = []
    for module, qualname, _, _ in metrics.SPANNED:
        hook = _make_plan_hook if (module, qualname) == ("lavaland", "make_plan") else None
        spans.append((module, qualname, metrics.span_name(module, qualname), hook))
    return Tracer(spans, counters=[("autodiff", "record", _classify_record)])


def layer_metrics(tracer: Tracer) -> dict:
    """Per-unit figures: for each command, total / units; summed over commands."""
    calls, self_ns, counts, units = tracer.totals()

    def per_unit(table, name):
        return sum(table[label][name] / units[label] for label in units)

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for module, qualname, _, _ in metrics.SPANNED:
        name = metrics.span_name(module, qualname)
        out[f"{name}.calls"] = per_unit(calls, name)
        out[f"{name}.self_us"] = per_unit(self_ns, name) / 1e3
    for counter in ("autodiff.record.graph_ops", "autodiff.record.nograd_ops"):
        out[counter] = per_unit(counts, counter)
    finetunes, active = tracer.children_named("auction.srd_finetune", "autodiff.sgd_step")
    out["auction.srd_finetune.active_frac"] = ratio(active, finetunes)
    rounds = sum(calls[label]["auction.server_step"] for label in units)
    auctions = sum(units[label] for label in units if calls[label]["auction.server_step"])
    out["auction.rounds_mean"] = ratio(rounds, auctions)
    plans = sum(calls[label]["lavaland.make_plan"] for label in units)
    out["lavaland.make_plan.steps_mean"] = ratio(
        sum(counts[label]["lavaland.make_plan.steps"] for label in units), plans)
    out["lavaland.make_plan.reached_frac"] = ratio(
        sum(counts[label]["lavaland.make_plan.reached"] for label in units), plans)
    out["cli.dispatch.self_us"] = per_unit(self_ns, "cli.dispatch") / 1e3
    return out


def _median_rate(times: list[dict], command: workloads.Command, scaled: bool = True) -> float:
    """Median units per second over repetitions, from scaled or wall times."""
    which = 1 if scaled else 0
    return statistics.median(command.units / t[command.label][which] for t in times)


def run(workload: str, seed: int, seconds: float, trace: bool, root: Path = ROOT,
        sizes: dict | None = None, reference_dir: Path | None = None,
        out_root: Path | None = None) -> dict:
    """Run one workload and return the full result document."""
    src = use_checkout_src(root)
    sizes = sizes or workloads.SIZES[workload]
    run_dir = (out_root or root / ".bench_work") / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    work = run_dir / "out"
    work.mkdir(parents=True)

    pinned_cpu = pin_to_current_cpu()
    entries, reference_note = reference.lookup(workload, seed, sizes, reference_dir)
    checker = Checker(entries)
    setup = workloads.setup_command(workload, seed, work, sizes)
    commands = workloads.commands(workload, seed, work, sizes)
    by_kind = {c.kind: c for c in commands}
    doc = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
           "sizes": sizes, "provenance": {**provenance(), "pinned_cpu": pinned_cpu},
           "commands": [dict(label=c.label, kind=c.kind, units=c.units, unit=c.unit,
                             argv=c.argv, rerun=rerun_line(c, root))
                        for c in ([setup] if setup else []) + commands]}
    values = {}

    if not trace:
        clock = Clock()
        setup_times = measure_setup(src, setup, checker)
        deadline = time.perf_counter() + seconds
        times = [repetition(commands, checker, clock)]
        while time.perf_counter() < deadline:
            times.append(repetition(commands, checker, clock))
        outcome = [v for out in checker.last.values() for v in out["outcome"]]
        values = {
            "setup_s": statistics.median(scaled for _, scaled in setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "train_units_per_s": _median_rate(times, by_kind["train"]),
            "eval_units_per_s": _median_rate(times, by_kind["eval"]),
            "outcome": statistics.fmean(outcome) if outcome else 0.0,
        }
        doc["wall_rates"] = {c.label: _median_rate(times, c, scaled=False) for c in commands}
        doc["setup_times_s"] = setup_times
        doc["repetitions"] = times
        doc["probe_s"] = clock.probes
        units = {m[0]: m[1] for m in metrics.END_TO_END}
    else:
        import micro

        values, doc["micro_shapes"] = micro.measure()
        tracer = make_tracer()
        clock = Clock()
        if setup:
            with tracer:
                repetition([setup], checker, clock, tracer)
        plain, traced = [], []
        deadline = time.perf_counter() + seconds
        while True:
            plain.append(sum(t[1] for t in repetition(commands, checker, clock).values()))
            with tracer:
                traced.append(sum(t[1] for t in
                                  repetition(commands, checker, clock, tracer).values()))
            if time.perf_counter() >= deadline:
                break
        values.update(layer_metrics(tracer))
        values["trace.slowdown"] = statistics.median(traced) / statistics.median(plain)
        doc["repetitions"] = {"untraced_s": plain, "traced_s": traced}
        doc["spans"] = str(tracer.write_spans(run_dir / "spans.npz"))
        units = {r["name"]: r["unit"] for r in metrics.per_layer()}

    doc["metrics"] = {name: {"value": values[name], "unit": unit}
                      for name, unit in units.items()}
    doc["aliases"] = {alias: values[name]
                      for name, alias in metrics.ALIASES[workload].items() if name in values}
    doc["fingerprints"] = {label: out["files"] for label, out in checker.first.items()}
    doc["checks"] = {"reference": reference_note, "problems": checker.problems}
    doc["correct"] = checker.failed == 0
    doc["attempted"] = checker.attempted
    doc["failed"] = checker.failed
    (run_dir / "result.json").write_text(json.dumps(doc, indent=1), encoding="utf-8")
    doc["result_path"] = str(run_dir / "result.json")
    return doc


def summary_lines(doc: dict) -> list[str]:
    lines = [f"workload {doc['workload']} seed {doc['seed']} trace {doc['trace']}: "
             f"{doc['attempted']} operations, {doc['failed']} failed",
             f"output check: {doc['checks']['reference']}"]
    lines += [f"  FAILED {p}" for p in doc["checks"]["problems"]]
    aliases = metrics.ALIASES[doc["workload"]]
    for name, entry in doc["metrics"].items():
        alias = f"  ({aliases[name]})" if name in aliases else ""
        lines.append(f"  {name:<40} {entry['value']:>14.6g} {entry['unit']}{alias}")
    lines.append(f"result file: {doc['result_path']}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=metrics.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    doc = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(summary_lines(doc)))
    print(json.dumps({key: doc[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
