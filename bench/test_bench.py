"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py

They run each workload at tiny sizes, so they check wiring, output checks
and the tracer, not speed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import metrics
import reference
import run
import workloads

ROOT = run.ROOT
run.use_checkout_src(ROOT)


@pytest.fixture(scope="module")
def tiny_reference(tmp_path_factory):
    """References for seed 0 at the tiny sizes, made by the code under test."""
    ref_dir = tmp_path_factory.mktemp("reference")
    for workload in metrics.WORKLOADS:
        reference.make(workload, [0], workloads.TINY_SIZES[workload], ROOT, ref_dir)
    return ref_dir


def _tiny_run(workload, trace, ref_dir, out_root, seed=0):
    return run.run(workload, seed, 0.01, trace, ROOT, sizes=workloads.TINY_SIZES[workload],
                   reference_dir=ref_dir, out_root=out_root)


def test_benchmark_json_lists_every_metric():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end, per_layer = metrics.benchmark_entries()
    assert doc["end_to_end"] == end_to_end
    assert doc["per_layer"] == per_layer
    assert [w["name"] for w in doc["workloads"]] == list(metrics.WORKLOADS)
    assert {w["why"] for w in doc["workloads"]} == {workloads.WHY[w] for w in metrics.WORKLOADS}
    assert len({m["name"] for m in per_layer}) == len(per_layer) <= 128


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", metrics.WORKLOADS)
def test_tiny_run_emits_every_metric(workload, trace, tiny_reference, tmp_path):
    doc = _tiny_run(workload, trace, tiny_reference, tmp_path)
    expected = ({r["name"]: r["unit"] for r in metrics.per_layer()} if trace
                else {name: unit for name, unit, _, _ in metrics.END_TO_END})
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == expected
    assert all(isinstance(v["value"], float) for v in doc["metrics"].values())
    assert doc["checks"]["reference"].startswith("checked against")
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 2
    if not trace:
        assert all(doc["metrics"][name]["value"] > 0 for name, *_ in metrics.END_TO_END)
    for command in doc["commands"]:
        assert command["rerun"].startswith("PYTHONPATH=src python3")


def test_seed_without_reference_is_reported_as_skipped(tiny_reference, tmp_path):
    doc = _tiny_run("fish", False, tiny_reference, tmp_path, seed=5)
    assert doc["checks"]["reference"].startswith("reference SKIPPED")
    assert doc["correct"]


def _corrupting_dispatch(monkeypatch, argv_prefix, path_in_out, edit):
    real = run._dispatch

    def dispatch(argv):
        code = real(argv)
        if argv[:2] == argv_prefix:
            target = Path(argv[argv.index("--out") + 1]) / path_in_out
            target.write_text(edit(target.read_text(encoding="utf-8")), encoding="utf-8")
        return code

    monkeypatch.setattr(run, "_dispatch", dispatch)


def test_corrupted_output_counts_as_failed_operation(monkeypatch, tiny_reference, tmp_path):
    _corrupting_dispatch(monkeypatch, ["fish1d", "run"], "trace.csv",
                         lambda text: text.replace(",eat,", ",move,", 1)
                         if ",eat," in text else text.replace(",move,", ",eat,", 1))
    doc = _tiny_run("fish", False, tiny_reference, tmp_path)
    assert not doc["correct"]
    assert doc["failed"] >= 1
    assert any("trace.csv" in p for p in doc["checks"]["problems"])


def test_nonzero_exit_counts_as_failed_operation(monkeypatch, tiny_reference, tmp_path):
    monkeypatch.setattr(run, "_dispatch", lambda argv: 2)
    doc = _tiny_run("auction", False, tiny_reference, tmp_path)
    assert doc["failed"] == doc["attempted"] >= 2
    assert not doc["correct"]


def test_params_beyond_tolerance_fail():
    outputs = {"files": {}, "digests": {}, "params": {"w": [1.0, 2.0]}, "outcome": []}
    near = {"params": {"w": [1.0, 2.0 + 1e-13]}}
    far = {"params": {"w": [1.0, 2.0 + 1e-9]}}
    assert workloads.check(outputs, near, None) == []
    assert workloads.check(outputs, far, None)


def _bindings():
    """Every attribute of every selfreward module and traced class."""
    snapshot = {}
    for name, module in sys.modules.items():
        if name == "selfreward" or name.startswith("selfreward."):
            snapshot[name] = dict(vars(module))
    for module, qualname, *_ in metrics.SPANNED:
        if "." in qualname:
            cls = qualname.split(".")[0]
            owner = getattr(sys.modules[f"selfreward.{module}"], cls)
            snapshot[f"{module}.{cls}"] = dict(vars(owner))
    return snapshot


def test_tracer_restores_module_attributes():
    import selfreward.autodiff as ad
    import selfreward.cli  # noqa: F401  (loads every scenario module)
    import selfreward.fish1d as fish1d
    import selfreward.layers as layers

    before = _bindings()
    with pytest.raises(RuntimeError):
        with run.make_tracer():
            # every importer of a wrapped name is rebound, not only its home
            assert fish1d.backward is not before["selfreward.autodiff"]["backward"]
            assert layers.record is not before["selfreward.autodiff"]["record"]
            assert ad.record is layers.record
            raise RuntimeError("leave the block by an exception")
    after = _bindings()
    assert after.keys() == before.keys()
    for owner, attrs in before.items():
        assert after[owner].keys() == attrs.keys(), owner
        changed = [a for a in attrs if after[owner][a] is not attrs[a]]
        assert changed == [], (owner, changed)


def test_tracer_can_start_before_the_package_is_imported():
    code = ("import sys; sys.path[:0] = ['bench', 'src']; import run\n"
            "assert 'selfreward.lavaland' not in sys.modules\n"
            "with run.make_tracer():\n"
            "    from selfreward import autodiff, cli, lavaland, params\n"
            "    assert lavaland.backward is autodiff.backward\n"
            "    assert hasattr(lavaland.backward, '__wrapped__')\n"
            "    assert cli.save_params is params.save_params\n"
            "    assert hasattr(cli.save_params, '__wrapped__')\n")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_tracer_self_time_excludes_children():
    import selfreward.fish1d as fish1d

    with run.make_tracer() as tracer:
        with tracer.command("train", 3):
            fish1d.srd_train(3)
    calls, self_ns, counts, units = tracer.totals()
    assert calls["train"]["fish1d.FishNN.sense"] == 3
    assert calls["train"]["layers.conv1d"] == 3 * 5
    assert counts["train"]["autodiff.record.graph_ops"] > 0
    total = tracer.end[0] - tracer.start[0]
    assert sum(self_ns["train"].values()) == total
    assert units["train"] == 3


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "reference"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "fish", "--seed", "0",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "selfreward" in proc.stderr
    assert proc.stdout.strip() == ""
