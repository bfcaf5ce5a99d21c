"""End-to-end command-line runs on small workloads."""

import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import selfreward
from selfreward.cli import dispatch


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        dispatch(["--help"])
    assert exc.value.code == 0
    assert "fish1d" in capsys.readouterr().out


def test_unknown_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        dispatch(["squid", "run"])
    assert exc.value.code == 2


def test_missing_required_flag_named(capsys):
    with pytest.raises(SystemExit) as exc:
        dispatch(["lavaland", "eval", "--report", "r"])
    assert exc.value.code == 2
    assert "--bank" in capsys.readouterr().err


def fresh_env() -> dict:
    """The environment of a fresh interpreter that imports this package."""
    src = str(Path(selfreward.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}


def run_module(*args):
    """``python -m selfreward.cli ARGS`` in a fresh interpreter."""
    return subprocess.run([sys.executable, "-m", "selfreward.cli", *args],
                          capture_output=True, text=True, env=fresh_env(), timeout=120)


def test_module_entry_point_runs_the_cli(tmp_path):
    version = run_module("--version")
    assert version.returncode == 0
    assert version.stdout.strip() == selfreward.__version__ == "0.1.0"
    bad = run_module("fish1d", "run", "--out", str(tmp_path / "f"), "--bogus")
    assert bad.returncode == 2
    assert "unrecognized arguments: --bogus" in bad.stderr
    assert not (tmp_path / "f").exists()


def refused(capsys, argv) -> str:
    """Run ``argv``, which argparse must refuse with exit 2; return stderr."""
    with pytest.raises(SystemExit) as exc:
        dispatch(argv)
    assert exc.value.code == 2
    return capsys.readouterr().err


def test_bad_config_value_exits_two(tmp_path, capsys):
    err = refused(capsys, ["auction", "run", "--r-grid", "nonsense", "--out", str(tmp_path)])
    assert "argument --r-grid: expected start:stop:count, got 'nonsense'" in err
    assert list(tmp_path.iterdir()) == []


def test_fish_run_writes_trace_and_manifest(tmp_path):
    out = tmp_path / "fish"
    rc = dispatch(["fish1d", "run", "--steps", "200", "--seed", "3",
                   "--out", str(out)])
    assert rc == 0
    trace = (out / "trace.csv").read_text().splitlines()
    assert trace[0] == "step,F,food_here,food_there,action,judge"
    assert len(trace) == 201
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["scenario"] == "fish1d"
    assert manifest["preset"] is None
    assert manifest["seed"] == 3
    assert manifest["outputs"] == ["energy.svg", "trace.csv"]
    assert (out / "energy.svg").exists()


def test_fish_rerun_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert dispatch(["fish1d", "run", "--steps", "300", "--seed", "9",
                         "--out", str(out)]) == 0
    assert (a / "trace.csv").read_bytes() == (b / "trace.csv").read_bytes()
    assert (a / "energy.svg").read_bytes() == (b / "energy.svg").read_bytes()


def test_fish_train_then_run_with_params(tmp_path):
    params = tmp_path / "fish.json"
    assert dispatch(["fish1d", "train", "--iters", "50", "--seed", "0",
                     "--out", str(params)]) == 0
    out = tmp_path / "run"
    assert dispatch(["fish1d", "run", "--steps", "100", "--seed", "0",
                     "--trained", str(params), "--out", str(out)]) == 0
    assert (out / "trace.csv").exists()


def test_auction_run_outputs(tmp_path):
    out = tmp_path / "auction"
    rc = dispatch(["auction", "run", "--r-grid", "0.25:0.5:2", "--trials", "2",
                   "--seed", "5", "--out", str(out)])
    assert rc == 0
    lines = (out / "results.csv").read_text().splitlines()
    assert lines[0] == "condition,r,trial,price,purchase_rate"
    assert len(lines) == 1 + 2 * 2
    assert (out / "purchases.csv").exists()
    assert (out / "price_vs_supply.svg").exists()
    assert (out / "rate_vs_supply.svg").exists()


def test_auction_rerun_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert dispatch(["auction", "run", "--r-grid", "0.25:0.25:1",
                         "--trials", "2", "--seed", "7", "--out", str(out)]) == 0
    assert (a / "results.csv").read_bytes() == (b / "results.csv").read_bytes()
    assert (a / "purchases.csv").read_bytes() == (b / "purchases.csv").read_bytes()


def test_lavaland_gen_train_eval_cycle(tmp_path):
    bank = tmp_path / "bank.json"
    assert dispatch(["lavaland", "gen", "--count", "12", "--preset", "lava-a",
                     "--seed", "2", "--out", str(bank)]) == 0
    params = tmp_path / "params.json"
    assert dispatch(["lavaland", "train", "--bank", str(bank), "--seed", "1",
                     "--out", str(params)]) == 0
    report = tmp_path / "report"
    assert dispatch(["lavaland", "eval", "--bank", str(bank),
                     "--params", str(params), "--report", str(report),
                     "--seed", "0"]) == 0
    acc = json.loads((report / "accuracy.json").read_text())
    assert acc["preset"] == "lava-a"
    assert 0.0 <= acc["accuracy"] <= 1.0
    kern = (report / "kernels.csv").read_text().splitlines()
    assert kern[0] == "seq,layer,row,col,value,center_dominant"
    assert len(kern) == 1 + 180
    assert (report / "histograms.csv").exists()
    manifest = json.loads((report / "manifest.json").read_text())
    assert manifest["scenario"] == "lavaland"
    assert manifest["preset"] == "lava-a"
    assert manifest["outputs"] == ["accuracy.json", "histograms.csv", "kernels.csv",
                                   "traversal.svg"]


def test_lavaland_eval_rerun_byte_identical(tmp_path):
    bank = tmp_path / "bank.json"
    assert dispatch(["lavaland", "gen", "--count", "8", "--preset", "project-a",
                     "--seed", "4", "--out", str(bank)]) == 0
    a, b = tmp_path / "ra", tmp_path / "rb"
    for report in (a, b):
        assert dispatch(["lavaland", "eval", "--bank", str(bank),
                         "--report", str(report), "--seed", "6"]) == 0
    assert (a / "histograms.csv").read_bytes() == (b / "histograms.csv").read_bytes()
    assert (a / "accuracy.json").read_bytes() == (b / "accuracy.json").read_bytes()


def test_missing_bank_file_exits_two(tmp_path, capsys):
    rc = dispatch(["lavaland", "eval", "--bank", str(tmp_path / "nope.json"),
                   "--report", str(tmp_path / "r")])
    assert rc == 2


@pytest.mark.parametrize("command", [
    ["fish1d", "run", "--out", "{tmp}/f"],
    ["fish1d", "train", "--out", "{tmp}/p.json"],
    ["auction", "run", "--out", "{tmp}/a"],
    ["lavaland", "gen", "--preset", "lava-a", "--out", "{tmp}/b.json"],
    ["lavaland", "train", "--bank", "{tmp}/missing.json", "--out", "{tmp}/p.json"],
    ["lavaland", "eval", "--bank", "{tmp}/missing.json", "--report", "{tmp}/r"],
], ids=lambda c: " ".join(c[:2]))
@pytest.mark.parametrize("seed", ["-1", "x"])
def test_bad_seed_exits_two_naming_the_option(tmp_path, capsys, command, seed):
    # refused as the command line is parsed: the bank is never read
    with pytest.raises(SystemExit) as exc:
        dispatch([a.format(tmp=tmp_path) for a in command] + ["--seed", seed])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --seed: expected a non-negative integer" in err
    assert "missing.json" not in err
    assert list(tmp_path.iterdir()) == []


def test_config_file_negative_seed_exits_two(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": -1}))
    rc = dispatch(["fish1d", "run", "--steps", "10", "--out", str(tmp_path / "f"),
                   "--config", str(cfg)])
    assert rc == 2
    assert "'seed' to -1; expected a non-negative integer" in capsys.readouterr().err
    assert not (tmp_path / "f").exists()


@pytest.mark.parametrize("command,key,value,message", [
    ("fish1d run", "steps", -1, "expected a non-negative integer, got -1"),
    ("fish1d train", "iters", -1, "expected a non-negative integer, got -1"),
    ("auction run", "trials", 0, "expected an integer of at least 1, got 0"),
    ("auction run", "malicious_frac", 1.5, "expected a number in [0, 1], got 1.5"),
    ("auction run", "r_grid", "0.5:2:4", "need 0 < start <= stop <= 1 and count >= 1"),
], ids=["steps", "iters", "trials", "malicious_frac", "r_grid"])
def test_config_value_passes_the_option_rule(tmp_path, capsys, monkeypatch,
                                             command, key, value, message):
    from selfreward import auction

    def no_auctions(*args, **kwargs):
        raise AssertionError("an auction ran before the config file was checked")

    monkeypatch.setattr(auction, "run_trials", no_auctions)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    rc = dispatch([*command.split(), "--out", str(tmp_path / "out"), "--config", str(cfg)])
    assert rc == 2
    assert f"config file sets {key!r} to {value!r}; {message}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize("command", [
    ["fish1d", "run", "--steps", "999", "--seed", "4", "--config", "{tmp}/cfg.json",
     "--out", "{tmp}/out"],
    ["auction", "run", "--r-grid", "0.25:0.5:2", "--trials", "2", "--malicious-frac", "0.5",
     "--out", "{tmp}/out"],
    ["lavaland", "eval", "--bank", "{tmp}/bank.json", "--seed", "3", "--report", "{tmp}/out"],
], ids=lambda c: " ".join(c[:2]))
def test_manifest_argv_reruns_to_the_same_bytes(tmp_path, command):
    (tmp_path / "cfg.json").write_text(json.dumps({"steps": 120}))
    assert dispatch(["lavaland", "gen", "--count", "4", "--preset", "lava-a",
                     "--out", str(tmp_path / "bank.json")]) == 0
    argv = [a.format(tmp=tmp_path) for a in command]
    assert dispatch(argv) == 0
    out = tmp_path / "out"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["argv"] == argv

    def reports():
        return {p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.json"}

    first = reports()
    shutil.rmtree(out)
    assert dispatch(manifest["argv"]) == 0
    assert reports() == first and len(first) > 1


def test_config_file_overrides(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"steps": 50}))
    out = tmp_path / "fish"
    assert dispatch(["fish1d", "run", "--steps", "999", "--seed", "0",
                     "--out", str(out), "--config", str(cfg)]) == 0
    assert len((out / "trace.csv").read_text().splitlines()) == 51


def test_config_file_override_does_not_outlive_its_command(tmp_path):
    # the parser is built once per process; a --config value lands on that
    # command's arguments only, so the next command gets the default steps
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"steps": 50}))
    first, second = tmp_path / "first", tmp_path / "second"
    assert dispatch(["fish1d", "run", "--out", str(first), "--config", str(cfg)]) == 0
    assert dispatch(["fish1d", "run", "--out", str(second)]) == 0
    assert len((first / "trace.csv").read_text().splitlines()) == 51
    assert len((second / "trace.csv").read_text().splitlines()) == 10001
    assert json.loads((second / "manifest.json").read_text())["config"]["steps"] == 10000


def test_config_file_unknown_key_exits_two(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bogus": 1}))
    rc = dispatch(["fish1d", "run", "--steps", "10", "--seed", "0",
                   "--out", str(tmp_path / "x"), "--config", str(cfg)])
    assert rc == 2
    assert "bogus" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["scenario", "command"])
def test_config_file_cannot_rename_the_command(tmp_path, capsys, key):
    # the manifest records these; only the command's own options may be set
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: "auction"}))
    rc = dispatch(["fish1d", "run", "--steps", "10", "--out", str(tmp_path / "f"),
                   "--config", str(cfg)])
    assert rc == 2
    assert f"unknown option {key!r}" in capsys.readouterr().err
    assert not (tmp_path / "f").exists()

@pytest.mark.parametrize("trials", ["0", "-1"])
def test_auction_nonpositive_trials_exits_two(tmp_path, capsys, trials):
    out = tmp_path / "auction"
    err = refused(capsys, ["auction", "run", "--r-grid", "0.25:0.25:1", "--trials", trials,
                           "--out", str(out)])
    assert f"argument --trials: expected an integer of at least 1, got '{trials}'" in err
    assert not out.exists()


def test_auction_r_grid_above_one_rejected_before_running(tmp_path, capsys, monkeypatch):
    from selfreward import auction

    def no_auctions(*args, **kwargs):
        raise AssertionError("an auction ran before the grid was checked")

    monkeypatch.setattr(auction, "run_trials", no_auctions)
    for grid in ("0.5:2:4", "nan:1:3", "0.5:nan:2"):
        err = refused(capsys, ["auction", "run", "--r-grid", grid, "--out", str(tmp_path)])
        assert f"argument --r-grid: need 0 < start <= stop <= 1 and count >= 1, " \
               f"got '{grid}'" in err
    assert list(tmp_path.iterdir()) == []


def test_auction_one_point_r_grid_with_distinct_ends_rejected(tmp_path, capsys, monkeypatch):
    from selfreward import auction

    def no_auctions(*args, **kwargs):
        raise AssertionError("an auction ran on a grid that drops its stop")

    monkeypatch.setattr(auction, "run_trials", no_auctions)
    err = refused(capsys, ["auction", "run", "--r-grid", "0.25:0.5:1", "--out", str(tmp_path)])
    assert "argument --r-grid: a count of 1 needs start == stop" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("frac", ["1.5", "-0.25", "nan"])
def test_auction_malicious_frac_outside_unit_interval_rejected_before_running(
        tmp_path, capsys, monkeypatch, frac):
    from selfreward import auction

    def no_auctions(*args, **kwargs):
        raise AssertionError("an auction ran before --malicious-frac was checked")

    monkeypatch.setattr(auction, "run_trials", no_auctions)
    err = refused(capsys, ["auction", "run", "--r-grid", "0.25:0.5:2", "--trials", "3",
                           "--malicious-frac", frac, "--out", str(tmp_path)])
    assert f"argument --malicious-frac: expected a number in [0, 1], got '{frac}'" in err
    assert list(tmp_path.iterdir()) == []


def test_lavaland_gen_unknown_preset_exits_two_naming_every_preset(tmp_path, capsys):
    # refused by generate_maps, not by argparse, so the parser loads no scenario
    rc = dispatch(["lavaland", "gen", "--preset", "nope", "--count", "2",
                   "--out", str(tmp_path / "bank.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert ("unknown preset 'nope'; choose from "
            "['compare-a', 'lava-a', 'lava-noav-a', 'project-a']") in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, loads, unloaded", [
    ([], set(), {"autodiff", "layers", "fish1d", "auction", "lavaland", "streams"}),
    (["auction", "run", "--trials", "1", "--r-grid", "0.5:0.5:1", "--out", "{tmp}/a"],
     {"auction"}, {"autodiff", "layers", "fish1d", "lavaland"}),
    (["fish1d", "run", "--steps", "10", "--out", "{tmp}/f"],
     {"fish1d"}, {"auction", "lavaland"}),
    (["lavaland", "gen", "--preset", "lava-a", "--count", "2", "--out", "{tmp}/bank.json"],
     {"lavamaps"}, {"lavaland", "autodiff", "layers", "neurons", "fish1d", "auction"}),
], ids=["import", "auction-run", "fish1d-run", "lavaland-gen"])
def test_a_command_loads_only_the_modules_it_runs(tmp_path, argv, loads, unloaded):
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    code = ("import sys; from selfreward.cli import dispatch\n"
            "code = dispatch(sys.argv[1:]) if len(sys.argv) > 1 else 0\n"
            "print(' '.join(m for m in sys.modules if m.startswith('selfreward.')))\n"
            "sys.exit(code)")
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                          text=True, env=fresh_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = {m.split(".", 1)[1] for m in proc.stdout.splitlines()[-1].split()}
    assert loads <= loaded
    assert not loaded & unloaded, sorted(loaded & unloaded)


def test_lavaland_gen_nonpositive_count_exits_two_naming_it(tmp_path, capsys):
    err = refused(capsys, ["lavaland", "gen", "--count", "0", "--preset", "lava-a",
                           "--out", str(tmp_path / "bank.json")])
    assert "argument --count: expected an integer of at least 1, got '0'" in err
    assert list(tmp_path.iterdir()) == []


def test_fish_train_negative_iters_exits_two(tmp_path, capsys):
    out = tmp_path / "params.json"
    err = refused(capsys, ["fish1d", "train", "--iters", "-1", "--out", str(out)])
    assert "argument --iters: expected a non-negative integer, got '-1'" in err
    assert not out.exists()


def test_fish_train_stops_on_non_finite_loss(tmp_path, capsys, monkeypatch):
    from selfreward.fish1d import FishPFC

    judge = FishPFC.judge_values_and_gates
    steps = []

    def judge_then_spoil(self, v0):
        verdict, pre, gates = judge(self, v0)
        steps.append(v0)
        return (verdict if len(steps) <= 30 else (math.nan, math.nan)), pre, gates

    monkeypatch.setattr(FishPFC, "judge_values_and_gates", judge_then_spoil)
    out = tmp_path / "params.json"
    rc = dispatch(["fish1d", "train", "--iters", "50", "--out", str(out)])
    assert rc == 2
    assert "step 30: self-reward loss is nan" in capsys.readouterr().err
    assert not out.exists()


def test_fish_run_negative_steps_exits_two(tmp_path, capsys):
    out = tmp_path / "fish"
    err = refused(capsys, ["fish1d", "run", "--steps", "-5", "--out", str(out)])
    assert "argument --steps: expected a non-negative integer, got '-5'" in err
    assert not out.exists()


@pytest.mark.parametrize("overrides", [{"trials": "3"}, {"trials": 2.5},
                                       {"optim": 1}, {"seed": True}, {"out": 3}])
def test_config_file_wrong_type_exits_two(tmp_path, capsys, overrides):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(overrides))
    rc = dispatch(["auction", "run", "--r-grid", "0.25:0.25:1", "--trials", "1",
                   "--out", str(tmp_path / "a"), "--config", str(cfg)])
    assert rc == 2
    assert next(iter(overrides)) in capsys.readouterr().err


@pytest.mark.parametrize("text,message", [
    ("[1, 2]", "config file must hold a JSON object, not list"),
    ("{", "malformed config file: Expecting property name"),
])
def test_config_file_not_an_object_exits_two(tmp_path, capsys, text, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    rc = dispatch(["fish1d", "run", "--steps", "10", "--out", str(tmp_path / "f"),
                   "--config", str(cfg)])
    assert rc == 2
    assert f"error: {cfg}: {message}" in capsys.readouterr().err
    assert not (tmp_path / "f").exists()


@pytest.mark.parametrize("option", ["--config", "--trained", "--bank", "--params"])
def test_directory_given_as_input_file_exits_two(tmp_path, capsys, option):
    folder = tmp_path / "folder"
    folder.mkdir()
    bank = tmp_path / "bank.json"
    assert dispatch(["lavaland", "gen", "--count", "2", "--preset", "lava-a",
                     "--out", str(bank)]) == 0
    capsys.readouterr()
    out = tmp_path / "out"
    argv = {
        "--config": ["fish1d", "run", "--steps", "10", "--out", str(out)],
        "--trained": ["fish1d", "run", "--steps", "10", "--out", str(out)],
        "--bank": ["lavaland", "train", "--out", str(out)],
        "--params": ["lavaland", "eval", "--bank", str(bank), "--report", str(out)],
    }[option]
    rc = dispatch([*argv, option, str(folder)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(folder) in err
    assert not out.exists()


def test_config_file_int_for_float_and_str_for_none(tmp_path):
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "a"
    cfg.write_text(json.dumps({"malicious_frac": 1, "trials": 1, "out": str(out)}))
    assert dispatch(["auction", "run", "--r-grid", "0.25:0.25:1",
                     "--out", str(tmp_path / "ignored"), "--config", str(cfg)]) == 0
    rows = (out / "results.csv").read_text().splitlines()
    assert len(rows) == 1 + 2  # honest and malicious condition, one trial each


def _params_file(tmp_path, name, params, scenario):
    from selfreward.params import save_params

    path = tmp_path / name
    save_params(path, params, meta={"scenario": scenario})
    return path


def test_lavaland_eval_rejects_fish_params(tmp_path, capsys):
    from selfreward.fish1d import FishConfig, FishNN

    fish = _params_file(tmp_path, "fish.json", FishNN(FishConfig()).export_params(),
                        "fish1d")
    bank = tmp_path / "bank.json"
    assert dispatch(["lavaland", "gen", "--count", "2", "--preset", "lava-a",
                     "--out", str(bank)]) == 0
    rc = dispatch(["lavaland", "eval", "--bank", str(bank), "--params", str(fish),
                   "--report", str(tmp_path / "r")])
    assert rc == 2
    assert "fish1d" in capsys.readouterr().err


def test_fish_run_rejects_lavaland_params(tmp_path, capsys):
    from selfreward.lavaland import Robot2NNParams

    lava = _params_file(tmp_path, "lava.json", Robot2NNParams().export(), "lavaland")
    rc = dispatch(["fish1d", "run", "--steps", "10", "--trained", str(lava),
                   "--out", str(tmp_path / "f")])
    assert rc == 2
    assert "lavaland" in capsys.readouterr().err


def test_fish_run_rejects_params_with_wrong_names(tmp_path, capsys):
    import numpy as np

    bad = _params_file(tmp_path, "bad.json", {"w_act": np.zeros((3, 3))}, "fish1d")
    rc = dispatch(["fish1d", "run", "--steps", "10", "--trained", str(bad),
                   "--out", str(tmp_path / "f")])
    assert rc == 2
    assert "b_act" in capsys.readouterr().err


@pytest.mark.parametrize("option", ["--trained", "--params"])
def test_params_list_instead_of_object_exits_two(tmp_path, capsys, option):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"format_version": 1, "params": []}))
    bank = tmp_path / "bank.json"
    assert dispatch(["lavaland", "gen", "--count", "2", "--preset", "lava-a",
                     "--out", str(bank)]) == 0
    capsys.readouterr()
    out = tmp_path / "out"
    argv = {
        "--trained": ["fish1d", "run", "--steps", "10", "--out", str(out)],
        "--params": ["lavaland", "eval", "--bank", str(bank), "--report", str(out)],
    }[option]
    rc = dispatch([*argv, option, str(bad)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == f"error: {bad}: 'params' must be a JSON object, not list\n"
    assert not out.exists()


def test_params_values_that_are_not_numbers_exit_two_with_one_message(tmp_path, capsys):
    # ParamsError is a ValueError: load_params must not wrap its own refusal again
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"format_version": 1,
                               "params": {"w_act": {"shape": [1], "values": ["1"]}}}))
    rc = dispatch(["fish1d", "run", "--trained", str(bad), "--out", str(tmp_path / "f")])
    assert rc == 2
    assert capsys.readouterr().err == (f"error: {bad}: parameter 'w_act' values must be "
                                       f"a list of JSON numbers\n")


@pytest.mark.parametrize("shape", [[2, -1], [-1, 3]])
def test_fish_run_refuses_a_malformed_shape_naming_the_parameter(tmp_path, capsys, shape):
    """Shapes that numpy's reshape reads as w_act's (2, 3) are still refused."""
    from selfreward.fish1d import FishConfig, FishNN

    path = _params_file(tmp_path, "p.json", FishNN(FishConfig()).export_params(), "fish1d")
    doc = json.loads(path.read_text())
    doc["params"]["w_act"]["shape"] = shape
    path.write_text(json.dumps(doc))
    out = tmp_path / "f"
    rc = dispatch(["fish1d", "run", "--steps", "10", "--trained", str(path), "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: parameter 'w_act' shape must be")
    assert not out.exists()


def test_fish_run_of_a_starving_policy_writes_its_trace(tmp_path, capsys):
    from selfreward.fish1d import FishConfig, FishNN

    params = FishNN(FishConfig()).export_params()
    params["b_act"] = np.array([-100.0, 100.0])  # never eats
    starving = _params_file(tmp_path, "starving.json", params, "fish1d")
    out = tmp_path / "fish"
    rc = dispatch(["fish1d", "run", "--steps", "200", "--seed", "0",
                   "--trained", str(starving), "--out", str(out)])
    assert rc == 0
    rows = (out / "trace.csv").read_text().splitlines()[1:]
    assert 0 < len(rows) < 200
    assert {row.split(",")[4] for row in rows} == {"move"}
    assert f"fish died after {len(rows)} steps" in capsys.readouterr().out
    assert (out / "energy.svg").exists()


def test_lavaland_bank_that_is_not_json_exits_two(tmp_path, capsys):
    bank = tmp_path / "bank.json"
    bank.write_text("not json")
    rc = dispatch(["lavaland", "eval", "--bank", str(bank), "--report",
                   str(tmp_path / "r")])
    assert rc == 2
    assert f"error: {bank}: malformed bank file: Expecting value" in \
        capsys.readouterr().err


def _bank_doc(**overrides):
    """A two-map bank document whose map 1 can be broken by the caller."""
    good = {"tiles": ["dgd", "dyd", "ddd"], "spawn": [0, 0]}
    doc = {"format_version": 1, "preset": "lava-a", "seed": 0,
           "maps": [good, dict(good)]}
    doc.update(overrides)
    return doc


@pytest.mark.parametrize("case,doc,message", [
    ("ragged rows", _bank_doc(maps=[{}, {"tiles": ["dgd", "dy", "ddd"], "spawn": [0, 0]}]),
     "map 1: rows are not all the same length"),
    ("two targets", _bank_doc(maps=[{}, {"tiles": ["dgy", "dyd", "ddd"], "spawn": [0, 0]}]),
     "map 1: 2 target tiles"),
    ("spawn on lava", _bank_doc(maps=[{}, {"tiles": ["lgd", "dyd", "ddd"], "spawn": [0, 0]}]),
     "map 1: spawn [0, 0] is on lava"),
    ("negative spawn", _bank_doc(maps=[{}, {"tiles": ["dgd", "dyd", "ddd"], "spawn": [-1, 0]}]),
     "map 1: spawn [-1, 0] lies outside the 3x3 map"),
    ("unknown tile", _bank_doc(maps=[{}, {"tiles": ["dgd", "dyx", "ddd"], "spawn": [0, 0]}]),
     "map 1: unknown tile characters ['x']"),
    ("spawn out of bounds", _bank_doc(maps=[{}, {"tiles": ["dgd", "dyd", "ddd"],
                                                 "spawn": [0, 3]}]),
     "map 1: spawn [0, 3] lies outside the 3x3 map"),
    ("spawn on target", _bank_doc(maps=[{}, {"tiles": ["dgd", "dyd", "ddd"], "spawn": [1, 1]}]),
     "map 1: spawn [1, 1] is on target"),
    ("missing maps", {"format_version": 1, "preset": "lava-a", "seed": 0},
     "bank has no 'maps' entry"),
    ("unknown preset", _bank_doc(preset="lava-z"), "unknown preset 'lava-z'"),
    ("no maps", _bank_doc(maps=[]), "bank has no maps"),
])
def test_lavaland_train_refuses_malformed_bank(tmp_path, capsys, case, doc, message):
    if doc.get("maps"):  # map 0 stays good, so the message must name map 1
        doc["maps"][0] = _bank_doc()["maps"][0]
    bank = tmp_path / "bank.json"
    bank.write_text(json.dumps(doc))
    out = tmp_path / "params.json"
    rc = dispatch(["lavaland", "train", "--bank", str(bank), "--out", str(out)])
    assert rc == 2, case
    assert message in capsys.readouterr().err
    assert not out.exists()  # refused before any training


@pytest.mark.parametrize("command", ["train", "eval"])
def test_lavaland_refuses_an_empty_bank_naming_it(tmp_path, capsys, command):
    # load_bank refuses it, so train and eval give one message
    bank = tmp_path / "bank.json"
    bank.write_text(json.dumps(_bank_doc(maps=[])))
    out = tmp_path / "out"
    out_option = "--report" if command == "eval" else "--out"
    assert dispatch(["lavaland", command, "--bank", str(bank), out_option, str(out)]) == 2
    assert capsys.readouterr().err == f"error: {bank}: bank has no maps\n"
    assert not out.exists()


@pytest.mark.parametrize("version", [True, 1.0])
@pytest.mark.parametrize("kind", ["bank", "params"])
def test_format_version_must_be_the_integer_one(tmp_path, capsys, kind, version):
    # json's true and 1.0 both compare equal to 1; only the integer is a version
    from selfreward.lavaland import Robot2NNParams

    bank = tmp_path / "bank.json"
    bank.write_text(json.dumps(_bank_doc()))
    params = _params_file(tmp_path, "lava.json", Robot2NNParams().export(), "lavaland")
    bad = {"bank": bank, "params": params}[kind]
    doc = json.loads(bad.read_text())
    doc["format_version"] = version
    bad.write_text(json.dumps(doc))
    report = tmp_path / "r"
    rc = dispatch(["lavaland", "eval", "--bank", str(bank), "--params", str(params),
                   "--report", str(report)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: unsupported ") and repr(version) in err
    assert not report.exists()


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e999"])
def test_lavaland_eval_refuses_non_finite_params(tmp_path, capsys, token):
    from selfreward.lavaland import Robot2NNParams

    path = _params_file(tmp_path, "lava.json", Robot2NNParams().export(), "lavaland")
    doc = json.loads(path.read_text())
    doc["params"]["grass/3"]["values"][4] = "TOKEN"
    path.write_text(json.dumps(doc).replace('"TOKEN"', token))
    bank = tmp_path / "bank.json"
    assert dispatch(["lavaland", "gen", "--count", "2", "--preset", "lava-a",
                     "--out", str(bank)]) == 0
    rc = dispatch(["lavaland", "eval", "--bank", str(bank), "--params", str(path),
                   "--report", str(tmp_path / "r")])
    assert rc == 2
    assert "'grass/3' holds a non-finite value" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


def test_lavaland_train_stops_on_non_finite_loss(tmp_path, capsys, monkeypatch):
    from selfreward import lavaland

    bank = tmp_path / "bank.json"
    assert dispatch(["lavaland", "gen", "--count", "3", "--preset", "project-a",
                     "--out", str(bank)]) == 0
    # LavaConfig refuses a NaN preference, so set it past that check: any
    # loss that still turns non-finite must stop training
    config = lavaland.LavaConfig()
    config.p_grass = float("nan")
    monkeypatch.setitem(lavaland.PRESETS, "project-a", config)
    out = tmp_path / "params.json"
    rc = dispatch(["lavaland", "train", "--bank", str(bank), "--out", str(out)])
    assert rc == 2
    assert "map 0: self-reward loss is nan" in capsys.readouterr().err
    assert not out.exists()


def jobs_refused(tmp_path, capsys, jobs):
    err = refused(capsys, ["lavaland", "eval", "--bank", str(tmp_path / "never-read.json"),
                           "--report", str(tmp_path / "r"), "--jobs", jobs])
    assert f"argument --jobs: invalid choice: {jobs} (choose from 1)" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_lavaland_eval_jobs_below_one_exits_two(tmp_path, capsys, jobs):
    jobs_refused(tmp_path, capsys, jobs)


@pytest.mark.parametrize("jobs", ["2", "64"])
def test_lavaland_eval_jobs_above_one_exits_two(tmp_path, capsys, jobs):
    jobs_refused(tmp_path, capsys, jobs)


@pytest.mark.parametrize("command", ["lavaland train --bank", "lavaland eval --bank",
                                     "fish1d run --trained", "fish1d run --config"])
def test_file_that_is_not_utf8_exits_two_naming_it(tmp_path, capsys, command):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{}")
    out = tmp_path / "out"
    *argv, option = command.split()
    out_option = "--report" if argv == ["lavaland", "eval"] else "--out"
    assert dispatch([*argv, out_option, str(out), option, str(bad)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {bad}: malformed ")
    assert not out.exists()


# sha256 of each report of the runs in report_digests, recorded from the code
# that drew each plot from its CSV file (the honest Optim auction and the
# untrained lavaland evaluation from the code whose CLI reshaped the runners'
# dicts, the lavaland runs on their seed-6 bank from the code whose commands
# checked their own options): plots drawn from the rows in hand, rows written
# by csv alone, rows the runners return under their own columns and one
# run-and-report path must keep every byte.  Training changes the paths on
# the seed-6 bank, so the untrained evaluation pins reports of its own.  The
# bank itself was recorded from the code that generated each map cell by cell.
# The 20 000-step fish runs, whose traces tile their cycle, were recorded from
# the code that formatted each plot point with "%.2f" and each tiled CSV row
# with its own f-string.
REPORT_SHA256 = {
    "bank.json":
        "efc9fc6c7a29c6b188b3a8fe423a356147fcc5586d22fc4effa075191ffb3673",
    "fish/trace.csv":
        "ce06ef9ab63e515a92cdc123d8ba45cd0f9a595aa4184d76bfebd83c7cd723b8",
    "fish/energy.svg":
        "59801d006d16444c853ab7645c315cef3e78bcd2a72b0aaad92e379037da2fc0",
    "fish_trained/trace.csv":
        "5aa8c97b380dcaa3f705c6146b4705db00a277367f1c829d515457c88642d0e7",
    "fish_trained/energy.svg":
        "6772708c92a4b9be2fa60235420f125b6904fa4f19f1b4f99d32246c894c5fa4",
    "fish_long/trace.csv":
        "a73aa2911035698e89c81b27d3bb20fab91ca10cd9fc6d61ed2ee5d8091fc668",
    "fish_long/energy.svg":
        "639a994f063a61c236e2d80b0a6e1fa86c90aaebcf814043026676afee404074",
    "fish_long_trained/trace.csv":
        "01ae8da6e25a50f81bbdfd388faf46b86190721957949042d3a0875363953a8c",
    "fish_long_trained/energy.svg":
        "bb6d9c9bc95bdba00b90a2d983fa7c9511a7c6bd4f05f3407ddcb1d6edc4a773",
    "auction/results.csv":
        "c15de17acb2d4e8960dc2d75c79ed3f0ed9df9eb68d94f467af1bb3bc6e5b387",
    "auction/purchases.csv":
        "3466d3d504392c5fcc39fbb56e33f5f566ff2d17ab5f8c2f6cb4ddadddf61360",
    "auction/price_vs_supply.svg":
        "bf694fc7b1da034560980f2da67f38ad2a001a8d82ccf7c43dfcc58e4c212bd1",
    "auction/rate_vs_supply.svg":
        "3079cd85aa107b142ce5c2897d3f6446ed2586f7c15aaa96de39b243f09ca634",
    "auction_optim/results.csv":
        "ab57e028b255cfebaf747c4c66c5d101327b910f9c14efc612b6973e3f620811",
    "auction_optim/purchases.csv":
        "2e93011564f3540b3e21b8e327ec245fefe9fe2183adf503d6f3383e995bae47",
    "auction_optim/price_vs_supply.svg":
        "613db6223a291f48c7c0b43d1fceb4a0fb24af4019277b7b3e684acd38c6669e",
    "auction_optim/rate_vs_supply.svg":
        "5245c4701342422828ea64cee90d306da464f096f17a371b189b528246edd3f8",
    "auction_honest_optim/results.csv":
        "187ad763d4fdde7d71034f73f5c558f9c44675e4874bf8178d7a912aa1be4bc8",
    "auction_honest_optim/purchases.csv":
        "e26c8c7171747d72eebef3b3444f648437e8c3f7428b03f256a5343bb6856ae3",
    "auction_honest_optim/price_vs_supply.svg":
        "90018f5b0e238d623c1976549f1f9b300395955f8ac79381aa0ac954bb16c48f",
    "auction_honest_optim/rate_vs_supply.svg":
        "fe5538a72aa2ffc278fdd8634d5cf6ba62e3dbe19a5902c71ca96f8134995553",
    "lavaland/histograms.csv":
        "7dedece8c23c490ff82c7ff2f72655fd2b1074aacb4d09fd19b0e93c287b2b7a",
    "lavaland/accuracy.json":
        "e79d8fb0eb6b46d1f62f4ad2eeb8463fa942b27f2fa2ef57fd137b67146abf86",
    "lavaland/traversal.svg":
        "3ac89e80cac2baa676ace0fa8bfa9083bf70743f0b73f414f772f0479ebb5728",
    "lavaland_untrained/histograms.csv":
        "d6184e357fd8dd25591942751daada1b89219706d1fb2e827ba31926f005aed4",
    "lavaland_untrained/accuracy.json":
        "112b964a7336abd6e870345453ba244a389ecc2f0b1654360e6c5b0fcb889fd7",
    "lavaland_untrained/traversal.svg":
        "29bcae6daffea6812d0ed5575163d33297479161422d265893de37a33e85e5ed",
    "lavaland_untrained/kernels.csv":
        "f9f8f293cc78f7a7df8f0dc3972bf8d96d0086b6e621d61dc79abd02be519831",
}


def report_digests(tmp_path) -> dict:
    """Run small fish, auction and lavaland commands (seed 0) and hash their
    reports and the lavaland bank; trained parameters and trained kernels.csv
    are left out."""
    fish_params, bank, lava_params = (tmp_path / name for name in
                                      ("fish.json", "bank.json", "lava.json"))
    auction = ["auction", "run", "--trials", "2", "--r-grid", "0.25:0.5:2"]
    malicious = [*auction, "--malicious-frac", "0.5"]
    commands = [
        ["fish1d", "train", "--iters", "200", "--out", str(fish_params)],
        ["fish1d", "run", "--steps", "500", "--out", str(tmp_path / "fish")],
        ["fish1d", "run", "--steps", "500", "--trained", str(fish_params),
         "--out", str(tmp_path / "fish_trained")],
        ["fish1d", "run", "--steps", "20000", "--out", str(tmp_path / "fish_long")],
        ["fish1d", "run", "--steps", "20000", "--trained", str(fish_params),
         "--out", str(tmp_path / "fish_long_trained")],
        [*malicious, "--out", str(tmp_path / "auction")],
        [*malicious, "--optim", "--out", str(tmp_path / "auction_optim")],
        [*auction, "--optim", "--out", str(tmp_path / "auction_honest_optim")],
        ["lavaland", "gen", "--count", "8", "--preset", "lava-a", "--seed", "6",
         "--out", str(bank)],
        ["lavaland", "train", "--bank", str(bank), "--out", str(lava_params)],
        ["lavaland", "eval", "--bank", str(bank), "--params", str(lava_params),
         "--report", str(tmp_path / "lavaland")],
        ["lavaland", "eval", "--bank", str(bank),
         "--report", str(tmp_path / "lavaland_untrained")],
    ]
    for argv in commands:
        assert dispatch(argv) == 0, argv
    reports = {
        "fish": ["trace.csv", "energy.svg"],
        "fish_trained": ["trace.csv", "energy.svg"],
        "fish_long": ["trace.csv", "energy.svg"],
        "fish_long_trained": ["trace.csv", "energy.svg"],
        "auction": ["results.csv", "purchases.csv", "price_vs_supply.svg",
                    "rate_vs_supply.svg"],
        "auction_optim": ["results.csv", "purchases.csv", "price_vs_supply.svg",
                          "rate_vs_supply.svg"],
        "auction_honest_optim": ["results.csv", "purchases.csv", "price_vs_supply.svg",
                                 "rate_vs_supply.svg"],
        "lavaland": ["histograms.csv", "accuracy.json", "traversal.svg"],
        "lavaland_untrained": ["histograms.csv", "accuracy.json", "traversal.svg",
                               "kernels.csv"],
    }
    files = ["bank.json", *(f"{run}/{name}" for run, names in reports.items() for name in names)]
    return {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in files}


def test_reports_keep_their_bytes(tmp_path):
    assert report_digests(tmp_path) == REPORT_SHA256
