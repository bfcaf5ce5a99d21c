"""Command-line entry point: one dispatcher for the three scenarios.

Every run takes a seed, writes CSV/JSON/SVG outputs into --out, and drops a
manifest describing exactly how to reproduce the files byte-for-byte.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, fish1d
from . import auction as auction_mod
from . import lavaland as lava_mod
from .params import ParamsError, load_params, save_params
from .reporting import ConfigError, PlotSpec, RunManifest, emit_plot, write_csv


def _seed(text: str) -> int:
    """The type of every --seed: a non-negative integer, checked as the
    command line is parsed, before any input is read."""
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return value


def _apply_config_file(args: argparse.Namespace) -> None:
    """Override the command's own options from the --config JSON file, type-checked.

    A value must have the type of the option's default; an int may stand
    for a float, and a string for an option whose default is None.
    """
    if getattr(args, "config", None):
        try:
            overrides = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as err:
            raise ConfigError(f"{args.config}: malformed config file: {err}") from err
        if not isinstance(overrides, dict):
            raise ConfigError(f"{args.config}: config file must hold a JSON object, "
                              f"not {type(overrides).__name__}")
        options = {action.dest for action in args._parser._actions} - {"help", "config"}
        for key, value in overrides.items():
            if key not in options:
                raise ConfigError(f"config file sets unknown option {key!r}")
            default = args._parser.get_default(key)
            if not (type(value) is type(default)
                    or (type(default) is float and type(value) is int)
                    or (default is None and isinstance(value, str))):
                expected = "str" if default is None else type(default).__name__
                raise ConfigError(f"config file sets {key!r} to {value!r}; "
                                  f"expected {expected}")
            if key == "seed" and value < 0:
                raise ConfigError(f"config file sets 'seed' to {value}; "
                                  f"expected a non-negative integer")
            setattr(args, key, value)


def _write_manifest(args, scenario: str, preset: str, out_dir: Path,
                    outputs: list, started: float) -> None:
    config = {k: v for k, v in sorted(vars(args).items())
              if k not in ("func", "config") and not k.startswith("_")}
    RunManifest(
        scenario=scenario,
        preset=preset,
        seed=args.seed,
        config=config,
        outputs=[str(Path(p).relative_to(out_dir)) for p in outputs],
        wall_clock_s=round(time.time() - started, 3),
    ).write(out_dir)


# -- fish1d ------------------------------------------------------------------


def cmd_fish_run(args) -> int:
    started = time.time()
    if args.steps < 0:
        raise ConfigError(f"--steps must be at least 0, got {args.steps}")
    out_dir = Path(args.out)
    config = fish1d.FishConfig()
    nn, pfc = fish1d.FishNN(config), fish1d.FishPFC()
    if args.trained:
        nn.import_params(load_params(args.trained, scenario="fish1d",
                                     template=nn.export_params()))
    world, state = fish1d.make_world(args.seed, config)
    trace = fish1d.run_episode(nn, pfc, world, state, args.steps)
    trace_csv = out_dir / "trace.csv"
    write_csv(trace_csv, fish1d.TRACE_COLUMNS, trace)
    plot = out_dir / "energy.svg"
    emit_plot(PlotSpec(x_column="step", y_column="F", output_svg=str(plot),
                       title="fish energy over time"), fish1d.TRACE_COLUMNS, trace)
    _write_manifest(args, "fish1d", "run", out_dir, [trace_csv, plot], started)
    if not state.alive:
        print(f"fish died after {len(trace)} steps")
    print(f"wrote {trace_csv} ({len(trace)} steps)")
    return 0


def cmd_fish_train(args) -> int:
    if args.iters < 0:
        raise ConfigError(f"--iters must be at least 0, got {args.iters}")
    nn, _, losses = fish1d.srd_train(args.iters, fish1d.FishConfig(), seed=args.seed)
    save_params(args.out, nn.export_params(),
                meta={"scenario": "fish1d", "iters": args.iters, "seed": args.seed})
    print(f"wrote {args.out} after {args.iters} iterations "
          f"(final loss {losses[-1]:.4g})" if losses else f"wrote {args.out}")
    return 0


# -- auction -----------------------------------------------------------------


def _parse_r_grid(text: str) -> list[float]:
    try:
        start, stop, count = text.split(":")
        start, stop, count = float(start), float(stop), int(count)
    except ValueError as err:
        raise ConfigError(f"bad --r-grid {text!r}; expected start:stop:count") from err
    if count < 1 or not 0 < start <= stop <= 1:  # NaN fails every comparison
        raise ConfigError(f"bad --r-grid {text!r}; need 0 < start <= stop <= 1 "
                          f"and count >= 1")
    if count == 1 and start != stop:
        raise ConfigError(f"bad --r-grid {text!r}; a count of 1 needs start == stop, "
                          f"or it would run start alone")
    return [float(v) for v in np.linspace(start, stop, count)]


def cmd_auction_run(args) -> int:
    started = time.time()
    out_dir = Path(args.out)
    r_grid = _parse_r_grid(args.r_grid)
    if args.trials < 1:
        raise ConfigError(f"--trials must be at least 1, got {args.trials}")
    if not 0 <= args.malicious_frac <= 1:
        raise ConfigError(f"--malicious-frac must lie in [0, 1], "
                          f"got {args.malicious_frac}")
    rows, purchases = auction_mod.run_experiment(r_grid, args.trials, args.seed, args.optim,
                                                 args.malicious_frac)
    results_csv = out_dir / "results.csv"
    write_csv(results_csv, auction_mod.RESULT_COLUMNS, rows)
    purchases_csv = out_dir / "purchases.csv"
    write_csv(purchases_csv, auction_mod.PURCHASE_COLUMNS, purchases)
    price_svg = out_dir / "price_vs_supply.svg"
    emit_plot(PlotSpec(x_column="r", y_column="price", series_column="condition",
                       output_svg=str(price_svg), kind="scatter",
                       title="purchase price vs item supply"), auction_mod.RESULT_COLUMNS, rows)
    rate_svg = out_dir / "rate_vs_supply.svg"
    emit_plot(PlotSpec(x_column="r", y_column="purchase_rate", series_column="condition",
                       output_svg=str(rate_svg), kind="scatter",
                       title="purchase rate vs item supply"), auction_mod.RESULT_COLUMNS, rows)
    outputs = [results_csv, purchases_csv, price_svg, rate_svg]
    _write_manifest(args, "auction", "run", out_dir, outputs, started)
    print(f"wrote {results_csv} ({len(rows)} trials over {len(r_grid)} supply points)")
    return 0


# -- lavaland ----------------------------------------------------------------


def cmd_lava_gen(args) -> int:
    bank = lava_mod.generate_maps(args.count, args.preset, args.seed)
    lava_mod.save_bank(args.out, bank)
    print(f"wrote {args.out} ({args.count} {args.preset} maps)")
    return 0


def cmd_lava_train(args) -> int:
    bank = lava_mod.load_bank(args.bank)
    if not bank.maps:
        raise ConfigError(f"{args.bank}: bank has no maps to train on")
    config = lava_mod.PRESETS[bank.preset]
    params = lava_mod.Robot2NNParams()
    losses = lava_mod.srd_train_lavaland(params, bank, config, seed=args.seed)
    save_params(args.out, params.export(),
                meta={"scenario": "lavaland", "preset": bank.preset, "seed": args.seed})
    print(f"wrote {args.out} (mean loss {float(np.mean(losses)):.4f} "
          f"over {len(losses)} maps)")
    return 0


def cmd_lava_eval(args) -> int:
    started = time.time()
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")
    if args.jobs != 1:
        raise ConfigError(f"--jobs {args.jobs}: evaluation runs the maps batched in one "
                          f"process; only --jobs 1 is accepted")
    bank = lava_mod.load_bank(args.bank)
    config = lava_mod.PRESETS[bank.preset]
    params = lava_mod.Robot2NNParams()
    if args.params:
        params.load(load_params(args.params, scenario="lavaland",
                                template=params.export()))
    result = lava_mod.evaluate(params, bank, config, seed=args.seed)
    report = Path(args.report)
    report.mkdir(parents=True, exist_ok=True)

    acc_path = report / "accuracy.json"
    acc_path.write_text(json.dumps({
        "preset": bank.preset,
        "maps": len(bank.maps),
        "accuracy": result.accuracy,
        "mean_traversed": {t: result.mean_traversed(t)
                           for t in ("grass", "dirt", "lava")},
    }, indent=1, sort_keys=True), encoding="utf-8")

    hist_rows = []
    for tile in ("grass", "dirt", "lava"):
        for count, n in result.traversal_histogram(tile).items():
            hist_rows.append([tile, count, n])
    hist_csv = report / "histograms.csv"
    hist_header = ["tile", "tiles_traversed", "episodes"]
    write_csv(hist_csv, hist_header, hist_rows)

    kern_csv = report / "kernels.csv"
    write_csv(kern_csv, lava_mod.KERNEL_COLUMNS, lava_mod.inspect_kernels(params))

    hist_svg = report / "traversal.svg"
    emit_plot(PlotSpec(x_column="tiles_traversed", y_column="episodes",
                       series_column="tile", output_svg=str(hist_svg),
                       title="tiles traversed per episode"), hist_header, hist_rows)
    outputs = [acc_path, hist_csv, kern_csv, hist_svg]
    _write_manifest(args, "lavaland", bank.preset, report, outputs, started)
    print(f"accuracy {result.accuracy:.4f} over {len(bank.maps)} maps "
          f"-> {acc_path}")
    return 0


# -- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="selfreward",
        description="Interpretable self-reward controllers: fish, auction, lavaland.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="scenario", required=True)

    fish = sub.add_parser("fish1d", help="1-D foraging fish").add_subparsers(
        dest="command", required=True)
    run = fish.add_parser("run", help="run an episode and write the trace")
    run.add_argument("--steps", type=int, default=10000)
    run.add_argument("--seed", type=_seed, default=0)
    run.add_argument("--trained", help="parameter JSON from `fish1d train`")
    run.add_argument("--out", required=True)
    run.add_argument("--config", help="JSON file overriding options")
    run.set_defaults(func=cmd_fish_run, _parser=run)
    train = fish.add_parser("train", help="self-reward training")
    train.add_argument("--iters", type=int, default=12000)
    train.add_argument("--seed", type=_seed, default=0)
    train.add_argument("--out", required=True, help="parameter JSON to write")
    train.add_argument("--config", help="JSON file overriding options")
    train.set_defaults(func=cmd_fish_train, _parser=train)

    auction = sub.add_parser("auction", help="fish-sale auction").add_subparsers(
        dest="command", required=True)
    arun = auction.add_parser("run", help="run the supply-grid experiment")
    arun.add_argument("--r-grid", default="0.0625:0.5:8",
                      help="item-supply grid as start:stop:count")
    arun.add_argument("--trials", type=int, default=10)
    arun.add_argument("--optim", action="store_true",
                      help="let agents fine-tune during the first rounds")
    arun.add_argument("--malicious-frac", type=float, default=0.0)
    arun.add_argument("--seed", type=_seed, default=0)
    arun.add_argument("--out", required=True)
    arun.add_argument("--config", help="JSON file overriding options")
    arun.set_defaults(func=cmd_auction_run, _parser=arun)

    lava = sub.add_parser("lavaland", help="2-D tile-world navigation").add_subparsers(
        dest="command", required=True)
    gen = lava.add_parser("gen", help="generate a map bank")
    gen.add_argument("--count", type=int, default=4096)
    gen.add_argument("--preset", required=True, choices=sorted(lava_mod.PRESETS))
    gen.add_argument("--seed", type=_seed, default=0)
    gen.add_argument("--out", required=True, help="bank JSON to write")
    gen.set_defaults(func=cmd_lava_gen)
    ltrain = lava.add_parser("train", help="one self-reward epoch over a bank")
    ltrain.add_argument("--bank", required=True)
    ltrain.add_argument("--seed", type=_seed, default=0)
    ltrain.add_argument("--out", required=True, help="parameter JSON to write")
    ltrain.set_defaults(func=cmd_lava_train)
    leval = lava.add_parser("eval", help="evaluate a bank and write reports")
    leval.add_argument("--bank", required=True)
    leval.add_argument("--params", help="parameter JSON from `lavaland train`")
    leval.add_argument("--report", required=True)
    leval.add_argument("--seed", type=_seed, default=0)
    leval.add_argument("--jobs", type=int, default=1,
                       help="must be 1: evaluation runs the maps batched in one process "
                            "(kept so existing command lines still parse)")
    leval.set_defaults(func=cmd_lava_eval)

    return parser


def dispatch(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config_file(args)
        return args.func(args)
    except (ConfigError, ParamsError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
