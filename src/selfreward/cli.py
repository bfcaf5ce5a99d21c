"""Command-line entry point: one dispatcher for the three scenarios.

Each option's rule is its argparse type, which a --config value passes too.
``fish1d run``, ``auction run`` and ``lavaland eval`` record their command
line in ``manifest.json`` as ``argv``; ``dispatch(manifest["argv"])``, run
from the same directory, rewrites every other file byte for byte.  A command
that raises ValueError (a bad --config, bank, params document or config
field) or OSError exits 2 with the message.

A process imports only what its command runs: this module loads numpy and
the ``params`` and ``reporting`` modules every command writes through, and
each ``cmd_*`` function imports its own scenario; ``lavaland gen`` imports
only the maps module, ``lavamaps``.  So ``auction run`` and ``lavaland gen``
never load the autodiff engine, ``lavaland`` commands never load ``layers``,
and no command loads another scenario.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .params import load_params, read_document, save_params, write_document
from .reporting import PlotSpec, RunManifest, emit_plot, write_csv


def _checked(convert, ok, what: str):
    """An argparse type: ``convert`` the text, and refuse a value that is not ``ok``."""
    def check(text):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
        return value
    return check


def _at_least(minimum: int):
    what = "a non-negative integer" if minimum == 0 else f"an integer of at least {minimum}"
    return _checked(int, lambda value: value >= minimum, what)


_seed = _at_least(0)
_fraction = _checked(float, lambda value: 0 <= value <= 1, "a number in [0, 1]")  # NaN fails


def _parse_r_grid(text: str) -> list[float]:
    """The type of --r-grid: ``start:stop:count`` with 0 < start <= stop <= 1,
    as the list of its ``count`` supply points."""
    try:
        start, stop, count = text.split(":")
        start, stop, count = float(start), float(stop), int(count)
    except ValueError as err:
        raise argparse.ArgumentTypeError(f"expected start:stop:count, got {text!r}") from err
    if count < 1 or not 0 < start <= stop <= 1:  # NaN fails every comparison
        raise argparse.ArgumentTypeError(f"need 0 < start <= stop <= 1 and count >= 1, "
                                         f"got {text!r}")
    if count == 1 and start != stop:
        raise argparse.ArgumentTypeError(f"a count of 1 needs start == stop, or it would "
                                         f"run start alone; got {text!r}")
    return [float(v) for v in np.linspace(start, stop, count)]


def _apply_config_file(args: argparse.Namespace) -> None:
    """Override the command's own options from the --config JSON file.

    A value must have the type of the option's default (an int may stand for a
    float, a string for a default of None), then pass the option's own type.
    """
    if getattr(args, "config", None):
        overrides = read_document(args.config, "config")
        actions = {action.dest: action for action in args._parser._actions
                   if action.dest not in ("help", "config")}
        for key, value in overrides.items():
            if key not in actions:
                raise ValueError(f"config file sets unknown option {key!r}")
            default = args._parser.get_default(key)
            if not (type(value) is type(default)
                    or (type(default) is float and type(value) is int)
                    or (default is None and isinstance(value, str))):
                expected = "str" if default is None else type(default).__name__
                raise ValueError(f"config file sets {key!r} to {value!r}; "
                                 f"expected {expected}")
            if actions[key].type is not None:
                try:
                    value = actions[key].type(value)
                except argparse.ArgumentTypeError as err:
                    raise ValueError(f"config file sets {key!r} to {value!r}; {err}") from err
            setattr(args, key, value)


def _table(out_dir: Path, name: str, header, rows, *plots: PlotSpec) -> list[Path]:
    """Write ``rows`` to ``out_dir/name``, draw each plot from them; return the paths."""
    path = out_dir / name
    write_csv(path, header, rows)
    for spec in plots:
        emit_plot(spec, header, rows)
    return [path, *(Path(spec.output_svg) for spec in plots)]


# -- fish1d ------------------------------------------------------------------


def cmd_fish_run(args):
    from . import fish1d

    out_dir = Path(args.out)
    config = fish1d.FishConfig()
    nn, pfc = fish1d.FishNN(config), fish1d.FishPFC()
    if args.trained:
        nn.import_params(load_params(args.trained, scenario="fish1d",
                                     template=nn.export_params()))
    world, state = fish1d.make_world(args.seed, config)
    trace = fish1d.run_episode(nn, pfc, world, state, args.steps)
    outputs = _table(out_dir, "trace.csv", fish1d.TRACE_COLUMNS, trace,
                     PlotSpec(x_column="step", y_column="F", title="fish energy over time",
                              output_svg=str(out_dir / "energy.svg")))
    if not state.alive:
        print(f"fish died after {len(trace)} steps")
    print(f"wrote {outputs[0]} ({len(trace)} steps)")
    return out_dir, None, outputs


def cmd_fish_train(args):
    from . import fish1d

    nn, _, losses = fish1d.srd_train(args.iters, fish1d.FishConfig(), seed=args.seed)
    save_params(args.out, nn.export_params(),
                meta={"scenario": "fish1d", "iters": args.iters, "seed": args.seed})
    print(f"wrote {args.out} after {args.iters} iterations "
          f"(final loss {losses[-1]:.4g})" if losses else f"wrote {args.out}")


# -- auction -----------------------------------------------------------------


def cmd_auction_run(args):
    from . import auction

    out_dir = Path(args.out)
    rows, purchases = auction.run_experiment(args.r_grid, args.trials, args.seed,
                                             args.optim, args.malicious_frac)
    results = _table(
        out_dir, "results.csv", auction.RESULT_COLUMNS, rows,
        PlotSpec(x_column="r", y_column="price", series_column="condition",
                 output_svg=str(out_dir / "price_vs_supply.svg"), kind="scatter",
                 title="purchase price vs item supply"),
        PlotSpec(x_column="r", y_column="purchase_rate", series_column="condition",
                 output_svg=str(out_dir / "rate_vs_supply.svg"), kind="scatter",
                 title="purchase rate vs item supply"))
    outputs = results + _table(out_dir, "purchases.csv", auction.PURCHASE_COLUMNS,
                               purchases)
    print(f"wrote {results[0]} ({len(rows)} trials over {len(args.r_grid)} supply points)")
    return out_dir, None, outputs


# -- lavaland ----------------------------------------------------------------


def cmd_lava_gen(args):
    from . import lavamaps

    bank = lavamaps.generate_maps(args.count, args.preset, args.seed)
    lavamaps.save_bank(args.out, bank)
    print(f"wrote {args.out} ({args.count} {args.preset} maps)")


def cmd_lava_train(args):
    from . import lavaland, lavamaps

    bank = lavamaps.load_bank(args.bank)
    config = lavamaps.PRESETS[bank.preset]
    params = lavaland.Robot2NNParams()
    losses = lavaland.srd_train_lavaland(params, bank, config, seed=args.seed)
    save_params(args.out, params.export(),
                meta={"scenario": "lavaland", "preset": bank.preset, "seed": args.seed})
    print(f"wrote {args.out} (mean loss {float(np.mean(losses)):.4f} "
          f"over {len(losses)} maps)")


def cmd_lava_eval(args):
    from . import lavaland, lavamaps

    bank = lavamaps.load_bank(args.bank)
    params = lavaland.Robot2NNParams()
    if args.params:
        params.load(load_params(args.params, scenario="lavaland",
                                template=params.export()))
    result = lavaland.evaluate(params, bank, lavamaps.PRESETS[bank.preset], seed=args.seed)
    report = Path(args.report)
    hist_rows = [[tile, count, n] for tile in ("grass", "dirt", "lava")
                 for count, n in result.traversal_histogram(tile).items()]
    outputs = _table(
        report, "histograms.csv", ["tile", "tiles_traversed", "episodes"], hist_rows,
        PlotSpec(x_column="tiles_traversed", y_column="episodes", series_column="tile",
                 output_svg=str(report / "traversal.svg"),
                 title="tiles traversed per episode"))
    outputs += _table(report, "kernels.csv", lavaland.KERNEL_COLUMNS,
                      lavaland.inspect_kernels(params))
    acc_path = report / "accuracy.json"
    write_document(acc_path, {
        "preset": bank.preset,
        "maps": len(bank.maps),
        "accuracy": result.accuracy,
        "mean_traversed": {t: result.mean_traversed(t)
                           for t in ("grass", "dirt", "lava")},
    })
    print(f"accuracy {result.accuracy:.4f} over {len(bank.maps)} maps "
          f"-> {acc_path}")
    return report, bank.preset, [*outputs, acc_path]


# -- parser ------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command line, built once per process: parsing
    fills a new namespace and leaves the parser as it was."""
    parser = argparse.ArgumentParser(
        prog="selfreward",
        description="Interpretable self-reward controllers: fish, auction, lavaland.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="scenario", required=True)

    fish = sub.add_parser("fish1d", help="1-D foraging fish").add_subparsers(
        dest="command", required=True)
    run = fish.add_parser("run", help="run an episode and write the trace")
    run.add_argument("--steps", type=_at_least(0), default=10000)
    run.add_argument("--seed", type=_seed, default=0)
    run.add_argument("--trained", help="parameter JSON from `fish1d train`")
    run.add_argument("--out", required=True)
    run.add_argument("--config", help="JSON file overriding options")
    run.set_defaults(func=cmd_fish_run, _parser=run)
    train = fish.add_parser("train", help="self-reward training")
    train.add_argument("--iters", type=_at_least(0), default=12000)
    train.add_argument("--seed", type=_seed, default=0)
    train.add_argument("--out", required=True, help="parameter JSON to write")
    train.add_argument("--config", help="JSON file overriding options")
    train.set_defaults(func=cmd_fish_train, _parser=train)

    auction = sub.add_parser("auction", help="fish-sale auction").add_subparsers(
        dest="command", required=True)
    arun = auction.add_parser("run", help="run the supply-grid experiment")
    arun.add_argument("--r-grid", type=_parse_r_grid, default="0.0625:0.5:8",
                      help="item-supply grid as start:stop:count")
    arun.add_argument("--trials", type=_at_least(1), default=10)
    arun.add_argument("--optim", action="store_true",
                      help="let agents fine-tune during the first rounds")
    arun.add_argument("--malicious-frac", type=_fraction, default=0.0)
    arun.add_argument("--seed", type=_seed, default=0)
    arun.add_argument("--out", required=True)
    arun.add_argument("--config", help="JSON file overriding options")
    arun.set_defaults(func=cmd_auction_run, _parser=arun)

    lava = sub.add_parser("lavaland", help="2-D tile-world navigation").add_subparsers(
        dest="command", required=True)
    gen = lava.add_parser("gen", help="generate a map bank")
    gen.add_argument("--count", type=_at_least(1), default=4096)
    gen.add_argument("--preset", required=True,
                     help="map preset; an unknown name is refused with the list of presets")
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
    leval.add_argument("--jobs", type=int, choices=[1], default=1,
                       help="kept so existing command lines parse: evaluation is batched")
    leval.set_defaults(func=cmd_lava_eval)

    return parser


def dispatch(argv=None) -> int:
    """Run one command line; return its exit code.  A command returns
    (out_dir, preset, outputs) for the manifest written here, or None."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    started = time.time()
    try:
        _apply_config_file(args)
        report = args.func(args)
        if report is not None:
            out_dir, preset, outputs = report
            config = {k: v for k, v in sorted(vars(args).items())
                      if k not in ("func", "config") and not k.startswith("_")}
            RunManifest(args.scenario, preset, args.seed, config,
                        [str(p.relative_to(out_dir)) for p in outputs],
                        round(time.time() - started, 3), argv=argv).write(out_dir)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    return 0


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
