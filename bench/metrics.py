"""Names of every metric the benchmark reports, and what each should move.

``BENCHMARK.json`` lists the same names; ``test_bench.py`` checks that the
two agree.  The end-to-end names are shared by all workloads, so every run
emits all of them; ``ALIASES`` gives the scenario-specific name each one
stands for on each workload.
"""

from __future__ import annotations

WORKLOADS = ("fish", "lavaland", "auction")

# name, unit, better, bound (share of the parent's median it may worsen by)
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("train_units_per_s", "1/s", "higher", 0.25),
    ("eval_units_per_s", "1/s", "higher", 0.25),
    ("outcome", "fraction", "higher", 0.15),
]

ALIASES = {
    "fish": {
        "train_units_per_s": "fish.train_steps_per_s",
        "eval_units_per_s": "fish.run_steps_per_s",
        "outcome": "fish.mean_energy",
    },
    "lavaland": {
        "train_units_per_s": "lava.train_maps_per_s",
        "eval_units_per_s": "lava.eval_maps_per_s",
        "outcome": "lava.accuracy",
    },
    "auction": {
        "train_units_per_s": "auction.optim_auctions_per_s",
        "eval_units_per_s": "auction.nooptim_auctions_per_s",
        "outcome": "auction.purchase_rate",
    },
}

ALL = " ".join(WORKLOADS)

# Functions wrapped in spans: (module, qualified name, end-to-end metric the
# function's cost should move, workloads it runs on).  Each yields
# ``<module>.<qualname>.calls`` and ``<module>.<qualname>.self_us``, both per
# unit of work.  ``FsnModel.__init__`` is reported as ``auction.FsnModel``.
SPANNED = [
    ("autodiff", "backward", "train_units_per_s", ALL),
    ("autodiff", "sgd_step", "train_units_per_s", ALL),
    ("layers", "conv1d", "train_units_per_s", "fish"),
    ("layers", "fully_connected", "train_units_per_s", "fish auction"),
    ("layers", "deconv3x3", "train_units_per_s eval_units_per_s", "lavaland"),
    ("layers", "selective_activation", "train_units_per_s", "fish"),
    ("layers", "threshold_activation", "train_units_per_s", "fish auction"),
    ("layers", "softmax", "train_units_per_s", "fish"),
    ("layers", "cross_entropy_self", "train_units_per_s", "fish auction"),
    ("fish1d", "FishNN.sense", "train_units_per_s", "fish"),
    ("fish1d", "FishNN.decide", "train_units_per_s", "fish"),
    ("fish1d", "pfc_judge", "train_units_per_s", "fish"),
    ("fish1d", "DecisionMemory.z", "train_units_per_s", "fish"),
    ("fish1d", "world_step", "train_units_per_s eval_units_per_s", "fish"),
    ("fish1d", "FishNN.sense_values", "eval_units_per_s", "fish"),
    ("fish1d", "FishNN.decide_values", "eval_units_per_s", "fish"),
    ("fish1d", "FishPFC.judge_values", "eval_units_per_s", "fish"),
    ("auction", "srd_finetune", "train_units_per_s", "auction"),
    ("auction", "FsnModel.__init__", "train_units_per_s eval_units_per_s", "auction"),
    ("auction", "screen_model", "train_units_per_s eval_units_per_s", "auction"),
    ("auction", "make_offer_variants", "train_units_per_s eval_units_per_s", "auction"),
    ("auction", "FsnModel.es_forward_values", "train_units_per_s eval_units_per_s",
     "auction"),
    ("auction", "server_step", "train_units_per_s eval_units_per_s", "auction"),
    ("lavaland", "build_fields", "train_units_per_s eval_units_per_s", "lavaland"),
    ("lavaland", "make_plan", "train_units_per_s eval_units_per_s", "lavaland"),
    ("lavaland", "plan_quality_loss", "train_units_per_s", "lavaland"),
    ("lavaland", "generate_maps", "setup_s", "lavaland"),
    ("lavaland", "load_bank", "setup_s train_units_per_s eval_units_per_s", "lavaland"),
    ("params", "save_params", "train_units_per_s", "fish lavaland"),
    ("params", "load_params", "eval_units_per_s", "fish lavaland"),
    ("reporting", "write_csv", "eval_units_per_s train_units_per_s", ALL),
    ("reporting", "emit_plot", "eval_units_per_s train_units_per_s", ALL),
    ("reporting", "RunManifest.write", "eval_units_per_s train_units_per_s", ALL),
]

# Counters and ratios recorded at the same boundaries:
# name, unit, better, end-to-end metric it should move, workloads.
COUNTED = [
    ("autodiff.record.graph_ops", "count/unit", "lower", "train_units_per_s", ALL),
    ("autodiff.record.nograd_ops", "count/unit", "lower", "eval_units_per_s", "lavaland"),
    ("auction.srd_finetune.active_frac", "ratio", "lower", "train_units_per_s", "auction"),
    ("auction.rounds_mean", "count", "lower", "train_units_per_s eval_units_per_s",
     "auction"),
    ("lavaland.make_plan.steps_mean", "count", "lower",
     "train_units_per_s eval_units_per_s", "lavaland"),
    ("lavaland.make_plan.reached_frac", "ratio", "higher",
     "train_units_per_s eval_units_per_s", "lavaland"),
    ("cli.dispatch.self_us", "us/unit", "lower", "train_units_per_s eval_units_per_s",
     ALL),
    ("trace.slowdown", "ratio", "lower", "(none: tracing overhead)", ALL),
]

# Ops timed on their own at the shapes the scenarios use (micro tier), with
# the end-to-end metric and workload each should move.
MICRO = [
    ("conv1d", "train_units_per_s", "fish"),
    ("fully_connected", "train_units_per_s", "fish auction"),
    ("deconv3x3", "train_units_per_s eval_units_per_s", "lavaland"),
    ("selective_activation", "train_units_per_s", "fish"),
    ("threshold_activation", "train_units_per_s", "fish auction"),
    ("softmax", "train_units_per_s", "fish"),
    ("cross_entropy_self", "train_units_per_s", "fish auction"),
]


def span_name(module: str, qualname: str) -> str:
    return f"{module}.{qualname.removesuffix('.__init__')}"


def per_layer() -> list[dict]:
    """Every per-layer metric with its unit, direction and expected effect."""
    rows = []
    for module, qualname, moves, on in SPANNED:
        name = span_name(module, qualname)
        rows.append(dict(name=f"{name}.calls", unit="count/unit", better="lower",
                         moves=moves, workloads=on))
        rows.append(dict(name=f"{name}.self_us", unit="us/unit", better="lower",
                         moves=moves, workloads=on))
    for name, unit, better, moves, on in COUNTED:
        rows.append(dict(name=name, unit=unit, better=better, moves=moves, workloads=on))
    for op, moves, on in MICRO:
        for kind in ("fwd_us", "fwdbwd_us"):
            rows.append(dict(name=f"layers.{op}.{kind}", unit="us", better="lower",
                             moves=moves, workloads=on))
    return rows


def benchmark_entries() -> tuple[list[dict], list[dict]]:
    """The ``end_to_end`` and ``per_layer`` lists as BENCHMARK.json holds them."""
    e2e = [dict(name=n, unit=u, better=b, bound=bound) for n, u, b, bound in END_TO_END]
    layers = [dict(name=r["name"], unit=r["unit"], better=r["better"]) for r in per_layer()]
    return e2e, layers
