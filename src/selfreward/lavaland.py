"""2-D tile-world navigation with imagination rollouts and self-reward.

A robot walks an H x W map of colored tiles toward a yellow target tile.
Its network reads the raw RGB map through per-tile-type match detectors
(approximate binary arrays): for each known color t,
``w_t = sel(mean((x - t)^2 across channels))`` is a grid that is ~1 where
the map shows that tile and ~0 elsewhere.  Colors no detector recognizes
light up ``w_unknown`` instead; lava is exactly such a color, so the robot
can avoid what its designer forgot to model.

Each tile type also owns a DeconvSeq: five 3x3 transposed convolutions
(each followed by tanh and max-abs normalization) that smear the
detector's evidence into a smooth score field.  Kernels start with center
1 and sides 0.1, so each tile mostly scores itself and bleeds a little
into its neighborhood.  Grass and dirt detectors are first multiplied by
the favourability gradient (w_target - w_self), which tilts their fields
so tiles near the target score higher than tiles near the start.  The
per-type fields, scaled by hand-picked preferences (target strongly
positive, grass negative, dirt mildly positive), sum into the score grid
the planner walks on.

Planning is stochastic hill climbing: look at the four neighbors, take the
best of the top two with 9:1 odds, mark departed tiles strongly negative
to prevent oscillation, stop at the target or after 36 steps.  The robot
imagines ``n_plans`` such rollouts, executes the best-scoring one, and
trains its 180 kernel weights by pushing every imagined plan's normalized
score toward 1.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .autodiff import (
    DiffTensor,
    SgdSettings,
    as_tensor,
    assign,
    backward,
    concat,
    gather,
    max_abs,
    mean,
    no_grad,
    parameter,
    scatter_constant,
    sgd_step,
    square,
    tanh,
)
from .layers import deconv3x3, selective_core

PALETTE = {
    "target": np.array([1.0, 1.0, 0.0]),
    "grass": np.array([0.0, 128.0, 0.0]) / 255.0,
    "dirt": np.array([139.0, 69.0, 19.0]) / 255.0,
    "lava": np.array([1.0, 0.0, 0.0]),
}
KNOWN_TILES = ("target", "grass", "dirt")  # what the designer modelled
SCORED_TILES = ("target", "self", "grass", "dirt")
TILE_CHARS = {"grass": "g", "dirt": "d", "lava": "l", "target": "y"}
CHAR_TILES = {c: t for t, c in TILE_CHARS.items()}

N_LAYERS = 5
KERNEL_INIT_CENTER = 1.0
KERNEL_INIT_SIDE = 0.1


@dataclass
class LavaConfig:
    # 12x12 keeps the worst-case walk well inside the 36-step budget while
    # leaving enough hard maps that the untrained solve rate sits near the
    # reference range instead of saturating
    height: int = 12
    width: int = 12
    grass_frac: float = 0.3
    lava_frac: float = 0.0
    p_target: float = 2.0
    p_self: float = 1.0
    p_grass: float = -0.8
    p_dirt: float = 0.2
    unknown_avoidance: float = 2.0
    tau_recog: float = 1e-4
    selective_eps: float = 0.01
    max_steps: int = 36
    n_plans: int = 4
    explore_odds: float = 0.9
    anti_return: float = -0.9  # sign configurable; negative repels returns
    learning_rate: float = 1e-4

    @property
    def preferences(self) -> dict:
        return {"target": self.p_target, "self": self.p_self,
                "grass": self.p_grass, "dirt": self.p_dirt}


PRESETS = {
    "project-a": LavaConfig(),
    "compare-a": LavaConfig(p_target=10.0),
    "lava-a": LavaConfig(lava_frac=0.1, p_target=10.0, unknown_avoidance=2.0),
    "lava-noav-a": LavaConfig(lava_frac=0.1, p_target=10.0, unknown_avoidance=0.0),
}


# -- maps -------------------------------------------------------------------------


@dataclass
class TileMap:
    """One episode's map: terrain characters, spawn, derived RGB image."""

    tiles: list[str]  # rows of {g, d, l, y}; exactly one y
    spawn: tuple

    @property
    def height(self) -> int:
        return len(self.tiles)

    @property
    def width(self) -> int:
        return len(self.tiles[0])

    @property
    def target(self) -> tuple:
        for r, row in enumerate(self.tiles):
            c = row.find("y")
            if c >= 0:
                return (r, c)
        raise ValueError("map has no target tile")

    def rgb(self) -> np.ndarray:
        img = np.zeros((self.height, self.width, 3))
        for r, row in enumerate(self.tiles):
            for c, ch in enumerate(row):
                img[r, c] = PALETTE[CHAR_TILES[ch]]
        return img

    def terrain_at(self, pos: tuple) -> str:
        return CHAR_TILES[self.tiles[pos[0]][pos[1]]]


def generate_map(rng: np.random.Generator, config: LavaConfig) -> TileMap:
    h, w = config.height, config.width
    if h * w < 4:
        raise ValueError("map too small to place spawn and target")
    while True:
        u = rng.random((h, w))
        grid = np.where(u < config.lava_frac, "l",
                        np.where(u < config.lava_frac + config.grass_frac, "g", "d"))
        walkable = [(r, c) for r in range(h) for c in range(w) if grid[r, c] != "l"]
        if len(walkable) < 2:
            continue  # essentially impossible at 10% lava, but stay safe
        pick = rng.choice(len(walkable), size=2, replace=False)
        spawn, target = walkable[pick[0]], walkable[pick[1]]
        grid[target] = "y"
        rows = ["".join(grid[r]) for r in range(h)]
        return TileMap(tiles=rows, spawn=spawn)


@dataclass
class MapBank:
    preset: str
    seed: int
    maps: list[TileMap]


def generate_maps(count: int, preset: str, seed: int) -> MapBank:
    """Deterministic bank of maps for one preset."""
    if count < 1:
        raise ValueError("count must be >= 1")
    if preset not in PRESETS:
        raise ValueError(f"unknown preset {preset!r}; choose from {sorted(PRESETS)}")
    config = PRESETS[preset]
    maps = []
    for i in range(count):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(i,)))
        maps.append(generate_map(rng, config))
    return MapBank(preset=preset, seed=seed, maps=maps)


def save_bank(path, bank: MapBank) -> None:
    doc = {
        "format_version": 1,
        "preset": bank.preset,
        "seed": bank.seed,
        "maps": [{"tiles": m.tiles, "spawn": list(m.spawn)} for m in bank.maps],
    }
    Path(path).write_text(json.dumps(doc, indent=1, sort_keys=True), encoding="utf-8")


def load_bank(path) -> MapBank:
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    if doc.get("format_version") != 1:
        raise ValueError(f"{path}: unsupported bank version {doc.get('format_version')!r}")
    maps = [TileMap(tiles=m["tiles"], spawn=tuple(m["spawn"])) for m in doc["maps"]]
    return MapBank(preset=doc["preset"], seed=doc["seed"], maps=maps)


# -- detectors ---------------------------------------------------------------------


def get_aba(x_attn: np.ndarray, tile_rgb: np.ndarray,
            eps: float = 0.01) -> np.ndarray:
    """Approximate binary array: match detector on mean squared color error."""
    residual = np.mean((x_attn - tile_rgb) ** 2, axis=2)
    return selective_core(residual, eps)


def unknown_mask(detectors: dict, tau_recog: float = 1e-4) -> np.ndarray:
    """1.0 where no named detector recognizes the tile, else 0.0."""
    total = sum(detectors[t] for t in KNOWN_TILES)
    return ((1.0 - total) > tau_recog).astype(float)


# -- trainable scorer ----------------------------------------------------------------


class Robot2NNParams:
    """Four DeconvSeqs of five 3x3 kernels: 180 trainable values."""

    def __init__(self):
        init = np.full((3, 3), KERNEL_INIT_SIDE)
        init[1, 1] = KERNEL_INIT_CENTER
        self.kernels = {t: [parameter(init.copy()) for _ in range(N_LAYERS)]
                        for t in SCORED_TILES}

    def trainable(self) -> list[DiffTensor]:
        return [k for seq in self.kernels.values() for k in seq]

    def count(self) -> int:
        return sum(k.values.size for k in self.trainable())

    def export(self) -> dict:
        return {f"{t}/{i}": seq[i].values.copy()
                for t, seq in self.kernels.items() for i in range(N_LAYERS)}

    def load(self, arrays: dict) -> None:
        for t, seq in self.kernels.items():
            for i in range(N_LAYERS):
                assign(seq[i], arrays[f"{t}/{i}"])


def deconv_seq(kernels: list[DiffTensor], grid: DiffTensor) -> DiffTensor:
    """Five rounds of transposed convolution, each followed by tanh.

    The tanh bounds every field to (-1, 1), so per-type scores stay
    comparable in relative terms and a near-zero input yields a near-zero
    field instead of being rescaled into full-strength noise.
    """
    x = grid
    for k in kernels:
        x = tanh(deconv3x3(x, k))
    return x


@dataclass
class ScoreField:
    """Everything the planner needs for one map."""

    detectors: dict          # named numpy grids incl. "self"
    w_unknown: np.ndarray
    v1: dict                 # per-type DiffTensor fields
    v_sigma: DiffTensor
    spawn: tuple
    target: tuple


def build_fields(tile_map: TileMap, params: Robot2NNParams,
                 config: LavaConfig) -> ScoreField:
    """Detector grids, per-type score fields, and their sum."""
    x_attn = tile_map.rgb()
    detectors = {t: get_aba(x_attn, PALETTE[t], config.selective_eps)
                 for t in KNOWN_TILES}
    w_self = np.zeros(x_attn.shape[:2])
    w_self[tile_map.spawn] = 1.0
    detectors["self"] = w_self
    w_unk = unknown_mask(detectors, config.tau_recog)

    gradient_field = detectors["target"] - w_self
    prefs = config.preferences
    v1 = {}
    for t in SCORED_TILES:
        base = detectors[t] if t in ("target", "self") else gradient_field * detectors[t]
        v1[t] = deconv_seq(params.kernels[t], as_tensor(base)) * prefs[t]
    v_sigma = v1["target"] + v1["self"] + v1["grass"] + v1["dirt"]
    return ScoreField(detectors=detectors, w_unknown=w_unk, v1=v1,
                      v_sigma=v_sigma, spawn=tile_map.spawn, target=tile_map.target)


# -- planning -----------------------------------------------------------------------


@dataclass
class PlanRecord:
    trajectory: list
    v_plan: DiffTensor
    reached: bool

    @property
    def steps(self) -> int:
        return len(self.trajectory)

    @property
    def score(self) -> float:
        return self.v_plan.item()


def _neighbors(pos: tuple, h: int, w: int) -> list[tuple]:
    r, c = pos
    cand = ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1))  # up, down, left, right
    return [(rr, cc) for rr, cc in cand if 0 <= rr < h and 0 <= cc < w]


def make_plan(fields: ScoreField, rng: np.random.Generator,
              config: LavaConfig) -> PlanRecord:
    """One stochastic rollout over a private copy of the score grid.

    The target and origin tiles are pinned to +/- the grid's peak value,
    unrecognized tiles are blended to a penalty of -u_a times the peak, and
    each departed tile is marked with the anti-return value so the walk
    cannot oscillate.  The plan score is the mean of the values the walk
    saw when stepping onto each chosen tile.
    """
    h, w = fields.w_unknown.shape
    if h < 2 and w < 2:
        raise ValueError("map too small to plan on")
    v0 = max_abs(fields.v_sigma)  # frozen: no gradient through the peak
    grid = scatter_constant(fields.v_sigma, [fields.target], v0)
    grid = scatter_constant(grid, [fields.spawn], -v0)
    mask = fields.w_unknown
    # zero avoidance disables the transform entirely: unrecognized tiles then
    # keep their spillover values and read as ordinary ground
    if config.unknown_avoidance > 0 and mask.any():
        grid = grid * as_tensor(1.0 - mask) + as_tensor(-config.unknown_avoidance * v0 * mask)

    pos = fields.spawn
    trajectory: list[tuple] = []
    visited_values: list[DiffTensor] = []
    reached = False
    for _ in range(config.max_steps):
        options = _neighbors(pos, h, w)
        vals = np.array([grid.values[p] for p in options])
        order = np.argsort(-vals, kind="stable")
        if len(order) >= 2 and rng.random() >= config.explore_odds:
            chosen = options[order[1]]
        else:
            chosen = options[order[0]]
        visited_values.append(gather(grid, [chosen]))
        trajectory.append(chosen)
        if chosen == fields.target:
            reached = True
            break
        # the peak is re-read from the mutated grid, still gradient-free
        grid = scatter_constant(grid, [pos], config.anti_return * max_abs(grid))
        pos = chosen
    v_plan = mean(concat(visited_values))
    return PlanRecord(trajectory=trajectory, v_plan=v_plan, reached=reached)


def imagine_and_act(fields: ScoreField, rng: np.random.Generator,
                    config: LavaConfig) -> tuple[PlanRecord, list[PlanRecord]]:
    """Roll out n_plans imaginary trajectories; execute the best-scoring."""
    plans = [make_plan(fields, rng, config) for _ in range(config.n_plans)]
    executed = plans[int(np.argmax([p.score for p in plans]))]
    return executed, plans


def plan_quality_loss(plans: list[PlanRecord]) -> DiffTensor:
    """Sum of (1 - tanh(score / peak))^2 over plans; peak frozen."""
    peak = max(abs(p.score) for p in plans)
    scale = 1.0 / peak if peak > 0 else 1.0
    loss = None
    for p in plans:
        term = square(1.0 - tanh(p.v_plan * scale))
        loss = term if loss is None else loss + term
    return loss


def srd_train_lavaland(params: Robot2NNParams, bank: MapBank,
                       config: LavaConfig, seed: int = 0) -> list[float]:
    """One epoch of self-reward training over the bank; returns map losses."""
    settings = SgdSettings(config.learning_rate)
    losses = []
    for i, tile_map in enumerate(bank.maps):
        rng = np.random.default_rng(np.random.SeedSequence(
            entropy=seed, spawn_key=(2, i)))
        fields = build_fields(tile_map, params, config)
        _, plans = imagine_and_act(fields, rng, config)
        loss = plan_quality_loss(plans)
        backward(loss)
        sgd_step(params.trainable(), settings)
        losses.append(loss.item())
    return losses


# -- evaluation ----------------------------------------------------------------------


@dataclass
class EpisodeResult:
    reached: bool
    steps: int
    traversed: dict


@dataclass
class EvalResult:
    accuracy: float
    episodes: list[EpisodeResult]

    def mean_traversed(self, tile: str) -> float:
        return float(np.mean([e.traversed[tile] for e in self.episodes]))

    def traversal_histogram(self, tile: str) -> dict:
        counts = {}
        for e in self.episodes:
            counts[e.traversed[tile]] = counts.get(e.traversed[tile], 0) + 1
        return dict(sorted(counts.items()))


def _evaluate_one(tile_map: TileMap, params: Robot2NNParams,
                  config: LavaConfig, rng: np.random.Generator) -> EpisodeResult:
    with no_grad():
        fields = build_fields(tile_map, params, config)
        executed, _ = imagine_and_act(fields, rng, config)
    traversed = {"grass": 0, "dirt": 0, "lava": 0, "target": 0}
    for pos in executed.trajectory:
        traversed[tile_map.terrain_at(pos)] += 1
    return EpisodeResult(reached=executed.reached, steps=executed.steps,
                         traversed=traversed)


def _evaluate_chunk(args) -> list[EpisodeResult]:
    maps, arrays, config, seed, offset = args
    params = Robot2NNParams()
    if arrays is not None:
        params.load(arrays)
    out = []
    for j, tile_map in enumerate(maps):
        rng = np.random.default_rng(np.random.SeedSequence(
            entropy=seed, spawn_key=(3, offset + j)))
        out.append(_evaluate_one(tile_map, params, config, rng))
    return out


def evaluate(params: Robot2NNParams, bank: MapBank, config: LavaConfig,
             seed: int = 0, jobs: int = 1) -> EvalResult:
    """Run every map in the bank; accuracy is the fraction reaching target."""
    if not bank.maps:
        raise ValueError("evaluation bank is empty")
    arrays = params.export()
    if jobs <= 1:
        episodes = _evaluate_chunk((bank.maps, arrays, config, seed, 0))
    else:
        import multiprocessing as mp

        chunk = (len(bank.maps) + jobs - 1) // jobs
        tasks = [(bank.maps[i:i + chunk], arrays, config, seed, i)
                 for i in range(0, len(bank.maps), chunk)]
        with mp.Pool(jobs) as pool:
            episodes = [e for part in pool.map(_evaluate_chunk, tasks) for e in part]
    accuracy = float(np.mean([e.reached for e in episodes]))
    return EvalResult(accuracy=accuracy, episodes=episodes)


def inspect_kernels(params: Robot2NNParams) -> list[dict]:
    """All 180 kernel values plus a per-kernel center-dominance flag."""
    rows = []
    for t in SCORED_TILES:
        for layer, k in enumerate(params.kernels[t]):
            dominant = bool(abs(k.values[1, 1]) >= np.max(np.abs(k.values)))
            for r in range(3):
                for c in range(3):
                    rows.append({
                        "seq": t, "layer": layer, "row": r, "col": c,
                        "value": float(k.values[r, c]),
                        "center_dominant": dominant,
                    })
    return rows
