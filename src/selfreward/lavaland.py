"""2-D tile-world navigation with imagination rollouts and self-reward.

A robot walks an H x W map of colored tiles toward a yellow target tile.
Its network reads the raw RGB map through per-tile-type match detectors
(approximate binary arrays): for each known color t,
``w_t = sel(mean((x - t)^2 across channels))`` is a grid that is ~1 where
the map shows that tile and ~0 elsewhere.  Colors no detector recognizes
light up ``w_unknown`` instead; lava is exactly such a color, so the robot
can avoid what its designer forgot to model.

Each tile type also owns a DeconvSeq: five 3x3 transposed convolutions,
each followed by tanh, that smear the detector's evidence into a smooth
score field.  Kernels start with center 1 and sides 0.1, so each tile
mostly scores itself and bleeds a little into its neighborhood.  Grass and
dirt detectors are first multiplied by the favourability gradient
(w_target - w_self), which tilts their fields so tiles near the target
score higher than tiles near the start.  The per-type fields, scaled by
hand-picked preferences (target strongly positive, grass negative, dirt
mildly positive), sum into the score grid the planner walks on.

Planning is stochastic hill climbing: look at the four neighbors, take the
best of the top two with 9:1 odds, mark departed tiles strongly negative
to prevent oscillation, stop at the target or after 36 steps.  The robot
imagines ``n_plans`` such rollouts, executes the best-scoring one, and
trains its 180 kernel weights by pushing every imagined plan's normalized
score toward 1.

A step that has a runner-up takes it when a uniform from the map's stream
reaches explore_odds; other steps draw nothing.  A map's plans read one
stream in turn, plan k from where plan k-1 stopped.  So the whole stream can
be drawn up front in one call, n_plans * max_steps uniforms (as many as the
plans can use; one vector draw equals as many scalar draws), and read
through a cursor that moves only on steps with a runner-up
(``_explore_draws``).  Training and evaluation both do so.

Training takes the gradient in closed form, with no recorded graph.
``deconv_seq`` runs the four DeconvSeqs stacked and keeps every layer's
tanh output.  A walk reads plain floats and notes which steps landed on a
*live* tile, one whose value is still v_sigma's: not pinned, not blended
away as unknown, not departed.  A plan's score is the mean of its steps,
so its derivative with respect to v_sigma is 1/steps on those tiles and
zero elsewhere.  ``kernel_gradient`` carries the loss derivative from
there through the preferences and back through the five tanh-deconv layers
to all 180 kernel values at once.  Every float operation comes in the order
``autodiff.backward`` takes on the same model written as a graph (the
tests keep that graph as the reference), so the trained kernels equal it
bit for bit.  Map i's fields read the kernels map i-1 left, so training
runs the maps one after another, and does each piece of per-map work once:
the kernel-free half of the fields (``field_inputs``) once per block of
same-shape maps, and per map only the kernel half (``_map_fields``), one
plan start (``_plan_start``: v0, the pinned and blended grid, the live
flags and the starting peak) that every plan copies, and one stream draw.

Evaluation runs the bank's maps in lockstep.  Maps are independent (map i
imagines from its own stream), so ``evaluate`` builds fields for a few maps
at once and walks plan k of a whole batch of same-shape maps at once, paying
numpy's call overhead once per step for the batch instead of once per map.
A map's self grid is the one-hot grid at its spawn and evaluation's kernels
are fixed, so a batch builds each distinct spawn cell's self field once
(``_self_fields``) and runs ``deconv_seq`` per map only on the target, grass
and dirt grids, reading only its last layer (``_eval_v_sigma``).  That is
exact: the self field is the same ``deconv_seq`` on the same grid and
kernels, each grid of a ``deconv_seq`` batch takes its own float
operations, and ``combine_fields`` sums the four fields in ``SCORED_TILES``
order as ``build_fields`` does, so every map's v_sigma equals
``build_fields``' bit for bit.  A bank of 512 12x12 maps holds about 140
distinct spawn cells.  Each map reads its up-front stream through its own
cursor, and each step repeats ``_walk``'s float operations in its order.
The episodes come back as bank-order arrays (``EvalResult``: reached,
steps, score and the tiles of each type traversed), each batch written in
at its maps' places, and every map's entries equal the map-by-map result.
``_walk`` is the one per-map walk: ``make_plan`` runs it for one plan,
drawing one scalar per step that has a runner-up, and ``imagine_and_act``
(training's and the tests' path) runs it for all of a map's plans from one
draw.  Both walks read their neighbors from ``_grid_tables``.

The maps themselves, their generation and the bank file live in
``lavamaps``.  Every map has streams of its own under the run's seed: map i
of a bank is generated from ``SeedSequence(seed, spawn_key=(i,))`` (see
``lavamaps``), and imagines from spawn key (2, i) in training and (3, i) in
evaluation.  Each bank, training block and evaluation batch seeds all of its
maps' streams in one ``streams.rngs`` call, numpy's seeding hash run over
every key at once, and builds each map's generator only as the map comes up.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from . import streams
# Unused here since lavaland left the engine; bench/test_bench.py still checks
# that the tracer rebinds lavaland.backward.  Drop it with that check.
from .autodiff import backward  # noqa: F401
from .lavamaps import (PALETTE, PALETTE_RGB, _CHAR_CODES, LavaConfig, MapBank, TileMap,
                       palette_indices)
# bench/metrics.py spans lavaland.generate_maps and lavaland.load_bank by name
from .lavamaps import generate_maps, load_bank  # noqa: F401
from .neurons import ShapeError, deconv_shifts, selective_core

KNOWN_TILES = ("target", "grass", "dirt")  # what the designer modelled
SCORED_TILES = ("target", "self", "grass", "dirt")

N_LAYERS = 5
KERNEL_INIT_CENTER = 1.0
KERNEL_INIT_SIDE = 0.1


# -- detectors ---------------------------------------------------------------------


def get_aba(x_attn: np.ndarray, tile_rgb: np.ndarray,
            eps: float = 0.01) -> np.ndarray:
    """Approximate binary array: match detector on mean squared color error."""
    residual = np.mean((x_attn - tile_rgb) ** 2, axis=2)
    return selective_core(residual, eps)


@functools.lru_cache(maxsize=8)
def _palette_responses(eps: float) -> np.ndarray:
    """Response of each KNOWN_TILES detector (rows) to each PALETTE color.

    Every pixel of a map shows one palette color and get_aba works pixel by
    pixel, so indexing a row by a map's ``palette_indices`` gives get_aba's
    grid on the map's image exactly.  Read-only: the cache shares it.
    """
    responses = np.stack([get_aba(PALETTE_RGB[None], PALETTE[t], eps)[0]
                          for t in KNOWN_TILES])
    responses.flags.writeable = False
    return responses


def unknown_mask(detectors: dict, tau_recog: float = 1e-4) -> np.ndarray:
    """1.0 where no named detector recognizes the tile, else 0.0."""
    total = sum(detectors[t] for t in KNOWN_TILES)
    return ((1.0 - total) > tau_recog).astype(float)


# -- trainable scorer ----------------------------------------------------------------


class Robot2NNParams:
    """Four DeconvSeqs of five 3x3 kernels: 180 trainable values.

    ``kernels`` is one (4, 5, 3, 3) array, indexed by SCORED_TILES position,
    then layer.  Updates rebind it to a new array, so fields built earlier
    keep the kernels they were built with.
    """

    def __init__(self):
        init = np.full((3, 3), KERNEL_INIT_SIDE)
        init[1, 1] = KERNEL_INIT_CENTER
        self.kernels = np.tile(init, (len(SCORED_TILES), N_LAYERS, 1, 1))

    def export(self) -> dict:
        return {f"{t}/{i}": self.kernels[j, i].copy()
                for j, t in enumerate(SCORED_TILES) for i in range(N_LAYERS)}

    def load(self, arrays: dict) -> None:
        kernels = np.empty_like(self.kernels)
        for j, t in enumerate(SCORED_TILES):
            for i in range(N_LAYERS):
                values = np.asarray(arrays[f"{t}/{i}"], dtype=np.float64)
                if values.shape != (3, 3):
                    raise ShapeError(f"kernel {t}/{i}: shape {values.shape} is not (3, 3)")
                kernels[j, i] = values
        self.kernels = kernels


@functools.lru_cache(maxsize=64)
def _deconv_taps(h: int, w: int, transpose: bool = False) -> np.ndarray:
    """Gather indices of a 3x3 transposed convolution of an h x w grid.

    The grid is a flat row of h*w + 1 cells whose last cell is a zero slot.
    Entry [s, c] indexes the input cell that ``neurons.deconv_shifts`` term s
    deposits into output cell c; with ``transpose`` it is the output cell
    that input cell c feeds through term s, as the kernel gradient reads it.
    A tap that falls outside the grid indexes the zero slot.  Read-only: the
    cache shares it.
    """
    taps = np.full((9, h * w), h * w)
    cells = np.arange(h * w).reshape(h, w)
    for s, (_, _, dst, src) in enumerate(deconv_shifts(h, w)):
        if transpose:
            taps[s].reshape(h, w)[src] = cells[dst]
        else:
            taps[s].reshape(h, w)[dst] = cells[src]
    taps.flags.writeable = False
    return taps


def _deconv_stack(grids_ext: np.ndarray, taps: np.ndarray, kernels: np.ndarray) -> np.ndarray:
    """Transposed 3x3 convolution of n flat grids with n kernels at once.

    ``grids_ext`` is (n, h*w + 1) with a zero last column, ``kernels`` is
    (n, 3, 3).  Every cell sums its nine terms in ``neurons.deconv_shifts``
    order, as ``layers.deconv3x3`` does; the terms of dropped deposits are
    exact zeros, so each sum rounds the same way.
    """
    terms = grids_ext.take(taps, axis=1)  # (n, 9, h*w): one index table serves every grid
    terms *= kernels.reshape(len(kernels), 9, 1)
    return np.add.reduce(terms, axis=1)  # over the 9 terms, one after another


def deconv_seq(kernels: np.ndarray, grids: np.ndarray) -> np.ndarray:
    """Stacked DeconvSeqs: grids (n, H, W) through kernels (n, 5, 3, 3).

    Each layer is ``layers.deconv3x3`` on every grid at once, followed by
    tanh.  The tanh bounds every field to (-1, 1), so per-type scores stay
    comparable in relative terms and a near-zero input yields a near-zero
    field instead of being rescaled into full-strength noise.

    Returns the (6, n, H*W + 1) activations: the input grids, then each
    layer's tanh output, flattened, each row followed by a zero slot.  The
    last is the field; the others feed ``kernel_gradient``.  Each grid's
    row takes the float operations of that grid alone, so a grid's field is
    the same in any batch.
    """
    n, h, w = grids.shape
    taps = _deconv_taps(h, w)
    activations = np.zeros((kernels.shape[1] + 1, n, h * w + 1))
    activations[0, :, :-1] = grids.reshape(n, -1)
    for layer in range(kernels.shape[1]):
        activations[layer + 1, :, :-1] = np.tanh(
            _deconv_stack(activations[layer], taps, kernels[:, layer]))
    return activations


@dataclass
class ScoreField:
    """Everything the planner and the kernel gradient need for one map."""

    detectors: dict          # named numpy grids incl. "self"
    w_unknown: np.ndarray
    kernels: np.ndarray      # the (4, 5, 3, 3) kernels the fields were built with
    activations: np.ndarray  # deconv_seq's output
    preferences: np.ndarray  # (4,) in SCORED_TILES order
    v1: dict                 # per-type fields, scaled by their preference
    v_sigma: np.ndarray
    spawn: tuple
    target: tuple


class FieldInputs(NamedTuple):
    """The kernel-free half of B same-shape maps' score fields."""

    tiles: np.ndarray        # (B, H, W) rows of PALETTE_RGB shown by each tile
    detectors: np.ndarray    # (3, B, H, W) in KNOWN_TILES order
    w_self: np.ndarray       # (B, H, W)
    w_unknown: np.ndarray    # (B, H, W)
    grids: np.ndarray        # (B, 4, H, W) the DeconvSeqs' inputs in SCORED_TILES order
    preferences: np.ndarray  # (4,) in SCORED_TILES order


def field_inputs(maps: list[TileMap], config: LavaConfig) -> FieldInputs:
    """Detector grids and DeconvSeq inputs of B same-shape maps at once.

    None of it reads the kernels, so training builds it once per block of
    maps while the kernels change from map to map.  Grass and dirt enter
    their DeconvSeqs tilted by the favourability gradient w_target - w_self.
    """
    tiles = palette_indices(maps)
    b, h, w = tiles.shape
    detectors = _palette_responses(config.selective_eps)[:, tiles]
    w_self = np.zeros((b, h, w))
    for j, m in enumerate(maps):
        w_self[(j, *m.spawn)] = 1.0
    w_unk = unknown_mask(dict(zip(KNOWN_TILES, detectors)), config.tau_recog)
    target, grass, dirt = detectors
    gradient_field = target - w_self
    grids = np.stack([target, w_self, gradient_field * grass, gradient_field * dirt], axis=1)
    prefs = np.array([config.preferences[t] for t in SCORED_TILES])
    return FieldInputs(tiles=tiles, detectors=detectors, w_self=w_self, w_unknown=w_unk,
                       grids=grids, preferences=prefs)


def combine_fields(fields: np.ndarray, preferences: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """B maps' (B, 4, N) per-type fields, in SCORED_TILES order, scaled by
    ``preferences``, and their (B, N) sum v_sigma, added in SCORED_TILES order."""
    v1 = fields * preferences[:, None]
    return v1, v1[:, 0] + v1[:, 1] + v1[:, 2] + v1[:, 3]


def _map_fields(inputs: FieldInputs, j: int, tile_map: TileMap,
                kernels: np.ndarray) -> ScoreField:
    """Map j of ``inputs`` (which is ``tile_map``) through the (4, 5, 3, 3)
    kernels: the kernel half of its fields, ``deconv_seq`` on its four grids,
    then ``combine_fields``."""
    activations = deconv_seq(kernels, inputs.grids[j])
    v1, v_sigma = combine_fields(activations[None, -1, :, :-1], inputs.preferences)
    shape = (tile_map.height, tile_map.width)
    detectors = dict(zip(KNOWN_TILES, inputs.detectors[:, j]))
    detectors["self"] = inputs.w_self[j]
    return ScoreField(detectors=detectors, w_unknown=inputs.w_unknown[j], kernels=kernels,
                      activations=activations, preferences=inputs.preferences,
                      v1=dict(zip(SCORED_TILES, v1[0].reshape(-1, *shape))),
                      v_sigma=v_sigma[0].reshape(shape),
                      spawn=tile_map.spawn, target=tile_map.target)


def build_fields(tile_map: TileMap, params: Robot2NNParams,
                 config: LavaConfig) -> ScoreField:
    """Detector grids, per-type score fields, and their sum."""
    return _map_fields(field_inputs([tile_map], config), 0, tile_map, params.kernels)


# -- planning -----------------------------------------------------------------------


@dataclass
class PlanRecord:
    """One imagined walk: the tiles it chose, its score and whether it arrived."""

    trajectory: list
    score: float
    reached: bool
    live_steps: list  # flat indices of the tiles that were live when stepped onto

    @property
    def steps(self) -> int:
        return len(self.trajectory)


@functools.lru_cache(maxsize=64)
def _grid_tables(h: int, w: int) -> tuple[tuple, tuple, np.ndarray, np.ndarray]:
    """Each cell's in-grid neighbors as flat indices, up, down, left, right.

    For ``_walk``: the (row, col) of every flat index, and each cell's
    neighbors as (first, others).  For ``_walk_lockstep``: an (h*w, 4) array
    padded with the sentinel index h*w, and whether each cell has a
    runner-up.  Read-only: the cache shares them.
    """
    coords = tuple((r, c) for r in range(h) for c in range(w))
    listing = [[rr * w + cc for rr, cc in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1))
                if 0 <= rr < h and 0 <= cc < w] for r, c in coords]
    table = np.array([cells + [h * w] * (4 - len(cells)) for cells in listing])
    runner_up = np.array([len(cells) > 1 for cells in listing])
    table.flags.writeable = runner_up.flags.writeable = False
    return coords, tuple((cells[0], tuple(cells[1:])) for cells in listing), table, runner_up


def _explore_draws(rng: np.random.Generator, config: LavaConfig,
                   size: int | None = None) -> bool | np.ndarray:
    """Whether a step that has a runner-up takes it instead of the best: a
    uniform that reaches explore_odds.

    ``size`` None draws one scalar and returns a bool, as a walk does on each
    such step.  A size draws that many uniforms in one call and returns their
    bools; one vector draw gives the same numbers as that many scalar draws.
    """
    return rng.random(size) >= config.explore_odds


class _PlanStart(NamedTuple):
    """What every plan of one map starts from; each plan walks on copies."""

    grid: list    # v_sigma, flat, with target and spawn pinned and unknown tiles blended
    live: list    # whether each tile still holds v_sigma's value
    spawn: int    # flat index
    target: int   # flat index
    v0: float     # max |v_sigma|, frozen: no gradient through the peak
    peak: float   # max |grid|
    shape: tuple


def _plan_start(fields: ScoreField, config: LavaConfig) -> _PlanStart:
    h, w = fields.w_unknown.shape
    if h < 2 and w < 2:
        raise ValueError("map too small to plan on")
    target = fields.target[0] * w + fields.target[1]
    spawn = fields.spawn[0] * w + fields.spawn[1]
    v0 = float(np.abs(fields.v_sigma).max())
    grid = fields.v_sigma.ravel().tolist()
    live = [True] * len(grid)
    grid[target], grid[spawn] = v0, -v0
    live[target] = live[spawn] = False
    # zero avoidance disables the transform entirely: unrecognized tiles then
    # keep their spillover values and read as ordinary ground
    peak = v0  # of the whole grid: v_sigma's entries lie within +/- v0
    if config.unknown_avoidance > 0 and fields.w_unknown.any():
        penalty = -config.unknown_avoidance * v0
        for i in np.flatnonzero(fields.w_unknown).tolist():
            grid[i] = penalty
            live[i] = False
        peak = max(peak, abs(penalty))
    return _PlanStart(grid=grid, live=live, spawn=spawn, target=target, v0=v0, peak=peak,
                      shape=(h, w))


def _walk(start: _PlanStart, explore: Iterator[bool], config: LavaConfig) -> PlanRecord:
    """One rollout from a map's plan start; see ``make_plan``.

    ``explore`` yields one bit (``_explore_draws``) on each step that has a
    runner-up, and only then, so a map's plans can read on through one
    iterator where the previous plan stopped.
    """
    coords, neighbors, _, _ = _grid_tables(*start.shape)
    grid, live = start.grid.copy(), start.live.copy()
    pos, target, v0, peak = start.spawn, start.target, start.v0, start.peak
    anti_return = config.anti_return
    trajectory: list[tuple] = []
    seen: list[float] = []
    live_steps: list[int] = []
    reached = False
    for _ in range(config.max_steps):
        # best and runner-up, ties to the earlier option (a stable sort)
        best, others = neighbors[pos]
        top, second = grid[best], None
        for j in others:
            value = grid[j]
            if value > top:
                best, second, top = j, best, value
            elif second is None or value > grid[second]:
                second = j
        if second is not None and next(explore):
            best, top = second, grid[second]
        seen.append(top)
        trajectory.append(coords[best])
        if live[best]:
            live_steps.append(best)
        if best == target:
            reached = True
            break
        # the peak is re-read from the marked grid, still gradient-free; it
        # can only fall when the departed tile held it and the target (never
        # departed, always at |v0|) does not
        departed = abs(grid[pos])
        mark = anti_return * peak
        grid[pos] = mark
        live[pos] = False
        if departed == peak != v0:
            peak = max(map(abs, grid))
        elif abs(mark) > peak:
            peak = abs(mark)
        pos = best
    score = float(np.array(seen).sum() / len(seen))
    return PlanRecord(trajectory=trajectory, score=score, reached=reached,
                      live_steps=live_steps)


def make_plan(fields: ScoreField, rng: np.random.Generator,
              config: LavaConfig) -> PlanRecord:
    """One stochastic rollout over a private copy of the score grid.

    The target and origin tiles are pinned to +/- the grid's peak value,
    unrecognized tiles are blended to a penalty of -u_a times the peak, and
    each departed tile is marked with the anti-return value so the walk
    cannot oscillate.  The plan score is the mean of the values the walk
    saw when stepping onto each chosen tile.  A step that has a runner-up
    draws one uniform from ``rng`` and takes the runner-up when it reaches
    explore_odds; other steps draw nothing.

    A tile is live while its value is still v_sigma's: not pinned, not
    blended away, not departed.  Only live steps pass gradient back to
    v_sigma, and a walk steps onto a live tile at most once (it departs it
    on the next step), so ``live_steps`` holds no index twice.
    """
    # iter(f, None) calls f on each next(): one scalar draw per bit read
    return _walk(_plan_start(fields, config), iter(lambda: _explore_draws(rng, config), None),
                 config)


def imagine_and_act(fields: ScoreField, rng: np.random.Generator,
                    config: LavaConfig) -> tuple[PlanRecord, list[PlanRecord]]:
    """Roll out n_plans imaginary trajectories; execute the best-scoring.

    The plans share one plan start, and the map's whole stream is drawn up
    front, n_plans * max_steps uniforms (as many as its plans can use).  The
    plans read it through one iterator, so each plan's walk equals
    ``make_plan`` on the stream where the plan before it stopped.
    """
    start = _plan_start(fields, config)
    explore = iter(_explore_draws(rng, config, config.n_plans * config.max_steps).tolist())
    plans = [_walk(start, explore, config) for _ in range(config.n_plans)]
    executed = plans[int(np.argmax([p.score for p in plans]))]
    return executed, plans


def plan_quality_loss(plans: list[PlanRecord]) -> tuple[float, np.ndarray]:
    """Sum of (1 - tanh(score / peak))^2 over plans; peak frozen.

    Returns the loss and its derivative with respect to each plan's score.
    """
    peak = max(abs(p.score) for p in plans)
    scale = 1.0 / peak if peak > 0 else 1.0
    th = np.tanh(np.array([p.score for p in plans]) * scale)
    miss = 1.0 - th
    terms = (miss * miss).tolist()
    loss = terms[0]
    for term in terms[1:]:
        loss += term
    return loss, -(2.0 * miss) * (1.0 - th * th) * scale


def kernel_gradient(fields: ScoreField, plans: list[PlanRecord],
                    d_scores: np.ndarray) -> np.ndarray:
    """dL/dK for all four DeconvSeqs at once, shape (4, 5, 3, 3).

    A plan's score is the mean of its steps, so each live step passes
    d_score / steps to its tile of v_sigma; pinned, blended and departed
    tiles pass nothing.  v_sigma's gradient reaches each type's field
    through its preference, then runs back through the five tanh-deconv
    layers.  Float operations come in the order ``autodiff.backward`` takes
    on the same model written as a graph, so the result equals it bit for
    bit.
    """
    h, w = fields.v_sigma.shape
    kernels, acts = fields.kernels, fields.activations
    n_types, n_layers = kernels.shape[:2]
    taps = _deconv_taps(h, w, transpose=True)
    g_sigma = [0.0] * (h * w)  # Python floats add as float64 does, in the same order
    for plan, d_score in zip(plans, d_scores.tolist()):
        share = d_score / plan.steps
        for i in plan.live_steps:
            g_sigma[i] += share
    grad = np.array(g_sigma) * fields.preferences[:, None]
    out = acts[1:, :, :-1]
    slopes = 1.0 - out * out  # tanh' of every layer
    # gradient at each layer's deconv output, then at its input
    d_out = np.zeros((n_layers, n_types, h * w + 1))
    for layer in reversed(range(n_layers)):
        np.multiply(grad, slopes[layer], out=d_out[layer, :, :-1])
        if layer:
            grad = _deconv_stack(d_out[layer], taps, kernels[:, layer])
    # every layer's kernel gradient, one shift at a time
    x = acts[:-1, :, :-1].reshape(n_layers, n_types, h, w)
    g = d_out[:, :, :-1].reshape(n_layers, n_types, h, w)
    d_kernels = np.empty((n_layers, n_types, 3, 3))
    for ky, kx, (dr, dc), (sr, sc) in deconv_shifts(h, w):
        d_kernels[:, :, ky, kx] = (x[:, :, sr, sc] * g[:, :, dr, dc]).reshape(
            n_layers, n_types, -1).sum(axis=2)
    return d_kernels.transpose(1, 0, 2, 3)


# Consecutive same-shape maps per kernel-free field build in training.  The
# inputs take about 12 KB per 12x12 map, so a block holds about 0.4 MB.
TRAIN_BLOCK = 32


def srd_train_lavaland(params: Robot2NNParams, bank: MapBank,
                       config: LavaConfig, seed: int = 0) -> list[float]:
    """One epoch of self-reward training over the bank; returns map losses.

    Map i imagines its plans from its own stream, ``SeedSequence(seed,
    spawn_key=(2, i))``, on fields built from the kernels map i-1 left, so
    the maps run one after another.  Per map this is ``build_fields``,
    ``imagine_and_act``, ``plan_quality_loss`` and a ``kernel_gradient``
    step, but the kernel-free half of the fields (``field_inputs``) is built
    once per block of up to ``TRAIN_BLOCK`` consecutive same-shape maps, and
    per map only the kernel half (``_map_fields``) runs.  The kernels and
    losses equal the map-by-map loop bit for bit.

    A map whose loss is not finite stops training with a ValueError naming
    it, before its update touches the kernels.
    """
    losses = []
    maps, first = bank.maps, 0
    while first < len(maps):
        h, w = maps[first].height, maps[first].width
        end = first + 1
        while (end < min(len(maps), first + TRAIN_BLOCK)
               and maps[end].height == h and maps[end].width == w):
            end += 1
        inputs = field_inputs(maps[first:end], config)
        for i, rng in zip(range(first, end), streams.rngs([(seed, (2,))], range(first, end))):
            fields = _map_fields(inputs, i - first, maps[i], params.kernels)
            _, plans = imagine_and_act(fields, rng, config)
            loss, d_scores = plan_quality_loss(plans)
            if not math.isfinite(loss):
                raise ValueError(f"map {i}: self-reward loss is {loss}; training stopped")
            params.kernels = params.kernels - config.learning_rate * kernel_gradient(
                fields, plans, d_scores)
            losses.append(loss)
        first = end
    return losses


# -- evaluation ----------------------------------------------------------------------


@dataclass
class EvalResult:
    """Each map's episode, in bank order: whether it reached the target, its
    steps, the executed plan's imagined score, and how many tiles of each
    ``PALETTE`` type (columns in ``PALETTE`` order) its path stepped on."""
    reached: np.ndarray    # (maps,) bool
    steps: np.ndarray      # (maps,) int
    score: np.ndarray      # (maps,) float
    traversed: np.ndarray  # (maps, len(PALETTE)) int

    @property
    def accuracy(self) -> float:
        return float(np.mean(self.reached))

    def mean_traversed(self, tile: str) -> float:
        return float(np.mean(self.traversed[:, list(PALETTE).index(tile)]))

    def traversal_histogram(self, tile: str) -> dict:
        counts, episodes = np.unique(self.traversed[:, list(PALETTE).index(tile)],
                                     return_counts=True)
        return dict(zip(counts.tolist(), episodes.tolist()))


# Maps per field build in evaluation.  More maps share more call overhead, but the
# deconv's (3 * maps, 9, H*W) gather grows: a build of 16 maps of 12x12 peaks at
# about 0.75 MB (tracemalloc).
FIELD_BATCH = 16
# Self fields per deconv_seq call in evaluation: as many grids as a field build runs.
SELF_CHUNK = 3 * FIELD_BATCH
# Grid cells per lockstep walk, about 910 maps of 12x12; a bank splits into
# even batches (512 maps walk as one).  A batch, its field builds included,
# peaks at about 4 KB per 12x12 map, so at about 3.6 MB (tracemalloc, 910 maps).
WALK_CELLS = 1 << 17
_SELF = SCORED_TILES.index("self")
_NOT_SELF = [k for k, t in enumerate(SCORED_TILES) if t != "self"]


def _self_fields(cells: np.ndarray, shape: tuple, kernels: np.ndarray) -> np.ndarray:
    """The self DeconvSeq's field, (n, H*W), of the one-hot grid at each flat
    index of ``cells`` through its (5, 3, 3) ``kernels``, ``SELF_CHUNK`` grids
    per ``deconv_seq`` call.

    A map's self grid is the one-hot grid at its spawn (``field_inputs``'
    w_self), so this is that map's self field: the same ``deconv_seq`` on the
    same grid and kernels, and each grid's row takes its own float operations.
    """
    h, w = shape
    fields = np.empty((len(cells), h * w))
    for j in range(0, len(cells), SELF_CHUNK):
        chunk = cells[j:j + SELF_CHUNK]
        grids = np.zeros((len(chunk), h * w))
        grids[np.arange(len(chunk)), chunk] = 1.0
        fields[j:j + SELF_CHUNK] = deconv_seq(np.tile(kernels, (len(chunk), 1, 1, 1)),
                                              grids.reshape(-1, h, w))[-1, :, :-1]
    return fields


def _eval_v_sigma(inputs: FieldInputs, self_fields: np.ndarray,
                  kernels: np.ndarray) -> np.ndarray:
    """v_sigma, (B, H*W), of the B maps of ``inputs`` whose self fields are
    ``self_fields``: the other three types through ``deconv_seq``, reading
    its last layer, then ``combine_fields``.  Equals ``build_fields``'
    v_sigma bit for bit."""
    b, n_types, h, w = inputs.grids.shape
    fields = np.empty((b, n_types, h * w))
    fields[:, _SELF] = self_fields
    fields[:, _NOT_SELF] = deconv_seq(
        np.tile(kernels[_NOT_SELF], (b, 1, 1, 1)),
        inputs.grids[:, _NOT_SELF].reshape(-1, h, w))[-1, :, :-1].reshape(
            b, len(_NOT_SELF), h * w)
    return combine_fields(fields, inputs.preferences)[1]


def _walk_lockstep(grid0: np.ndarray, unknown: np.ndarray, shape: tuple, spawns: np.ndarray,
                   targets: np.ndarray, explore: np.ndarray,
                   config: LavaConfig) -> tuple[np.ndarray, ...]:
    """``imagine_and_act`` on B same-shape maps at once; returns the executed plans.

    ``grid0`` is (B, H*W + 1): each map's v_sigma, flat, and a spare column;
    the walk overwrites it.  ``unknown`` is the (B, H*W) mask of tiles no
    detector recognizes, ``spawns`` and ``targets`` are (B,) flat indices,
    and ``explore`` holds, for each of a map's n_plans * max_steps uniforms
    drawn up front, whether it reached explore_odds.  Plan k of every map
    walks at once; a map's plans run in order, because a cursor reads its
    draws on from where its previous plan stopped, and moves only on steps
    that have a runner-up, as ``make_plan`` draws only then.  Each step takes
    ``_walk``'s float operations in its order, so the result is the plan
    ``imagine_and_act`` executes: its (B, max_steps) flat trajectory (entries
    past its length are stale), its steps, whether it reached the target and
    its score.
    """
    h, w = shape
    if h < 2 and w < 2:
        raise ValueError("map too small to plan on")
    b, hw, n_steps = len(grid0), h * w, config.max_steps
    stride = hw + 1
    _, _, table, runner_up = _grid_tables(h, w)
    rows = np.arange(b)
    v0 = np.abs(grid0[:, :hw]).max(axis=1)  # frozen per map, as in _plan_start
    # pin, blend and add a sentinel column that stands for a missing
    # neighbor and never makes the top two: the grid every plan starts from
    grid0[:, hw] = -np.inf
    grid0[rows, targets] = v0
    grid0[rows, spawns] = -v0
    peak_start = v0
    if config.unknown_avoidance > 0:
        penalty = -config.unknown_avoidance * v0
        np.copyto(grid0[:, :hw], penalty[:, None], where=unknown)
        peak_start = np.where(unknown.any(axis=1), np.maximum(v0, np.abs(penalty)), v0)

    grid = np.empty_like(grid0)
    seen = np.empty((b, n_steps))
    trajectory = np.zeros((b, n_steps), dtype=np.int32)
    score = np.empty(b)
    n_draws = explore.shape[1]
    next_draw = rows * n_draws  # flat index of each map's next unread draw
    best = (np.zeros((b, n_steps), dtype=np.int32), np.zeros(b, dtype=np.intp),
            np.zeros(b, dtype=bool), np.full(b, -np.inf))
    # flat views: a one-axis fancy index costs about half a two-axis one
    cells, draws_flat = grid.ravel(), explore.ravel()
    seen_flat, trajectory_flat = seen.ravel(), trajectory.ravel()
    lanes = np.arange(0, 4 * b, 4)
    for _ in range(config.n_plans):
        np.copyto(grid, grid0)
        steps = np.full(b, n_steps)
        reached = np.zeros(b, dtype=bool)
        # the maps still walking, with their position, peak, v0, next draw and target
        walking, pos, peak, peak0, draw, target = (rows, spawns, peak_start, v0,
                                                    next_draw, targets)
        for step in range(n_steps):
            at = walking * stride
            options = table[pos]
            values = cells[options + at[:, None]]
            lane = lanes[:len(walking)]
            first = values.argmax(axis=1)  # best and runner-up, ties to the earlier
            values.ravel()[lane + first] = -np.inf
            second = values.argmax(axis=1)
            has_second = runner_up[pos]
            swap = draws_flat[draw] & has_second
            draw = draw + has_second
            chosen = options.ravel()[lane + np.where(swap, second, first)]
            record = walking * n_steps + step
            seen_flat[record] = cells[at + chosen]
            trajectory_flat[record] = chosen
            arrived = chosen == target
            if arrived.any():
                done = walking[arrived]
                steps[done] = step + 1
                reached[done] = True
                next_draw[done] = draw[arrived]
                on = ~arrived
                walking, pos, peak, peak0, draw, target, chosen, at = (
                    x[on] for x in (walking, pos, peak, peak0, draw, target, chosen, at))
                if not walking.size:
                    break
            here = at + pos
            departed = np.abs(cells[here])
            mark = config.anti_return * peak
            cells[here] = mark
            # the peak stays max|grid|: re-read only where the departed tile
            # held it and the target (always at |v0|) does not
            rescan = (departed == peak) & (peak != peak0)
            peak = np.maximum(peak, np.abs(mark))
            if rescan.any():
                peak[rescan] = np.abs(grid[walking[rescan], :hw]).max(axis=1)
            pos = chosen
        next_draw[walking] = draw
        # _walk's np.array(seen).sum() adds pairwise in an order set by the
        # length, so plans of one length are summed together
        for length in np.flatnonzero(np.bincount(steps)).tolist():
            group = np.flatnonzero(steps == length)
            score[group] = seen[group, :length].sum(axis=1) / length
        better = score > best[3]  # the first of equal scores stays, as in argmax
        for kept, new in zip(best, (trajectory, steps, reached, score)):
            kept[better] = new[better]
    return best


def _evaluate_batch(maps: list[TileMap], indices: list[int], kernels: np.ndarray,
                    config: LavaConfig, seed: int) -> tuple[np.ndarray, ...]:
    """``EvalResult``'s four arrays for same-shape maps at bank places ``indices``.

    The self field of each distinct spawn cell is built once (``_self_fields``)
    and shared by the maps that spawn there: the same ``deconv_seq`` on the
    same grid and kernels gives each of them the same bits.  The other fields
    are built ``FIELD_BATCH`` maps at a time and summed in ``SCORED_TILES``
    order (``_eval_v_sigma``), and the whole batch walks in one
    ``_walk_lockstep``."""
    b, h, w = len(maps), maps[0].height, maps[0].width
    hw = h * w
    spawns = np.array([r * w + c for r, c in (m.spawn for m in maps)])
    targets = np.array([r * w + c for r, c in (m.target for m in maps)])
    cells, spawn_rows = np.unique(spawns, return_inverse=True)
    self_fields = _self_fields(cells, (h, w), kernels[_SELF])
    tiles = np.empty((b, hw), dtype=_CHAR_CODES.dtype)
    grid0 = np.empty((b, hw + 1))
    unknown = np.empty((b, hw), dtype=bool)
    for j in range(0, b, FIELD_BATCH):
        inputs = field_inputs(maps[j:j + FIELD_BATCH], config)
        grid0[j:j + FIELD_BATCH, :hw] = _eval_v_sigma(
            inputs, self_fields[spawn_rows[j:j + FIELD_BATCH]], kernels)
        tiles[j:j + FIELD_BATCH] = inputs.tiles.reshape(-1, hw)
        unknown[j:j + FIELD_BATCH] = inputs.w_unknown.reshape(-1, hw)
    # every map's whole stream in one draw, kept only as its explore decisions
    explore = np.empty((b, config.n_plans * config.max_steps), dtype=bool)
    for j, rng in enumerate(streams.rngs([(seed, (3,))], indices)):
        explore[j] = _explore_draws(rng, config, explore.shape[1])
    trajectory, steps, reached, score = _walk_lockstep(grid0, unknown, (h, w), spawns,
                                                       targets, explore, config)
    terrain = tiles[np.arange(b)[:, None], trajectory]
    on_path = (np.arange(config.max_steps) < steps[:, None])[..., None]
    traversed = ((terrain[..., None] == np.arange(len(PALETTE))) & on_path).sum(axis=1)
    return reached, steps, score, traversed


def evaluate(params: Robot2NNParams, bank: MapBank, config: LavaConfig,
             seed: int = 0) -> EvalResult:
    """Run every map in the bank; ``accuracy`` is the fraction reaching target.

    Map i imagines its plans from its own stream, ``SeedSequence(seed,
    spawn_key=(3, i))``, and executes the best, as ``imagine_and_act`` does.
    Maps of one shape run in lockstep batches of up to ``WALK_CELLS`` grid
    cells (``_evaluate_batch``), each written into the result's arrays at
    its maps' places in the bank.  A batch builds the self field once per
    distinct spawn cell, which is exact because a map's self field is
    ``deconv_seq`` on the one-hot grid at its spawn through the same fixed
    kernels, summed with the other fields in the same order.  Every map's
    entries equal the map-by-map result.
    """
    if not bank.maps:
        raise ValueError("evaluation bank is empty")
    if not np.isfinite(params.kernels).all():
        raise ValueError("kernels must all be finite")
    by_shape: dict[tuple, list[int]] = {}
    for i, tile_map in enumerate(bank.maps):
        by_shape.setdefault((tile_map.height, tile_map.width), []).append(i)
    n = len(bank.maps)
    result = EvalResult(np.empty(n, dtype=bool), np.empty(n, dtype=np.intp), np.empty(n),
                        np.empty((n, len(PALETTE)), dtype=np.intp))
    for (h, w), indices in by_shape.items():
        n_batches = -(-len(indices) * h * w // WALK_CELLS)
        size = -(-len(indices) // n_batches)  # even batches: each pays the same step overhead
        for j in range(0, len(indices), size):
            batch = indices[j:j + size]
            (result.reached[batch], result.steps[batch], result.score[batch],
             result.traversed[batch]) = _evaluate_batch([bank.maps[i] for i in batch], batch,
                                                        params.kernels, config, seed)
    return result


# One ``inspect_kernels`` row, as ``lavaland eval`` writes it to kernels.csv.
KERNEL_COLUMNS = ("seq", "layer", "row", "col", "value", "center_dominant")


def inspect_kernels(params: Robot2NNParams) -> list[tuple]:
    """All 180 kernel values under ``KERNEL_COLUMNS``, each with its
    kernel's center-dominance flag as 1 or 0."""
    rows = []
    for t, seq in zip(SCORED_TILES, params.kernels):
        for layer, k in enumerate(seq):
            dominant = int(abs(k[1, 1]) >= np.max(np.abs(k)))
            rows += [(t, layer, r, c, float(k[r, c]), dominant)
                     for r in range(3) for c in range(3)]
    return rows
