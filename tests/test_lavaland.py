"""Tile world: maps, detectors, score fields, planning, training, reports."""

import dataclasses
import math
import re
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from selfreward import lavaland
from selfreward.autodiff import (
    ShapeError,
    SgdSettings,
    as_tensor,
    backward,
    concat,
    gather,
    max_abs,
    mean,
    parameter,
    scatter_constant,
    sgd_step,
    square,
    tanh,
)
from selfreward.lavaland import (
    KNOWN_TILES,
    SCORED_TILES,
    EvalResult,
    Robot2NNParams,
    ScoreField,
    build_fields,
    combine_fields,
    deconv_seq,
    evaluate,
    field_inputs,
    get_aba,
    imagine_and_act,
    inspect_kernels,
    kernel_gradient,
    make_plan,
    plan_quality_loss,
    srd_train_lavaland,
    unknown_mask,
)
from selfreward.lavamaps import (
    MAP_TRIES,
    PALETTE,
    PRESETS,
    LavaConfig,
    MapBank,
    TileMap,
    generate_map,
    generate_maps,
    load_bank,
    palette_indices,
    save_bank,
)
from selfreward.layers import deconv3x3, selective_core


def small_config(**kw):
    defaults = dict(height=6, width=6)
    defaults.update(kw)
    return LavaConfig(**defaults)


def tiny_map():
    return TileMap(tiles=["ddgd", "dgdd", "dddd", "dydd"], spawn=(0, 0))


# -- engine oracle -------------------------------------------------------------------
# Lavaland training written as a graph on the engine: the reference that the
# closed-form training must match.  Each DeconvSeq is recorded layer by layer,
# each walk is a chain of scatter_constant copies with one gather per step,
# and each map ends in one backward and an sgd_step.


def _neighbor_tiles(pos, h, w):
    r, c = pos
    cand = ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1))
    return [(rr, cc) for rr, cc in cand if 0 <= rr < h and 0 <= cc < w]


def _engine_v_sigma(tile_map, kernels, config):
    """(v_sigma tensor, unknown mask) with kernels as nested lists of tensors."""
    x_attn = tile_map.rgb()
    detectors = {t: get_aba(x_attn, PALETTE[t], config.selective_eps) for t in KNOWN_TILES}
    w_self = np.zeros(x_attn.shape[:2])
    w_self[tile_map.spawn] = 1.0
    detectors["self"] = w_self
    gradient_field = detectors["target"] - w_self
    v_sigma = None
    for t, seq in zip(SCORED_TILES, kernels):
        x = as_tensor(detectors[t] if t in ("target", "self")
                      else gradient_field * detectors[t])
        for k in seq:
            x = tanh(deconv3x3(x, k))
        v = x * config.preferences[t]
        v_sigma = v if v_sigma is None else v_sigma + v
    return v_sigma, unknown_mask(detectors, config.tau_recog)


def _engine_plan(v_sigma, w_unknown, spawn, target, rng, config):
    """(trajectory, plan score tensor)."""
    h, w = w_unknown.shape
    v0 = max_abs(v_sigma)
    grid = scatter_constant(v_sigma, [target], v0)
    grid = scatter_constant(grid, [spawn], -v0)
    if config.unknown_avoidance > 0 and w_unknown.any():
        grid = grid * as_tensor(1.0 - w_unknown) + as_tensor(
            -config.unknown_avoidance * v0 * w_unknown)
    pos, trajectory, visited = spawn, [], []
    for _ in range(config.max_steps):
        options = _neighbor_tiles(pos, h, w)
        vals = np.array([grid.values[p] for p in options])
        order = np.argsort(-vals, kind="stable")
        if len(order) >= 2 and rng.random() >= config.explore_odds:
            chosen = options[order[1]]
        else:
            chosen = options[order[0]]
        visited.append(gather(grid, [chosen]))
        trajectory.append(chosen)
        if chosen == target:
            break
        grid = scatter_constant(grid, [pos], config.anti_return * max_abs(grid))
        pos = chosen
    return trajectory, mean(concat(visited))


def _engine_loss(scores):
    peak = max(abs(v.item()) for v in scores)
    scale = 1.0 / peak if peak > 0 else 1.0
    loss = None
    for v in scores:
        term = square(1.0 - tanh(v * scale))
        loss = term if loss is None else loss + term
    return loss


def _engine_kernels(params):
    return [[parameter(k) for k in seq] for seq in params.kernels]


def _engine_map_step(tile_map, kernels, rng, config):
    """One map of engine training up to backward: (loss, plan trajectories)."""
    v_sigma, w_unknown = _engine_v_sigma(tile_map, kernels, config)
    plans = [_engine_plan(v_sigma, w_unknown, tile_map.spawn, tile_map.target, rng, config)
             for _ in range(config.n_plans)]
    loss = _engine_loss([v for _, v in plans])
    backward(loss)
    return loss.item(), [t for t, _ in plans]


def _engine_train(bank, config, seed):
    """(kernels (4, 5, 3, 3), losses, per-map plan trajectories)."""
    kernels = _engine_kernels(Robot2NNParams())
    flat = [k for seq in kernels for k in seq]
    losses, trajectories = [], []
    for i, tile_map in enumerate(bank.maps):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(2, i)))
        loss, paths = _engine_map_step(tile_map, kernels, rng, config)
        sgd_step(flat, SgdSettings(config.learning_rate))
        losses.append(loss)
        trajectories.append(paths)
    return np.array([[k.values for k in seq] for seq in kernels]), losses, trajectories


# -- map generation ------------------------------------------------------------


def reference_generate_map(rng, config):
    """``generate_map`` as first written, cell by cell: the reference that the
    whole-grid version must equal, draw for draw."""
    h, w = config.height, config.width
    for _ in range(MAP_TRIES):
        u = rng.random((h, w))
        grid = np.where(u < config.lava_frac, "l",
                        np.where(u < config.lava_frac + config.grass_frac, "g", "d"))
        walkable = [(r, c) for r in range(h) for c in range(w) if grid[r, c] != "l"]
        if len(walkable) < 2:
            continue
        pick = rng.choice(len(walkable), size=2, replace=False)
        spawn, target = walkable[pick[0]], walkable[pick[1]]
        grid[target] = "y"
        rows = ["".join(grid[r]) for r in range(h)]
        return TileMap(tiles=rows, spawn=spawn)
    raise ValueError(f"lava_frac {config.lava_frac} left fewer than 2 walkable tiles "
                     f"on a {h}x{w} map in {MAP_TRIES} draws; lower lava_frac")


def assert_same_maps(maps, expected):
    assert maps == expected
    assert all(type(v) is int for m in maps for v in m.spawn)


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_generated_banks_equal_the_per_cell_reference(preset):
    for seed in range(8):
        expected = [reference_generate_map(
            np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,))),
            PRESETS[preset]) for i in range(64)]
        assert_same_maps(generate_maps(64, preset, seed).maps, expected)


@pytest.mark.parametrize("kw", [
    dict(height=1, width=2), dict(height=2, width=1), dict(height=1, width=5),
    # a 1x5 map keeps fewer than two walkable cells often, so these redraw
    dict(height=1, width=5, lava_frac=0.5), dict(height=1, width=5, lava_frac=0.7),
    dict(height=1, width=5, lava_frac=0.9), dict(height=2, width=1, lava_frac=0.5),
    dict(grass_frac=0.0), dict(grass_frac=1.0), dict(lava_frac=0.1, grass_frac=1.0),
    dict(height=3, width=4, lava_frac=0.6, grass_frac=0.7),
], ids=str)
def test_generate_map_equals_the_per_cell_reference_on_edge_configs(kw):
    config = LavaConfig(**kw)
    for seed in range(16):
        rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        assert_same_maps([generate_map(rng, config)],
                         [reference_generate_map(reference_rng, config)])
        assert rng.bit_generator.state == reference_rng.bit_generator.state


def test_bank_deterministic_and_sized():
    a = generate_maps(16, "project-a", seed=4)
    b = generate_maps(16, "project-a", seed=4)
    assert [m.tiles for m in a.maps] == [m.tiles for m in b.maps]
    assert all(m.height == 12 and m.width == 12 for m in a.maps)


def test_bank_roundtrip(tmp_path):
    bank = generate_maps(8, "lava-a", seed=1)
    path = tmp_path / "bank.json"
    save_bank(path, bank)
    save_bank(tmp_path / "bank2.json", bank)
    assert path.read_bytes() == (tmp_path / "bank2.json").read_bytes()
    loaded = load_bank(path)
    assert loaded.preset == "lava-a"
    assert [m.tiles for m in loaded.maps] == [m.tiles for m in bank.maps]
    assert [m.spawn for m in loaded.maps] == [m.spawn for m in bank.maps]


@st.composite
def valid_banks(draw):
    maps = []
    for _ in range(draw(st.integers(1, 4))):
        h = draw(st.integers(1, 5))
        w = draw(st.integers(2 if h == 1 else 1, 5))
        cells = draw(st.lists(st.sampled_from("gdl"), min_size=h * w, max_size=h * w))
        target, spawn = draw(st.lists(st.integers(0, h * w - 1), min_size=2, max_size=2,
                                      unique=True))
        cells[target] = "y"
        if cells[spawn] == "l":
            cells[spawn] = draw(st.sampled_from("gd"))
        maps.append(TileMap(tiles=["".join(cells[r * w:(r + 1) * w]) for r in range(h)],
                            spawn=(spawn // w, spawn % w)))
    return MapBank(preset=draw(st.sampled_from(sorted(PRESETS))),
                   seed=draw(st.integers(0, 2 ** 64)), maps=maps)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(valid_banks())
def test_bank_roundtrip_any_valid_bank(tmp_path, bank):
    path = tmp_path / "bank.json"
    save_bank(path, bank)
    assert load_bank(path) == bank
    save_bank(tmp_path / "again.json", load_bank(path))
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


def test_load_bank_refuses_a_bank_with_no_maps(tmp_path):
    path = tmp_path / "bank.json"
    save_bank(path, MapBank(preset="lava-a", seed=0, maps=[]))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: bank has no maps$"):
        load_bank(path)


def test_map_structure():
    bank = generate_maps(32, "lava-a", seed=7)
    for m in bank.maps:
        flat = "".join(m.tiles)
        assert flat.count("y") == 1
        assert m.spawn != m.target
        assert m.tiles[m.spawn[0]][m.spawn[1]] in ("g", "d")


def test_tile_fractions_respect_preset():
    lava_bank = generate_maps(64, "lava-a", seed=2)
    flat = "".join("".join(m.tiles) for m in lava_bank.maps)
    assert flat.count("l") / len(flat) == pytest.approx(0.1, abs=0.02)
    assert flat.count("g") / len(flat) == pytest.approx(0.3, abs=0.03)
    plain = generate_maps(64, "project-a", seed=2)
    assert "l" not in "".join("".join(m.tiles) for m in plain.maps)


def test_unknown_preset_rejected():
    with pytest.raises(ValueError):
        generate_maps(4, "project-z", seed=0)
    with pytest.raises(ValueError):
        generate_maps(0, "project-a", seed=0)


# -- detectors ------------------------------------------------------------------


def test_aba_exact_match_is_one():
    img = tiny_map().rgb()
    w = get_aba(img, PALETTE["grass"])
    assert w[0, 2] == pytest.approx(1.0)
    assert w[1, 1] == pytest.approx(1.0)


def test_aba_cross_activation_bounded():
    # cross activations stay below the closest inter-palette response
    names = list(PALETTE)
    d_min = min(np.mean((PALETTE[a] - PALETTE[b]) ** 2)
                for a in names for b in names if a != b)
    ceiling = selective_core(np.array(d_min), 0.01)
    img = tiny_map().rgb()
    for t in KNOWN_TILES:
        w = get_aba(img, PALETTE[t])
        exact = w > 0.999
        assert np.all(w[~exact] <= ceiling + 1e-12)


def test_aba_hand_value():
    # dirt pixel through the grass detector, worked by hand
    msd = np.mean((PALETTE["dirt"] - PALETTE["grass"]) ** 2)
    want = 0.01 / (msd + 0.01)
    img = tiny_map().rgb()
    w = get_aba(img, PALETTE["grass"])
    assert w[0, 0] == pytest.approx(want, abs=1e-12)


def test_unknown_mask_lava_only():
    tiles = TileMap(tiles=["dgl", "dyd", "ddd"], spawn=(0, 0))
    img = tiles.rgb()
    detectors = {t: get_aba(img, PALETTE[t]) for t in KNOWN_TILES}
    mask = unknown_mask(detectors)
    expected = np.zeros((3, 3))
    expected[0, 2] = 1.0
    np.testing.assert_array_equal(mask, expected)


def test_unknown_mask_threshold_is_strict():
    detectors = {t: np.full((1, 1), 1 / 3) for t in KNOWN_TILES}
    assert unknown_mask(detectors)[0, 0] == 0.0  # sums to 1: recognized
    detectors["target"] = np.full((1, 1), 1 / 3 - 1e-3)
    assert unknown_mask(detectors)[0, 0] == 1.0


# -- score machinery ---------------------------------------------------------------


def test_parameter_count_is_180():
    params = Robot2NNParams()
    assert params.kernels.size == 180
    assert params.kernels.shape == (4, 5, 3, 3)
    assert len(params.export()) == 20


def test_graph_recorded_before_load_keeps_its_values():
    # fields built before a load keep the kernels and values they were built with
    params = Robot2NNParams()
    before = params.kernels
    fields = build_fields(tiny_map(), params, small_config())
    v_sigma = fields.v_sigma.copy()
    arrays = {name: arr + 1.0 for name, arr in params.export().items()}
    params.load(arrays)
    np.testing.assert_array_equal(params.kernels, before + 1.0)
    arrays["dirt/0"][...] = 0.0  # the loaded kernels hold their own copy
    np.testing.assert_array_equal(params.kernels, before + 1.0)
    assert fields.kernels is before
    np.testing.assert_array_equal(fields.kernels, Robot2NNParams().kernels)
    np.testing.assert_array_equal(fields.v_sigma, v_sigma)
    with pytest.raises(ShapeError):
        params.load({**params.export(), "dirt/0": np.zeros(9)})


def _field(kernels, grid):
    """deconv_seq's last layer for one grid, as an (H, W) array."""
    out = deconv_seq(kernels[None], grid[None])[-1, 0, :-1]
    return out.reshape(grid.shape)


def test_deconv_seq_bounded_bump_shape_preserving():
    params = Robot2NNParams()
    grid = np.zeros((5, 5))
    grid[2, 2] = 1.0
    out = _field(params.kernels[SCORED_TILES.index("target")], grid)
    assert out.shape == (5, 5)
    assert np.max(np.abs(out)) < 1.0  # tanh keeps magnitudes inside 1
    assert out[2, 2] == np.max(out)  # bump peaks at the source
    assert out[0, 0] < out[1, 1] < out[2, 2]


def test_deconv_seq_zero_grid_passes_through():
    params = Robot2NNParams()
    out = _field(params.kernels[SCORED_TILES.index("dirt")], np.zeros((4, 4)))
    np.testing.assert_array_equal(out, 0.0)


def test_deconv_seq_matches_engine_layers_bitwise():
    rng = np.random.default_rng(0)
    kernels = rng.normal(size=(3, 5, 3, 3))
    grids = rng.normal(size=(3, 4, 7))
    stacked = deconv_seq(kernels, grids)
    for n in range(3):
        x = as_tensor(grids[n])
        for layer in range(5):
            x = tanh(deconv3x3(x, kernels[n, layer]))
            np.testing.assert_array_equal(stacked[layer + 1, n, :-1], x.values.ravel())
    np.testing.assert_array_equal(stacked[:, :, -1], 0.0)  # the zero slot stays zero


def test_fields_compose_and_sum():
    cfg = small_config()
    params = Robot2NNParams()
    fields = build_fields(tiny_map(), params, cfg)
    total = sum(fields.v1[t] for t in fields.v1)
    np.testing.assert_allclose(fields.v_sigma, total, atol=1e-12)
    assert fields.spawn == (0, 0) and fields.target == (3, 1)
    # the detector lookup equals get_aba on the image, and the stacked
    # forward equals the engine's per-type DeconvSeqs, bit for bit
    img = tiny_map().rgb()
    for t in KNOWN_TILES:
        np.testing.assert_array_equal(fields.detectors[t], get_aba(img, PALETTE[t]))
    v_sigma, w_unknown = _engine_v_sigma(tiny_map(), _engine_kernels(params), cfg)
    np.testing.assert_array_equal(fields.v_sigma, v_sigma.values)
    np.testing.assert_array_equal(fields.w_unknown, w_unknown)


def _bits(values):
    return np.ascontiguousarray(values).view(np.int64)  # tells -0.0 from 0.0


@pytest.mark.parametrize("preset", ["project-a", "lava-a"])
def test_batched_fields_equal_one_map_builds_bitwise(preset):
    cfg = PRESETS[preset]
    params = Robot2NNParams()
    srd_train_lavaland(params, generate_maps(16, preset, seed=5), cfg, seed=5)
    maps = generate_maps(7, preset, seed=6).maps
    inputs = field_inputs(maps, cfg)
    # every map's four grids in one deconv_seq call: each grid's rows take
    # its own float operations, as evaluation's batches rely on
    b, n_types, h, w = inputs.grids.shape
    activations = deconv_seq(np.tile(params.kernels, (b, 1, 1, 1)),
                             inputs.grids.reshape(-1, h, w))
    assert activations.shape[0] == 6
    v1, v_sigma = combine_fields(activations[-1, :, :-1].reshape(b, n_types, h * w),
                                 inputs.preferences)
    # evaluation's path: each spawn cell's self field once, the other types
    # through deconv_seq, reading its last layer
    spawns = np.array([r * m.width + c for m in maps for r, c in [m.spawn]])
    cells, rows = np.unique(spawns, return_inverse=True)
    self_fields = lavaland._self_fields(cells, (maps[0].height, maps[0].width),
                                        params.kernels[SCORED_TILES.index("self")])
    eval_v_sigma = lavaland._eval_v_sigma(inputs, self_fields[rows], params.kernels)
    for j, m in enumerate(maps):
        one = build_fields(m, params, cfg)
        np.testing.assert_array_equal(_bits(v_sigma[j]), _bits(one.v_sigma.ravel()))
        np.testing.assert_array_equal(_bits(eval_v_sigma[j]), _bits(one.v_sigma.ravel()))
        np.testing.assert_array_equal(_bits(inputs.w_unknown[j]), _bits(one.w_unknown))
        for k, t in enumerate(SCORED_TILES):
            np.testing.assert_array_equal(_bits(v1[j, k]), _bits(one.v1[t].ravel()))
        np.testing.assert_array_equal(
            _bits(activations[:, 4 * j:4 * j + 4]), _bits(one.activations))


def test_field_inputs_refuse_mixed_shapes_and_unknown_tiles():
    cfg = small_config()
    with pytest.raises(ValueError, match="must all be 4x4"):
        field_inputs([tiny_map(), TileMap(tiles=["dy", "dd"], spawn=(0, 0))], cfg)
    # the same cell count in another shape is refused too
    for first, second in [(["dy", "dd"], ["dydd"]), (["dydd"] * 3, ["ddyddd"] * 2)]:
        h, w = len(first), len(first[0])
        with pytest.raises(ValueError, match=f"must all be {h}x{w}"):
            field_inputs([TileMap(tiles=first, spawn=(0, 0)),
                          TileMap(tiles=second, spawn=(0, 0))], cfg)
    with pytest.raises(ValueError, match="unknown tile characters"):
        field_inputs([TileMap(tiles=["dy", "dx"], spawn=(0, 0))], cfg)


@pytest.mark.parametrize("tiles", [["dy", "d", "ddd"], ["dy", "ddd", "d"], ["dd", "dyd", "d", "dd"]])
def test_palette_indices_refuse_ragged_rows(tiles):
    # as many cells as the first row's width times the height
    h, w = len(tiles), len(tiles[0])
    with pytest.raises(ValueError, match=f"must all be {h}x{w}"):
        palette_indices([TileMap(tiles=tiles, spawn=(0, 0))])
    with pytest.raises(ValueError, match=f"must all be {h}x{w}"):
        palette_indices([TileMap(tiles=["dd"] * (h - 1) + ["dy"], spawn=(0, 0)),
                         TileMap(tiles=tiles, spawn=(0, 0))])


@pytest.mark.parametrize("h,w", [(1, 2), (1, 5), (2, 3), (12, 12)])
def test_grid_tables_list_neighbors_up_down_left_right(h, w):
    coords, neighbors, table, runner_up = lavaland._grid_tables(h, w)
    assert coords == tuple((r, c) for r in range(h) for c in range(w))
    directions = [(-1, 0), (1, 0), (0, -1), (0, 1)]  # up, down, left, right
    for cell, (r, c) in enumerate(coords):
        # every cell one step away, ordered by the direction of that step
        near = [i for i, (rr, cc) in enumerate(coords) if abs(rr - r) + abs(cc - c) == 1]
        want = sorted(near, key=lambda i: directions.index((coords[i][0] - r, coords[i][1] - c)))
        first, others = neighbors[cell]
        assert [first, *others] == want
        assert table[cell].tolist() == want + [h * w] * (4 - len(want))
        assert runner_up[cell] == (len(want) > 1)
    assert table.shape == (h * w, 4) and not table.flags.writeable


def test_grass_contribution_nonpositive_scale():
    cfg = small_config()
    fields = build_fields(tiny_map(), Robot2NNParams(), cfg)
    assert cfg.p_grass < 0
    # grass field values carry the negative preference where grass dominates
    assert fields.v1["grass"].min() < 0 or np.allclose(fields.v1["grass"], 0)


def test_no_grass_map_leaves_grass_field_marginal():
    # only detector crosstalk leaks in; the field stays far below its
    # preference scale and far below the target field
    m = TileMap(tiles=["dddd", "dddd", "dydd", "dddd"], spawn=(0, 0))
    cfg = small_config(height=4, width=4)
    fields = build_fields(m, Robot2NNParams(), cfg)
    grass_peak = np.max(np.abs(fields.v1["grass"]))
    assert grass_peak < 0.1 * abs(cfg.p_grass)
    assert grass_peak < 0.1 * np.max(np.abs(fields.v1["target"]))


# -- planning -----------------------------------------------------------------------


def test_plan_legality():
    cfg = PRESETS["lava-a"]
    bank = generate_maps(12, "lava-a", seed=9)
    params = Robot2NNParams()
    for i, m in enumerate(bank.maps):
        fields = build_fields(m, params, cfg)
        plan = make_plan(fields, np.random.default_rng(i), cfg)
        assert 1 <= plan.steps <= cfg.max_steps
        prev = m.spawn
        for pos in plan.trajectory:
            assert 0 <= pos[0] < m.height and 0 <= pos[1] < m.width
            assert abs(pos[0] - prev[0]) + abs(pos[1] - prev[1]) == 1
            prev = pos
        if plan.reached:
            assert plan.trajectory[-1] == m.target


def test_plan_adjacent_target_taken_with_high_odds():
    m = TileMap(tiles=["dy", "dd"], spawn=(0, 0))
    cfg = small_config(height=2, width=2)
    fields = build_fields(m, Robot2NNParams(), cfg)
    wins = sum(
        make_plan(fields, np.random.default_rng(i), cfg).steps == 1
        for i in range(400))
    assert wins / 400 == pytest.approx(0.9, abs=0.05)


def test_plan_explore_odds_respected():
    # two-option crossroads: force distinct neighbor values via the map
    cfg = PRESETS["project-a"]
    bank = generate_maps(6, "project-a", seed=3)
    params = Robot2NNParams()
    fields = build_fields(bank.maps[0], params, cfg)
    first_moves = {}
    for i in range(300):
        plan = make_plan(fields, np.random.default_rng(i), cfg)
        first_moves[plan.trajectory[0]] = first_moves.get(plan.trajectory[0], 0) + 1
    top = max(first_moves.values()) / 300
    assert 0.8 <= top <= 1.0  # best neighbor picked ~90% (or tie-free 100%)


def test_lava_excluded_when_two_clean_options_exist():
    # with avoidance on, a penalized tile never makes the top two whenever
    # at least two recognized neighbors compete
    cfg = PRESETS["lava-a"]
    bank = generate_maps(10, "lava-a", seed=21)
    params = Robot2NNParams()
    for i, m in enumerate(bank.maps):
        fields = build_fields(m, params, cfg)
        plan = make_plan(fields, np.random.default_rng(i), cfg)
        prev = m.spawn
        for pos in plan.trajectory:
            if m.terrain_at(pos) == "lava":
                clean = [n for n in
                         [(prev[0] - 1, prev[1]), (prev[0] + 1, prev[1]),
                          (prev[0], prev[1] - 1), (prev[0], prev[1] + 1)]
                         if 0 <= n[0] < m.height and 0 <= n[1] < m.width
                         and m.terrain_at(n) != "lava"]
                assert len(clean) < 2  # only corner/edge squeezes allow it
            prev = pos


def test_degenerate_map_rejected():
    with pytest.raises(ValueError):
        generate_map(np.random.default_rng(0), LavaConfig(height=1, width=1))


def test_generate_map_gives_up_when_lava_leaves_no_room():
    start = time.perf_counter()
    with pytest.raises(ValueError, match="lava_frac"):
        generate_map(np.random.default_rng(0), LavaConfig(lava_frac=0.99999))
    assert time.perf_counter() - start < 1.0
    message = ("lava_frac 0.999 left fewer than 2 walkable tiles on a 1x2 map "
               "in 1000 draws; lower lava_frac")
    for generate in (generate_map, reference_generate_map):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            generate(np.random.default_rng(0), LavaConfig(height=1, width=2, lava_frac=0.999))


def test_two_and_three_cell_maps_generate_train_and_evaluate():
    # LavaConfig's smallest maps: a spawn and a target with at most one tile between
    cfg = PRESETS["lava-a"]
    rng = np.random.default_rng(5)
    maps = [generate_map(rng, LavaConfig(height=1, width=w, lava_frac=cfg.lava_frac))
            for _ in range(6) for w in (2, 3)]
    assert {(m.height, m.width) for m in maps} == {(1, 2), (1, 3)}
    assert all(m.spawn != m.target for m in maps)
    bank = MapBank("lava-a", 0, maps)
    params = Robot2NNParams()
    losses = srd_train_lavaland(params, bank, cfg, seed=5)
    kernels, want_losses, _ = _per_map_training(bank, cfg, seed=5)
    assert losses == want_losses and all(math.isfinite(loss) for loss in losses)
    np.testing.assert_array_equal(_bits(params.kernels), _bits(kernels))
    result = _assert_matches_per_map(params, bank, cfg, seed=6)
    assert len(result.reached) == len(maps)


INVALID_CONFIG_VALUES = [
    ("n_plans", 0), ("max_steps", 0), ("max_steps", -3),
    ("explore_odds", 1.5), ("explore_odds", -0.1), ("explore_odds", float("nan")),
    ("height", 0), ("width", 0),
    ("learning_rate", 0.0), ("learning_rate", -1e-4), ("learning_rate", float("inf")),
    ("learning_rate", float("nan")),
    ("unknown_avoidance", -0.5), ("selective_eps", 0.0), ("tau_recog", -1e-4),
    ("lava_frac", 1.0), ("lava_frac", 1.5), ("lava_frac", -0.1), ("lava_frac", float("nan")),
    ("grass_frac", 1.01), ("grass_frac", -0.1), ("grass_frac", float("nan")),
    # a NaN preference or anti_return let evaluation report a wrong accuracy
    ("p_target", float("nan")), ("p_self", float("inf")), ("p_grass", -float("inf")),
    ("p_dirt", float("nan")), ("anti_return", float("nan")), ("anti_return", float("inf")),
    ("unknown_avoidance", float("inf")), ("unknown_avoidance", float("nan")),
    # a value of the wrong type: a float for an integer, a string, a bool
    ("height", 12.0), ("width", 0.5), ("max_steps", 36.5), ("n_plans", 4.0),
    ("p_target", "10"), ("n_plans", True),
]


def test_every_config_field_has_a_refusal_case():
    assert {field for field, _ in INVALID_CONFIG_VALUES} == \
        {f.name for f in dataclasses.fields(LavaConfig)}


@pytest.mark.parametrize("field,value", INVALID_CONFIG_VALUES)
def test_config_rejects_invalid_values(field, value):
    with pytest.raises(ValueError, match=field):
        LavaConfig(**{field: value})


@pytest.mark.parametrize("field,kw", [
    # each overflowed numpy's field sums in training or in evaluation
    ("p_grass", dict(p_grass=-1e308)), ("anti_return", dict(anti_return=-1e9)),
    ("unknown_avoidance", dict(unknown_avoidance=1e308)),
    # finite preferences whose sum is not
    ("p_target", dict(p_target=1e308, p_self=1e308)),
    ("anti_return", dict(anti_return=2.0, max_steps=1100)),
])
def test_config_rejects_finite_values_whose_fields_overflow(field, kw):
    with pytest.raises(ValueError, match=f"^{field} = .* overflows"):
        LavaConfig(**kw)


@pytest.mark.parametrize("kw", [
    dict(p_grass=-1e306), dict(anti_return=-3e8), dict(unknown_avoidance=1e305),
    dict(p_target=0.0, p_self=0.0, p_grass=0.0, p_dirt=0.0),
])
def test_config_keeps_values_near_the_overflow_bound(kw):
    cfg = small_config(lava_frac=0.1, **kw)
    bank = MapBank("lava-a", 0, [generate_map(np.random.default_rng(s), cfg) for s in range(3)])
    params = Robot2NNParams()
    with np.errstate(over="raise", invalid="raise"):
        losses = srd_train_lavaland(params, bank, cfg, seed=0)
        evaluate(params, bank, cfg, seed=1)
    assert all(math.isfinite(loss) for loss in losses)


def test_config_rejects_one_cell_maps_and_keeps_edge_values():
    with pytest.raises(ValueError, match="at least 2 cells"):
        LavaConfig(height=1, width=1)
    LavaConfig(height=1, width=2, explore_odds=0.0, unknown_avoidance=0.0, tau_recog=0.0)
    LavaConfig(explore_odds=1.0, n_plans=1, max_steps=1)
    LavaConfig(grass_frac=0.0)
    LavaConfig(grass_frac=1.0)


def test_almost_all_lava_still_generates_a_map():
    cfg = LavaConfig(lava_frac=0.95)
    tile_map = generate_map(np.random.default_rng(0), cfg)
    assert (tile_map.height, tile_map.width) == (12, 12)
    assert tile_map.terrain_at(tile_map.spawn) not in ("lava", "target")
    assert "".join(tile_map.tiles).count("y") == 1


def test_imagine_and_act_executes_argmax():
    cfg = PRESETS["project-a"]
    bank = generate_maps(3, "project-a", seed=8)
    fields = build_fields(bank.maps[1], Robot2NNParams(), cfg)
    executed, plans = imagine_and_act(fields, np.random.default_rng(0), cfg)
    assert len(plans) == cfg.n_plans
    assert executed.score >= max(p.score for p in plans) - 1e-12


def test_single_plan_is_executed():
    cfg = LavaConfig(n_plans=1)
    bank = generate_maps(2, "project-a", seed=8)
    fields = build_fields(bank.maps[0], Robot2NNParams(), cfg)
    executed, plans = imagine_and_act(fields, np.random.default_rng(1), cfg)
    assert executed is plans[0]


# -- training ------------------------------------------------------------------------


def test_loss_bounded_and_decreasing_in_scores():
    cfg = PRESETS["project-a"]
    bank = generate_maps(2, "project-a", seed=6)
    fields = build_fields(bank.maps[0], Robot2NNParams(), cfg)
    _, plans = imagine_and_act(fields, np.random.default_rng(2), cfg)
    loss, d_scores = plan_quality_loss(plans)
    assert 0.0 <= loss <= 4.0 * cfg.n_plans
    # nudging any single plan score up lowers the loss (frozen normalizer)
    assert d_scores.shape == (cfg.n_plans,) and np.all(d_scores < 0)
    # loss and derivative equal the engine's, bit for bit
    scores = [parameter(p.score) for p in plans]
    engine_loss = _engine_loss(scores)
    backward(engine_loss)
    assert loss == engine_loss.item()
    np.testing.assert_array_equal(d_scores, [float(v.grad) for v in scores])


def test_gradients_reach_kernels_not_frozen_scalars():
    cfg = PRESETS["project-a"]
    bank = generate_maps(2, "project-a", seed=6)
    params = Robot2NNParams()
    fields = build_fields(bank.maps[0], params, cfg)
    _, plans = imagine_and_act(fields, np.random.default_rng(0), cfg)
    grad = kernel_gradient(fields, plans, plan_quality_loss(plans)[1])
    assert grad.shape == params.kernels.shape
    assert all(np.abs(grad[j]).sum() > 0.0 for j in range(len(SCORED_TILES)))
    # the engine's backward through the same walks gives the same gradient
    kernels = _engine_kernels(params)
    _, paths = _engine_map_step(bank.maps[0], kernels, np.random.default_rng(0), cfg)
    assert paths == [p.trajectory for p in plans]
    np.testing.assert_array_equal(grad, [[k.grad for k in seq] for seq in kernels])
    # detector grids are plain arrays, constant under training
    assert isinstance(fields.detectors["grass"], np.ndarray)


def _per_map_training(bank, cfg, seed):
    """Training map by map: the reference that srd_train_lavaland's per-block
    field inputs must equal.  Returns (kernels, losses, per-map trajectories)."""
    trained = Robot2NNParams()
    losses, paths = [], []
    for i, tile_map in enumerate(bank.maps):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(2, i)))
        fields = build_fields(tile_map, trained, cfg)
        _, plans = imagine_and_act(fields, rng, cfg)
        loss, d_scores = plan_quality_loss(plans)
        trained.kernels = trained.kernels - cfg.learning_rate * kernel_gradient(
            fields, plans, d_scores)
        losses.append(loss)
        paths.append([p.trajectory for p in plans])
    return trained.kernels, losses, paths


@pytest.mark.parametrize("preset,seed", [("project-a", 0), ("lava-a", 3), ("compare-a", 1),
                                         ("lava-noav-a", 5)])
def test_closed_form_lavaland_training_matches_engine(preset, seed):
    cfg = PRESETS[preset]
    bank = generate_maps(64, preset, seed=seed)
    if cfg.lava_frac > 0:  # lava lights up w_unknown on most maps
        unknown = [build_fields(m, Robot2NNParams(), cfg).w_unknown.any() for m in bank.maps]
        assert sum(unknown) > len(bank.maps) // 2
    want_kernels, want_losses, want_paths = _engine_train(bank, cfg, seed)
    params = Robot2NNParams()
    losses = srd_train_lavaland(params, bank, cfg, seed=seed)
    np.testing.assert_allclose(params.kernels, want_kernels, rtol=0, atol=1e-12)
    np.testing.assert_allclose(losses, want_losses, rtol=0, atol=1e-12)
    # the same walks, replayed map by map from the same per-map streams
    kernels, replayed_losses, paths = _per_map_training(bank, cfg, seed)
    assert [i for i, (got, want) in enumerate(zip(paths, want_paths)) if got != want] == []
    np.testing.assert_array_equal(_bits(kernels), _bits(params.kernels))
    assert replayed_losses == losses


@pytest.mark.parametrize("train_block", [lavaland.TRAIN_BLOCK, 3])
def test_training_on_a_mixed_shape_bank_matches_per_map_reference(monkeypatch, train_block):
    # runs of 12x12 and 6x6 maps, some longer than a block, so the per-block
    # field inputs must follow bank order across every change of shape
    monkeypatch.setattr(lavaland, "TRAIN_BLOCK", train_block)
    cfg = PRESETS["lava-a"]
    big = iter(generate_maps(16, "lava-a", seed=23).maps)
    rng = np.random.default_rng(23)
    small = iter([generate_map(rng, LavaConfig(height=6, width=6, lava_frac=0.1))
                  for _ in range(16)])
    maps = []
    for source, run in [(big, 2), (small, 1), (big, 5), (small, 4), (big, 1), (small, 7),
                        (big, 8), (small, 4)]:
        maps += [next(source) for _ in range(run)]
    bank = MapBank("lava-a", 0, maps)
    params = Robot2NNParams()
    losses = srd_train_lavaland(params, bank, cfg, seed=6)
    kernels, want_losses, _ = _per_map_training(bank, cfg, seed=6)
    np.testing.assert_array_equal(_bits(params.kernels), _bits(kernels))
    assert losses == want_losses


@pytest.mark.parametrize("explore_odds", [0.9, 0.5])
@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_up_front_stream_walks_equal_engine_scalar_draws(preset, explore_odds):
    # imagine_and_act draws a map's whole stream in one call; the engine
    # oracle draws one scalar on each step that has a runner-up, which on a
    # 1x5 map's end tiles it has not
    cfg = dataclasses.replace(PRESETS[preset], explore_odds=explore_odds)
    params = Robot2NNParams()
    rng = np.random.default_rng(31)
    maps = generate_maps(8, preset, seed=4).maps + [
        generate_map(rng, LavaConfig(height=1, width=5, lava_frac=cfg.lava_frac))
        for _ in range(8)]
    for i, tile_map in enumerate(maps):
        fields = build_fields(tile_map, params, cfg)
        _, plans = imagine_and_act(fields, np.random.default_rng(i), cfg)
        rng = np.random.default_rng(i)
        for plan in plans:
            path, score = _engine_plan(as_tensor(fields.v_sigma), fields.w_unknown,
                                       tile_map.spawn, tile_map.target, rng, cfg)
            assert path == plan.trajectory and score.item() == plan.score, i
        # make_plan reads the stream as the engine does, one scalar at a time
        rng = np.random.default_rng(i)
        assert [make_plan(fields, rng, cfg) for _ in plans] == plans


def test_tile_revisited_after_departure_passes_no_gradient():
    # a positive anti-return value draws the walk back onto departed tiles
    cfg = small_config(anti_return=0.9, n_plans=1)
    tile_map = TileMap(tiles=["dgdd", "ddgd", "dddd", "gddy"], spawn=(0, 0))
    params = Robot2NNParams()
    fields = build_fields(tile_map, params, cfg)
    for seed in range(20):
        plan = make_plan(fields, np.random.default_rng(seed), cfg)
        h, w = fields.v_sigma.shape
        flat = [r * w + c for r, c in plan.trajectory]
        revisits = [i for n, i in enumerate(flat) if i in flat[:n]]
        if revisits:
            break
    assert revisits, "no walk came back to a departed tile"
    assert sorted(plan.live_steps) == sorted(set(plan.live_steps))
    for tile in revisits:
        assert plan.live_steps.count(tile) <= 1
    # the engine's gradient of the plan score with respect to v_sigma:
    # 1/steps on each tile stepped onto while live, nothing for a revisit
    v_sigma = parameter(fields.v_sigma)
    path, score = _engine_plan(v_sigma, fields.w_unknown, tile_map.spawn, tile_map.target,
                               np.random.default_rng(seed), cfg)
    assert path == plan.trajectory and score.item() == plan.score
    backward(score)
    want = np.zeros(h * w)
    want[plan.live_steps] = 1.0 / plan.steps
    np.testing.assert_array_equal(v_sigma.grad.ravel(), want)
    for tile in revisits:  # the first visit's share, if it was live; none for the revisit
        assert v_sigma.grad.ravel()[tile] == (1.0 / plan.steps if tile in plan.live_steps
                                              else 0.0)


def test_empty_training_bank_is_noop():
    params = Robot2NNParams()
    before = params.export()
    losses = srd_train_lavaland(params, MapBank("project-a", 0, []),
                                PRESETS["project-a"], seed=0)
    assert losses == []
    for name, arr in params.export().items():
        np.testing.assert_array_equal(arr, before[name])


def test_non_finite_loss_stops_training_before_the_update():
    bank = generate_maps(3, "project-a", seed=1)
    params = Robot2NNParams()
    params.kernels[SCORED_TILES.index("self"), 4, 0, 0] = np.nan
    before = params.kernels
    with pytest.raises(ValueError, match="map 0: self-reward loss is nan"):
        srd_train_lavaland(params, bank, PRESETS["project-a"], seed=0)
    assert params.kernels is before


def test_training_moves_parameters_deterministically():
    cfg = PRESETS["project-a"]
    bank = generate_maps(24, "project-a", seed=12)
    p1, p2 = Robot2NNParams(), Robot2NNParams()
    l1 = srd_train_lavaland(p1, bank, cfg, seed=5)
    l2 = srd_train_lavaland(p2, bank, cfg, seed=5)
    assert l1 == l2
    for name in p1.export():
        np.testing.assert_array_equal(p1.export()[name], p2.export()[name])
    assert any(not np.array_equal(p1.export()[n], Robot2NNParams().export()[n])
               for n in p1.export())


# -- evaluation ------------------------------------------------------------------------


def test_evaluate_empty_bank_rejected():
    with pytest.raises(ValueError):
        evaluate(Robot2NNParams(), MapBank("project-a", 0, []), PRESETS["project-a"])


def test_evaluate_deterministic():
    bank = generate_maps(24, "project-a", seed=13)
    cfg = PRESETS["project-a"]
    params = Robot2NNParams()
    a = evaluate(params, bank, cfg, seed=1)
    b = evaluate(params, bank, cfg, seed=1)
    assert a.accuracy == b.accuracy
    for name in ("reached", "steps", "score", "traversed"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


def _per_map_episodes(params, bank, cfg, seed):
    """Evaluation map by map: the reference the lockstep evaluator must equal."""
    episodes = []
    for i, tile_map in enumerate(bank.maps):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(3, i)))
        executed, _ = imagine_and_act(build_fields(tile_map, params, cfg), rng, cfg)
        traversed = {"grass": 0, "dirt": 0, "lava": 0, "target": 0}
        for pos in executed.trajectory:
            traversed[tile_map.terrain_at(pos)] += 1
        episodes.append((executed.reached, executed.steps, traversed, executed.score))
    return episodes


def _assert_matches_per_map(params, bank, cfg, seed):
    result = evaluate(params, bank, cfg, seed=seed)
    want = _per_map_episodes(params, bank, cfg, seed)
    got = list(zip(result.reached.tolist(), result.steps.tolist(),
                   [dict(zip(PALETTE, t)) for t in result.traversed.tolist()],
                   result.score.tolist()))
    assert [i for i, (g, w) in enumerate(zip(got, want)) if g != w] == []
    assert (result.reached.dtype, result.steps.dtype.kind) == (bool, "i")
    assert result.traversed.shape == (len(bank.maps), len(PALETTE))
    assert result.accuracy == float(np.mean([reached for reached, _, _, _ in want]))
    return result


@pytest.mark.parametrize("trained", [False, True])
@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_lockstep_evaluation_matches_per_map_reference(preset, trained):
    cfg = PRESETS[preset]
    params = Robot2NNParams()
    if trained:
        srd_train_lavaland(params, generate_maps(32, preset, seed=2), cfg, seed=2)
    _assert_matches_per_map(params, generate_maps(40, preset, seed=3), cfg, seed=4)


def test_mixed_shape_bank_at_a_two_word_seed_matches_per_map_reference():
    # seed 2**33 takes two entropy words; the lone 6x6 map is a shape group
    # of one map, in training's blocks and in evaluation's batches
    cfg = PRESETS["lava-a"]
    seed = 2 ** 33
    big = generate_maps(10, "lava-a", seed=seed).maps
    assert big == [generate_map(np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,))),
                                cfg) for i in range(10)]
    small = generate_map(np.random.default_rng(29), LavaConfig(height=6, width=6, lava_frac=0.1))
    bank = MapBank("lava-a", seed, big[:4] + [small] + big[4:])
    params = Robot2NNParams()
    losses = srd_train_lavaland(params, bank, cfg, seed=seed)
    kernels, want_losses, _ = _per_map_training(bank, cfg, seed=seed)
    np.testing.assert_array_equal(_bits(params.kernels), _bits(kernels))
    assert losses == want_losses
    _assert_matches_per_map(params, bank, cfg, seed=seed)


def test_lockstep_evaluation_of_a_mixed_shape_bank():
    # 1x5 ends have one neighbor, so a step there draws nothing from the stream
    cfg = PRESETS["lava-a"]
    rng = np.random.default_rng(17)
    sizes = [(12, 12), (2, 3), (1, 5), (1, 5), (1, 5)]
    maps = [generate_map(rng, LavaConfig(height=h, width=w, lava_frac=0.1))
            for _ in range(12) for h, w in sizes]
    # walks that leave the only lava tile, the peak, so the peak is re-read
    maps += [TileMap(tiles=["dlddy"], spawn=(0, 0)), TileMap(tiles=["ydgld"], spawn=(0, 4)),
             TileMap(tiles=["dyd", "gdl"], spawn=(1, 1))] * 4
    _assert_matches_per_map(Robot2NNParams(), MapBank("lava-a", 0, maps), cfg, seed=8)


@pytest.mark.parametrize("n_maps,field_batch,walk_cells", [
    (23, 3, 5 * 144),  # walks of 5, 5, 5, 5 and 3 maps; fields of 3 and 2
    # walks of 462 and 461 maps; fields of 16 and, last in each walk, 14 and 13
    (923, lavaland.FIELD_BATCH, lavaland.WALK_CELLS),
])
def test_lockstep_evaluation_of_uneven_batches(monkeypatch, n_maps, field_batch, walk_cells):
    assert n_maps % field_batch and (n_maps * 144) % walk_cells
    assert n_maps * 144 > walk_cells  # more than one walk batch
    monkeypatch.setattr(lavaland, "FIELD_BATCH", field_batch)
    monkeypatch.setattr(lavaland, "WALK_CELLS", walk_cells)
    cfg = PRESETS["lava-a"]
    params = Robot2NNParams()
    srd_train_lavaland(params, generate_maps(16, "lava-a", seed=9), cfg, seed=9)
    result = _assert_matches_per_map(params, generate_maps(n_maps, "lava-a", seed=10), cfg,
                                     seed=11)
    assert 0.0 < result.accuracy < 1.0  # walks that run out of steps are in the batches


@pytest.mark.parametrize("trained", [False, True])
def test_lockstep_evaluation_of_shared_spawn_cells(monkeypatch, trained):
    # 30 maps spawn on at most three cells, 10 more on cells of their own; self
    # fields of 3 grids per deconv_seq call split the distinct cells over calls
    monkeypatch.setattr(lavaland, "SELF_CHUNK", 3)
    cfg = PRESETS["lava-a"]
    params = Robot2NNParams()
    if trained:
        srd_train_lavaland(params, generate_maps(16, "lava-a", seed=12), cfg, seed=12)
    maps = generate_maps(40, "lava-a", seed=13).maps

    def respawn(m, cells):
        """m spawned on the first of ``cells`` that is grass or dirt."""
        cell = next(c for c in cells if m.terrain_at(divmod(c, m.width)) in ("grass", "dirt"))
        return TileMap(tiles=m.tiles, spawn=divmod(cell, m.width))

    shared = [respawn(m, np.roll([0, 77, 143], k).tolist() + list(range(144)))
              for k, m in enumerate(maps[:30])]
    own = []
    for k, m in enumerate(maps[30:]):
        taken = {r * m.width + c for r, c in (o.spawn for o in own)}
        own.append(respawn(m, [c for c in range(13 * k + 1, 144) if c not in taken]))
    assert len({m.spawn for m in shared}) <= 3 and len({m.spawn for m in own}) == 10
    bank = MapBank("lava-a", 13, shared + own)
    assert len({m.spawn for m in bank.maps}) > lavaland.SELF_CHUNK
    _assert_matches_per_map(params, bank, cfg, seed=14)


def test_evaluate_rejects_non_finite_kernels():
    params = Robot2NNParams()
    params.kernels[0, 0, 1, 1] = np.inf
    with pytest.raises(ValueError, match="finite"):
        evaluate(params, generate_maps(2, "project-a", seed=0), PRESETS["project-a"])


def test_histograms_cover_episodes():
    bank = generate_maps(16, "lava-a", seed=14)
    res = evaluate(Robot2NNParams(), bank, PRESETS["lava-a"], seed=0)
    hist = res.traversal_histogram("grass")
    assert sum(hist.values()) == len(bank.maps)


def kernel_rows(params):
    """inspect_kernels' rows as dicts under KERNEL_COLUMNS."""
    return [dict(zip(lavaland.KERNEL_COLUMNS, row)) for row in inspect_kernels(params)]


def test_inspect_kernels_schema():
    rows = kernel_rows(Robot2NNParams())
    assert len(rows) == 180
    assert lavaland.KERNEL_COLUMNS == ("seq", "layer", "row", "col", "value", "center_dominant")
    assert all(len(row) == 6 for row in inspect_kernels(Robot2NNParams()))
    assert all(r["value"] == (1.0 if (r["row"], r["col"]) == (1, 1) else 0.1)
               for r in rows)
    assert all(r["center_dominant"] == 1 for r in rows)


def test_center_dominance_flag_flips():
    params = Robot2NNParams()
    params.kernels[SCORED_TILES.index("dirt"), 2, 0, 0] = 5.0
    rows = kernel_rows(params)
    flagged = [r for r in rows if r["seq"] == "dirt" and r["layer"] == 2]
    assert len(flagged) == 9 and all(r["center_dominant"] == 0 for r in flagged)
    assert all(r["center_dominant"] == 1 for r in rows if r not in flagged)
