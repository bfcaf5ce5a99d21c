"""Tile world: maps, detectors, score fields, planning, training, reports."""

import numpy as np
import pytest

from selfreward.autodiff import ShapeError, as_tensor, backward, parameter, total
from selfreward.layers import selective_core
from selfreward.lavaland import (
    KNOWN_TILES,
    PALETTE,
    PRESETS,
    EvalResult,
    LavaConfig,
    MapBank,
    Robot2NNParams,
    ScoreField,
    TileMap,
    build_fields,
    deconv_seq,
    evaluate,
    generate_map,
    generate_maps,
    get_aba,
    imagine_and_act,
    inspect_kernels,
    load_bank,
    make_plan,
    plan_quality_loss,
    save_bank,
    srd_train_lavaland,
    unknown_mask,
)


def small_config(**kw):
    defaults = dict(height=6, width=6)
    defaults.update(kw)
    return LavaConfig(**defaults)


def tiny_map():
    return TileMap(tiles=["ddgd", "dgdd", "dddd", "dydd"], spawn=(0, 0))


# -- map generation ------------------------------------------------------------


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
    assert Robot2NNParams().count() == 180
    assert len(Robot2NNParams().trainable()) == 20


def test_graph_recorded_before_load_keeps_its_values():
    params = Robot2NNParams()
    kernel = params.kernels["dirt"][0]
    before = kernel.values.copy()
    squared = total(kernel * kernel)  # recorded at the initial kernel
    arrays = {name: arr + 1.0 for name, arr in params.export().items()}
    params.load(arrays)
    np.testing.assert_array_equal(kernel.values, before + 1.0)
    arrays["dirt/0"][...] = 0.0  # the loaded kernel holds its own copy
    np.testing.assert_array_equal(kernel.values, before + 1.0)
    backward(squared)
    np.testing.assert_array_equal(kernel.grad, 2.0 * before)
    with pytest.raises(ShapeError):
        params.load({**params.export(), "dirt/0": np.zeros(9)})


def test_deconv_seq_bounded_bump_shape_preserving():
    params = Robot2NNParams()
    grid = np.zeros((5, 5))
    grid[2, 2] = 1.0
    out = deconv_seq(params.kernels["target"], as_tensor(grid))
    assert out.values.shape == (5, 5)
    assert np.max(np.abs(out.values)) < 1.0  # tanh keeps magnitudes inside 1
    assert out.values[2, 2] == np.max(out.values)  # bump peaks at the source
    assert out.values[0, 0] < out.values[1, 1] < out.values[2, 2]


def test_deconv_seq_zero_grid_passes_through():
    params = Robot2NNParams()
    out = deconv_seq(params.kernels["dirt"], as_tensor(np.zeros((4, 4))))
    np.testing.assert_array_equal(out.values, 0.0)


def test_fields_compose_and_sum():
    cfg = small_config()
    params = Robot2NNParams()
    fields = build_fields(tiny_map(), params, cfg)
    total = sum(fields.v1[t].values for t in fields.v1)
    np.testing.assert_allclose(fields.v_sigma.values, total, atol=1e-12)
    assert fields.spawn == (0, 0) and fields.target == (3, 1)


def test_grass_contribution_nonpositive_scale():
    cfg = small_config()
    fields = build_fields(tiny_map(), Robot2NNParams(), cfg)
    assert cfg.p_grass < 0
    # grass field values carry the negative preference where grass dominates
    assert fields.v1["grass"].values.min() < 0 or \
        np.allclose(fields.v1["grass"].values, 0)


def test_no_grass_map_leaves_grass_field_marginal():
    # only detector crosstalk leaks in; the field stays far below its
    # preference scale and far below the target field
    m = TileMap(tiles=["dddd", "dddd", "dydd", "dddd"], spawn=(0, 0))
    cfg = small_config(height=4, width=4)
    fields = build_fields(m, Robot2NNParams(), cfg)
    grass_peak = np.max(np.abs(fields.v1["grass"].values))
    assert grass_peak < 0.1 * abs(cfg.p_grass)
    assert grass_peak < 0.1 * np.max(np.abs(fields.v1["target"].values))


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
    loss = plan_quality_loss(plans)
    assert 0.0 <= loss.item() <= 4.0 * cfg.n_plans
    # nudging any single plan score up lowers the loss (frozen normalizer)
    peak = max(abs(p.score) for p in plans)
    for p in plans:
        v = p.score / peak
        d_term = -2 * (1 - np.tanh(v)) * (1 - np.tanh(v) ** 2) / peak
        assert d_term < 0


def test_gradients_reach_kernels_not_frozen_scalars():
    cfg = PRESETS["project-a"]
    bank = generate_maps(2, "project-a", seed=6)
    params = Robot2NNParams()
    fields = build_fields(bank.maps[0], params, cfg)
    _, plans = imagine_and_act(fields, np.random.default_rng(0), cfg)
    backward(plan_quality_loss(plans))
    moved = sum(float(np.abs(k.grad).sum()) for k in params.trainable())
    assert moved > 0.0
    # detector grids are plain arrays: structurally outside the record
    assert isinstance(fields.detectors["grass"], np.ndarray)


def test_empty_training_bank_is_noop():
    params = Robot2NNParams()
    before = params.export()
    losses = srd_train_lavaland(params, MapBank("project-a", 0, []),
                                PRESETS["project-a"], seed=0)
    assert losses == []
    for name, arr in params.export().items():
        np.testing.assert_array_equal(arr, before[name])


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


def test_evaluate_deterministic_and_parallel_consistent():
    bank = generate_maps(24, "project-a", seed=13)
    cfg = PRESETS["project-a"]
    params = Robot2NNParams()
    a = evaluate(params, bank, cfg, seed=1)
    b = evaluate(params, bank, cfg, seed=1)
    assert a.accuracy == b.accuracy
    c = evaluate(params, bank, cfg, seed=1, jobs=2)
    assert c.accuracy == a.accuracy
    assert [e.traversed for e in c.episodes] == [e.traversed for e in a.episodes]


def test_histograms_cover_episodes():
    bank = generate_maps(16, "lava-a", seed=14)
    res = evaluate(Robot2NNParams(), bank, PRESETS["lava-a"], seed=0)
    hist = res.traversal_histogram("grass")
    assert sum(hist.values()) == len(bank.maps)


def test_inspect_kernels_schema():
    rows = inspect_kernels(Robot2NNParams())
    assert len(rows) == 180
    assert set(rows[0]) == {"seq", "layer", "row", "col", "value", "center_dominant"}
    assert all(r["value"] == (1.0 if (r["row"], r["col"]) == (1, 1) else 0.1)
               for r in rows)
    assert all(r["center_dominant"] for r in rows)


def test_center_dominance_flag_flips():
    params = Robot2NNParams()
    params.kernels["dirt"][2].values[0, 0] = 5.0
    rows = inspect_kernels(params)
    flagged = [r for r in rows if r["seq"] == "dirt" and r["layer"] == 2]
    assert all(not r["center_dominant"] for r in flagged)
