"""Fish scenario: detectors, decisions, world dynamics, judge, training."""

import math
import operator
from collections import deque
from functools import reduce

import numpy as np
import pytest

from selfreward import fish1d
from selfreward.autodiff import (
    SgdSettings,
    ShapeError,
    as_tensor,
    backward,
    no_grad,
    parameter,
    pick,
    sgd_step,
    total,
)
from selfreward.fish1d import (
    ACTION_NAMES,
    EAT,
    MOVE,
    TRACE_COLUMNS,
    DeadFishError,
    DecisionMemory,
    FishConfig,
    FishNN,
    FishPFC,
    FishState,
    FishWorld,
    make_world,
    pfc_judge,
    run_episode,
    sense_and_decide,
    srd_train,
    world_step,
)
from selfreward.layers import cross_entropy_self

EPS = 0.01
A_OFF = EPS / (0.25 + EPS)  # detector response to an empty window


@pytest.fixture
def nn():
    return FishNN(FishConfig())


@pytest.fixture
def pfc():
    return FishPFC()


# -- detectors -----------------------------------------------------------------


def hand_detectors(window):
    """Independent derivation: dot products through the match detector."""
    y_fh = np.dot([1.0, 0.0, 0.0], window) - 0.5
    y_ft = np.dot([0.0, 1.0, 1.0], window) - 0.5
    return EPS / (y_fh ** 2 + EPS), EPS / (y_ft ** 2 + EPS)


@pytest.mark.parametrize("window", [
    [0.0, 0.0, 0.0],
    [0.5, 0.0, 0.0],
    [0.0, 0.5, 0.0],
    [0.0, 0.0, 0.5],
])
def test_detector_exactness(nn, window):
    a_fh, a_ft = nn.sense(np.array(window))
    want_fh, want_ft = hand_detectors(window)
    assert abs(a_fh.item() - want_fh) <= 1e-12
    assert abs(a_ft.item() - want_ft) <= 1e-12


def test_detector_named_cases(nn):
    a_fh, a_ft = nn.sense(np.array([0.5, 0.0, 0.0]))
    assert a_fh.item() == pytest.approx(1.0)
    assert a_ft.item() == pytest.approx(A_OFF)
    a_fh, a_ft = nn.sense(np.array([0.0, 0.0, 0.5]))
    assert a_ft.item() == pytest.approx(1.0)


def test_fast_path_matches_graph_path(nn):
    rng = np.random.default_rng(3)
    for _ in range(20):
        window = rng.choice([0.0, 0.5], size=3)
        energy = float(rng.uniform(0, 1))
        g_fh, g_ft = nn.sense(window)
        f_fh, f_ft = nn.sense_values(window)
        assert g_fh.item() == pytest.approx(f_fh, rel=1e-14)
        assert g_ft.item() == pytest.approx(f_ft, rel=1e-14)
        g_logits, g_act = nn.decide(g_fh, g_ft, energy)
        f_logits, f_act = nn.decide_values(f_fh, f_ft, energy, nn.theta())
        np.testing.assert_allclose(g_logits.values, f_logits, rtol=1e-13)
        assert g_act == f_act


# -- decisions at initialization --------------------------------------------------


def test_initial_policy_moves_at_half_energy(nn):
    logits, action = nn.decide(as_tensor(1.0), as_tensor(A_OFF), 0.5)
    assert action == MOVE


def test_initial_policy_eats_when_hungry(nn):
    _, action = nn.decide(as_tensor(1.0), as_tensor(A_OFF), 0.3)
    assert action == EAT


def test_initial_policy_moves_without_food(nn):
    _, action = nn.decide(as_tensor(A_OFF), as_tensor(1.0), 0.9)
    assert action == MOVE
    _, action = nn.decide(as_tensor(A_OFF), as_tensor(A_OFF), 0.2)
    assert action == MOVE


# -- world dynamics ----------------------------------------------------------------


def test_world_food_layout():
    w = FishWorld(0)
    assert w.food_here and not w.food_there
    w = FishWorld(3)  # food two cells ahead
    assert not w.food_here and w.food_there


def test_eat_restores_and_consumes():
    w, s = FishWorld(0), FishState(0.5)
    world_step(w, s, EAT, FishConfig())
    assert s.energy == pytest.approx(1.0)
    assert not w.food_here


def test_eat_without_food_still_decays():
    w, s = FishWorld(2), FishState(0.5)
    world_step(w, s, EAT, FishConfig())
    assert s.energy == pytest.approx(0.45)
    assert w.window == FishWorld(2).window


def test_move_rolls_window_left():
    w, s = FishWorld(0), FishState(1.0)
    seen = [w.window]
    for _ in range(5):
        world_step(w, s, MOVE, FishConfig())
        seen.append(w.window)
    # after food_period moves the same layout comes around again
    assert seen[0] == seen[5]
    assert seen[1] == (0.0, 0.0, 0.0)
    assert seen[3] == (0.0, 0.0, 0.5)


def test_twenty_moves_starve_the_fish():
    w, s = FishWorld(1), FishState(1.0)
    for _ in range(20):
        world_step(w, s, MOVE, FishConfig())
    assert s.energy == 0.0 and not s.alive
    with pytest.raises(DeadFishError):
        world_step(w, s, MOVE, FishConfig())


# -- judge --------------------------------------------------------------------


def forced_judgment(pfc, scenario, action, energy):
    """Judge a forced (scenario, action) pair with one-hot action encoding."""
    a = {"food-here": (1.0, A_OFF), "food-there": (A_OFF, 1.0),
         "no-food": (A_OFF, A_OFF)}[scenario]
    e, m = (1.0, 0.0) if action == EAT else (0.0, 1.0)
    with no_grad():
        out = pfc.judge(as_tensor(np.array([a[0], a[1], energy, e, m])))
    return "T" if int(np.argmax(out.values)) == 0 else "F"


CORRECT_PAIRS = [("food-here", EAT), ("food-there", MOVE), ("no-food", MOVE)]
WRONG_PAIRS = [("food-here", MOVE), ("food-there", EAT), ("no-food", EAT)]


def test_judge_approves_designed_pairs(pfc):
    for scenario, action in CORRECT_PAIRS:
        assert forced_judgment(pfc, scenario, action, 0.5) == "T"


@pytest.mark.xfail(
    strict=True,
    reason="not linearly separable: with the fixed gate rows and a bounded "
    "action encoding, the e1/m1 gates half-fire on the wrong member of each "
    "(scenario, action) pair, so no linear judge can flag all three "
    "mismatches; the judge is weighted so that training still pushes the "
    "policy the right way")
def test_judge_flags_wrong_pairs(pfc):
    for scenario, action in WRONG_PAIRS:
        assert forced_judgment(pfc, scenario, action, 0.5) == "F"


def test_judge_reads_quiet_gates_as_false(pfc):
    # full fish, food ahead, eat forced: every gate stays near zero
    assert forced_judgment(pfc, "food-there", EAT, 1.0) == "F"


def test_judge_worked_trace(pfc, nn):
    # hungry fish eating available food: e1 saturates, verdict True
    a_fh, a_ft = nn.sense(np.array([0.5, 0.0, 0.0]))
    logits, _ = nn.decide(a_fh, a_ft, 0.2)
    out = pfc_judge(pfc, a_fh, a_ft, 0.2, logits)
    assert out.values[0] > out.values[1]


# -- decision memory ----------------------------------------------------------


def test_memory_sums_last_mem_judgments():
    rng = np.random.default_rng(4)
    for size in (1, 3, 8):
        mem = DecisionMemory(size)
        verdicts = [rng.normal(size=2) * 10.0 ** rng.integers(-8, 8) for _ in range(20)]
        for i, verdict in enumerate(verdicts):
            mem.push(tuple(verdict.tolist()), (0.0,) * 8)
            # bit for bit the oldest-first sum of the window
            expected = reduce(operator.add, verdicts[max(0, i + 1 - size):i + 1])
            z = mem.z()
            assert all(type(v) is float for v in z)
            assert np.array(z).tobytes() == expected.tobytes()
            assert mem.full == (i + 1 >= size)


def test_memory_gradient_sums_the_window_jacobians():
    rng = np.random.default_rng(5)
    mem = DecisionMemory(3)
    rows = [rng.normal(size=8) for _ in range(5)]
    dz = rng.normal(size=2)
    for i, row in enumerate(rows):
        mem.push((0.0, 0.0), tuple(row.tolist()))
        # each judgment's 2 x 8 Jacobian: the true row, then its negation
        window = [np.stack([r, -r]) for r in rows[max(0, i - 2):i + 1]]
        np.testing.assert_allclose(mem.gradient(tuple(dz.tolist())),
                                   sum(j.T @ dz for j in window), rtol=1e-13, atol=1e-15)


def test_memory_empty_z_raises():
    with pytest.raises(ValueError):
        DecisionMemory(4).z()
    with pytest.raises(ValueError):
        DecisionMemory(0)


def perturbed_fish(rng):
    """A fish with randomized action weights, in a random world and energy."""
    nn = FishNN(FishConfig())
    nn.import_params({"w_act": nn.w_act + rng.normal(0, 0.5, (2, 3)),
                      "b_act": rng.normal(0, 0.5, 2)})
    world, state = make_world(int(rng.integers(1000)), nn.config)
    state.energy = float(rng.uniform(0.05, 1.0))
    return nn, world, state


def test_cached_jacobian_matches_engine_gradient_of_each_verdict():
    rng = np.random.default_rng(6)
    pfc = FishPFC()
    for _ in range(40):
        nn, world, state = perturbed_fish(rng)
        _, v0 = sense_and_decide(nn, nn.theta(), world, state)
        _, pre, gates = pfc.judge_values_and_gates(v0)
        row = pfc.jacobian(v0, pre, gates)
        assert len(row) == 8 and all(type(d) is float for d in row)
        nn.w_act, nn.b_act = parameter(nn.w_act), parameter(nn.b_act)
        a_fh, a_ft = nn.sense(world.window)
        logits, _ = nn.decide(a_fh, a_ft, state.energy)
        verdict = pfc_judge(pfc, a_fh, a_ft, state.energy, logits)
        # the true verdict's row, then the false verdict's: its negation
        for c, jac in enumerate((np.array(row), -np.array(row))):
            backward(pick(verdict, c))
            want = np.concatenate([nn.w_act.grad.ravel(), nn.b_act.grad])
            np.testing.assert_allclose(jac, want, rtol=1e-12, atol=1e-15)
            nn.w_act.zero_grad()
            nn.b_act.zero_grad()


def test_cached_jacobian_matches_central_differences():
    """Every entry of d verdict / d theta against central differences of the
    plain forward: sense_and_decide's v0, then judge_values_and_gates."""
    rng = np.random.default_rng(8)
    pfc = FishPFC()
    step = 1e-6
    for _ in range(20):
        nn, world, state = perturbed_fish(rng)
        _, v0 = sense_and_decide(nn, nn.theta(), world, state)
        _, pre, gates = pfc.judge_values_and_gates(v0)
        # a difference straddling the gates' kink at 0 measures no derivative
        assert np.abs(pre).min() > 1e-3
        row = np.array(pfc.jacobian(v0, pre, gates))
        jac = np.stack([row, -row])  # the false verdict's row is the negation
        theta = np.concatenate([nn.w_act.ravel(), nn.b_act])

        def verdict(t):
            v0 = sense_and_decide(nn, tuple(t.tolist()), world, state)[1]
            return np.array(pfc.judge_values_and_gates(v0)[0])

        numeric = np.empty((2, 8))
        for k in range(8):
            shift = np.zeros(8)
            shift[k] = step
            numeric[:, k] = (verdict(theta + shift) - verdict(theta - shift)) / (2 * step)
        np.testing.assert_allclose(jac, numeric, rtol=1e-6, atol=1e-8)
        assert np.abs(jac).max() > 1e-3


# -- episodes and training -----------------------------------------------------


def energies(trace):
    """The decision-time energy F of each run_episode record."""
    return [row[TRACE_COLUMNS.index("F")] for row in trace]


def test_empty_episode(nn, pfc):
    w, s = make_world(0, nn.config)
    assert run_episode(nn, pfc, w, s, 0) == []


def test_untrained_fish_survives_long_run(nn, pfc):
    w, s = make_world(7, nn.config)
    trace = run_episode(nn, pfc, w, s, 20000)
    assert len(trace) == 20000
    assert all(F > 0 for F in energies(trace))
    assert s.alive


def graph_decisions(nn, pfc, world, state, steps):
    """The (action, verdict) of each step, from the engine's graph forward:
    FishNN.sense, then decide, then pfc_judge.  Reference loop."""
    decisions = []
    with no_grad():
        for _ in range(steps):
            if not state.alive:
                break
            a_fh, a_ft = nn.sense(world.window)
            logits, action = nn.decide(a_fh, a_ft, state.energy)
            verdict = pfc_judge(pfc, a_fh, a_ft, state.energy, logits)
            decisions.append((ACTION_NAMES[action],
                              "T" if int(np.argmax(verdict.values)) == 0 else "F"))
            world_step(world, state, action, nn.config)
    return decisions


@pytest.mark.parametrize("seed", range(8))
def test_float_episode_matches_graph_forward(seed, pfc):
    # by seed: the designed policy, one trained off it, and an eager eater
    # whose moves past food the judge flags F
    kind = seed % 3
    if kind == 1:
        nn = srd_train(300, seed=seed)[0]
    else:
        nn = FishNN(FishConfig(eat_bias=0.5 if kind == 2 else 0.0))
    steps = 3000
    trace = run_episode(nn, pfc, *make_world(seed, nn.config), steps)
    want = graph_decisions(nn, pfc, *make_world(seed, nn.config), steps)
    assert [(action, judge) for *_, action, judge in trace] == want
    assert len(want) == steps
    assert (kind == 2) == ("F" in {judge for _, judge in want})


def test_trace_is_deterministic(nn, pfc):
    t1 = run_episode(nn, pfc, *make_world(5, nn.config), 500)
    nn2, pfc2 = FishNN(FishConfig()), FishPFC()
    t2 = run_episode(nn2, pfc2, *make_world(5, nn2.config), 500)
    assert t1 == t2


def test_starving_fish_ends_the_episode_and_stops_training():
    config = FishConfig(eat_bias=-100.0)  # the fish never eats
    world, state = make_world(0, config)
    trace = run_episode(FishNN(config), FishPFC(), world, state, 1000)
    assert not state.alive
    assert 0 < len(trace) < 1000
    assert {row[TRACE_COLUMNS.index("action")] for row in trace} == {"move"}
    with pytest.raises(ValueError, match=f"^step {len(trace)}: the fish starved; "
                                         "training stopped$"):
        srd_train(1000, config, seed=0)


def test_zero_training_steps_changes_nothing():
    nn, _, losses = srd_train(0, seed=0)
    ref = FishNN(FishConfig())
    np.testing.assert_array_equal(nn.w_act, ref.w_act)
    np.testing.assert_array_equal(nn.b_act, ref.b_act)
    assert losses == []


def test_short_training_moves_eat_weight_up():
    before = FishNN(FishConfig()).w_act[EAT, 0]
    nn, _, _ = srd_train(1500, seed=2)
    assert nn.w_act[EAT, 0] > before


def nan_verdicts_from(monkeypatch, step):
    """Make the judge's verdict NaN from training step ``step`` on."""
    judge = FishPFC.judge_values_and_gates
    calls = []

    def judge_then_spoil(self, v0):
        verdict, pre, gates = judge(self, v0)
        calls.append(v0)
        if len(calls) > step:
            verdict = (math.nan, math.nan)
        return verdict, pre, gates

    monkeypatch.setattr(FishPFC, "judge_values_and_gates", judge_then_spoil)


def test_non_finite_loss_stops_training_before_the_update(monkeypatch):
    nan_verdicts_from(monkeypatch, 20)
    updates = []
    gradient = DecisionMemory.gradient

    def counted_gradient(self, dz):
        updates.append(dz)
        return gradient(self, dz)

    monkeypatch.setattr(DecisionMemory, "gradient", counted_gradient)
    with pytest.raises(ValueError, match="step 20: self-reward loss is nan"):
        srd_train(50, seed=0)
    # steps mem-1 .. 19 updated the weights; step 20 stopped before its update
    assert len(updates) == 20 - FishConfig().mem + 1


def engine_srd_train(steps, seed, config):
    """srd_train written on the engine: graph forward, one backward through
    the last ``mem`` judgment graphs per step, sgd_step.  Reference loop."""
    nn, pfc = FishNN(config), FishPFC()
    nn.w_act, nn.b_act = parameter(nn.w_act), parameter(nn.b_act)
    world, state = make_world(seed, config)
    memory = deque(maxlen=config.mem)
    settings = SgdSettings(config.learning_rate)
    losses, actions = [], []
    for _ in range(steps):
        a_fh, a_ft = nn.sense(world.window)
        logits, action = nn.decide(a_fh, a_ft, state.energy)
        memory.append(pfc_judge(pfc, a_fh, a_ft, state.energy, logits))
        if len(memory) == config.mem:
            loss = cross_entropy_self(reduce(operator.add, memory))
            backward(loss)
            sgd_step([nn.w_act, nn.b_act], settings)
            losses.append(loss.item())
        actions.append(action)
        world_step(world, state, action, config)
    return nn, losses, actions


def assert_training_matches_engine(steps, seed, config, monkeypatch):
    """srd_train against engine_srd_train: the same actions, params and
    losses within 1e-12, and trained fish that run and are judged alike."""
    ref_nn, ref_losses, ref_actions = engine_srd_train(steps, seed, config)
    actions = []

    def recording_step(world, state, action, config):
        actions.append(action)
        return world_step(world, state, action, config)

    with monkeypatch.context() as patch:
        patch.setattr(fish1d, "world_step", recording_step)
        nn, pfc, losses = srd_train(steps, config, seed=seed)
    assert actions == ref_actions
    np.testing.assert_allclose(nn.w_act, ref_nn.w_act.values, rtol=0, atol=1e-12)
    np.testing.assert_allclose(nn.b_act, ref_nn.b_act.values, rtol=0, atol=1e-12)
    assert len(losses) == len(ref_losses) == steps - config.mem + 1
    np.testing.assert_allclose(losses, ref_losses, rtol=0, atol=1e-12)
    ref_nn.import_params({"w_act": ref_nn.w_act.values, "b_act": ref_nn.b_act.values})
    trace = run_episode(nn, pfc, *make_world(seed, config), 3000)
    ref_trace = run_episode(ref_nn, pfc, *make_world(seed, config), 3000)
    assert [row[-2:] for row in trace] == [row[-2:] for row in ref_trace]


@pytest.mark.parametrize("seed", [0, 11])
def test_closed_form_fish_training_matches_engine(seed, monkeypatch):
    assert_training_matches_engine(2000, seed, FishConfig(), monkeypatch)


# the defaults, mem 8 at learning rate 0.5, run in the test above
@pytest.mark.parametrize("mem, learning_rate", [(1, 0.5), (3, 0.5), (8, 0.1)])
def test_float_training_matches_engine_across_mem_and_learning_rate(
        mem, learning_rate, monkeypatch):
    config = FishConfig(mem=mem, learning_rate=learning_rate)
    steps = 2000
    if mem == 1:
        # a window of one verdict trains the fish to starve within a few
        # dozen steps; compare the two trainers up to the step it dies in
        with pytest.raises(ValueError, match="the fish starved") as err:
            srd_train(steps, config, seed=3)
        steps = int(str(err.value).split(":")[0].removeprefix("step "))
    assert_training_matches_engine(steps, 3, config, monkeypatch)


@pytest.mark.parametrize("learning_rate", [0.0, -1e-3, math.nan])
def test_training_rejects_a_non_positive_learning_rate(learning_rate):
    with pytest.raises(ValueError, match="^learning_rate must be positive and finite, got "):
        srd_train(10, FishConfig(learning_rate=learning_rate), seed=0)


@pytest.mark.parametrize("field,value", [
    ("learning_rate", math.inf), ("selective_eps", 0.0), ("selective_eps", -0.01),
    ("selective_eps", math.nan), ("energy_decay", -0.1), ("energy_decay", math.inf),
    ("energy_decay", math.nan), ("initial_energy", 0.0), ("initial_energy", 1.5),
    ("initial_energy", math.nan),
])
def test_config_rejects_invalid_values(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be"):
        FishConfig(**{field: value})


def test_config_keeps_edge_values():
    FishConfig(energy_decay=0.0, initial_energy=1.0)
    FishConfig(initial_energy=1e-9, selective_eps=1e-12)


def test_graph_recorded_before_import_params_keeps_its_values():
    nn = FishNN(FishConfig())
    before = nn.w_act.copy()
    w_act = parameter(nn.w_act)  # shares the model's array
    squared = total(w_act * w_act)  # recorded at the initial weights
    params = {"w_act": before + 1.0, "b_act": np.array([0.25, -0.25])}
    nn.import_params(params)
    params["w_act"][...] = 0.0  # the imported weights are the model's own copy
    np.testing.assert_array_equal(nn.w_act, before + 1.0)
    np.testing.assert_array_equal(nn.b_act, [0.25, -0.25])
    backward(squared)
    np.testing.assert_array_equal(w_act.grad, 2.0 * before)
    with pytest.raises(ShapeError):
        nn.import_params({"w_act": np.zeros((3, 2)), "b_act": np.zeros(2)})
    with pytest.raises(ShapeError):
        nn.import_params({"w_act": np.zeros((2, 3)), "b_act": 0.0})


def test_training_raises_average_energy():
    cfg = FishConfig()
    nn, pfc, _ = srd_train(12000, cfg, seed=11)
    base_nn, base_pfc = FishNN(cfg), FishPFC()
    mean_trained = np.mean(energies(run_episode(nn, pfc, *make_world(11, cfg), 4000)))
    mean_base = np.mean(energies(run_episode(base_nn, base_pfc, *make_world(11, cfg), 4000)))
    assert mean_trained > mean_base
