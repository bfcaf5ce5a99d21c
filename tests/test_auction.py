"""Auction scenario: offers, sensors, decisions, server machine, trends."""

import copy
import dataclasses
import math

import numpy as np
import pytest

from selfreward import auction, streams
from selfreward.autodiff import DiffTensor, SgdSettings, backward, concat, sgd_step
from selfreward.auction import (
    ACTIVE,
    BASE_OFFER_ROW,
    BOUGHT,
    BUY,
    DEMAND,
    HOLD,
    PRICE,
    QUIT,
    QUITTED,
    AlwaysHoldModel,
    AuctionConfig,
    AuctionState,
    FsnModel,
    W_DECISION,
    _PFC_GATES_B,
    _PFC_GATES_W,
    _PFC_OUT_B,
    _PFC_OUT_W,
    _decision_logits,
    _judge_gates,
    es_weight_rows,
    make_offer_variants,
    offer_row,
    run_auction,
    run_experiment,
    screen_model,
    server_step,
    srd_finetune,
)
from selfreward.layers import cross_entropy_self, fully_connected, threshold_activation
from selfreward.neurons import LEAK_SLOPE, selective_core, tau


def fresh_model(seed=0, **config_kw):
    rng = np.random.default_rng(seed)
    return FsnModel(rng, AuctionConfig(**config_kw))


def run_block(r, seed, optim=False, malicious_frac=0.0, n=64, config=None):
    """The auction ``run_auction`` runs for these arguments, through
    ``_run_block``: its final Population and Markets, one trial each."""
    root = np.random.SeedSequence(seed)
    return auction._run_block(r, [(root.entropy, root.spawn_key)], n, optim, malicious_frac,
                              config or AuctionConfig())


# -- config ------------------------------------------------------------------------


INVALID_CONFIG_VALUES = [
    ("base_price", 0.0), ("base_price", -5.0), ("base_price", float("inf")),
    ("base_price", float("nan")),
    ("price_step", 0.0), ("price_step", 1.0), ("price_step", float("nan")),
    ("max_rounds", 0), ("d_ic", 0), ("variant_count", 0),
    ("clone_noise", -1.0), ("clone_noise", float("inf")), ("clone_noise", float("nan")),
    ("variant_scale", -0.01), ("variant_scale", 1.0), ("variant_scale", float("nan")),
    ("variant_flip_prob", -0.1), ("variant_flip_prob", 1.5),
    ("variant_flip_prob", float("nan")),
    ("finetune_rounds", -1), ("selective_eps", 0.0), ("selective_eps", float("nan")),
    # a value of the wrong type: a float for an integer, a string, a bool
    ("max_rounds", 2.5), ("d_ic", 5.0), ("variant_count", 16.0), ("finetune_rounds", 0.5),
    ("base_price", "5"), ("d_ic", True),
]


def test_every_config_field_has_a_refusal_case():
    assert {field for field, _ in INVALID_CONFIG_VALUES} == \
        {f.name for f in dataclasses.fields(AuctionConfig)}


@pytest.mark.parametrize("field,value", INVALID_CONFIG_VALUES)
def test_config_rejects_invalid_values(field, value):
    with pytest.raises(ValueError, match=field):
        AuctionConfig(**{field: value})


def test_config_keeps_edge_values():
    config = AuctionConfig(d_ic=1, clone_noise=0.0, variant_scale=0.0, variant_flip_prob=1.0,
                           finetune_rounds=0, max_rounds=1, variant_count=1)
    result = run_auction(0.25, n=8, optim=True, seed=0, config=config)
    assert result.rounds == 1
    AuctionConfig(variant_flip_prob=0.0, price_step=0.99)


# -- offers and variants ---------------------------------------------------------


def test_base_offer_vector():
    np.testing.assert_allclose(BASE_OFFER_ROW, [5.0, 1.0, 1.0, 1.0, 0.5, 0.5, 0.5, 0.5])
    assert offer_row(price=2.0, subtype=(0.5, -0.5, 0.5), demand=0.25).tolist() == \
        [2.0, 1.0, 1.0, 1.0, 0.5, -0.5, 0.5, 0.25]


def offer_variants(seed, **config_kw):
    """The fine-tuning set drawn from ``default_rng(seed)`` under these config fields."""
    return make_offer_variants(BASE_OFFER_ROW, np.random.default_rng(seed),
                               AuctionConfig(**config_kw))


def test_variants_deterministic():
    a, b = offer_variants(3), offer_variants(3)
    assert a.tolist() == b.tolist()
    assert a.shape == (AuctionConfig().variant_count, 8)


def test_variants_keep_the_per_variant_draws():
    """Per variant, four uniform factors then three flip draws, as the
    variants were first drawn one offer at a time: the same floats, bit for bit."""
    base = offer_row(price=4.5, length=0.9, weight=1.1, gill=0.8, subtype=(0.5, -0.5, 0.5),
                     demand=0.3)
    rng = np.random.default_rng(12)
    want = []
    for _ in range(16):
        factors = rng.uniform(1 - 0.05, 1 + 0.05, size=4)
        flips = rng.random(3) < 0.2
        want.append([*(b * f for b, f in zip(base[:4], factors)),
                     *(-s if f else s for s, f in zip(base[4:7], flips)), base[7]])
    got = make_offer_variants(base, np.random.default_rng(12), AuctionConfig())
    assert got.tobytes() == np.array(want).tobytes()


def test_variants_zero_scale_copies_continuous_parts():
    vs = offer_variants(0, variant_count=4, variant_scale=0.0, variant_flip_prob=0.0)
    assert vs.shape == (4, 8)
    for v in vs:
        np.testing.assert_allclose(v, BASE_OFFER_ROW)


def test_variants_perturb_within_bounds():
    vs = offer_variants(1, variant_count=32)
    for v in vs:
        assert 4.75 <= v[PRICE] <= 5.25
        assert all(s in (-0.5, 0.5) for s in v[4:7])
        assert v[DEMAND] == 0.5


# -- sensor stage ------------------------------------------------------------------


def hand_es(x, eps=0.01):
    """Independent oracle: plain dot products through the activations."""
    rows = es_weight_rows()
    pre = rows @ x + np.array([0.0, 0.0, 0.0, -0.5])
    out = np.where(pre >= 0, np.tanh(pre), np.tanh(0.01 * pre))
    out[3] = eps / (pre[3] ** 2 + eps)
    return out


def reference_sensors(m, x):
    """The single-agent sensor forward as first written: clone noise from one
    ``normal(0, clone_noise)`` draw, then the model's own (4, 8) kernels."""
    cfg = m.config
    block = x[..., None].repeat(cfg.d_ic, axis=-1)
    block[..., 1:] += m.noise_rng.normal(0.0, cfg.clone_noise,
                                         size=(*x.shape, cfg.d_ic - 1))
    pre = (m.es_rows @ block).sum(axis=-1) / cfg.d_ic + m.es_biases
    out = np.tanh(np.where(pre >= 0, pre, LEAK_SLOPE * pre))
    st = pre[..., 3]
    out[..., 3] = cfg.selective_eps / (st * st + cfg.selective_eps)
    return out


def reference_decide(m, offer):
    """One agent on one offer, alone: the per-agent loop's decision."""
    if not isinstance(m, FsnModel):
        return m.decide_offer(offer)
    logits = reference_sensors(m, offer) @ m.w_dec.T + m.b_dec
    return int(logits.argmax())


def test_es_forward_base_offer_zero_noise():
    m = fresh_model(clone_noise=0.0)
    x = BASE_OFFER_ROW
    got = m.es_forward_values(x)
    want = hand_es(x)
    np.testing.assert_allclose(got, want, atol=1e-12)
    # named expectations: PG ~ tau(1 + small), ST ~ 1
    assert got[0] == pytest.approx(math.tanh(1.004), abs=1e-9)
    assert got[3] > 0.99


def test_es_forward_subtype_mismatch_drops_st():
    m = fresh_model(clone_noise=0.0)
    x = offer_row(subtype=(0.5, -0.5, 0.5))
    got = m.es_forward_values(x)
    assert got[3] == pytest.approx(hand_es(x)[3], abs=1e-12)
    assert got[3] < 0.1  # mismatch suppresses the match detector


def test_es_forward_high_demand_raises_lsr():
    m = fresh_model(clone_noise=0.0)
    lo = m.es_forward_values(offer_row(demand=0.0))[2]
    hi = m.es_forward_values(offer_row(demand=1.0))[2]
    assert lo < 0.05
    assert hi == pytest.approx(math.tanh(1.001 * 1.0 + 0.0095), abs=1e-6)


def test_es_forward_rows_match_single_offers():
    offers = np.array([offer_row(price=p, demand=d)
                       for p, d in ((4.0, 0.1), (5.0, 0.5), (6.5, 0.9))])
    a = fresh_model(seed=5)
    b = fresh_model(seed=5)
    rows = a.es_forward_values(offers)
    assert rows.shape == (3, 4)
    single = np.stack([b.es_forward_values(x) for x in offers])
    np.testing.assert_allclose(rows, single, rtol=0, atol=1e-12)
    # one draw for the batch consumes the stream exactly as three draws do
    assert a.noise_rng.bit_generator.state == b.noise_rng.bit_generator.state


def test_es_clone_layout_interleaves_variables():
    noise = np.ones((8, 4))
    arr = auction._clone(np.arange(8.0), noise, AuctionConfig(clone_noise=0.5)).ravel()
    assert arr.shape == (40,)
    np.testing.assert_array_equal(arr[:5], [0.0, 0.5, 0.5, 0.5, 0.5])
    np.testing.assert_array_equal(arr[5:10], [1.0, 1.5, 1.5, 1.5, 1.5])


def reference_stacked_sensors(es_rows, es_biases, x, noise, config):
    """``_sensors`` as first written: the clone block made by repeating x and
    adding the noise scaled in place, and the clone terms summed by numpy's
    reduction."""
    block = x[..., None].repeat(config.d_ic, axis=-1)
    noise = noise.copy()
    noise *= config.clone_noise
    block[..., 1:] += noise
    pre = (es_rows @ block).sum(axis=-1) / config.d_ic + es_biases
    out = tau(pre)
    st = pre[..., 3]
    out[..., 3] = selective_core(st * st, config.selective_eps)
    return out


@pytest.mark.parametrize("d_ic", [1, 2, 5, 7, 8, 9, 16])
def test_sensors_match_the_first_written_forward_bit_for_bit(d_ic):
    """The clone terms are summed in order below 8 and by numpy's reduction
    from 8 on, where numpy keeps partial sums: the same bits at every D_ic,
    with the shared kernels a bid uses and the stacked ones of fine-tuning."""
    config = AuctionConfig(d_ic=d_ic, clone_noise=0.3)
    rng = np.random.default_rng(d_ic)
    x = rng.uniform(-3.0, 8.0, size=(64, 8))
    noise = rng.standard_normal((64, 8, d_ic - 1))
    es_rows = es_weight_rows() + rng.uniform(-1.0, 1.0, size=(4, 8))
    es_biases = auction.ES_BIASES + rng.uniform(-1.0, 1.0, size=4)
    stacked_rows = es_rows + rng.uniform(-1.0, 1.0, size=(4, 1, 4, 8))
    stacked_biases = es_biases + rng.uniform(-1.0, 1.0, size=(4, 1, 4))
    for args in [(es_rows, es_biases, x, noise),
                 (stacked_rows, stacked_biases, x.reshape(4, 16, 8), noise.reshape(4, 16, 8, -1))]:
        want = reference_stacked_sensors(*args, config)
        got = auction._sensors(*args, config)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


# -- decisions ---------------------------------------------------------------------


def test_cheap_offer_bought():
    m = fresh_model(seed=1)
    assert m.decide_offer(offer_row(price=1.0)) == BUY


def test_expensive_offer_held():
    m = fresh_model(seed=1)
    assert m.decide_offer(offer_row(price=9.0)) == HOLD


def buy_logit(m, x_es):
    """The buy logit of model m's decision layer on one sensor row."""
    return _decision_logits(x_es[None], m.w_dec, m.b_dec)[0, BUY]


def test_lowering_price_strictly_raises_buy_logit():
    m = fresh_model(clone_noise=0.0)
    logits = [buy_logit(m, m.es_forward_values(offer_row(price=p)))
              for p in (6.0, 5.0, 4.0, 3.0)]
    assert all(b > a for a, b in zip(logits, logits[1:]))


def mixed_population():
    """FSN agents (two forward configs), a malicious model and stubs."""
    agents = [fresh_model(seed=s) for s in range(6)]
    agents[1].w_dec = agents[1].w_dec + 0.3
    agents[2].es_rows = agents[2].es_rows * 2.0
    agents[3].es_biases = agents[3].es_biases - 0.5
    agents += [fresh_model(seed=6, d_ic=3), fresh_model(seed=7, d_ic=3, clone_noise=0.2),
               AlwaysHoldModel(np.random.default_rng(0)), StubAgent(BUY), StubAgent(QUIT)]
    order = np.random.default_rng(1).permutation(len(agents))
    return [agents[i] for i in order]


def test_decide_offer_matches_per_agent_reference():
    agents = mixed_population()
    reference = copy.deepcopy(agents)
    seen = set()
    for price in (1.0, 4.0, 5.0, 5.5, 6.0, 9.0, 0.5, 5.25):
        offer = offer_row(price=price, demand=price / 10)
        got = [m.decide_offer(offer) for m in agents]
        assert got == [reference_decide(m, offer) for m in reference]
        seen.update(got)
    assert seen == {BUY, HOLD, QUIT}
    for a, b in zip(agents, reference):
        if isinstance(a, FsnModel):
            assert a.noise_rng.bit_generator.state == b.noise_rng.bit_generator.state


def test_malicious_model_always_holds():
    m = AlwaysHoldModel(np.random.default_rng(0))
    for p in (0.5, 5.0, 50.0):
        assert m.decide_offer(offer_row(price=p)) == HOLD


# -- judge -------------------------------------------------------------------------


def test_pfc_approves_holding_at_high_price():
    x_es = np.array([0.9, 0.75, 0.4, 0.99])
    logits = np.array([0.4, 1.5, 0.2])  # hold winning
    out = _judge_gates(x_es, logits)[0]
    assert out[0] > out[1]


def test_pfc_flags_quitting_on_desirable_fish():
    x_es = np.array([0.3, 0.95, 0.9, 0.99])
    logits = np.array([0.1, 0.2, 1.8])  # quit winning
    out = _judge_gates(x_es, logits)[0]
    assert out[1] > out[0]


def test_pfc_defaults_false_on_quiet_input():
    from selfreward.auction import JUDGE_FALSE_BIAS
    out = _judge_gates(np.zeros(4), np.zeros(3))[0]
    assert out[1] > out[0]
    assert out[1] == pytest.approx(math.tanh(-0.01) + JUDGE_FALSE_BIAS, abs=1e-9)


def test_pfc_matches_hand_formula():
    x_es = np.array([0.8, 0.7, 0.5, 0.9])
    logits = np.array([1.1, 0.9, -0.2])
    out = _judge_gates(x_es, logits)[0]

    def tau(v):
        return math.tanh(v) if v >= 0 else math.tanh(0.01 * v)

    from selfreward.auction import JUDGE_FALSE_BIAS
    pgl = tau(x_es[0] + logits[1] - 1)
    bc = tau(logits[0] - x_es[0])
    fq = tau(logits[2] + x_es[1:4].mean() - 1)
    np.testing.assert_allclose(out, [pgl + bc, fq + JUDGE_FALSE_BIAS], atol=1e-12)


# -- fine-tuning --------------------------------------------------------------------


def test_finetune_noop_after_window():
    m = fresh_model(seed=2)
    m.epochs = 2
    w_before, b_before = m.w_dec.copy(), m.b_dec.copy()
    srd_finetune([m], offer_variants(0), k=4)
    np.testing.assert_array_equal(w_before, m.w_dec)
    np.testing.assert_array_equal(b_before, m.b_dec)


def test_finetune_noop_for_zero_epochs():
    m = fresh_model(seed=2)
    m.epochs = 0
    w_before = m.w_dec.copy()
    srd_finetune([m], offer_variants(0), k=0)
    np.testing.assert_array_equal(w_before, m.w_dec)


def test_finetune_sampled_settings_in_range():
    for seed in range(30):
        m = fresh_model(seed=seed)
        assert m.epochs in (0, 1, 2)
        assert 4 <= m.batch_size <= 15
        assert 1e-7 <= m.learning_rate <= 1e-4


def engine_finetune(model, variants, k):
    """Reference: one agent, offer by offer, through the autodiff engine.

    Each batch sums the judge logits of its offers, built from the engine's
    layers, and takes one SGD step on a cross-entropy against the judge's
    own verdict.
    """
    if (k >= model.config.finetune_rounds or isinstance(model, AlwaysHoldModel)
            or model.epochs == 0):
        return
    w = DiffTensor(model.w_dec.copy(), requires_grad=True)
    b = DiffTensor(model.b_dec.copy(), requires_grad=True)
    settings = SgdSettings(model.learning_rate)
    for _ in range(model.epochs):
        order = model.noise_rng.permutation(len(variants))
        for start in range(0, len(order), model.batch_size):
            z = None
            for idx in order[start:start + model.batch_size]:
                x_es = DiffTensor(model.es_forward_values(variants[idx]))
                logits = fully_connected(x_es, w, b)
                gates = threshold_activation(
                    fully_connected(concat([x_es, logits]), _PFC_GATES_W, _PFC_GATES_B))
                judged = fully_connected(gates, _PFC_OUT_W, _PFC_OUT_B)
                z = judged if z is None else z + judged
            backward(cross_entropy_self(z))
            sgd_step([w, b], settings)
    model.w_dec, model.b_dec = w.values, b.values


def lockstep_agents(settings=((2, 4), (1, 15), (2, 7), (0, 5), (1, 6))):
    """Agents with mixed (epochs, batch_size) and large learning rates."""
    agents = []
    for seed, (epochs, batch_size) in enumerate(settings):
        m = fresh_model(seed=seed)
        m.epochs, m.batch_size, m.learning_rate = epochs, batch_size, 0.1
        agents.append(m)
    return agents


def lockstep_finetune(models, variants, k):
    """One fine-tuning round of the models' learners stacked into one
    ``_finetune`` call, as ``_run_block`` makes it over a block's rows."""
    learners = [m for m in models if not isinstance(m, AlwaysHoldModel)
                and m.epochs and k < m.config.finetune_rounds]
    if not learners:
        return
    config = learners[0].config
    w, b = auction._finetune(*(np.array([getattr(m, name) for m in learners]) for name in (
        "w_dec", "b_dec", "learning_rate", "epochs", "batch_size", "noise_rng")),
        es_weight_rows(config.base_price), auction.ES_BIASES,
        np.broadcast_to(variants, (len(learners), *variants.shape)), config)
    for m, w_i, b_i in zip(learners, w, b):
        m.w_dec[...], m.b_dec[...] = w_i, b_i


def test_lockstep_finetune_matches_engine_reference():
    variants = offer_variants(4)
    ours = lockstep_agents() + [AlwaysHoldModel(np.random.default_rng(0))]
    solo = lockstep_agents() + [AlwaysHoldModel(np.random.default_rng(0))]
    ref = lockstep_agents()
    for k in range(5):  # the last round lies past the fine-tuning window
        lockstep_finetune(ours, variants, k)
        srd_finetune(solo, variants, k)
        for m in ref:
            engine_finetune(m, variants, k)
    for a, s, b in zip(ours, solo, ref):
        np.testing.assert_allclose(a.w_dec, b.w_dec, rtol=0, atol=1e-12)
        np.testing.assert_allclose(a.b_dec, b.b_dec, rtol=0, atol=1e-12)
        assert a.noise_rng.bit_generator.state == b.noise_rng.bit_generator.state
        # the list API's per-learner rounds are the stacked ones, bit for bit
        np.testing.assert_array_equal(s.w_dec, a.w_dec)
        np.testing.assert_array_equal(s.b_dec, a.b_dec)
        assert s.noise_rng.bit_generator.state == a.noise_rng.bit_generator.state
    # every agent with epochs > 0 moved well past the tolerance
    moved = [np.abs(m.w_dec - W_DECISION).max() > 1e-3 for m in ours[:5]]
    assert moved == [True, True, True, False, True]


def test_lockstep_step_matches_central_differences():
    """One step at learning rate 1 over one batch of every row gives
    dW = W_before - W_after; it must equal central differences of the
    self-label loss in the module docstring, its argmax label held fixed."""
    n_var, step = 8, 1e-6
    x_es = np.random.default_rng(4).uniform(-1.0, 1.0, size=(1, n_var, 4))
    m = fresh_model(seed=2)
    w0, b0 = m.w_dec.copy(), m.b_dec.copy()

    def loss(w, b, label=None):
        state = np.concatenate([x_es[0], x_es[0] @ w.T + b], axis=1)
        pre = state @ _PFC_GATES_W.T + _PFC_GATES_B
        gates = np.tanh(np.where(pre >= 0, pre, LEAK_SLOPE * pre))
        z = (gates @ _PFC_OUT_W.T + _PFC_OUT_B).sum(axis=0)
        label = int(z.argmax()) if label is None else label
        return math.log(np.exp(z).sum()) - z[label], label, pre

    _, label, pre = loss(w0, b0)
    # a difference straddling the gates' kink at 0 measures no derivative
    assert np.abs(pre).min() > 1e-3
    w1, b1 = auction._lockstep_sgd(w0[None], b0[None], np.array([1.0]), np.array([1]),
                                   np.array([15]), x_es, n_var)

    def numeric(theta, rebuild):
        grad = np.empty(theta.size)
        for k in range(theta.size):
            shift = np.zeros(theta.shape)
            shift.flat[k] = step
            grad[k] = (loss(*rebuild(theta + shift), label)[0]
                       - loss(*rebuild(theta - shift), label)[0]) / (2 * step)
        return grad.reshape(theta.shape)

    want_w = numeric(w0, lambda w: (w, b0))
    want_b = numeric(b0, lambda b: (w0, b))
    np.testing.assert_allclose(w0 - w1[0], want_w, rtol=1e-6, atol=1e-9)
    np.testing.assert_allclose(b0 - b1[0], want_b, rtol=1e-6, atol=1e-9)
    assert np.abs(want_w).max() > 1e-2


def test_lockstep_padding_leaves_finished_agent_bit_identical():
    # the first agent's two steps run at the same array shapes in both
    # rounds; only the number of steps the other agent takes after them differs
    variants = offer_variants(4)
    finished = []
    for long_epochs in (1, 2):
        short, long = lockstep_agents(((1, 15), (long_epochs, 4)))
        lockstep_finetune([short, long], variants, 0)
        finished.append(short)
    assert not np.array_equal(finished[0].w_dec, W_DECISION)
    np.testing.assert_array_equal(finished[0].w_dec, finished[1].w_dec)
    np.testing.assert_array_equal(finished[0].b_dec, finished[1].b_dec)


def test_lockstep_finetune_gives_every_schedule_its_solo_result():
    """One stacked call over all 24 (epochs, batch_size) schedules leaves each
    learner as fine-tuning it alone (``srd_finetune``) does, bit for bit.  A
    step pads only to the widest batch of the learners still stepping, and a
    learner whose schedule has ended sits out the later steps untouched."""
    settings = [(epochs, batch) for epochs in (1, 2) for batch in range(4, 16)]
    variants = offer_variants(4)
    together, alone = lockstep_agents(settings), lockstep_agents(settings)
    lockstep_finetune(together, variants, 0)
    for m in alone:
        srd_finetune([m], variants, 0)
    steps = {epochs * -(-16 // batch) for epochs, batch in settings}
    assert len(steps) > 1  # schedules end at different steps
    for a, b in zip(together, alone):
        assert not np.array_equal(a.w_dec, W_DECISION)
        np.testing.assert_array_equal(a.w_dec, b.w_dec)
        np.testing.assert_array_equal(a.b_dec, b.b_dec)
        assert a.noise_rng.bit_generator.state == b.noise_rng.bit_generator.state


def test_optim_auction_deterministic_and_moves_weights():
    a = run_auction(0.0625, optim=True, seed=3)
    b = run_auction(0.0625, optim=True, seed=3)
    assert a.prices == b.prices and a.rounds == b.rounds
    (pop_a, _), (pop_b, _) = (run_block(0.0625, 3, optim=True) for _ in range(2))
    np.testing.assert_array_equal(pop_a.w_dec, pop_b.w_dec)
    plain, _ = run_block(0.0625, 3, optim=False)
    assert not np.array_equal(pop_a.w_dec, plain.w_dec)


def test_finetune_does_not_lower_cheap_buy_logit():
    m = fresh_model(seed=3)
    m.epochs = 2
    m.learning_rate = 1e-4
    cheap = offer_row(price=3.0)
    x = m.es_forward_values(cheap)
    before = buy_logit(m, x)
    for k in range(4):
        srd_finetune([m], offer_variants(1), k)
    after = buy_logit(m, x)
    assert after >= before - 1e-9


# -- server machine -----------------------------------------------------------------


class StubAgent:
    def __init__(self, decision):
        self.decision = decision

    def decide_offer(self, offer):
        return self.decision


def make_state(decisions, stock, price=5.0):
    return AuctionState(config=AuctionConfig(), stock=stock,
                        agents=[StubAgent(d) for d in decisions], price=price)


def test_excess_demand_marks_up_without_sales():
    s = make_state([BUY, BUY, BUY], stock=2)
    server_step(s)
    assert s.price == pytest.approx(5.0 * 1.05)
    assert s.prices == [] and s.stock == 2
    assert s.demand_frac == pytest.approx(1.0)
    assert s.k == 1


def test_low_demand_sells_and_marks_down():
    s = make_state([BUY, HOLD, HOLD], stock=2)
    server_step(s)
    assert s.prices == [pytest.approx(5.0)]
    assert s.stock == 1
    assert s.price == pytest.approx(5.0 * 0.95)
    assert s.status[0] == BOUGHT
    assert s.demand_frac == pytest.approx(1 / 3)


def test_matched_demand_terminates():
    s = make_state([BUY, BUY, HOLD], stock=2)
    server_step(s)
    assert s.terminated and s.stock == 0
    assert len(s.prices) == 2


def test_zero_buys_only_drops_price():
    s = make_state([HOLD, HOLD], stock=2)
    server_step(s)
    assert s.price == pytest.approx(5.0 * 0.95)
    assert s.demand_frac == 0.0
    assert not s.terminated


def test_quit_retires_agents():
    s = make_state([QUIT, HOLD], stock=2)
    server_step(s)
    assert s.status[0] == QUITTED
    assert s.active_indices() == [1]


def test_all_quit_terminates():
    s = make_state([QUIT, QUIT], stock=2)
    server_step(s)
    assert s.terminated


def test_stepping_terminated_auction_raises():
    s = make_state([BUY], stock=1)
    server_step(s)
    with pytest.raises(RuntimeError):
        server_step(s)


def test_price_strictly_increasing_under_excess_demand():
    s = make_state([BUY] * 5, stock=2)
    prices = [s.price]
    for _ in range(10):
        server_step(s)
        prices.append(s.price)
    assert all(b > a for a, b in zip(prices, prices[1:]))


# -- whole auctions ------------------------------------------------------------------


def test_auction_conservation_and_statuses():
    result = run_auction(0.25, seed=5)
    _, markets = run_block(0.25, 5)
    assert markets.prices[0] == result.prices
    assert len(result.prices) + markets.stock[0] == round(0.25 * 64)
    # each buyer bought one unit
    assert (markets.status[0] == BOUGHT).sum() == len(result.prices) > 0
    assert set(markets.status[0].tolist()) <= {ACTIVE, BOUGHT, QUITTED}
    assert all(p > 0 for p in result.prices)


def test_auction_deterministic():
    a = run_auction(0.25, seed=9)
    b = run_auction(0.25, seed=9)
    assert a.prices == b.prices and a.rounds == b.rounds


def test_auction_rejects_bad_config():
    with pytest.raises(ValueError):
        run_auction(0.0)
    with pytest.raises(ValueError):
        run_auction(0.5, malicious_frac=1.5)


def test_all_malicious_sells_nothing_price_falls():
    result = run_auction(0.25, malicious_frac=1.0, seed=1)
    assert result.prices == [] and result.purchase_rate == 0.0
    _, markets = run_block(0.25, 1, malicious_frac=1.0)
    assert markets.price[0] < 5.0 * 0.95 ** 60


def test_screening():
    honest = fresh_model(seed=4)
    assert screen_model(honest)
    assert not screen_model(AlwaysHoldModel(np.random.default_rng(0)))
    tampered = fresh_model(seed=4)
    tampered.w_dec[BUY, 0] = +1.0  # price now pushes for buying
    assert not screen_model(tampered)


def reference_screen(m, config):
    """The screener as first written: np.allclose on the template, the sign
    pattern, then a probe, one model at a time."""
    if not isinstance(m, FsnModel):
        return False
    if not np.allclose(m.es_rows, es_weight_rows(base_price=config.base_price)):
        return False
    signs = np.sign(m.w_dec[BUY])
    if not (signs[0] < 0 and all(signs[i] > 0 for i in (1, 2, 3))):
        return False
    return reference_decide(m, offer_row(price=0.25 * config.base_price)) == BUY


def test_screen_model_matches_per_model_reference():
    flipped, nudged, moved = (fresh_model(seed=s) for s in (5, 6, 7))
    flipped.w_dec = -flipped.w_dec
    nudged.es_rows = nudged.es_rows + 1e-10  # inside np.allclose's tolerance
    moved.es_rows = moved.es_rows + 1e-3
    models = [fresh_model(seed=4), AlwaysHoldModel(np.random.default_rng(0)),
              flipped, nudged, moved, fresh_model(seed=8)]
    reference = copy.deepcopy(models)
    config = AuctionConfig()
    verdicts = [screen_model(m, config) for m in models]
    assert verdicts == [True, False, False, True, False, True]
    assert verdicts == [reference_screen(m, config) for m in reference]
    for a, b in zip(models, reference):
        if isinstance(a, FsnModel):
            assert a.noise_rng.bit_generator.state == b.noise_rng.bit_generator.state


def test_flagged_models_only_admitted_in_malicious_mode():
    result = run_auction(0.25, malicious_frac=0.5, seed=2)
    # runs fine with flagged agents admitted
    assert result.purchase_rate == len(result.prices) / 16
    # honest mode constructs no flagged models, so no error either way
    run_auction(0.25, malicious_frac=0.0, seed=2)


def test_run_experiment_row_schema():
    rows, purchases = run_experiment([0.25], 2, 0, False, 0.0)
    assert len(rows) == 2
    assert auction.RESULT_COLUMNS == ("condition", "r", "trial", "price", "purchase_rate")
    assert auction.PURCHASE_COLUMNS == ("condition", "r", "trial", "price")
    assert all(len(r) == len(auction.RESULT_COLUMNS) for r in rows)
    assert all(len(p) == len(auction.PURCHASE_COLUMNS) for p in purchases)
    assert all(r[0] == "noOptim" for r in rows + purchases)


@pytest.mark.parametrize("frac", [1.5, -0.25, math.nan])
def test_run_experiment_refuses_malicious_frac_before_any_market(monkeypatch, frac):
    def no_auctions(*args, **kwargs):
        raise AssertionError("a market ran before malicious_frac was checked")

    monkeypatch.setattr(auction, "run_trials", no_auctions)
    with pytest.raises(ValueError, match=r"malicious_frac must be in \[0, 1\]"):
        run_experiment([0.25, 0.5], 3, 0, False, frac)


def test_run_experiment_resolves_its_seed_once(monkeypatch):
    built = []

    class Counting(np.random.SeedSequence):
        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(np.random, "SeedSequence", Counting)
    rows, _ = run_experiment([0.25], 3, 0, True, 0.5, n=16)
    assert [r[0] for r in rows] == ["Optim"] * 3 + ["malicious-Optim"] * 3
    assert len(built) <= 1


def test_matched_seeds_share_honest_agent_construction():
    honest, _ = run_block(0.5, 11)
    mal, _ = run_block(0.5, 11, malicious_frac=0.5)
    # agents 32..63 exist in both worlds with identical sampled settings
    assert honest.fsn[0, 32:].all() and mal.fsn[0, 32:].all()
    for name in ("b_dec", "epochs", "batch_size", "learning_rate"):
        np.testing.assert_array_equal(getattr(honest, name)[0, 32:], getattr(mal, name)[0, 32:])


def reference_finetune(models, variants, k):
    """srd_finetune with each learner's sensor rows filled one epoch at a
    time through the single-agent forward; the steps are the library's."""
    learners = [m for m in models if not isinstance(m, AlwaysHoldModel)
                and m.epochs and k < m.config.finetune_rounds]
    if not learners:
        return
    n_var = len(variants)
    x_es = np.zeros((len(learners), max(m.epochs for m in learners) * n_var, 4))
    for i, m in enumerate(learners):
        for e in range(m.epochs):
            order = m.noise_rng.permutation(n_var)
            x_es[i, e * n_var:(e + 1) * n_var] = reference_sensors(m, variants[order])
    w, b = auction._lockstep_sgd(
        np.array([m.w_dec for m in learners]), np.array([m.b_dec for m in learners]),
        np.array([m.learning_rate for m in learners]), np.array([m.epochs for m in learners]),
        np.array([m.batch_size for m in learners]), x_es, n_var)
    for m, w_i, b_i in zip(learners, w, b):
        m.w_dec, m.b_dec = w_i, b_i


class ReferenceAgent:
    """Bids alone through ``reference_decide``, which ``server_step`` reaches
    through its ``decide_offer``."""

    def __init__(self, model):
        self.model = model

    def decide_offer(self, offer):
        return reference_decide(self.model, offer)


def reference_auction(r, optim, malicious_frac, seed, n=64):
    """run_auction as a per-agent loop: screening, fine-tuning rows and
    bidding agent by agent.  Returns prices, rounds and the agents."""
    config = AuctionConfig()
    root = np.random.SeedSequence(seed)
    agents = []
    for i in range(n):
        seq = np.random.SeedSequence(entropy=root.entropy, spawn_key=root.spawn_key + (1, i))
        kind = AlwaysHoldModel if i < round(malicious_frac * n) else FsnModel
        agents.append(kind(np.random.default_rng(seq), config))
        if kind is FsnModel:  # its noise stream is numpy's, from the seed it drew
            noise_seed = auction._agent_draws(np.random.default_rng(seq))[-1]
            assert (agents[-1].noise_rng.bit_generator.state
                    == np.random.default_rng(noise_seed).bit_generator.state)
    passed = [reference_screen(m, config) for m in agents]
    assert all(passed) or malicious_frac > 0
    variants = make_offer_variants(BASE_OFFER_ROW, np.random.default_rng(
        np.random.SeedSequence(entropy=root.entropy, spawn_key=root.spawn_key + (0,))), config)
    bidders = [ReferenceAgent(m) if isinstance(m, FsnModel) else m for m in agents]
    state = AuctionState(config=config, stock=round(r * n), agents=bidders,
                         price=config.base_price)
    while not state.terminated:
        if optim and state.k < config.finetune_rounds:
            reference_finetune([agents[i] for i in state.active_indices()],
                               variants, state.k)
        server_step(state)
    return state.prices, state.k, agents


@pytest.mark.parametrize("optim", [False, True], ids=["noOptim", "Optim"])
@pytest.mark.parametrize("r, malicious_frac, seed", [
    (0.0625, 0.0, 3), (0.0625, 0.5, 4), (0.25, 0.0, 5), (0.5, 0.5, 6),
    # entropies of several words
    (0.25, 0.5, 2 ** 80 + 5), (0.0625, 0.0, [7, 2 ** 40])])
def test_run_auction_matches_per_agent_reference(optim, r, malicious_frac, seed):
    result = run_auction(r, optim=optim, malicious_frac=malicious_frac, seed=seed)
    pop, markets = run_block(r, seed, optim, malicious_frac)
    prices, rounds, agents = reference_auction(r, optim, malicious_frac, seed)
    assert result.prices == prices and result.rounds == rounds
    assert markets.prices[0] == prices and markets.rounds[0] == rounds
    assert len(prices) > 0
    assert pop.fsn[0].tolist() == [isinstance(m, FsnModel) for m in agents]
    for i, m in enumerate(agents):
        if isinstance(m, FsnModel):
            np.testing.assert_array_equal(pop.w_dec[0, i], m.w_dec)
            np.testing.assert_array_equal(pop.b_dec[0, i], m.b_dec)
            # the block's stream runs ahead by its unread rows: they are the
            # reference's next draws, and after them the two streams agree
            unread = pop.noise[0, i - round(malicious_frac * 64), pop.cursor[0, i]:]
            np.testing.assert_array_equal(unread, m.noise_rng.standard_normal(unread.shape))
            assert pop.noise_rngs[0, i].bit_generator.state == m.noise_rng.bit_generator.state
    if optim:  # fine-tuning moved the weights that were compared
        assert any(not np.array_equal(m.w_dec, W_DECISION)
                   for m in agents if isinstance(m, FsnModel))


@pytest.mark.parametrize("optim", [False, True], ids=["noOptim", "Optim"])
def test_all_malicious_block_matches_per_agent_reference(optim):
    # no FSN agent: the block has no agent stream to seed and no noise to draw
    result = run_auction(0.25, optim=optim, malicious_frac=1.0, seed=8)
    pop, markets = run_block(0.25, 8, optim, 1.0)
    prices, rounds, agents = reference_auction(0.25, optim, 1.0, 8)
    assert result.prices == prices == [] and result.rounds == rounds == markets.rounds[0]
    assert not pop.fsn.any() and all(type(a) is AlwaysHoldModel for a in agents)
    roots = [(8, (0, t)) for t in range(3)]
    results = auction.run_trials(0.25, roots, optim=optim, malicious_frac=1.0)
    assert [(r.prices, r.rounds) for r in results] == [([], rounds)] * 3


# -- construction draws and buffered clone noise ---------------------------------------


def test_decoded_draws_match_agent_draws():
    roots = [(0, (1,)), (2 ** 80 + 5, (3, 1)), ([7, 2 ** 40], (1,))]
    index = range(2 ** 32 - 300, 2 ** 32 + 400)  # indices of one and of two words
    *draws, redraw = auction._decode_draws(streams.random_raw(roots, auction.AGENT_WORDS,
                                                              index))
    assert not redraw.any()
    for j, rng in enumerate(streams.rngs(roots, index)):
        b_dec, *settings = auction._agent_draws(rng)
        assert draws[0][j].tolist() == b_dec.tolist()  # floats bit for bit
        assert [column[j].item() for column in draws[1:]] == settings


PCG_MULT = streams.PCG_MULT_HI << 64 | streams.PCG_MULT_LO


def generator_with_word(word, at):
    """A PCG64 generator whose raw output number ``at`` is ``word``: the
    state that outputs it (top six bits 0, so no rotation), stepped back."""
    inc, state = 2 * 12345 + 1, 1 << 64 | (word ^ 1)
    for _ in range(at + 1):
        state = (state - inc) * pow(PCG_MULT, -1, 2 ** 128) % 2 ** 128
    bit_generator = np.random.PCG64()
    bit_generator.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                           "has_uint32": 0, "uinteger": 0}
    return np.random.Generator(bit_generator)


@pytest.mark.parametrize("low, high, redraws", [
    (0, 1, True), (0, 0, True), (1, 0, True),
    (1, 2 ** 30, True), (1, 2 ** 31, True), (1, 3 * 2 ** 30, True),
    # leftovers of exactly 1 (range 3) and 4 (range 12) are kept
    (0xAAAAAAAB, 0x2AAAAAAB, False), (1, 2 ** 30 + 1, False), (2 ** 32 - 1, 2 ** 32 - 1, False),
], ids=lambda v: hex(v) if isinstance(v, int) and not isinstance(v, bool) else str(v))
def test_decode_flags_exactly_the_words_numpy_redraws(low, high, redraws):
    word = high << 32 | low
    rng = generator_with_word(word, at=3)  # the word both settings read
    words = copy.deepcopy(rng).bit_generator.random_raw(auction.AGENT_WORDS)
    assert words[3] == word
    *draws, flagged = auction._decode_draws(words[None])
    assert flagged.tolist() == [redraws]
    want = auction._agent_draws(rng)
    # numpy reads a seventh word exactly when a bounded draw redraws
    used = generator_with_word(word, at=3).bit_generator
    used.advance(auction.AGENT_WORDS + redraws)
    assert rng.bit_generator.state["state"] == used.state["state"]
    if not redraws:
        assert draws[0][0].tolist() == want[0].tolist()
        assert [column[0].item() for column in draws[1:]] == list(want[1:])


def test_population_on_the_fallback_for_every_row_matches(monkeypatch):
    roots = [(5, (0, t)) for t in range(3)] + [(2 ** 70, (2 ** 40,))]
    fast = auction.Population(roots, 16, 5, AuctionConfig(), False)
    decode = auction._decode_draws
    monkeypatch.setattr(auction, "_decode_draws",
                        lambda words: (*decode(words)[:-1], np.ones(len(words), dtype=bool)))
    slow = auction.Population(roots, 16, 5, AuctionConfig(), False)
    for name in ("fsn", "b_dec", "epochs", "batch_size", "learning_rate"):
        np.testing.assert_array_equal(getattr(slow, name), getattr(fast, name))
        assert getattr(slow, name).dtype == getattr(fast, name).dtype
    assert [g.bit_generator.state for g in slow.noise_rngs[slow.fsn]] == \
        [g.bit_generator.state for g in fast.noise_rngs[fast.fsn]]


@pytest.mark.parametrize("optim, malicious_frac", [
    (False, 0.0), (True, 0.0), (False, 0.5), (True, 0.5)],
    ids=["noOptim", "Optim", "malicious-noOptim", "malicious-Optim"])
def test_noise_chunk_size_changes_no_draw(monkeypatch, optim, malicious_frac):
    """CHUNK 1 draws one row per bid, as the per-agent reference does; 3 and
    8 must leave every stream at the same place, seen through the rows each
    agent would read next: its unread rows, then its stream's."""
    roots = [(11, (0, t)) for t in range(4)]
    config = AuctionConfig()
    seen = {}
    for chunk in (8, 1, 3):
        monkeypatch.setattr(auction, "CHUNK", chunk)
        pop, markets = auction._run_block(0.0625, roots, 64, optim, malicious_frac, config)
        upcoming = []
        for t, i in zip(*pop.fsn.nonzero()):
            unread = pop.noise[t, i - round(malicious_frac * 64), pop.cursor[t, i]:]
            more = copy.deepcopy(pop.noise_rngs[t, i]).standard_normal(
                (8 - len(unread), *unread.shape[1:]))
            upcoming.append(np.concatenate([unread, more]))
        seen[chunk] = (markets.prices, markets.rounds.tolist(), pop.w_dec, pop.b_dec,
                       np.array(upcoming))
        assert markets.rounds.max() > 8  # some agent drew a second chunk of 8
    for chunk in (1, 3):
        assert seen[chunk][:2] == seen[8][:2]
        for got, want in zip(seen[chunk][2:], seen[8][2:]):
            np.testing.assert_array_equal(got, want)
    if optim:
        assert not np.array_equal(seen[8][2], np.broadcast_to(W_DECISION, seen[8][2].shape))


# -- lockstep trials -----------------------------------------------------------------


def looped_experiment(r_grid, trials, seed, optim, malicious_frac, n, config):
    """run_experiment as a loop of run_auction calls, one per (market, r,
    trial): the honest market, then the malicious one.  Returns its rows and
    purchases, and each trial's Markets."""
    root = np.random.SeedSequence(seed)
    name = "Optim" if optim else "noOptim"
    rows, purchases, markets = [], [], []
    for condition, frac in [(name, 0.0), (f"malicious-{name}", malicious_frac)]:
        for ri, r in enumerate(r_grid):
            for trial in range(trials):
                seq = np.random.SeedSequence(entropy=root.entropy, spawn_key=(ri, trial))
                result = run_auction(r, n=n, optim=optim, malicious_frac=frac, config=config,
                                     seed=seq)
                rows.append((condition, r, trial, result.mean_price, result.purchase_rate))
                purchases += [(condition, r, trial, p) for p in result.prices]
                markets.append(auction._run_block(r, [(seq.entropy, seq.spawn_key)], n, optim,
                                                  frac, config)[1])
    return (rows, purchases), markets


# Decision layers that drive every trial down one path: "eager" agents buy
# at any price, "quitting" ones buy the screener's cheap probe but quit at
# the base price.
DECISION_LAYERS = {
    "default": (W_DECISION, auction.B_DECISION),
    "eager": (W_DECISION, auction.B_DECISION + [3.0, 0.0, 0.0]),
    "quitting": (W_DECISION + [[0.0] * 4, [0.0] * 4, [4.0, 0.0, 0.0, 0.0]],
                 auction.B_DECISION),
}


def trial_path(markets, config):
    """How the one trial of markets ended."""
    prices, stock, rounds = markets.prices[0], markets.stock[0], markets.rounds[0]
    if not prices and stock == 0:
        return "no stock"
    if rounds == 1 and stock == 0:
        return "sold out in round 1"
    if (markets.status[0] == auction.QUITTED).all():
        return "all quit"
    return "max rounds" if rounds == config.max_rounds else "other"


@pytest.mark.parametrize("optim", [False, True], ids=["noOptim", "Optim"])
@pytest.mark.parametrize("seed", range(4))
def test_lockstep_trials_match_per_trial_runs(monkeypatch, optim, seed):
    n, trials = 16, 3
    # blocks of 2 and 1 trials in both markets: the honest one by its drawing
    # agents, the half-malicious one, whose 8 drawing agents a trial would
    # fit 4 trials in a block, by the trials cap
    monkeypatch.setattr(auction, "LOCKSTEP_AGENTS", 2 * n)
    monkeypatch.setattr(auction, "LOCKSTEP_TRIALS", 2)
    config = AuctionConfig(max_rounds=12)
    r_grid = [0.005, 0.25, 1.0]  # round(0.005 * 16) == 0: no stock
    paths = set()
    for w_dec, b_dec in DECISION_LAYERS.values():
        monkeypatch.setattr(auction, "W_DECISION", w_dec)
        monkeypatch.setattr(auction, "B_DECISION", b_dec)
        got = run_experiment(r_grid, trials, seed, optim, 0.5, n=n, config=config)
        want, markets = looped_experiment(r_grid, trials, seed, optim, 0.5, n, config)
        assert repr(got) == repr(want)
        paths |= {trial_path(m, config) for m in markets}
        # each trial of a block also ends with the agents it has alone
        roots = [(seed, (9, trial)) for trial in range(trials)]
        frac = (0.0, 0.5, 1.0, 0.5)[seed]
        pop, block = auction._run_block(0.25, roots, n, optim, frac, config)
        for t, root in enumerate(roots):
            solo, alone = auction._run_block(0.25, [root], n, optim, frac, config)
            assert (block.rounds[t], block.price[t], block.stock[t], block.demand[t],
                    block.status[t].tolist(), block.prices[t]) == \
                (alone.rounds[0], alone.price[0], alone.stock[0], alone.demand[0],
                 alone.status[0].tolist(), alone.prices[0])
            # each buyer bought one unit
            assert (block.status[t] == BOUGHT).sum() == len(block.prices[t])
            np.testing.assert_array_equal(pop.fsn[t], solo.fsn[0])
            np.testing.assert_array_equal(pop.w_dec[t], solo.w_dec[0])
            np.testing.assert_array_equal(pop.b_dec[t], solo.b_dec[0])
            assert [g.bit_generator.state for g in pop.noise_rngs[t, pop.fsn[t]]] == \
                [g.bit_generator.state for g in solo.noise_rngs[0, solo.fsn[0]]]
    assert paths >= {"no stock", "sold out in round 1", "all quit", "max rounds", "other"}


@pytest.mark.parametrize("malicious_frac", [0.0, 0.5, 1.0])
def test_blocks_count_drawing_agents_up_to_the_trials_cap(monkeypatch, malicious_frac):
    """A block takes as many trials as fit ``LOCKSTEP_AGENTS`` drawing (FSN)
    agents, but no more than ``LOCKSTEP_TRIALS``: always-hold agents draw
    nothing, so a half-malicious market runs twice the honest market's
    trials per block, and an all-malicious one is held by the cap."""
    n, full = 64, {0.0: 8, 0.5: 16, 1.0: 64}[malicious_frac]  # 512 drawing agents, 64 trials
    sizes = []
    run_block = auction._run_block

    def recording_run_block(r, roots, *args):
        sizes.append(len(roots))
        return run_block(r, roots, *args)

    monkeypatch.setattr(auction, "_run_block", recording_run_block)
    roots = [(3, (0, t)) for t in range(2 * full + 1)]
    results = auction.run_trials(0.25, roots, n, False, malicious_frac,
                                 AuctionConfig(max_rounds=2))
    assert sizes == [full, full, 1] and len(results) == len(roots)


@pytest.mark.parametrize("seed", range(4))
def test_markets_step_matches_server_step(seed):
    """The vectorised server step against one server_step per trial, on
    random decisions that drive trials down every branch."""
    rng = np.random.default_rng(seed)
    config = AuctionConfig(max_rounds=12)
    trials, n = 16, 6
    # per trial p(buy, hold, quit): held to the last round, quit, bought out, mixed
    moods = [[0.0, 1.0, 0.0], [0.0, 0.5, 0.5], [0.6, 0.4, 0.0], [0.3, 0.5, 0.2]] * 4
    markets = auction.Markets(trials, n, 0, config)
    markets.stock[:] = rng.integers(0, n + 1, size=trials)
    states = [AuctionState(config=config, stock=int(s), price=config.base_price,
                           agents=[StubAgent(HOLD) for _ in range(n)]) for s in markets.stock]
    ends = set()
    while markets.running.any():
        decisions = np.array([rng.choice(3, size=n, p=p) for p in moods])
        for state, row in zip(states, decisions):
            if not state.terminated:
                for agent, d in zip(state.agents, row):
                    agent.decision = d
                server_step(state)
        markets.step(decisions, markets.active())
        for t, state in enumerate(states):
            assert markets.running[t] == (not state.terminated)
            assert (markets.price[t], markets.stock[t], markets.demand[t], markets.rounds[t]) \
                == (state.price, state.stock, state.demand_frac, state.k)
            assert markets.status[t].tolist() == state.status
            assert markets.prices[t] == state.prices
    for state in states:
        ends.add("sold out" if state.stock == 0 else
                 "all left" if not state.active_indices() else "max rounds")
    assert ends == {"sold out", "all left", "max rounds"}
