"""Fish-sale auction: a server state machine and interpretable negotiators.

A server offers one kind of fish, encoded as the vector
(p, l, w, g, st1, st2, st3, f): price, three quality variables normalized
to 1, three sub-type flags in {-0.5, +0.5}, and f, the fraction of
participants who voted to buy in the previous round.  Each round the server
collects buy / hold / quit decisions from the active agents and branches:

* more buys than stock: price is marked up, nobody buys,
* fewer buys than stock: all buyers purchase, price is marked down,
* buys equal stock (and nonzero): all buyers purchase, auction ends.

Every agent runs a Fish Sale Negotiator (FSN), a small network whose every
weight is hand-set.  The external-sensor stage holds four named neurons:

* PG (price gauge): responds to price above the baseline b=5, slightly
  depressed by good quality,
* SZ (size): responds to length and weight,
* LSR (limited supply rush): responds to the previous round's demand f,
* ST (sub-type match): a match detector peaking when all three sub-type
  flags equal +0.5.

Inputs are cloned into D_ic interleaved copies with small Gaussian noise
and read through a dilated convolution, giving D_ic instances of each
neuron that are averaged: augmentation happens inside the agent, so only
the bare offer crosses the wire.  A decision layer maps (PG, SZ, LSR, ST)
to buy / hold / quit logits, and a frozen judge scores each decision:
holding at a high price and buying at a low one read True, quitting on a
desirable fish reads False.  The sensors (``es_forward_values``), the
decision layer (``decide_values``) and the judge (``pfc``) are plain numpy
over rows, with any number of leading batch axes; bidding and fine-tuning
share this one forward.

During the first few rounds agents may fine-tune the decision layer on
perturbed copies of the offer, labelling each batch with their own judge
(``srd_finetune``).  The sensors are frozen, so the loss is a linear ->
threshold gate -> linear -> cross-entropy chain whose gradient is written
out in closed form, for all agents of a round at once:

    z       = sum over the batch rows r of the judge logits [True, False]
    dz      = softmax(z) - onehot(argmax z)
    dpre_r  = (O^T dz) * tau'(pre_r)       pre_r: gate pre-activations of row r
    dl_r    = G_l^T dpre_r                 G_l: the gate rows' logit columns
    dW      = sum_r dl_r x_r^T,   db = sum_r dl_r

where O is the judge's output layer and x_r the row's sensor state.  Two
rules keep each agent's result what it would be stepping alone, offer by
offer:

* stream order: an agent's ``noise_rng`` is drawn as a per-offer loop
  draws it.  Per epoch, one permutation of the variants, then the clone
  noise of all variants in permuted order; one (V, 8, D_ic - 1) normal draw
  yields the same numbers as V draws of (8, D_ic - 1).  No draw depends on
  the weights, so every draw is taken before the first step.
* zero padding: agents differ in batch size and epoch count, so their step
  lists and batch rows are padded to the longest under a 0/1 row mask.  A
  padded row adds exact zeros to z and to the gradient, so an agent with no
  step left keeps its weights bit for bit.

A round's agents also bid and are screened together.  ``decide_offers``
stacks the ``FsnModel`` agents (those sharing the config values the
forward reads, so in an auction all of them) into (n, 4, 8) sensor kernels
and (n, 3, 4) decision weights and runs one forward over the (n, 8, D_ic)
clone blocks; any other agent answers through its own ``decide_offer``.
``screen_models`` checks every model's kernels against one template per
config and sends all probes through one ``decide_offers`` call.
``decide_offer`` and ``screen_model`` are one-row calls into these.  Each
agent still fills its own rows of clone noise from its own ``noise_rng``,
so its stream is drawn in the same order as if it ran alone: the screening
probe, then per fine-tuning round and epoch the permutation and the
(V, 8, D_ic - 1) noise, then one (8, D_ic - 1) draw per round it bids in.
A standard normal draw scaled by ``clone_noise`` gives the numbers
``normal(0, clone_noise)`` gives, and each stacked product runs the same
small matrix product per agent as a single-agent call, so every decision
is the one the agent would take alone, bit for bit.

The decision-layer magnitudes used here were chosen so that demand is
price-elastic (agents flip from buy to hold as the price climbs) and so
that impatient agents in a dead market occasionally quit; the sign pattern
of every weight keeps its stated meaning.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .layers import selective_core, tau, tau_slope

__all__ = [
    "AuctionConfig", "AuctionState", "AlwaysHoldModel", "FsnModel", "Offer",
    "TrialResult", "base_offer", "decide_offers", "make_offer_variants",
    "run_auction", "run_experiment", "screen_model", "screen_models", "server_step",
    "srd_finetune",
]

BUY, HOLD, QUIT = 0, 1, 2
DECISION_NAMES = ("buy", "hold", "quit")

PG, SZ, LSR, ST = 0, 1, 2, 3

BASE_PRICE = 5.0
DELTA = 0.001

# Decision layer defaults: rows map (PG, SZ, LSR, ST) to (B, L, Q) logits.
# PG pushes against buying and for holding; quality pushes for buying and
# against quitting; the quit bias makes a weak-intent agent in a dead,
# low-price market occasionally walk away.  Magnitudes are set so demand
# declines gradually as the price climbs past the baseline and so the
# demand feedback (LSR) shifts intent without herding cliffs.
W_DECISION = np.array([
    [-1.0, 1.0, 0.1, 1.0],     # B
    [1.3, 0.0, -0.05, 0.0],    # L
    [-0.5, -1.0, -2.0, -1.0],  # Q
])
B_DECISION = np.array([-0.06, 0.0, 3.05])
BIAS_SPREAD = 0.1

JUDGE_FALSE_BIAS = 0.3

# Learners per stacked sensor forward in fine-tuning.  Its clone blocks
# hold (agents, variants, 8, D_ic) floats; at 16 agents they stay below the
# lockstep SGD's own arrays, so fine-tuning peaks no higher than stepping.
FINETUNE_FORWARD_AGENTS = 16

# Judge gate rows over (PG, SZ, LSR, ST, B, L, Q): PGL, BC, FQ.
_PFC_GATES_W = np.array([
    [1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0],               # PGL: PG + L - 1
    [-1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0],              # BC: B - PG
    [0.0, 1 / 3, 1 / 3, 1 / 3, 0.0, 0.0, 1.0],         # FQ: Q + mean(quality) - 1
])
_PFC_GATES_B = np.array([-1.0, 0.0, -1.0])
_PFC_OUT_W = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
_PFC_OUT_B = np.array([0.0, JUDGE_FALSE_BIAS])


def _judge_gates(x_es: np.ndarray,
                 logits: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Judge logits [True, False], gate pre-activations and gates (PGL, BC, FQ)
    for rows of sensor state and decision logits."""
    pre = np.concatenate([x_es, logits], axis=-1) @ _PFC_GATES_W.T + _PFC_GATES_B
    gates = tau(pre)
    return gates @ _PFC_OUT_W.T + _PFC_OUT_B, pre, gates


@dataclass
class AuctionConfig:
    n_agents: int = 64
    base_price: float = BASE_PRICE
    price_step: float = 0.05
    max_rounds: int = 64
    d_ic: int = 5
    clone_noise: float = 0.01
    variant_count: int = 16
    variant_scale: float = 0.05
    variant_flip_prob: float = 0.2
    finetune_rounds: int = 4
    selective_eps: float = 0.01


@dataclass
class Offer:
    """One fish offer: the 8-entry vector the agents evaluate."""

    price: float = BASE_PRICE
    length: float = 1.0
    weight: float = 1.0
    gill: float = 1.0
    subtype: tuple = (0.5, 0.5, 0.5)
    demand: float = 0.5

    def as_array(self) -> np.ndarray:
        return np.array([self.price, self.length, self.weight, self.gill,
                         *self.subtype, self.demand])


def base_offer() -> Offer:
    return Offer()


def make_offer_variants(base: Offer, count: int = 16,
                        seed=None, scale: float = 0.05,
                        flip_prob: float = 0.2) -> list[Offer]:
    """Perturbed copies of the base offer, the agents' fine-tuning set."""
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.default_rng(seed)
    variants = []
    for _ in range(count):
        factors = rng.uniform(1 - scale, 1 + scale, size=4)
        flips = rng.random(3) < flip_prob
        st = tuple(-s if f else s for s, f in zip(base.subtype, flips))
        variants.append(Offer(
            price=base.price * factors[0],
            length=base.length * factors[1],
            weight=base.weight * factors[2],
            gill=base.gill * factors[3],
            subtype=st,
            demand=base.demand,
        ))
    return variants


def es_weight_rows(delta: float = DELTA, base_price: float = BASE_PRICE) -> np.ndarray:
    """The four hand-set sensor kernels (before cloning)."""
    rows = np.full((4, 8), delta)
    rows[PG, 0] += 1.0 / base_price
    rows[PG, 1:4] += -2 * delta
    rows[SZ, 1:3] += 0.5
    rows[LSR, 7] += 1.0
    rows[ST, 4:7] += 1.0 / 3.0
    return rows


ES_BIASES = np.array([0.0, 0.0, 0.0, -0.5])


@functools.lru_cache(maxsize=8)
def _es_template(base_price: float) -> np.ndarray:
    """The sensor kernels for one base price, built once and read-only."""
    rows = es_weight_rows(base_price=base_price)
    rows.flags.writeable = False
    return rows


def _clone(x: np.ndarray, noise: np.ndarray, config: AuctionConfig) -> np.ndarray:
    """Clone each variable D_ic times; clones beyond the first get noise.

    Offer rows (..., 8) become blocks (..., 8, D_ic), one row of clones per
    variable; read row by row, that is the interleaved layout.  ``noise``
    holds standard normal draws (..., 8, D_ic - 1); it is scaled in place.
    """
    block = x[..., None].repeat(config.d_ic, axis=-1)
    noise *= config.clone_noise
    block[..., 1:] += noise
    return block


def _decision_logits(x_es: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Buy / hold / quit logits for sensor rows (..., R, 4) of layers (..., 3, 4)."""
    return x_es @ w.swapaxes(-1, -2) + b[..., None, :]


class FsnModel:
    """One agent's negotiator: frozen sensors, trainable decision layer."""

    def __init__(self, rng: np.random.Generator, config: AuctionConfig | None = None):
        self.config = config or AuctionConfig()
        self.es_rows = _es_template(self.config.base_price).copy()
        self.es_biases = ES_BIASES.copy()
        self.w_dec = W_DECISION.copy()
        bias_noise = rng.uniform(-BIAS_SPREAD, BIAS_SPREAD, size=3)
        self.b_dec = B_DECISION + bias_noise
        # optimizer settings differ per agent; epochs == 0 opts out entirely
        self.epochs = int(rng.integers(0, 3))
        self.batch_size = int(rng.integers(4, 16))
        self.learning_rate = float(rng.uniform(1e-7, 1e-4))
        self.noise_rng = np.random.default_rng(rng.integers(2 ** 63))

    @property
    def malicious(self) -> bool:
        return False

    def es_forward_values(self, x: np.ndarray) -> np.ndarray:
        """Sensor activations (PG, SZ, LSR, ST) for offer rows (..., 8)."""
        return _stacked_sensors([self], x[None])[0]

    def decide_values(self, x_es: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Buy / hold / quit logits for sensor rows (..., 4), and their argmax."""
        logits = _decision_logits(x_es[..., None, :], self.w_dec, self.b_dec)[..., 0, :]
        return logits, logits.argmax(axis=-1)

    def pfc(self, x_es: np.ndarray, logits: np.ndarray) -> np.ndarray:
        """Judge logits [True, False] for rows of sensor state and decision logits.

        Gate neurons over (PG, SZ, LSR, ST, B, L, Q):
        PGL = tau(PG + L - 1)  held out at a high price (a correct call),
        BC  = tau(B - PG)      bought cheap (also correct),
        FQ  = tau(Q + (SZ + LSR + ST)/3 - 1)  quit on a desirable fish.
        True sums PGL and BC; False carries FQ plus a small default bias.
        """
        return _judge_gates(x_es, logits)[0]

    def decide_offer(self, offer: Offer) -> int:
        return int(decide_offers([self], offer)[0])

    def export_params(self) -> dict:
        return {"w_dec": self.w_dec.copy(), "b_dec": self.b_dec.copy()}


class AlwaysHoldModel:
    """A malicious submission: holds forever to push the price down.

    It draws nothing: ``rng`` is taken, and may be None, only so that it is
    built with the same arguments as an ``FsnModel``.
    """

    def __init__(self, rng: np.random.Generator | None,
                 config: AuctionConfig | None = None):
        self.config = config or AuctionConfig()

    @property
    def malicious(self) -> bool:
        return True

    def decide_offer(self, offer: Offer) -> int:
        return HOLD

    def export_params(self) -> dict:
        return {}


def _forward_groups(models) -> list[list[int]]:
    """Indices of the FsnModels among models, grouped by the config values
    their forward reads, so that each group stacks into one forward."""
    groups: dict[tuple, list[int]] = {}
    for i, m in enumerate(models):
        if isinstance(m, FsnModel):
            c = m.config
            groups.setdefault((c.d_ic, c.clone_noise, c.selective_eps), []).append(i)
    return list(groups.values())


def _stacked_sensors(group: list[FsnModel], x: np.ndarray) -> np.ndarray:
    """Sensor activations (PG, SZ, LSR, ST) for offer rows x (n, ..., 8).

    ``x[i]`` holds the offers of ``group[i]``, whose clone noise comes from
    its own ``noise_rng``; the models' kernels and biases are stacked and
    broadcast over the rows.  A group shares the config values the forward
    reads (see ``_forward_groups``).
    """
    config = group[0].config
    noise = np.empty((*x.shape, config.d_ic - 1))
    for m, rows in zip(group, noise):
        m.noise_rng.standard_normal(out=rows)
    batch_axes = tuple(range(1, x.ndim - 1))
    es_rows = np.expand_dims(np.array([m.es_rows for m in group]), batch_axes)
    es_biases = np.expand_dims(np.array([m.es_biases for m in group]), batch_axes)
    pre = (es_rows @ _clone(x, noise, config)).sum(axis=-1) / config.d_ic + es_biases
    out = tau(pre)
    st = pre[..., ST]
    out[..., ST] = selective_core(st * st, config.selective_eps)
    return out


def decide_offers(models, offer: Offer) -> np.ndarray:
    """Buy / hold / quit decision of every model on one offer.

    The FsnModels run one stacked forward per forward config, each filling
    its own row of clone noise from its own ``noise_rng``; any other agent
    answers through its own ``decide_offer``.
    """
    decisions = np.empty(len(models), dtype=int)
    x = offer.as_array()
    for idx in _forward_groups(models):
        group = [models[i] for i in idx]
        x_es = _stacked_sensors(group, np.broadcast_to(x, (len(group), len(x))))
        w = np.array([m.w_dec for m in group])
        b = np.array([m.b_dec for m in group])
        decisions[idx] = _decision_logits(x_es[:, None, :], w, b)[:, 0].argmax(axis=-1)
    for i, m in enumerate(models):
        if not isinstance(m, FsnModel):
            decisions[i] = m.decide_offer(offer)
    return decisions


def screen_models(models, config: AuctionConfig | None = None) -> list[bool]:
    """Dummy screener: accept only constructor-shaped, non-hold-only models.

    Checks each model's sensor weights against the interpretable template,
    the decision sign pattern (PG against buying, quality for it), and
    probes a very cheap offer, which every sensible negotiator buys.  Only
    models that pass the first two checks are probed, all in one
    ``decide_offers`` call.
    """
    config = config or AuctionConfig()
    template = _es_template(config.base_price)
    verdicts = np.zeros(len(models), dtype=bool)
    fsn = [i for i, m in enumerate(models)
           if isinstance(m, FsnModel) and np.shape(m.es_rows) == template.shape]
    if fsn:
        # np.allclose per model, with its default tolerances
        shaped = np.isclose(np.array([models[i].es_rows for i in fsn]),
                            template).all(axis=(1, 2))
        signs = np.sign(np.array([models[i].w_dec[BUY] for i in fsn]))
        shaped &= (signs[:, PG] < 0) & (signs[:, [SZ, LSR, ST]] > 0).all(axis=1)
        probed = [i for i, ok in zip(fsn, shaped) if ok]
        probe = Offer(price=0.25 * config.base_price)
        verdicts[probed] = decide_offers([models[i] for i in probed], probe) == BUY
    return verdicts.tolist()


def screen_model(model, config: AuctionConfig | None = None) -> bool:
    """``screen_models`` for one model."""
    return screen_models([model], config)[0]


def srd_finetune(models, variants: list[Offer], k: int) -> None:
    """One round of self-labelled fine-tuning for a round's agents, in lockstep.

    Only the decision layer learns.  Malicious models, agents whose sampled
    epoch count is zero, and every agent once k reaches its config's
    ``finetune_rounds`` sit the round out.

    Each learner first draws its randomness in per-offer stream order: per
    epoch a permutation of the variants, then the clone noise of every
    variant.  Its sensor rows are laid out epoch after epoch in permuted
    order, so a batch is a run of consecutive rows; one stacked sensor
    forward per epoch fills the rows of up to ``FINETUNE_FORWARD_AGENTS``
    learners still in that epoch.  Then all learners take their SGD steps
    together (``_lockstep_sgd``).
    """
    learners = [m for m in models
                if not m.malicious and m.epochs and k < m.config.finetune_rounds]
    if not learners:
        return
    offers = np.array([v.as_array() for v in variants])
    n_var = len(offers)
    x_es = np.zeros((len(learners), max(m.epochs for m in learners) * n_var, 4))
    for group in _forward_groups(learners):
        for e in range(max(learners[i].epochs for i in group)):
            live = [i for i in group if learners[i].epochs > e]
            for start in range(0, len(live), FINETUNE_FORWARD_AGENTS):
                idx = live[start:start + FINETUNE_FORWARD_AGENTS]
                orders = [learners[i].noise_rng.permutation(n_var) for i in idx]
                x_es[idx, e * n_var:(e + 1) * n_var] = _stacked_sensors(
                    [learners[i] for i in idx], offers[np.array(orders)])
    _lockstep_sgd(learners, x_es, n_var)


def _lockstep_sgd(learners, x_es: np.ndarray, n_var: int) -> None:
    """Every learner's SGD steps over its sensor rows x_es (n, rows, 4), together.

    The steps run on stacked (n, 3, 4) weights, with the closed-form
    gradient in the module docstring and each agent's own learning rate.
    Steps and batch rows past an agent's own schedule are masked to exact
    zeros.
    """
    n = len(learners)
    agents = np.arange(n)
    epochs = np.array([m.epochs for m in learners])
    batch = np.array([m.batch_size for m in learners])

    # step s of agent i covers rows [first, last) of x_es[i]
    per_epoch = -(-n_var // batch)
    steps = np.arange((epochs * per_epoch).max())
    epoch, j = np.divmod(steps, per_epoch[:, None])
    first = epoch * n_var + j * batch[:, None]
    last = epoch * n_var + np.minimum((j + 1) * batch[:, None], n_var)
    rows = first[..., None] + np.arange(batch.max())
    live = (rows < last[..., None]) & (epoch < epochs[:, None])[..., None]
    xs = x_es[agents[:, None, None], np.where(live, rows, 0)]
    keep = live[..., None].astype(float)

    w = np.stack([m.w_dec for m in learners])
    b = np.stack([m.b_dec for m in learners])
    lr = np.array([m.learning_rate for m in learners])
    for s in steps:
        x, kept = xs[:, s], keep[:, s]
        logits = _decision_logits(x, w, b)
        judged, pre, gates = _judge_gates(x, logits)
        z = (judged * kept).sum(axis=1)
        top = z.max(axis=1, keepdims=True)
        lse = top + np.log(np.exp(z - top).sum(axis=1, keepdims=True))
        dz = np.exp(z - lse)
        dz[agents, z.argmax(axis=1)] -= 1.0
        dpre = (dz @ _PFC_OUT_W)[:, None, :] * tau_slope(pre, gates) * kept
        dlogits = dpre @ _PFC_GATES_W[:, 4:]
        w = w - lr[:, None, None] * (dlogits.transpose(0, 2, 1) @ x)
        b = b - lr[:, None] * dlogits.sum(axis=1)
    for m, w_i, b_i in zip(learners, w, b):
        m.w_dec, m.b_dec = w_i, b_i


@dataclass
class Purchase:
    agent: int
    price: float
    round: int


@dataclass
class AuctionState:
    """Server-side bidding state for one auction."""

    config: AuctionConfig
    stock: int
    agents: list
    price: float
    demand_frac: float = 0.5
    k: int = 0
    status: list[str] = field(default_factory=list)
    ledger: list[Purchase] = field(default_factory=list)
    terminated: bool = False

    def __post_init__(self):
        if not self.status:
            self.status = ["active"] * len(self.agents)

    def active_indices(self) -> list[int]:
        return [i for i, s in enumerate(self.status) if s == "active"]

    def current_offer(self) -> Offer:
        return Offer(price=self.price, demand=self.demand_frac)


def server_step(state: AuctionState) -> AuctionState:
    """One bidding round: collect decisions, then branch on demand."""
    if state.terminated:
        raise RuntimeError("cannot step a terminated auction")
    cfg = state.config
    active_before = state.active_indices()
    decisions = decide_offers([state.agents[i] for i in active_before],
                              state.current_offer())

    buyers = [i for i, d in zip(active_before, decisions) if d == BUY]
    quitters = [i for i, d in zip(active_before, decisions) if d == QUIT]
    n_buy = len(buyers)

    for i in quitters:
        state.status[i] = "quit"

    if n_buy > state.stock:
        state.price *= 1 + cfg.price_step
    else:
        for i in buyers:
            state.status[i] = "bought"
            state.ledger.append(Purchase(agent=i, price=state.price, round=state.k))
        state.stock -= n_buy
        if n_buy and state.stock == 0:
            state.terminated = True
        else:
            state.price *= 1 - cfg.price_step

    state.demand_frac = n_buy / len(active_before) if active_before else 0.0
    state.k += 1
    if state.stock == 0 or not state.active_indices() or state.k >= cfg.max_rounds:
        state.terminated = True
    return state


@dataclass
class TrialResult:
    r: float
    available: int
    prices: list[float]
    purchase_rate: float
    rounds: int

    @property
    def units_sold(self) -> int:
        return len(self.prices)

    @property
    def mean_price(self) -> float:
        return float(np.mean(self.prices)) if self.prices else float("nan")


def run_auction(r: float, n: int = 64, optim: bool = False,
                malicious_frac: float = 0.0, seed=None,
                config: AuctionConfig | None = None,
                return_state: bool = False):
    """One full auction with n agents and round(r*n) units of stock."""
    if not 0 < r <= 1:
        raise ValueError(f"item-supply fraction r must be in (0, 1], got {r}")
    if not 0 <= malicious_frac <= 1:
        raise ValueError(f"malicious_frac must be in [0, 1], got {malicious_frac}")
    config = config or AuctionConfig()
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)

    n_malicious = round(malicious_frac * n)
    agents = [AlwaysHoldModel(None, config) for _ in range(n_malicious)]
    for i in range(n_malicious, n):
        agent_rng = np.random.default_rng(np.random.SeedSequence(
            entropy=root.entropy, spawn_key=root.spawn_key + (1, i)))
        agents.append(FsnModel(agent_rng, config))

    # screening: flagged models enter only when malicious mode is explicit;
    # every model is screened either way, since the probe draws clone noise
    passed = screen_models(agents, config)
    if malicious_frac == 0 and not all(passed):
        raise RuntimeError("screener flagged a model outside malicious mode")

    variants_seed = np.random.SeedSequence(entropy=root.entropy,
                                           spawn_key=root.spawn_key + (0,))
    variants = make_offer_variants(
        base_offer(), config.variant_count, variants_seed,
        scale=config.variant_scale, flip_prob=config.variant_flip_prob)

    stock = round(r * n)
    state = AuctionState(config=config, stock=stock, agents=agents,
                         price=config.base_price)
    while not state.terminated:
        if optim and state.k < config.finetune_rounds:
            srd_finetune([state.agents[i] for i in state.active_indices()],
                         variants, state.k)
        server_step(state)

    result = TrialResult(
        r=r,
        available=stock,
        prices=[p.price for p in state.ledger],
        purchase_rate=len(state.ledger) / stock if stock else 0.0,
        rounds=state.k,
    )
    return (result, state) if return_state else result


CONDITIONS = {
    "noOptim": (False, 0.0),
    "Optim": (True, 0.0),
    "malicious-noOptim": (False, 0.5),
    "malicious-Optim": (True, 0.5),
}


def run_experiment(r_grid, trials: int = 10, conditions=None, seed=None,
                   n: int = 64, config: AuctionConfig | None = None,
                   malicious_frac: float = 0.5):
    """Repeated auctions over the supply grid; one summary row per trial.

    The per-(r, trial) seed is independent of the condition, so honest and
    malicious runs are matched: honest agents keep identical construction
    streams in both.
    """
    conditions = conditions or list(CONDITIONS)
    root = np.random.SeedSequence(seed)
    rows = []
    purchases = []
    for name in conditions:
        optim, frac = CONDITIONS[name]
        frac = malicious_frac if frac else 0.0
        for ri, r in enumerate(r_grid):
            for trial in range(trials):
                trial_seed = np.random.SeedSequence(
                    entropy=root.entropy, spawn_key=(ri, trial))
                result = run_auction(r, n=n, optim=optim, malicious_frac=frac,
                                     seed=trial_seed, config=config)
                rows.append({
                    "condition": name,
                    "r": r,
                    "trial": trial,
                    "price": result.mean_price,
                    "purchase_rate": result.purchase_rate,
                })
                for p in result.prices:
                    purchases.append({
                        "condition": name, "r": r, "trial": trial, "price": p,
                    })
    return rows, purchases
