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
* zero padding: agents differ in batch size and epoch count, so step s
  takes only the agents whose schedule has a step s, their batch rows
  padded to the widest of their batches under a 0/1 row mask.  A padded
  row adds exact zeros to z and to the gradient.

A round's agents also bid and are screened together.  ``decide_offers``
stacks the ``FsnModel`` agents (those sharing the config values the
forward reads, so in an auction all of them) into (n, 4, 8) sensor kernels
and (n, 3, 4) decision weights and runs one forward over the (n, 8, D_ic)
clone blocks; any other agent answers through its own ``decide_offer``.
``screen_models`` checks every model's kernels against one template per
config and sends all probes through one ``decide_offers`` call.  Each
agent fills its own rows of clone noise from its own ``noise_rng``, so its
stream is drawn in the order it would be alone: the screening probe, then
each fine-tuning epoch's draws, then one (8, D_ic - 1) draw per round it
bids in.  A standard normal draw scaled by ``clone_noise`` gives the
numbers ``normal(0, clone_noise)`` gives, and each stacked product runs
the same small matrix product per agent as a single-agent call, so every
decision is the one the agent would take alone, bit for bit.

The trials of an experiment run in lockstep too (``run_trials``;
``run_auction`` is its one-trial call).  A block of trials holds its agents
as one ``Population`` of stacked arrays over (trial, agent): decision
weights, optimizer settings, a ``noise_rng`` each and an is-FSN mask.  Each
trial keeps its own price, stock, demand, round count, status row, ledger
and termination flag (``Markets``).  A round makes one sensor and decision
forward over the active agents of every running trial, then one vectorised
server step; fine-tuning gathers the learners' rows once, tunes them and
writes them back.  Trials have independent seeds and each agent draws only
from its own streams, so interleaving trials changes no draw and no bit:
every trial ends as it would alone.  All of a block's agents live until its
last trial ends, each with a ``noise_rng`` of about 1.6 KB, so a block
holds at most ``LOCKSTEP_AGENTS`` agents.

The decision-layer magnitudes used here were chosen so that demand is
price-elastic (agents flip from buy to hold as the price climbs) and so
that impatient agents in a dead market occasionally quit; the sign pattern
of every weight keeps its stated meaning.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .layers import selective_core, tau, tau_slope

__all__ = [
    "AuctionConfig", "AuctionState", "AlwaysHoldModel", "FsnModel", "Markets", "Offer",
    "Population", "TrialResult", "base_offer", "decide_offers", "make_offer_variants",
    "run_auction", "run_experiment", "run_trials", "screen_model", "screen_models",
    "server_step", "srd_finetune",
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

# Learners per stacked sensor forward in fine-tuning.  It bounds the clone
# blocks, (agents, variants, 8, D_ic) floats, when a block of trials
# fine-tunes hundreds of learners at once; one forward per epoch over all of
# them measured no faster and raised peak memory.
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

    def __post_init__(self):
        """Refuse values an auction cannot run on; each ValueError names its field."""
        for name, need, ok in [
            ("base_price", "positive and finite", 0 < self.base_price < math.inf),
            ("price_step", "in (0, 1)", 0 < self.price_step < 1),
            *[(name, "at least 1", getattr(self, name) >= 1)
              for name in ("max_rounds", "d_ic", "variant_count")],
            ("clone_noise", "at least 0 and finite", 0 <= self.clone_noise < math.inf),
            ("variant_scale", "in [0, 1)", 0 <= self.variant_scale < 1),
            ("variant_flip_prob", "in [0, 1]", 0 <= self.variant_flip_prob <= 1),
            ("finetune_rounds", "at least 0", self.finetune_rounds >= 0),
            ("selective_eps", "positive", self.selective_eps > 0),
        ]:
            if not ok:
                raise ValueError(f"{name} must be {need}, got {getattr(self, name)}")


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
ES_BIASES.flags.writeable = False  # row views share it


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


def _agent_draws(rng: np.random.Generator) -> tuple:
    """One agent's construction draws, in stream order: its decision biases,
    then its optimizer settings (epochs == 0 opts out of fine-tuning), then
    the seed of its ``noise_rng``."""
    b_dec = B_DECISION + rng.uniform(-BIAS_SPREAD, BIAS_SPREAD, size=3)
    epochs = int(rng.integers(0, 3))
    batch_size = int(rng.integers(4, 16))
    learning_rate = float(rng.uniform(1e-7, 1e-4))
    return b_dec, epochs, batch_size, learning_rate, np.random.default_rng(rng.integers(2 ** 63))


class FsnModel:
    """One agent's negotiator: frozen sensors, trainable decision layer."""

    def __init__(self, rng: np.random.Generator, config: AuctionConfig | None = None):
        self.config = config or AuctionConfig()
        self.es_rows = _es_template(self.config.base_price).copy()
        self.es_biases = ES_BIASES.copy()
        self.w_dec = W_DECISION.copy()
        (self.b_dec, self.epochs, self.batch_size, self.learning_rate,
         self.noise_rng) = _agent_draws(rng)

    @classmethod
    def view(cls, pop: Population, t: int, i: int) -> FsnModel:
        """Agent i of trial t of a population; its weights write through."""
        m = cls.__new__(cls)
        m.config = pop.config
        m.es_rows, m.es_biases = _es_template(pop.config.base_price), ES_BIASES
        m.w_dec, m.b_dec = pop.w_dec[t, i], pop.b_dec[t, i]
        m.epochs, m.batch_size = int(pop.epochs[t, i]), int(pop.batch_size[t, i])
        m.learning_rate = float(pop.learning_rate[t, i])
        m.noise_rng = pop.noise_rngs[t, i]
        return m

    @property
    def malicious(self) -> bool:
        return False

    def es_forward_values(self, x: np.ndarray) -> np.ndarray:
        """Sensor activations (PG, SZ, LSR, ST) for offer rows (..., 8)."""
        return _sensors(self.es_rows, self.es_biases, x[None], [self.noise_rng], self.config)[0]

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


def _sensors(es_rows: np.ndarray, es_biases: np.ndarray, x: np.ndarray, rngs,
             config: AuctionConfig) -> np.ndarray:
    """Sensor activations for offer rows x (n, ..., 8), the clone noise of
    ``x[i]`` drawn from ``rngs[i]``.  The kernels (4, 8) and biases (4,) are
    shared, or stacked per row and broadcastable against x."""
    noise = np.empty((*x.shape, config.d_ic - 1))
    for rng, rows in zip(rngs, noise):
        rng.standard_normal(out=rows)
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
        x_es = _sensors(np.array([m.es_rows for m in group]),
                        np.array([m.es_biases for m in group]),
                        np.broadcast_to(x, (len(group), len(x))),
                        [m.noise_rng for m in group], group[0].config)
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


def srd_finetune(models, variants, k: int) -> None:
    """One round of self-labelled fine-tuning for a round's agents, in lockstep.

    Only the decision layer learns.  Malicious models, agents whose sampled
    epoch count is zero, and every agent once k reaches its config's
    ``finetune_rounds`` sit the round out.  ``variants``, a list of Offers,
    is every model's fine-tuning set.  The learners are stacked per forward
    config into ``_finetune``'s arrays; their new weights are written back.
    """
    learners = [m for m in models
                if not m.malicious and m.epochs and k < m.config.finetune_rounds]
    offers = np.array([v.as_array() for v in variants])
    for idx in _forward_groups(learners):
        group = [learners[i] for i in idx]
        w, b = _finetune(*(np.array([getattr(m, name) for m in group]) for name in (
            "w_dec", "b_dec", "learning_rate", "epochs", "batch_size", "noise_rng",
            "es_rows", "es_biases")), np.broadcast_to(offers, (len(group), *offers.shape)),
            group[0].config)
        for m, w_i, b_i in zip(group, w, b):
            m.w_dec[...], m.b_dec[...] = w_i, b_i


def _finetune(w, b, lr, epochs, batch, rngs, es_rows, es_biases, offers,
              config: AuctionConfig) -> tuple[np.ndarray, np.ndarray]:
    """One fine-tuning round of n learners as stacked arrays: decision layers
    w (n, 3, 4) and b (n, 3); learning rates, epoch counts (>= 1), batch
    sizes and ``noise_rng``s (n,); sensor kernels (n, 4, 8) and biases (n, 4),
    or one shared pair; offer rows (n, V, 8).  Returns the new w and b.

    A learner's sensor rows run epoch after epoch in the order it permutes
    the variants (module docstring: stream order), so a batch is a run of
    consecutive rows.  A stacked sensor forward fills the rows of up to
    ``FINETUNE_FORWARD_AGENTS`` learners in one epoch; then all step together.
    """
    (n, n_var), e_max = offers.shape[:2], epochs.max(initial=0)
    es_rows, es_biases = np.broadcast_to(es_rows, (n, 4, 8)), np.broadcast_to(es_biases, (n, 4))
    x_es = np.zeros((n, e_max * n_var, 4))
    for e in range(e_max):
        live = np.flatnonzero(epochs > e)
        for start in range(0, len(live), FINETUNE_FORWARD_AGENTS):
            idx = live[start:start + FINETUNE_FORWARD_AGENTS]
            orders = np.array([rng.permutation(n_var) for rng in rngs[idx]])
            x_es[idx, e * n_var:(e + 1) * n_var] = _sensors(
                es_rows[idx, None], es_biases[idx, None], offers[idx[:, None], orders],
                rngs[idx], config)
    return _lockstep_sgd(w, b, lr, epochs, batch, x_es, n_var)


def _lockstep_sgd(w, b, lr, epochs, batch, x_es: np.ndarray,
                  n_var: int) -> tuple[np.ndarray, np.ndarray]:
    """Every learner's SGD steps over its sensor rows x_es (n, rows, 4), together.

    The steps run on stacked (n, 3, 4) weights w and (n, 3) biases b, with
    each learner's own learning rate, epoch count and batch size (n,), by
    the closed-form gradient and zero padding of the module docstring.
    Returns the new w and b.
    """
    per_epoch = -(-n_var // batch)
    n_steps = epochs * per_epoch
    w, b = w.copy(), b.copy()
    for s in range(n_steps.max(initial=0)):
        on = np.flatnonzero(n_steps > s)
        # step s of learner i covers rows [first, first + width) of x_es[i]
        epoch, j = np.divmod(s, per_epoch[on])
        first = epoch * n_var + j * batch[on]
        width = np.minimum(batch[on], n_var - j * batch[on])
        cols = np.arange(batch[on].max())  # never one row: a 1-row matmul rounds apart
        live = cols < width[:, None]
        x = x_es[on[:, None], np.where(live, first[:, None] + cols, 0)]
        kept = live[..., None].astype(float)
        w_on, b_on = w[on], b[on]
        logits = _decision_logits(x, w_on, b_on)
        judged, pre, gates = _judge_gates(x, logits)
        z = (judged * kept).sum(axis=1)
        top = z.max(axis=1, keepdims=True)
        lse = top + np.log(np.exp(z - top).sum(axis=1, keepdims=True))
        dz = np.exp(z - lse)
        dz[np.arange(len(on)), z.argmax(axis=1)] -= 1.0
        dpre = (dz @ _PFC_OUT_W)[:, None, :] * tau_slope(pre, gates) * kept
        dlogits = dpre @ _PFC_GATES_W[:, 4:]
        w[on] = w_on - lr[on, None, None] * (dlogits.transpose(0, 2, 1) @ x)
        b[on] = b_on - lr[on, None] * dlogits.sum(axis=1)
    return w, b


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
    """One bidding round: collect decisions, then branch on demand.

    ``Markets.step`` applies these rules to a block of trials at once; this
    per-agent form serves as its reference."""
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


ACTIVE, BOUGHT, QUITTED = 0, 1, 2
STATUS_NAMES = ("active", "bought", "quit")

# Agents per block of lockstep trials.  A block's agents all live until its
# last trial ends, each with a noise_rng of about 1.6 KB besides its rows of
# the stacked arrays, so the block sets the peak memory of a run.
LOCKSTEP_AGENTS = 512


class Population:
    """The agents of a block of trials as stacked arrays over (trial, agent).

    Agents 0..n_malicious-1 of each trial are always-hold malicious ones
    (``fsn`` False): they draw nothing, and their rows are never read.
    Agent i of the rest draws from its own generator, spawn key (1, i)
    under its trial's root.
    """

    def __init__(self, roots, n: int, n_malicious: int, config: AuctionConfig):
        shape = (len(roots), n)
        self.config = config
        self.fsn = np.zeros(shape, dtype=bool)
        self.fsn[:, n_malicious:] = True
        self.w_dec = np.tile(W_DECISION, (*shape, 1, 1))
        self.b_dec = np.zeros((*shape, 3))
        self.epochs = np.zeros(shape, dtype=int)
        self.batch_size = np.zeros(shape, dtype=int)
        self.learning_rate = np.zeros(shape)
        self.noise_rngs = np.full(shape, None)
        for t, root in enumerate(roots):
            for i in range(n_malicious, n):
                rng = np.random.default_rng(np.random.SeedSequence(
                    entropy=root.entropy, spawn_key=root.spawn_key + (1, i)))
                (self.b_dec[t, i], self.epochs[t, i], self.batch_size[t, i],
                 self.learning_rate[t, i], self.noise_rngs[t, i]) = _agent_draws(rng)

    def decide(self, live: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Decisions of the FSN agents under the (trial, agent) mask live on
        offer rows x (trials, 8): one stacked forward, as ``decide_offers``."""
        x_es = _sensors(_es_template(self.config.base_price), ES_BIASES,
                        x[live.nonzero()[0]], self.noise_rngs[live], self.config)
        logits = _decision_logits(x_es[:, None, :], self.w_dec[live], self.b_dec[live])
        return logits[:, 0].argmax(axis=-1)


class Markets:
    """Server-side state of a block of auctions, one row per trial: price,
    stock, the previous round's demand, rounds run, each agent's status (a
    code into STATUS_NAMES), whether it still runs, and its ledger."""

    def __init__(self, trials: int, n: int, stock: int, config: AuctionConfig):
        self.config = config
        self.price = np.full(trials, config.base_price)
        self.stock = np.full(trials, stock)
        self.demand = np.full(trials, Offer().demand)
        self.rounds = np.zeros(trials, dtype=int)
        self.status = np.full((trials, n), ACTIVE)
        self.running = np.ones(trials, dtype=bool)
        self.ledgers = [[] for _ in range(trials)]

    def active(self) -> np.ndarray:
        return (self.status == ACTIVE) & self.running[:, None]

    def offers(self) -> np.ndarray:
        x = np.tile(Offer().as_array(), (len(self.price), 1))
        x[:, 0], x[:, 7] = self.price, self.demand
        return x

    def step(self, decisions: np.ndarray) -> None:
        """One bidding round of every running market, by ``server_step``'s rules."""
        config, running, active = self.config, self.running, self.active()
        buy = active & (decisions == BUY)
        n_buy, n_active = buy.sum(axis=1), active.sum(axis=1)
        self.status[active & (decisions == QUIT)] = QUITTED
        marked_up = running & (n_buy > self.stock)
        sells = running & ~marked_up
        for t in np.flatnonzero(sells & (n_buy > 0)):
            buyers = np.flatnonzero(buy[t])
            self.status[t, buyers] = BOUGHT
            price, k = float(self.price[t]), int(self.rounds[t])
            self.ledgers[t] += [Purchase(agent=int(i), price=price, round=k) for i in buyers]
        self.stock[sells] -= n_buy[sells]
        sold_out = sells & (n_buy > 0) & (self.stock == 0)
        self.price[marked_up] *= 1 + config.price_step
        self.price[sells & ~sold_out] *= 1 - config.price_step
        self.demand[running] = n_buy[running] / np.maximum(n_active[running], 1)
        self.rounds[running] += 1
        self.running = (running & (self.stock > 0) & (self.status == ACTIVE).any(axis=1)
                        & (self.rounds < config.max_rounds))


def run_trials(r: float, roots, n: int = 64, optim: bool = False,
               malicious_frac: float = 0.0, config: AuctionConfig | None = None,
               return_states: bool = False) -> list:
    """Full auctions with n agents and round(r*n) units of stock, one per
    root ``SeedSequence``, run in lockstep blocks of up to
    ``LOCKSTEP_AGENTS`` agents.  Each result, and with ``return_states`` each
    (result, state) pair, is the one its trial gives when run alone."""
    if not 0 < r <= 1:
        raise ValueError(f"item-supply fraction r must be in (0, 1], got {r}")
    if not 0 <= malicious_frac <= 1:
        raise ValueError(f"malicious_frac must be in [0, 1], got {malicious_frac}")
    config = config or AuctionConfig()
    per_block = max(1, LOCKSTEP_AGENTS // max(n, 1))
    out = []
    for start in range(0, len(roots), per_block):
        out += _run_block(r, roots[start:start + per_block], n, optim, malicious_frac,
                          config, return_states)
    return out


def _run_block(r, roots, n, optim, malicious_frac, config, return_states) -> list:
    """``run_trials`` for one block: each round, one forward over the block's
    active agents and one server step over its running trials."""
    n_malicious = round(malicious_frac * n)
    pop = Population(roots, n, n_malicious, config)

    # screening: flagged models enter only when malicious mode is explicit.
    # The agents are built from the sensor template and W_DECISION, so only
    # the cheap-offer probe can flag one; every agent takes it, since it
    # draws clone noise.
    probe = np.tile(Offer(price=0.25 * config.base_price).as_array(), (len(roots), 1))
    passed = pop.decide(pop.fsn, probe) == BUY
    if malicious_frac == 0 and not passed.all():
        raise RuntimeError("screener flagged a model outside malicious mode")

    if optim:  # from their own stream, spawn key (0,), so skipping them draws nothing
        variants = np.array([[v.as_array() for v in make_offer_variants(
            base_offer(), config.variant_count,
            np.random.SeedSequence(entropy=root.entropy, spawn_key=root.spawn_key + (0,)),
            scale=config.variant_scale, flip_prob=config.variant_flip_prob)]
            for root in roots])

    stock = round(r * n)
    markets = Markets(len(roots), n, stock, config)
    k = 0
    while markets.running.any():
        live = markets.active() & pop.fsn
        if optim and k < config.finetune_rounds:
            at = (live & (pop.epochs > 0)).nonzero()
            pop.w_dec[at], pop.b_dec[at] = _finetune(
                pop.w_dec[at], pop.b_dec[at], pop.learning_rate[at], pop.epochs[at],
                pop.batch_size[at], pop.noise_rngs[at], _es_template(config.base_price),
                ES_BIASES, variants[at[0]], config)
        decisions = np.full(live.shape, HOLD)
        decisions[live] = pop.decide(live, markets.offers())
        markets.step(decisions)
        k += 1

    out = []
    for t, ledger in enumerate(markets.ledgers):
        result = TrialResult(r=r, available=stock, prices=[p.price for p in ledger],
                             purchase_rate=len(ledger) / stock if stock else 0.0,
                             rounds=int(markets.rounds[t]))
        if return_states:
            agents = [FsnModel.view(pop, t, i) if pop.fsn[t, i]
                      else AlwaysHoldModel(None, config) for i in range(n)]
            state = AuctionState(
                config=config, stock=int(markets.stock[t]), agents=agents,
                price=float(markets.price[t]), demand_frac=float(markets.demand[t]),
                k=int(markets.rounds[t]), status=[STATUS_NAMES[s] for s in markets.status[t]],
                ledger=ledger, terminated=True)
            result = (result, state)
        out.append(result)
    return out


def run_auction(r: float, n: int = 64, optim: bool = False,
                malicious_frac: float = 0.0, seed=None,
                config: AuctionConfig | None = None,
                return_state: bool = False):
    """One full auction with n agents and round(r*n) units of stock:
    ``run_trials`` for one seed."""
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return run_trials(r, [root], n, optim, malicious_frac, config, return_state)[0]


CONDITIONS = {  # name: (optim, malicious)
    "noOptim": (False, False),
    "Optim": (True, False),
    "malicious-noOptim": (False, True),
    "malicious-Optim": (True, True),
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
        optim, malicious = CONDITIONS[name]
        frac = malicious_frac if malicious else 0.0
        for ri, r in enumerate(r_grid):
            roots = [np.random.SeedSequence(entropy=root.entropy, spawn_key=(ri, trial))
                     for trial in range(trials)]
            results = run_trials(r, roots, n=n, optim=optim, malicious_frac=frac,
                                 config=config)
            for trial, result in enumerate(results):
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
