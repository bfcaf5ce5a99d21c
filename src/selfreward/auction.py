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
desirable fish reads False.  The sensors (``_sensors``), the decision layer
(``_decision_logits``) and the judge (``_judge_gates``) are plain numpy over
rows, with any number of leading batch axes; bidding and fine-tuning share
this one forward.

During the first few rounds agents may fine-tune the decision layer on
perturbed copies of the offer, labelling each batch with their own judge
(``_finetune``).  The sensors are frozen, so the loss is a linear ->
threshold gate -> linear -> cross-entropy chain whose gradient is written
out in closed form, for all learners of a round at once:

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

The list API is the per-agent form: ``FsnModel.decide_offer`` runs one
agent's forward on one offer, ``screen_model`` screens one model,
``srd_finetune`` tunes each learner alone through ``_finetune``, and
``server_step`` asks each active agent of an ``AuctionState`` for its
decision.  It holds the runner's own representations, as in ``Markets``: an
offer is an 8-float row (``offer_row``; ``make_offer_variants`` gives the
config's (variant_count, 8) array), an agent's status is a code,
``ACTIVE``, ``BOUGHT`` or ``QUITTED``, and a trial's sales are their prices,
one float per unit sold.  No workload runs it; it stays in the
package because the benchmark's spans wrap its names (``srd_finetune``,
``FsnModel.__init__``, ``FsnModel.es_forward_values``, ``screen_model``,
``make_offer_variants`` and ``server_step``) and because the tests hold the
runner against it.

``Population`` is the one stacked path.  A round's agents bid and are
screened together: one forward over the (n, 8, D_ic) clone blocks with the
shared sensor kernels and the (n, 3, 4) decision weights.  Each agent fills
its own rows of clone noise from its own ``noise_rng``, so its stream holds
the numbers it would draw alone, in the same order: the screening probe,
then each fine-tuning epoch's draws, then one (8, D_ic - 1) block per round
it bids in.  The runner reads these blocks through a buffer of ``CHUNK``
bids per agent: one normal draw of (m, 8, D_ic - 1) yields the numbers of m
draws of (8, D_ic - 1), so an agent draws m bids at once wherever nothing
else draws from its stream between them.  A learner draws fine-tuning noise
between its bids until its bid in round ``finetune_rounds - 1``, so until
then it draws one bid at a time; every other agent draws ``CHUNK`` bids at
a time from its screening probe on.  Its ``noise_rng`` ends ahead by the
bids it drew and never read.  A standard normal draw scaled by
``clone_noise`` gives the numbers ``normal(0, clone_noise)`` gives, and each
stacked product runs the same small matrix product per agent as a
single-agent call, so every decision is the one the agent would take alone,
bit for bit.

The trials of an experiment run in lockstep too (``run_trials``;
``run_auction`` is ``run_trials`` for one market on one resolved seed).  A
block runs every market of a supply point over the same roots, the honest
one and the one with malicious agents: ``Markets`` holds one row per
(market, root), each with its own price, stock, demand, round count, status
row, sale prices and termination flag, and ``Population`` holds one
negotiator state per (root, agent) that draws in any of the markets:
decision weights, optimizer settings, a ``noise_rng``, a clone-noise buffer
and its cursor.  Agent i of every market reads the state of (root, i).
Twins, agent i >= round(f * n) of the malicious market and agent i of the
honest one on the same root, have the same construction draws, fine-tuning
variants and noise stream, and a state changes only by its own draws and
fine-tuning steps, which no market's price or demand touches.  So twins
hold equal states while both are active, and an agent that has bought,
quit or ended never reads its state again: one state serves both.  A round
makes one sensor and decision forward over the active agents of every
running market, each on its state's next row of clone noise, taken once per
state however many twins bid; then one vectorised server step.  Fine-tuning
gathers the learner states that any live agent reads, tunes each once and
writes them back.  Roots have independent seeds and each state draws only
from its own streams, so interleaving roots and pairing markets changes no
draw and no bit: every trial ends as it would alone.

All of a block's states live until its last market ends, so the block sets
the peak memory of a run.  An always-hold agent draws nothing and has no
state, only its status in its market.  So a block counts states: it takes
as many roots as fit ``LOCKSTEP_AGENTS`` states, up to ``LOCKSTEP_TRIALS``
roots, the cap that bounds markets of always-hold agents alone; their
comment gives the memory a full block takes.

Every stream hangs off its trial's root, a plain ``(entropy, spawn_key)``
pair: ``run_experiment`` gives trial t of supply point ri the root
``(entropy, (ri, t))`` under its one resolved seed, and ``run_auction``
turns its seed into one root.  Agent i makes its construction draws
(``_agent_draws``: biases, optimizer settings, then a seed) from the
stream numpy seeds from ``entropy`` and spawn key ``spawn_key + (1, i)``,
and its ``noise_rng`` is ``default_rng(seed)``; the fine-tuning variants
come from spawn key ``spawn_key + (0,)``.  A block builds no generator for
the construction draws: ``streams.random_raw`` gives the first six words of
every state's stream at once, and ``_decode_draws`` reads the
draws off them as numpy's ``uniform`` and ``integers`` do (a row whose
bounded draw numpy would redraw takes ``_agent_draws`` on a real
generator).  It seeds the noise streams and the variant streams in one
``streams.rngs`` call each.  Both run numpy's seeding hash over every key
at once, so every word and every generator is the one numpy gives, bit for
bit.

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

from . import streams
from .configs import check_fields
from .neurons import cross_entropy_self_values, selective_core, tau, tau_slope

__all__ = [
    "ACTIVE", "BASE_OFFER_ROW", "BOUGHT", "QUITTED", "AuctionConfig", "AuctionState",
    "AlwaysHoldModel", "FsnModel", "Markets", "Population", "TrialResult",
    "make_offer_variants", "offer_row", "run_auction", "run_experiment", "run_trials",
    "screen_model", "server_step", "srd_finetune",
]

BUY, HOLD, QUIT = 0, 1, 2  # decisions
ACTIVE, BOUGHT, QUITTED = 0, 1, 2  # an agent's status in its auction

PG, SZ, LSR, ST = 0, 1, 2, 3
PRICE, DEMAND = 0, 7  # the offer row's price and previous-round demand columns

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
    """Judge logits [True, False], gate pre-activations and gates for rows of
    sensor state and decision logits.

    Gate neurons over (PG, SZ, LSR, ST, B, L, Q):
    PGL = tau(PG + L - 1)  held out at a high price (a correct call),
    BC  = tau(B - PG)      bought cheap (also correct),
    FQ  = tau(Q + (SZ + LSR + ST)/3 - 1)  quit on a desirable fish.
    True sums PGL and BC; False carries FQ plus a small default bias.
    """
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
        check_fields(self, [
            ("base_price", "positive and finite", lambda v: 0 < v < math.inf),
            ("price_step", "in (0, 1)", lambda v: 0 < v < 1),
            *[(name, "at least 1", lambda v: v >= 1)
              for name in ("max_rounds", "d_ic", "variant_count")],
            ("clone_noise", "at least 0 and finite", lambda v: 0 <= v < math.inf),
            ("variant_scale", "in [0, 1)", lambda v: 0 <= v < 1),
            ("variant_flip_prob", "in [0, 1]", lambda v: 0 <= v <= 1),
            ("finetune_rounds", "at least 0", lambda v: v >= 0),
            ("selective_eps", "positive", lambda v: v > 0),
        ])


def offer_row(*, price: float = BASE_PRICE, length: float = 1.0, weight: float = 1.0,
              gill: float = 1.0, subtype: tuple = (0.5, 0.5, 0.5),
              demand: float = 0.5) -> np.ndarray:
    """One fish offer, the 8-float row (p, l, w, g, st1, st2, st3, f) the agents read."""
    return np.array([price, length, weight, gill, *subtype, demand], dtype=float)


BASE_OFFER_ROW = offer_row()  # the base offer, whose price and demand a round sets
BASE_OFFER_ROW.flags.writeable = False


def make_offer_variants(base: np.ndarray, rng: np.random.Generator,
                        config: AuctionConfig) -> np.ndarray:
    """The agents' fine-tuning set: ``config.variant_count`` perturbed copies of
    the offer row ``base``, drawn from rng per variant: four uniform quality and
    price factors within ``variant_scale``, then three flips of odds
    ``variant_flip_prob``."""
    rows = np.tile(base, (config.variant_count, 1))
    for row in rows:
        row[:4] *= rng.uniform(1 - config.variant_scale, 1 + config.variant_scale, size=4)
        row[4:7] = np.where(rng.random(3) < config.variant_flip_prob, -row[4:7], row[4:7])
    return rows


@functools.lru_cache(maxsize=8)
def es_weight_rows(base_price: float = BASE_PRICE) -> np.ndarray:
    """The four hand-set sensor kernels (before cloning) for one base price,
    built once and read-only."""
    rows = np.full((4, 8), DELTA)
    rows[PG, 0] += 1.0 / base_price
    rows[PG, 1:4] += -2 * DELTA
    rows[SZ, 1:3] += 0.5
    rows[LSR, 7] += 1.0
    rows[ST, 4:7] += 1.0 / 3.0
    rows.flags.writeable = False
    return rows


ES_BIASES = np.array([0.0, 0.0, 0.0, -0.5])
ES_BIASES.flags.writeable = False  # row views share it


def _clone(x: np.ndarray, noise: np.ndarray, config: AuctionConfig) -> np.ndarray:
    """Clone each variable D_ic times; clones beyond the first get noise.

    Offer rows (..., 8) become blocks (..., 8, D_ic), one row of clones per
    variable; read row by row, that is the interleaved layout.  ``noise``
    holds standard normal draws (..., 8, D_ic - 1) of the same leading shape
    as x.  A clone is ``clone_noise * noise + x``, the same double as
    ``x + clone_noise * noise``; the clones are made in a new array, then
    written after x in one pass.
    """
    x = x[..., None]
    clones = noise * config.clone_noise
    clones += x
    return np.concatenate((x, clones), axis=-1)


def _sum_clones(terms: np.ndarray) -> np.ndarray:
    """``terms.sum(axis=-1)``, bit for bit, for the D_ic clone terms of each
    sensor.  numpy's add.reduce adds fewer than 8 terms one after another,
    so those are added column by column, in order, which costs a few passes
    over (..., 4) instead of a reduction over an axis this short; from 8
    terms on it keeps 8 partial sums, so those take the reduction itself.
    """
    d = terms.shape[-1]
    if d >= 8:
        return terms.sum(axis=-1)
    total = terms[..., 0]
    for c in range(1, d):
        total = total + terms[..., c]
    return total


def _decision_logits(x_es: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Buy / hold / quit logits for sensor rows (..., R, 4) of layers (..., 3, 4)."""
    return x_es @ w.swapaxes(-1, -2) + b[..., None, :]


LR_LOW, LR_HIGH = 1e-7, 1e-4  # range of the sampled learning rates
AGENT_WORDS = 6  # the stream words an agent's construction draws read


def _agent_draws(rng: np.random.Generator) -> tuple:
    """One agent's construction draws, in stream order: its decision biases,
    then its optimizer settings (epochs == 0 opts out of fine-tuning), then
    the seed of its ``noise_rng``, ``default_rng(seed)``."""
    b_dec = B_DECISION + rng.uniform(-BIAS_SPREAD, BIAS_SPREAD, size=3)
    epochs = int(rng.integers(0, 3))
    batch_size = int(rng.integers(4, 16))
    learning_rate = float(rng.uniform(LR_LOW, LR_HIGH))
    return b_dec, epochs, batch_size, learning_rate, int(rng.integers(2 ** 63))


def _decode_draws(words: np.ndarray) -> tuple:
    """``_agent_draws`` of N streams from their first ``AGENT_WORDS`` words
    (N, 6), as numpy decodes them: b_dec (N, 3), epochs, batch sizes,
    learning rates and noise seeds (N,), and a mask of the rows whose bounded
    draws numpy would redraw, whose values here are not numpy's.

    A uniform reads a word's top 53 bits; ``integers(0, 3)`` and
    ``integers(4, 16)`` read the low and then the high half of one word by
    Lemire's method, which redraws when the product's low half falls below
    2**32 mod the range (1 and 4); ``integers(2**63)`` is a word's top 63 bits.
    """
    u = (words[:, [0, 1, 2, 4]] >> 11) * 2.0 ** -53
    b_dec = B_DECISION + (-BIAS_SPREAD + (BIAS_SPREAD - -BIAS_SPREAD) * u[:, :3])
    learning_rate = LR_LOW + (LR_HIGH - LR_LOW) * u[:, 3]
    epochs, batch = (words[:, 3] & 0xFFFFFFFF) * 3, (words[:, 3] >> 32) * 12
    redraw = (epochs.astype(np.uint32) < 1) | (batch.astype(np.uint32) < 4)
    return (b_dec, epochs >> 32, 4 + (batch >> 32), learning_rate, words[:, 5] >> 1,
            redraw)


class FsnModel:
    """One agent's negotiator: frozen sensors, trainable decision layer."""

    def __init__(self, rng: np.random.Generator, config: AuctionConfig | None = None):
        self.config = config or AuctionConfig()
        self.es_rows = es_weight_rows(self.config.base_price).copy()
        self.es_biases = ES_BIASES.copy()
        self.w_dec = W_DECISION.copy()
        (self.b_dec, self.epochs, self.batch_size, self.learning_rate,
         noise_seed) = _agent_draws(rng)
        self.noise_rng = np.random.default_rng(noise_seed)

    def es_forward_values(self, x: np.ndarray) -> np.ndarray:
        """Sensor activations (PG, SZ, LSR, ST) for offer rows (..., 8)."""
        noise = _draw_noise([self.noise_rng], (1, *x.shape, self.config.d_ic - 1))
        return _sensors(self.es_rows, self.es_biases, x[None], noise, self.config)[0]

    def decide_offer(self, x: np.ndarray) -> int:
        """Buy / hold / quit decision on one offer row x: ``_bid`` for this one agent."""
        noise = _draw_noise([self.noise_rng], (1, len(x), self.config.d_ic - 1))
        return int(_bid(self.es_rows[None], self.es_biases[None], x[None], noise,
                        self.w_dec[None], self.b_dec[None], self.config)[0])


class AlwaysHoldModel:
    """A malicious submission: holds forever to push the price down.

    It draws nothing: ``rng`` is taken, and may be None, only so that it is
    built with the same arguments as an ``FsnModel``.
    """

    def __init__(self, rng: np.random.Generator | None,
                 config: AuctionConfig | None = None):
        self.config = config or AuctionConfig()

    def decide_offer(self, x: np.ndarray) -> int:
        return HOLD


def _draw_noise(rngs, shape: tuple) -> np.ndarray:
    """Standard normal draws of the given shape, ``out[i]`` drawn from
    ``rngs[i]`` in one call: clone noise, each agent's from its own stream."""
    noise = np.empty(shape)
    for rng, rows in zip(rngs, noise):
        rng.standard_normal(out=rows)
    return noise


def _sensors(es_rows: np.ndarray, es_biases: np.ndarray, x: np.ndarray, noise: np.ndarray,
             config: AuctionConfig) -> np.ndarray:
    """Sensor activations for offer rows x (..., 8) with the standard normal
    clone noise ``noise`` (..., 8, D_ic - 1).  The kernels (4, 8) and biases
    (4,) are shared, or stacked per row and broadcastable against x."""
    pre = _sum_clones(es_rows @ _clone(x, noise, config)) / config.d_ic + es_biases
    out = tau(pre)
    st = pre[..., ST]
    out[..., ST] = selective_core(st * st, config.selective_eps)
    return out


def _bid(es_rows, es_biases, x: np.ndarray, noise: np.ndarray, w: np.ndarray, b: np.ndarray,
         config: AuctionConfig) -> np.ndarray:
    """Buy / hold / quit decisions of n agents on offer rows x (n, 8) with
    clone noise (n, 8, D_ic - 1): the sensors (``_sensors``), the decision
    layers w (n, 3, 4) and b (n, 3), and the argmax."""
    x_es = _sensors(es_rows, es_biases, x, noise, config)
    return _decision_logits(x_es[:, None, :], w, b)[:, 0].argmax(axis=-1)


def _screening_probe(config: AuctionConfig) -> np.ndarray:
    """The very cheap offer row that every sensible negotiator buys."""
    return offer_row(price=0.25 * config.base_price)


def screen_model(model, config: AuctionConfig | None = None) -> bool:
    """Dummy screener: accept only constructor-shaped, non-hold-only models.

    Checks the model's sensor weights against the interpretable template,
    the decision sign pattern (PG against buying, quality for it), and
    probes a very cheap offer, which every sensible negotiator buys.  Only a
    model that passes the first checks is probed.
    """
    config = config or AuctionConfig()
    template = es_weight_rows(config.base_price)
    if not isinstance(model, FsnModel) or np.shape(model.es_rows) != template.shape:
        return False
    signs = np.sign(model.w_dec[BUY])
    return bool(np.allclose(model.es_rows, template)
                and signs[PG] < 0 and (signs[[SZ, LSR, ST]] > 0).all()
                and model.decide_offer(_screening_probe(config)) == BUY)


def srd_finetune(models, variants, k: int) -> None:
    """One round of self-labelled fine-tuning for a round's agents, one at a time.

    Only the decision layer learns.  Malicious models, agents whose sampled
    epoch count is zero, and every agent once k reaches its config's
    ``finetune_rounds`` sit the round out.  ``variants``, offer rows (V, 8),
    is every model's fine-tuning set.  Each learner runs ``_finetune`` on
    arrays of one; its new weights are written back.
    """
    for m in models:
        if isinstance(m, AlwaysHoldModel) or not m.epochs or k >= m.config.finetune_rounds:
            continue
        w, b = _finetune(m.w_dec[None], m.b_dec[None], np.array([m.learning_rate]),
                         np.array([m.epochs]), np.array([m.batch_size]),
                         np.array([m.noise_rng]), m.es_rows[None], m.es_biases[None],
                         variants[None], m.config)
        m.w_dec[...], m.b_dec[...] = w[0], b[0]


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
            x = offers[idx[:, None], orders]
            x_es[idx, e * n_var:(e + 1) * n_var] = _sensors(
                es_rows[idx, None], es_biases[idx, None], x,
                _draw_noise(rngs[idx], (*x.shape, config.d_ic - 1)), config)
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
        dz = cross_entropy_self_values((judged * kept).sum(axis=1))[1]
        dpre = (dz @ _PFC_OUT_W)[:, None, :] * tau_slope(pre, gates) * kept
        dlogits = dpre @ _PFC_GATES_W[:, 4:]
        w[on] = w_on - lr[on, None, None] * (dlogits.transpose(0, 2, 1) @ x)
        b[on] = b_on - lr[on, None] * dlogits.sum(axis=1)
    return w, b


@dataclass
class AuctionState:
    """Server-side bidding state for one auction."""

    config: AuctionConfig
    stock: int
    agents: list
    price: float
    demand_frac: float = float(BASE_OFFER_ROW[DEMAND])
    k: int = 0
    status: list[int] = field(default_factory=list)  # ACTIVE, BOUGHT or QUITTED per agent
    prices: list[float] = field(default_factory=list)  # one per unit sold, in order
    terminated: bool = False

    def __post_init__(self):
        if not self.status:
            self.status = [ACTIVE] * len(self.agents)

    def active_indices(self) -> list[int]:
        return [i for i, s in enumerate(self.status) if s == ACTIVE]


def server_step(state: AuctionState) -> AuctionState:
    """One bidding round: collect decisions, then branch on demand.

    ``Markets.step`` applies these rules to a block of trials at once; this
    per-agent form serves as its reference."""
    if state.terminated:
        raise RuntimeError("cannot step a terminated auction")
    cfg = state.config
    active_before = state.active_indices()
    offer = offer_row(price=state.price, demand=state.demand_frac)
    decisions = [state.agents[i].decide_offer(offer) for i in active_before]

    buyers = [i for i, d in zip(active_before, decisions) if d == BUY]
    quitters = [i for i, d in zip(active_before, decisions) if d == QUIT]
    n_buy = len(buyers)

    for i in quitters:
        state.status[i] = QUITTED

    if n_buy > state.stock:
        state.price *= 1 + cfg.price_step
    else:
        for i in buyers:
            state.status[i] = BOUGHT
        state.prices += [state.price] * n_buy
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
    prices: list[float]  # one per unit sold, in order
    purchase_rate: float
    rounds: int

    @property
    def mean_price(self) -> float:
        return float(np.mean(self.prices)) if self.prices else float("nan")


# Negotiator states per block of lockstep trials, and the most roots a block
# takes.  A block holds one state per (root, agent) that draws in any of its
# markets, n - round(f * n) states per root for its smallest malicious
# fraction f: an honest market and its half-malicious twin take the honest
# market's 64 states per root of 64 agents.  A state holds about 3 KB
# resident, its 2 KB clone-noise buffer, its noise_rng and its rows of the
# stacked arrays.  A full block of 8 such roots, both markets, traced a peak
# of 2.3 MB (2.0 MB for the honest market alone), and 3.7 MB with
# fine-tuning (tracemalloc; numpy 2.4, x86-64).  An always-hold agent has no
# state, only a status in its market, so it is not counted; the roots cap
# bounds markets of always-hold agents alone, whose 64 roots of 64 agents
# traced 0.13 MB.
LOCKSTEP_AGENTS = 512
LOCKSTEP_TRIALS = 64

# Bids of clone noise a state draws in one call once nothing else draws from
# its stream between its bids.  Each round then reads one row of every
# bidding state's buffer, and only the states whose buffer is empty draw.  A
# draw of 8 bids costs about three draws of one, and the median agent bids 7
# to 16 times over the CLI's supply grids; of 1, 2, 4, 8 and 16, 8 ran fastest
# or level with the fastest on every grid timed (2-core host).
CHUNK = 8


class Population:
    """The negotiators of a block of trials as stacked arrays over (root,
    agent): one state per agent ``first``..n-1 of each root, the agents that
    draw in any of the block's markets.  A state is an agent's decision
    weights, optimizer settings, ``noise_rng``, clone-noise buffer and cursor.

    Agent i of every market of a root reads state (root, i - first): one
    state serves every twin (module docstring: why this is exact), and ends
    as the state of the twin that stayed active longest ends alone.  A round
    takes each state's next noise row once, and fine-tunes a learner state
    once, however many of its twins are live.

    Agent i of a root takes the construction draws of ``_agent_draws`` on its
    own stream, spawn key (1, i) under the root's ``(entropy, spawn_key)``.  No
    generator is built for them: ``streams.random_raw`` gives every state's
    first six stream words in one pass, and ``_decode_draws`` reads the draws
    off them as numpy would.  A row whose bounded draw numpy would redraw
    (about one in 10**9) takes ``_agent_draws`` on a real generator instead.
    All noise streams are then seeded in one ``streams.rngs`` call.

    Clone noise is read through a buffer of ``CHUNK`` bids per state,
    ``noise`` (roots, states, CHUNK, 8, D_ic - 1): the unread rows of state
    (t, s) are ``noise[t, s, cursor[t, s]:]``, and a state draws only when it
    bids with none left.  A learner (``learners``: fine-tuning, epochs > 0)
    draws its fine-tuning noise from the same stream between bids, so until
    its bid in round ``finetune_rounds - 1`` it draws one row at a time; from
    then on it draws a full buffer, as every other state does from its
    screening probe on.  Its stream holds the same numbers in the same order
    as a draw per bid, and ``noise_rngs`` end ahead of that by the unread rows.
    """

    def __init__(self, roots, n: int, first: int, config: AuctionConfig, optim: bool):
        shape = (len(roots), n - first)
        self.config, self.first = config, first
        self.w_dec = np.tile(W_DECISION, (*shape, 1, 1))
        self.noise = np.empty((*shape, CHUNK, 8, config.d_ic - 1))
        self.cursor = np.full(shape, CHUNK)
        *draws, redraw = _decode_draws(streams.random_raw(
            [(entropy, key + (1,)) for entropy, key in roots], AGENT_WORDS, range(first, n)))
        for j in np.flatnonzero(redraw):
            t, s = divmod(int(j), shape[1])
            entropy, key = roots[t]
            rng = next(streams.rngs([(entropy, key + (1,))], [first + s]))
            for column, value in zip(draws, _agent_draws(rng)):
                column[j] = value
        b_dec, epochs, batch_size, learning_rate, noise_seeds = draws
        self.b_dec = b_dec.reshape(*shape, 3)
        self.epochs = epochs.reshape(shape).astype(int)
        self.batch_size = batch_size.reshape(shape).astype(int)
        self.learning_rate = learning_rate.reshape(shape)
        self.noise_rngs = np.fromiter(streams.rngs(noise_seeds), dtype=object,
                                      count=len(noise_seeds)).reshape(shape)
        self.learners = (self.epochs > 0) & optim

    def readers(self, live: np.ndarray) -> np.ndarray:
        """The (root, state) mask of the states that the agents under the
        mask live read: live is (markets * roots, n), market m's row for root
        t at m * roots + t, with no always-hold agent under it."""
        roots = len(self.cursor)
        return live.reshape(-1, roots, live.shape[1])[:, :, self.first:].any(axis=0)

    def decide(self, live: np.ndarray, x: np.ndarray, k: int) -> np.ndarray:
        """Decisions of the agents under the mask live (``readers``) on offer
        rows x (markets * roots, 8) in round k (-1 for the screening probe):
        each bidding state takes its next buffered row of clone noise once,
        then one stacked forward, ``_bid`` over every live agent, on its
        state's row, weights and biases."""
        roots, states = self.cursor.shape
        chunk = self.noise.shape[2]
        cursor = self.cursor.reshape(-1)
        bidding = np.flatnonzero(self.readers(live))
        rows = cursor[bidding]
        empty = rows == chunk
        if empty.any():
            rows[empty] = self._refill(bidding[empty], k)
        cursor[bidding] = rows + 1
        row, agent = live.nonzero()
        state = (row % roots) * states + agent - self.first
        buffers = self.noise.reshape(math.prod(self.noise.shape[:3]), *self.noise.shape[3:])
        noise = np.take(buffers, state * chunk + cursor[state] - 1, axis=0)
        return _bid(es_weight_rows(self.config.base_price), ES_BIASES, np.take(x, row, axis=0),
                    noise, np.take(self.w_dec.reshape(-1, 3, 4), state, axis=0),
                    np.take(self.b_dec.reshape(-1, 3), state, axis=0), self.config)

    def _refill(self, states: np.ndarray, k: int) -> np.ndarray:
        """Fill the used-up buffers of the states at flat indices ``states``
        before their bid in round k; returns the row each reads first."""
        chunk = self.noise.shape[2]
        first = np.zeros(len(states), dtype=int)
        if k < self.config.finetune_rounds - 1:
            # a learner draws fine-tuning noise before its next bid: draw only this one
            first[self.learners.reshape(-1)[states]] = chunk - 1
        buffers = self.noise.reshape(math.prod(self.noise.shape[:2]), *self.noise.shape[2:])
        rngs = self.noise_rngs.reshape(-1)
        for j, f in zip(states.tolist(), first.tolist()):
            rngs[j].standard_normal(out=buffers[j, f:])
        return first


class Markets:
    """Server-side state of a block of auctions, one row per trial: price,
    stock, the previous round's demand, rounds run, each agent's status
    (ACTIVE, BOUGHT or QUITTED), whether it still runs, and its sale prices,
    one float per unit sold."""

    def __init__(self, trials: int, n: int, stock: int, config: AuctionConfig):
        self.config = config
        self.price = np.full(trials, config.base_price)
        self.stock = np.full(trials, stock)
        self.demand = np.full(trials, BASE_OFFER_ROW[DEMAND])
        self.rounds = np.zeros(trials, dtype=int)
        self.status = np.full((trials, n), ACTIVE)
        self.running = np.ones(trials, dtype=bool)
        self.prices = [[] for _ in range(trials)]

    def active(self) -> np.ndarray:
        return (self.status == ACTIVE) & self.running[:, None]

    def offers(self) -> np.ndarray:
        x = np.empty((len(self.price), len(BASE_OFFER_ROW)))
        x[:] = BASE_OFFER_ROW
        x[:, PRICE], x[:, DEMAND] = self.price, self.demand
        return x

    def step(self, decisions: np.ndarray, active: np.ndarray) -> None:
        """One bidding round of every running market, by ``server_step``'s
        rules: ``decisions`` (trials, n) of the round's active agents, which
        ``active`` gives as ``active()`` did when the round began."""
        config, running, stock = self.config, self.running, self.stock
        buy = active & (decisions == BUY)
        n_buy, n_active = buy.sum(axis=1), active.sum(axis=1)
        self.status[active & (decisions == QUIT)] = QUITTED
        marked_up = running & (n_buy > stock)
        sells = running & ~marked_up
        sold = sells & (n_buy > 0)
        self.status[buy & sold[:, None]] = BOUGHT
        for t, price, units in zip(np.flatnonzero(sold).tolist(), self.price[sold].tolist(),
                                   n_buy[sold].tolist()):
            self.prices[t] += [price] * units
        np.subtract(stock, n_buy, out=stock, where=sells)
        np.multiply(self.price, 1 + config.price_step, out=self.price, where=marked_up)
        np.multiply(self.price, 1 - config.price_step, out=self.price,
                    where=sells & ~(sold & (stock == 0)))
        np.divide(n_buy, np.maximum(n_active, 1), out=self.demand, where=running)
        self.rounds += running
        self.running = (running & (stock > 0) & (self.status == ACTIVE).any(axis=1)
                        & (self.rounds < config.max_rounds))


def run_trials(r: float, roots, n: int = 64, optim: bool = False,
               malicious_fracs: tuple[float, ...] = (0.0,),
               config: AuctionConfig | None = None) -> list[list[TrialResult]]:
    """Full auctions with n agents and round(r*n) units of stock, one per
    market and root ``(entropy, spawn_key)``: market m has
    round(malicious_fracs[m] * n) always-hold agents.  Every market runs
    over the same roots, in lockstep blocks of up to ``LOCKSTEP_AGENTS``
    negotiator states and ``LOCKSTEP_TRIALS`` roots, twins sharing their
    state (``Population``).  Returns one result list per market, one result
    per root, each the one its trial gives when run alone."""
    if not 0 < r <= 1:
        raise ValueError(f"item-supply fraction r must be in (0, 1], got {r}")
    for frac in malicious_fracs:
        if not 0 <= frac <= 1:
            raise ValueError(f"malicious_frac must be in [0, 1], got {frac}")
    config = config or AuctionConfig()
    stock = round(r * n)
    states = n - min(round(frac * n) for frac in malicious_fracs)
    per_block = min(LOCKSTEP_TRIALS, max(1, LOCKSTEP_AGENTS // max(states, 1)))
    out = [[] for _ in malicious_fracs]
    for start in range(0, len(roots), per_block):
        block = roots[start:start + per_block]
        # keep only the markets, so a block's states are freed before the next is built
        markets = _run_block(r, block, n, optim, malicious_fracs, config)[1]
        results = [TrialResult(prices, len(prices) / stock if stock else 0.0, rounds)
                   for prices, rounds in zip(markets.prices, markets.rounds.tolist())]
        for m, market in enumerate(out):
            market += results[m * len(block):(m + 1) * len(block)]
    return out


def _run_block(r, roots, n, optim, malicious_fracs, config) -> tuple[Population, Markets]:
    """``run_trials`` for one block: each round, one forward over the active
    agents of every market and one server step over its running trials.
    Market m's trial on root t is row m * len(roots) + t of the markets.
    Returns the block's final states and markets."""
    n_malicious = [round(frac * n) for frac in malicious_fracs]
    pop = Population(roots, n, min(n_malicious), config, optim)
    # the agents with a state: agent i of market m draws when i >= n_malicious[m]
    drawing = np.arange(n) >= np.repeat(n_malicious, len(roots))[:, None]

    # screening: flagged models enter only when malicious mode is explicit.
    # The agents are built from the sensor template and W_DECISION, so only
    # the cheap-offer probe can flag one; every agent takes it, since it
    # draws clone noise.
    probe = np.tile(_screening_probe(config), (len(drawing), 1))
    passed = pop.decide(drawing, probe, -1) == BUY
    if min(malicious_fracs) == 0 and not passed.all():
        raise RuntimeError("screener flagged a model outside malicious mode")

    if optim:  # from their own stream, spawn key (0,), so skipping them draws nothing
        variants = np.array([make_offer_variants(BASE_OFFER_ROW, rng, config)
                             for rng in streams.rngs(roots, [0])])

    markets = Markets(len(drawing), n, round(r * n), config)
    k = 0
    while markets.running.any():
        active = markets.active()
        live = active & drawing
        if optim and k < config.finetune_rounds:
            at = (pop.readers(live) & pop.learners).nonzero()
            pop.w_dec[at], pop.b_dec[at] = _finetune(
                pop.w_dec[at], pop.b_dec[at], pop.learning_rate[at], pop.epochs[at],
                pop.batch_size[at], pop.noise_rngs[at], es_weight_rows(config.base_price),
                ES_BIASES, variants[at[0]], config)
        decisions = np.full(live.shape, HOLD)
        decisions[live] = pop.decide(live, markets.offers(), k)
        markets.step(decisions, active)
        k += 1
    return pop, markets


def run_auction(r: float, n: int = 64, optim: bool = False,
                malicious_frac: float = 0.0, seed=None,
                config: AuctionConfig | None = None) -> TrialResult:
    """One full auction with n agents and round(r*n) units of stock:
    ``run_trials`` for one market on one seed (an int, int list, None or
    ``SeedSequence``)."""
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return run_trials(r, [(root.entropy, root.spawn_key)], n, optim, (malicious_frac,),
                      config)[0][0]


# ``run_experiment``'s rows, as ``auction run`` writes them to results.csv and purchases.csv.
RESULT_COLUMNS = ("condition", "r", "trial", "price", "purchase_rate")
PURCHASE_COLUMNS = ("condition", "r", "trial", "price")


def run_experiment(r_grid, trials: int, seed, optim: bool, malicious_frac: float,
                   n: int = 64, config: AuctionConfig | None = None):
    """Repeated auctions over the supply grid: the honest market, then, when
    ``malicious_frac > 0``, the one with that fraction of malicious agents.

    Returns one row per trial under ``RESULT_COLUMNS`` and one per purchase
    under ``PURCHASE_COLUMNS``, each a tuple, the honest market's rows
    first.  A row's condition is ``Optim`` or ``noOptim``, after
    ``malicious-`` in the malicious market.  The per-(r, trial) root is
    independent of the market, so honest and malicious runs are matched:
    honest agents keep identical construction streams in both, and each
    supply point runs both markets in one ``run_trials`` call, twins sharing
    their negotiator states.
    """
    if not 0 <= malicious_frac <= 1:  # NaN fails too, before any market runs
        raise ValueError(f"malicious_frac must be in [0, 1], got {malicious_frac}")
    entropy = np.random.SeedSequence(seed).entropy
    name = "Optim" if optim else "noOptim"
    conditions, fracs = [name], (0.0,)
    if malicious_frac > 0:
        conditions, fracs = [name, f"malicious-{name}"], (0.0, malicious_frac)
    runs = [run_trials(r, [(entropy, (ri, trial)) for trial in range(trials)], n=n,
                       optim=optim, malicious_fracs=fracs, config=config)
            for ri, r in enumerate(r_grid)]
    rows, purchases = [], []
    for m, condition in enumerate(conditions):
        for r, markets in zip(r_grid, runs):
            for trial, result in enumerate(markets[m]):
                rows.append((condition, r, trial, result.mean_price, result.purchase_rate))
                purchases += [(condition, r, trial, p) for p in result.prices]
    return rows, purchases
