"""One-dimensional robot fish: survival by design, appetite by training.

The fish lives on an endless tape with food every ``food_period`` cells and
sees a three-cell window.  Two convolutional detectors with hand-set weights
feed an action layer:

* food-here neuron ``a_fh``: kernel [1, 0, 0], bias -0.5 — responds exactly
  when the first visible cell holds food (encoded 0.5).
* food-there neuron ``a_ft``: kernel [0, 1, 1], bias -0.5 — responds when
  food is visible ahead.

Both pass through the selective activation, so a perfect match reads 1.0 and
everything else stays near zero.  The action layer maps [a_fh, a_ft, F]
(F = energy) to [eat, move] logits; its initial weights encode "eat only
when food is here and energy is low, otherwise move".

A frozen judge network (the fish's PFC) watches each decision.  Its three
gate neurons read the state vector v0 = [a_fh, a_ft, F, e, m] (e, m are the
softmaxed action probabilities) through fixed rows:

* e1 = tau(a_fh - F + e): ate while hungry with food present,
* m1 = tau(a_ft - F + m): moved toward visible food,
* ex = tau(-a_fh - a_ft + m): explored when nothing was visible.

The judge sums the gates into [True, False] logits.  Training keeps the last
``mem`` judgments in a decision memory and sums them into z; the loss is the
cross entropy of z against its own argmax, and only the action layer learns:
the fish teaches itself to eat more eagerly without any external reward.

Detectors and judge are frozen, so a judgment's dependence on the action
layer theta = [w_act.ravel(), b_act] is fixed once the judgment is made.  The
memory stores each verdict together with its Jacobian, taken at push time,
and one training step is

    J_i      = O diag(tau'(pre_i)) G_p (diag p_i - p_i p_i^T) [I_2 kron x_i^T | I_2]
    dz       = softmax(z) - onehot(argmax z)
    dL/dtheta = (sum_i J_i)^T dz

where O is the judge's output layer, pre_i the gate pre-activations, G_p the
gate rows' columns that read the action probabilities p_i = softmax(logits_i),
and x_i = [a_fh, a_ft, F] the action layer's input.  The false row of O is
the true row negated, so J_i's false row is its true row negated, and the
memory keeps only the true row, r_i: dL/dtheta = dz[0] s - dz[1] s with
s = sum_i r_i.  A step costs the same whatever ``mem`` is.

The detector and judge weights are module constants, and ``w_act``/``b_act``
are plain arrays that ``import_params`` rebinds, never writes in place.
Both running and training work on Python floats, since at three to eight
numbers per layer a numpy call costs more than its arithmetic: the world's
window is three floats; ``sense_values``, ``decide_values``, the two-way
softmax and ``judge_values_and_gates`` take and return floats; and
``decide_values`` reads the action layer as theta, the eight floats of
``FishNN.theta``.  Running and training share this forward through
``sense_and_decide``.  A training step adds the Jacobian row (eight floats
from the same forward), the memory's float sums, ``cross_entropy2_float``
and the update of theta; ``srd_train`` carries theta as floats and writes
it back to ``w_act``/``b_act`` once, at the end.  The float step is not bit
for bit the engine's: numpy's matmul may fuse a multiply-add, and ``np.exp``
and ``math.exp`` may differ in the last bit, so trained parameters match the
engine's reference loop within 1e-12, and its actions exactly.  Actions and
verdicts are argmaxes with ties to the first entry, as ``np.argmax`` takes
them.

A run without learning is a closed loop that soon repeats itself.  Theta,
the detectors and the judge are frozen, and nothing is drawn after
``make_world``, so each step is a function of the loop's state alone: the
tape position modulo ``food_period``, the window (which eating changes) and
the energy.  Every value a trace record holds, bar the step number, is read
from that state.  So ``run_episode`` steps only until the first state
repeats and returns a ``reporting.TiledRows``: it stores the records
stepped so far and the step the cycle starts at, and reads every later
record, renumbered, from the cycle; no record past the stepped ones is
made.  It moves ``world.offset`` on by the whole cycles' moves and steps
the rest, so the records and the end state are bit for bit those of
stepping every time.  At the default config the cycle starts by step 15
and lasts 16 steps untrained and 11 after 500 training steps (seeds 0-31),
or 6 after ``fish1d train``'s default 12 000 (seeds 0-7).  A fish that dies
never repeats a state, since its energy falls strictly until it eats, so it
steps every time and its trace has no cycle.  Training changes theta at
every step and is always stepped.  So the cost of a long ``fish1d run`` is
its reports: at 20 000 steps it steps a few dozen times, and nearly all of
its time goes to ``trace.csv`` and ``energy.svg``, which ``reporting``
writes from the cycle a column at a time.

``FishConfig`` holds the rule on each of its fields, ``food_period`` and
``mem`` among them, once ``configs.check_field_types`` has checked their
types; ``FishWorld`` and ``DecisionMemory`` take its values.

The graph forms (``FishNN.sense``/``decide``, ``FishPFC.judge`` and
``pfc_judge``) state the same network on the engine and stay as the
reference: they read whatever the caller puts in ``w_act``/``b_act``, so
wrapped in ``parameter(...)`` they collect the gradient that the tests
compare with the closed form above, and the tests check the float forward's
actions and verdicts against them.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .autodiff import DiffTensor, as_tensor, concat
# Unused here since training left the engine; bench/test_bench.py still checks
# that the tracer rebinds fish1d.backward.  Drop it with that check.
from .autodiff import backward  # noqa: F401
from .configs import check_field_types
from .layers import (
    conv1d,
    fully_connected,
    selective_activation,
    softmax,
    threshold_activation,
)
from .neurons import (
    ShapeError,
    cross_entropy2_float,
    selective_core,
    softmax2_float,
    tau_float,
    tau_slope_float,
)
from .reporting import TiledRows

EAT, MOVE = 0, 1
ACTION_NAMES = ("eat", "move")

FOOD_VALUE = 0.5

# Detector table: kernel and bias per output neuron.
FH_KERNEL = (1.0, 0.0, 0.0)
FH_BIAS = -0.5
FT_KERNEL = (0.0, 1.0, 1.0)
FT_BIAS = -0.5

# Judge gate rows over v0 = [a_fh, a_ft, F, e, m].  The float forward
# writes each row out as its sum; the tests check it against these rows.
PFC_ROWS = (
    (1.0, 0.0, -1.0, 1.0, 0.0),   # e1
    (0.0, 1.0, -1.0, 0.0, 1.0),   # m1
    (-1.0, -1.0, 0.0, 0.0, 1.0),  # ex
)

# theta = [w_act.ravel(), b_act]: the 2 x 3 action weights, then the 2 biases
N_THETA = 8

# True-row weights the e1 gate heavily: near the eat/move boundary the e1
# pre-activation saturates while m1 does not, and an even weighting would
# push training toward "always move".  The false row mirrors the true row;
# its bias makes an all-quiet gate vector read as False.
JUDGE_TRUE_ROW = (3.0, 1.0, 1.0)
JUDGE_FALSE_BIAS = 1.2
# The judge's output layer O: [True, False] logits from the gates (e1, m1, ex).
_JUDGE_W = np.array([JUDGE_TRUE_ROW, [-w for w in JUDGE_TRUE_ROW]])
_JUDGE_B = np.array([0.0, JUDGE_FALSE_BIAS])


@dataclass
class FishConfig:
    food_period: int = 5
    energy_decay: float = 0.05
    selective_eps: float = 0.01
    initial_energy: float = 1.0
    mem: int = 8
    learning_rate: float = 0.5
    eat_bias: float = 0.0
    move_delta: float = 0.01

    def __post_init__(self):
        """Refuse values the fish cannot sense, live or train on; each
        ValueError names its field."""
        check_field_types(self)
        for name, need, ok in [
            ("food_period", "at least 4", self.food_period >= 4),  # empty cells between food
            ("energy_decay", "at least 0 and finite", 0 <= self.energy_decay < math.inf),
            ("selective_eps", "positive", self.selective_eps > 0),
            ("initial_energy", "in (0, 1]", 0 < self.initial_energy <= 1),
            ("mem", "at least 1", self.mem >= 1),
            ("learning_rate", "positive and finite", 0 < self.learning_rate < math.inf),
            ("eat_bias", "finite", math.isfinite(self.eat_bias)),
            ("move_delta", "finite", math.isfinite(self.move_delta)),
        ]:
            if not ok:
                raise ValueError(f"{name} must be {need}, got {getattr(self, name)}")


# One ``run_episode`` record, as ``fish1d run`` writes it to trace.csv.
TRACE_COLUMNS = ("step", "F", "food_here", "food_there", "action", "judge")


class DeadFishError(RuntimeError):
    """Raised when stepping a fish whose energy already reached zero."""


class FishWorld:
    """Three-cell view onto an endless tape with periodic food.

    ``window`` is a tuple of three floats, replaced as the fish moves or eats.
    """

    def __init__(self, phase: int = 0, food_period: int = 5):
        self.food_period = food_period
        self.offset = phase % food_period
        self.window = tuple(FOOD_VALUE if (self.offset + i) % food_period == 0 else 0.0
                            for i in range(3))

    @property
    def food_here(self) -> bool:
        return self.window[0] == FOOD_VALUE

    @property
    def food_there(self) -> bool:
        return FOOD_VALUE in self.window[1:]

    def roll_left(self) -> None:
        self.offset += 1
        incoming = FOOD_VALUE if (self.offset + 2) % self.food_period == 0 else 0.0
        self.window = self.window[1:] + (incoming,)

    def consume(self) -> None:
        self.window = (0.0,) + self.window[1:]


@dataclass
class FishState:
    energy: float

    @property
    def alive(self) -> bool:
        return self.energy > 0.0


class FishNN:
    """Detectors plus the trainable action layer."""

    def __init__(self, config: FishConfig):
        self.config = config
        # rows: eat = (1, 0, -1), move = (delta, 1, 1); biases start at
        # (eat_bias, 0) so a half-full fish moves past food until trained
        self.w_act = np.array([
            [1.0, 0.0, -1.0],
            [config.move_delta, 1.0, 1.0],
        ])
        self.b_act = np.array([config.eat_bias, 0.0])

    def sense(self, window: np.ndarray) -> tuple[DiffTensor, DiffTensor]:
        eps = self.config.selective_eps
        a_fh = selective_activation(conv1d(window, FH_KERNEL, FH_BIAS), eps)
        a_ft = selective_activation(conv1d(window, FT_KERNEL, FT_BIAS), eps)
        return a_fh, a_ft

    def decide(self, a_fh: DiffTensor, a_ft: DiffTensor,
               energy: float) -> tuple[DiffTensor, int]:
        x = concat([a_fh, a_ft, as_tensor(energy)])
        logits = fully_connected(x, self.w_act, self.b_act)
        return logits, int(np.argmax(logits.values))

    def sense_values(self, window: tuple[float, float, float]) -> tuple[float, float]:
        """sense() on floats: (a_fh, a_ft) for a window of three floats."""
        eps = self.config.selective_eps
        w0, w1, w2 = window
        (h0, h1, h2), (t0, t1, t2) = FH_KERNEL, FT_KERNEL
        y_fh = h0 * w0 + h1 * w1 + h2 * w2 + FH_BIAS
        y_ft = t0 * w0 + t1 * w1 + t2 * w2 + FT_BIAS
        return selective_core(y_fh * y_fh, eps), selective_core(y_ft * y_ft, eps)

    def decide_values(self, a_fh: float, a_ft: float, energy: float,
                      theta: Sequence[float]) -> tuple[tuple[float, float], int]:
        """decide() on floats, at the action layer theta (see ``theta()``):
        the (eat, move) logits and the action."""
        w_e0, w_e1, w_e2, w_m0, w_m1, w_m2, b_eat, b_move = theta
        eat = w_e0 * a_fh + w_e1 * a_ft + w_e2 * energy + b_eat
        move = w_m0 * a_fh + w_m1 * a_ft + w_m2 * energy + b_move
        return (eat, move), EAT if eat >= move else MOVE

    def theta(self) -> tuple[float, ...]:
        """The action layer as N_THETA floats: ``w_act`` row by row, then ``b_act``."""
        return tuple(self.w_act.ravel().tolist() + self.b_act.tolist())

    def export_params(self) -> dict:
        return {"w_act": self.w_act.copy(), "b_act": self.b_act.copy()}

    def import_params(self, params: dict) -> None:
        """Take float64 copies of ``w_act`` and ``b_act``, of the same shapes."""
        for name in ("w_act", "b_act"):
            values = np.array(params[name], dtype=np.float64)
            if values.shape != getattr(self, name).shape:
                raise ShapeError(f"{name}: shape {values.shape} does not match "
                                 f"{getattr(self, name).shape}")
            setattr(self, name, values)


class FishPFC:
    """Frozen judge emitting [True, False] logits for one decision."""

    def judge(self, v0: DiffTensor) -> DiffTensor:
        gates = concat([threshold_activation(conv1d(v0, row)) for row in PFC_ROWS])
        return fully_connected(gates, _JUDGE_W, _JUDGE_B)

    def judge_values(self, v0: tuple) -> tuple[float, float]:
        """judge() on floats: the [True, False] logits for v0."""
        return self.judge_values_and_gates(v0)[0]

    def judge_values_and_gates(self, v0: tuple) -> tuple[tuple, tuple, tuple]:
        """judge_values(v0), the gate pre-activations, and the gates.

        v0 = (a_fh, a_ft, F, e, m); each result is a tuple of floats.
        """
        a_fh, a_ft, energy, e, m = v0
        pre = (a_fh - energy + e, a_ft - energy + m, -a_fh - a_ft + m)  # PFC_ROWS
        gates = (tau_float(pre[0]), tau_float(pre[1]), tau_float(pre[2]))
        o_e1, o_m1, o_ex = JUDGE_TRUE_ROW
        true = o_e1 * gates[0] + o_m1 * gates[1] + o_ex * gates[2]
        # the false row is the true row negated, plus its bias
        return (true, JUDGE_FALSE_BIAS - true), pre, gates

    def jacobian(self, v0: tuple, pre: tuple, gates: tuple) -> tuple[float, ...]:
        """d true / d theta, as N_THETA floats, for the decision judged on v0.

        The false row mirrors the true one, so d false / d theta is this row
        negated.  v0 = (x, p) holds the action layer's input x and its
        softmaxed output p; pre and gates come from
        ``judge_values_and_gates(v0)``.
        """
        x0, x1, x2, e, m = v0
        o_e1, o_m1, o_ex = JUDGE_TRUE_ROW
        # d true / d (e, m) through G_p: e1 reads e, m1 and ex read m
        d_e = o_e1 * tau_slope_float(pre[0], gates[0])
        d_m = o_m1 * tau_slope_float(pre[1], gates[1]) + o_ex * tau_slope_float(pre[2], gates[2])
        # times (diag p - p p^T), as the softmax vjp writes it
        mean = d_e * e + d_m * m
        d_eat, d_move = e * (d_e - mean), m * (d_m - mean)
        return (d_eat * x0, d_eat * x1, d_eat * x2, d_move * x0, d_move * x1,
                d_move * x2, d_eat, d_move)


def pfc_judge(pfc: FishPFC, a_fh: DiffTensor, a_ft: DiffTensor,
              energy: float, logits: DiffTensor) -> DiffTensor:
    """Assemble v0 = [a_fh, a_ft, F, softmax(logits)] and run the judge."""
    probs = softmax(logits)
    v0 = concat([a_fh, a_ft, as_tensor(energy), probs])
    return pfc.judge(v0)


class DecisionMemory:
    """The last ``mem`` verdicts and their Jacobian rows; z is the verdicts' sum.

    A ring of float tuples: slot ``pushed % mem`` takes the next judgment's
    (true, false) verdict and its ``FishPFC.jacobian`` row, so the oldest
    judgment sits there once the memory is full.  Slots not yet written hold
    zeros, which add nothing to z or to the gradient.
    """

    def __init__(self, mem: int = 8):
        self.mem = mem
        self.pushed = 0
        self.verdicts: list[tuple[float, float]] = [(0.0, 0.0)] * mem
        self.rows: list[tuple[float, ...]] = [(0.0,) * N_THETA] * mem

    def push(self, verdict: tuple[float, float], row: tuple[float, ...]) -> None:
        slot = self.pushed % self.mem
        self.verdicts[slot] = verdict
        self.rows[slot] = row
        self.pushed += 1

    @property
    def full(self) -> bool:
        return self.pushed >= self.mem

    def z(self) -> tuple[float, float]:
        """Sum of the stored verdicts, added oldest first."""
        if not self.pushed:
            raise ValueError("decision memory is empty")
        slot = self.pushed % self.mem
        window = self.verdicts[slot:] + self.verdicts[:slot]
        z0, z1 = window[0]
        for true, false in window[1:]:
            z0 += true
            z1 += false
        return z0, z1

    def gradient(self, dz: tuple[float, float]) -> list[float]:
        """d loss / d theta for dz = d loss / dz: the rows summed in slot
        order into s, then dz[0] * s - dz[1] * s, since each judgment's
        false row is its true row negated."""
        rows = iter(self.rows)
        total = next(rows)
        for row in rows:
            total = map(operator.add, total, row)
        g_true, g_false = dz
        return [g_true * s - g_false * s for s in total]


def world_step(world: FishWorld, state: FishState, action: int,
               config: FishConfig) -> tuple[FishWorld, FishState]:
    """Apply decay, then the action: eat restores energy if food is here."""
    if not state.alive:
        raise DeadFishError("cannot step a dead fish")
    state.energy = max(0.0, state.energy - config.energy_decay)
    if action == EAT:
        if world.food_here:
            state.energy = 1.0
            world.consume()
    else:
        world.roll_left()
    return world, state


def make_world(seed: int | None, config: FishConfig) -> tuple[FishWorld, FishState]:
    """Fresh world; the seed randomizes the tape phase."""
    phase = 0
    if seed is not None:
        phase = int(np.random.default_rng(seed).integers(config.food_period))
    return FishWorld(phase, config.food_period), FishState(config.initial_energy)


def sense_and_decide(nn: FishNN, theta: Sequence[float], world: FishWorld,
                     state: FishState) -> tuple[int, tuple]:
    """The action at the action layer theta, and the judge's input
    v0 = (a_fh, a_ft, F, e, m)."""
    a_fh, a_ft = nn.sense_values(world.window)
    logits, action = nn.decide_values(a_fh, a_ft, state.energy, theta)
    e, m = softmax2_float(*logits)
    return action, (a_fh, a_ft, state.energy, e, m)


def run_episode(nn: FishNN, pfc: FishPFC, world: FishWorld, state: FishState,
                steps: int) -> TiledRows:
    """Run the live loop without learning; one trace record per step.

    Each record is a tuple in ``TRACE_COLUMNS`` order: the step, the
    decision-time energy and food flags (0 or 1), the action taken, and the
    judge's verdict on that decision ("T" or "F").  The episode ends early,
    before the next step, once the fish is dead.

    The loop's state is (world.offset % food_period, window, energy).  On
    the first step whose state was seen before, at step s0, the records of
    steps s0..step-1 repeat for as long as the episode lasts, renumbered:
    the trace is the ``TiledRows`` of the stepped records, with its cycle
    from s0, and no record past them is made.  ``world.offset`` is advanced
    by the whole cycles' moves, and the fewer than one cycle's steps left
    are stepped, so world and state end exactly as stepping every time
    leaves them.  This is exact only while each record reads nothing but
    that state and the step: a per-step trace of the named neurons (a_fh,
    a_ft, e, m, the gates, the verdict) is such a record and must be tiled
    with the cycle in the same way; anything else (a clock, a counter kept
    across steps) must go in the key or switch the skip off.
    """
    trace = []
    config = nn.config
    theta = nn.theta()
    seen = {}  # loop state -> (the step it was first seen at, world.offset then)
    for step in range(steps):
        if not state.alive:
            break
        key = (world.offset % world.food_period, world.window, state.energy)
        first, first_offset = seen.setdefault(key, (step, world.offset))
        if first < step:
            # the loop has closed: trace[first:] repeats from here on
            copies, left = divmod(steps - step, step - first)
            world.offset += copies * (world.offset - first_offset)
            for _ in range(left):
                action = sense_and_decide(nn, theta, world, state)[0]
                world_step(world, state, action, config)
            return TiledRows(trace, first, steps)
        action, v0 = sense_and_decide(nn, theta, world, state)
        true, false = pfc.judge_values(v0)
        trace.append((step, state.energy, int(world.food_here), int(world.food_there),
                      ACTION_NAMES[action], "T" if true >= false else "F"))
        world_step(world, state, action, config)
    return TiledRows(trace, len(trace), len(trace))


def srd_train(steps: int, config: FishConfig | None = None,
              seed: int | None = None) -> tuple[FishNN, FishPFC, list[float]]:
    """Live training loop: act, judge, and descend the self-labelled loss.

    Every step pushes the judge output and its Jacobian row into the
    decision memory; once the window is full, loss = cross_entropy(z,
    argmax z) is taken and one SGD step applied to the action layer with the
    gradient in the module docstring.  The action layer is carried as the
    N_THETA floats of ``FishNN.theta`` and written back to ``w_act``/``b_act``
    once, at the end.  Detectors and judge stay frozen throughout.  A step
    whose loss is not finite stops training with a ValueError naming it,
    before its update touches the action layer; so does a step that finds
    the fish starved.
    """
    config = config or FishConfig()
    lr = config.learning_rate
    nn = FishNN(config)
    pfc = FishPFC()
    world, state = make_world(seed, config)
    memory = DecisionMemory(config.mem)
    theta = nn.theta()
    losses: list[float] = []
    for step in range(steps):
        if not state.alive:
            raise ValueError(f"step {step}: the fish starved; training stopped")
        action, v0 = sense_and_decide(nn, theta, world, state)
        verdict, pre, gates = pfc.judge_values_and_gates(v0)
        memory.push(verdict, pfc.jacobian(v0, pre, gates))
        if memory.full:
            loss, dz = cross_entropy2_float(*memory.z())
            if not math.isfinite(loss):
                raise ValueError(f"step {step}: self-reward loss is {loss}; training stopped")
            theta = [t - lr * g for t, g in zip(theta, memory.gradient(dz))]
            losses.append(loss)
        world_step(world, state, action, config)
    nn.import_params({"w_act": np.reshape(theta[:6], (2, 3)), "b_act": theta[6:]})
    return nn, pfc, losses
