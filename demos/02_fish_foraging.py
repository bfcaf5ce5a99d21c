"""The robot fish: survival by construction, appetite by self-reward.

Every weight is readable: the food-here detector is the kernel [1, 0, 0]
with bias -0.5 behind a match activation, so it fires 1.0 exactly when the
first visible cell holds food.  The untrained policy eats only when energy
drops below ~0.48; self-reward training shifts it to eat at every chance.
"""

import numpy as np

from selfreward.fish1d import (
    FishConfig,
    FishNN,
    FishPFC,
    make_world,
    run_episode,
    srd_train,
)


def describe(label, nn, pfc, seed, steps=3000):
    world, state = make_world(seed, nn.config)
    trace = run_episode(nn, pfc, world, state, steps)
    energy = np.array([F for _, F, _, _, _, _ in trace])
    meals = sum(action == "eat" and here for _, _, here, _, action, _ in trace)
    skipped = sum(action == "move" and here for _, _, here, _, action, _ in trace)
    print(f"{label}: mean energy {energy.mean():.3f}, min {energy.min():.2f}, "
          f"meals {meals}, food passed by {skipped}")
    return energy


config = FishConfig()
print("detector table: food-here kernel [1,0,0] bias -0.5 | "
      "food-there kernel [0,1,1] bias -0.5")
print("action layer at start:")
nn = FishNN(config)
print("  eat  row", nn.w_act[0], "bias", nn.b_act[0])
print("  move row", nn.w_act[1], "bias", nn.b_act[1])
print()

base = describe("untrained", FishNN(config), FishPFC(), seed=0)

print("\ntraining: the judge labels each decision, the running tally of")
print("judgments is pushed toward its own majority, 12000 live steps...")
trained_nn, trained_pfc, losses = srd_train(12000, config, seed=0)
print(f"final loss {losses[-1]:.4f}; trained action layer:")
print("  eat  row", trained_nn.w_act[0].round(3),
      "bias", round(float(trained_nn.b_act[0]), 3))
print("  move row", trained_nn.w_act[1].round(3),
      "bias", round(float(trained_nn.b_act[1]), 3))
print()

trained = describe("trained  ", trained_nn, trained_pfc, seed=0)
print(f"\naverage energy lift: {trained.mean() - base.mean():+.3f} "
      "(the fish now tops up whenever food appears)")
