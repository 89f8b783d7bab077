"""Finite-difference check of the full training objective on micro shapes.

Every gradient in this package is hand-derived, so the one test that
matters most is central differences against the analytic values. The
objective is piecewise smooth (relu kinks, prototype-max ties, variance
hinge), so each draw is resampled until it sits safely away from all of
them.
"""

import time

from protomatch.trainer import GRADCHECK_DRAW, objective_finite_diff

SEEDS = range(10)
TOLERANCE = 1e-5

# micro shapes, small enough that central differences over every coordinate
# of every tensor stay fast
print("draw: " + ", ".join(f"{name}={size}" for name, size in GRADCHECK_DRAW.items()))
print()
print("seed   max rel err")
worst = 0.0
start = time.perf_counter()
for seed in SEEDS:
    err = objective_finite_diff(seed)
    worst = max(worst, err)
    print(f"{seed:4d}   {err:.3e}")
elapsed = time.perf_counter() - start

print()
print(f"worst over {len(list(SEEDS))} seeds: {worst:.3e}  (tolerance {TOLERANCE:.0e})")
print(f"elapsed: {elapsed:.2f}s")
if worst < TOLERANCE:
    print("analytic gradients agree with finite differences.")
else:
    print("GRADIENT MISMATCH, do not trust training results.")
