#!/usr/bin/env python3
"""Sieve fits on nested hat-density grids converge to the discrete optimum.

Doubling the cell count per axis refines the hat grid in place (coarse nodes
stay in the fine grid), so the feasible sets are nested and the likelihood
gap to the discrete fit shrinks monotonically.
"""

import numpy as np

from npmlmix import (
    FitOptions,
    IdentityLocation,
    MixingMeasure,
    ModelSpec,
    SieveBasis,
    TimeDesign,
    fit_npml,
    fit_sieve,
    simulate_dataset,
)

spec = ModelSpec(
    p=1,
    n=2,
    sigma=0.3,
    f=IdentityLocation(),
    time_design=TimeDesign(((0.0, 1.0), (1.0, 2.0))),
)
truth = MixingMeasure(np.array([[0.7], [1.8]]), [0.5, 0.5])
ds = simulate_dataset(spec, truth, N=400, seed=42)
box = [(0.0, 2.5)]

print("discrete reference fit ...")
npml = fit_npml(ds, box, (9,), FitOptions(refine_grid=33))
print(f"  log-likelihood {npml.final_loglik:.8f} ({npml.status}, {npml.measure.m} atoms)\n")

print(" cells   basis dim   log-likelihood     gap to discrete")
for cells in (4, 8, 16, 32):
    basis = SieveBasis(box, [cells + 1])
    fit = fit_sieve(ds, basis)
    gap = npml.final_loglik - fit.final_loglik
    print(f"  {cells:4d}   {basis.m:9d}   {fit.final_loglik:.8f}   {gap:12.3e}")

print("\nthe gap is nonnegative (hull of densities cannot beat free atoms)")
print("and shrinks as the grid refines; atoms are the h -> 0 limit of hats.")
