#!/usr/bin/env python3
"""Consistency: the fitted mixing law approaches the truth as N grows.

Runs a small (N, seed) grid, prints median distances per N, and writes the
report CSV plus a gnuplot script next to it. The cells run one after another;
each seed's rows are the same when disjoint seed lists run as separate processes.
"""

import numpy as np

from npmlmix import FitOptions, MixingMeasure, ModelSpec, PkExp, TimeDesign
from npmlmix.experiments import (
    ExperimentConfig,
    gnuplot_script,
    run_consistency_experiment,
    write_report_csv,
)

cfg = ExperimentConfig(
    kind="consistency",
    spec=ModelSpec(
        p=2,
        n=4,
        sigma=0.2,
        f=PkExp(),
        time_design=TimeDesign(((0.0, 0.75), (0.75, 1.5), (1.5, 2.25), (2.25, 3.0))),
    ),
    truth=MixingMeasure(np.array([[1.0, 0.3], [2.0, 0.8]]), [0.5, 0.5]),
    box=((0.5, 2.5), (0.05, 1.2)),
    initial_counts=(7, 7),
    n_schedule=(100, 400, 1600),
    seeds=tuple(range(8)),
    options=FitOptions(refine_grid=33, max_refinements=12),
)

print(f"running {len(cfg.n_schedule) * len(cfg.seeds)} fits ...")
rows = run_consistency_experiment(cfg)

print("\n    N    median distance    mean atoms")
for N in cfg.n_schedule:
    cell = [r for r in rows if r.N == N]
    med = np.median([r.distance_to_truth for r in cell])
    atoms = np.mean([r.atom_count for r in cell])
    print(f"  {N:5d}   {med:14.4f}    {atoms:8.1f}")

write_report_csv(rows, "consistency_report.csv")
with open("consistency_report.gp", "w") as fh:
    fh.write(gnuplot_script("consistency_report.csv", "consistency"))
print("\nwrote consistency_report.csv and consistency_report.gp")
print("(plot with: gnuplot -p consistency_report.gp)")
