"""Mixing-law estimation for nonlinear repeated-measurement models.

The observed data are per-individual measurement vectors y = f(s, t) + noise
with unobserved individual parameters s; the package estimates the law of s
by maximum likelihood over discrete measures (with certificate-driven
support refinement) and over finite-dimensional hat-density sieves.
"""

from .data import (
    CensoredObservation,
    CensoringDesign,
    Dataset,
    Observation,
    apply_censoring,
    simulate_dataset,
)
from .errors import (
    DegenerateMeasureError,
    InvalidArgumentError,
    ModelViolationError,
    NpmlError,
    NumericDomainError,
    SupportViolationError,
)
from .likelihood import (
    KernelMatrix,
    build_kernel_matrix,
    build_sieve_kernel_matrix,
    contrast_value,
    kl_diagnostic,
    log_likelihood,
    log_likelihood_full,
    row_log_mixture,
)
from .measures import (
    MixingMeasure,
    SieveBasis,
    SieveDensity,
    measure_distance,
    merge_close_atoms,
    new_uniform_grid_measure,
    prune,
    sieve_to_measure,
    wasserstein1_1d,
)
from .model import (
    CensorMask,
    IdentityLocation,
    LinearInS,
    ModelSpec,
    PkExp,
    TimeDesign,
    conditional_log_density,
    eval_f,
    eval_g,
    gaussian_log_density,
    laplace_log_density,
    project_mask,
)
from .solver import (
    Certificate,
    FitOptions,
    FitResult,
    brute_force_oracle,
    certify,
    concavity_probe,
    directional_derivatives,
    em_fit,
    em_step,
    fit_npml,
    fit_sieve,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
