"""Locally differentially private mean estimation.

A distribution-adaptive additive mechanism whose noise law is optimized by
linear programming against an estimated quantized data distribution, next to
the classical baselines (Laplace, two-point, piecewise, hybrid, randomized
response), with exact privacy verification and a seeded experiment harness.
"""

from .adaptive import (
    NoiseShape,
    NoiseTable,
    ProtocolResult,
    build_lp,
    load_table,
    run_protocol,
    sample_noise,
    save_table,
    solve_noise_table,
    verify_privacy,
)
from .analysis import (
    baseline_expected_variance,
    claim3_bound,
    expected_variance,
    squared_error,
    variance_relative_error,
)
from .baselines import (
    duchi_conditional_variance,
    duchi_perturb,
    generalized_rr,
    hybrid_conditional_variance,
    hybrid_perturb,
    laplace_perturb,
    laplace_variance,
    piecewise_conditional_variance,
    piecewise_perturb,
)
from .data import (
    BetaDistribution,
    Dataset,
    ShiftedExponential,
    TruncatedGaussian,
    gen_bernoulli,
    gen_exponential_clipped,
    gen_gaussian_clipped,
    true_pmf,
)
from .domain import (
    LinearTransform,
    QuantizedDomain,
    QuantizedPmf,
    make_domain,
    rescale_to,
)
from .freqest import (
    collect_perturbed_histogram,
    reconstruct_pmf,
)
from .multidim import assign_attributes, attribute_pools

__version__ = "0.1.0"
