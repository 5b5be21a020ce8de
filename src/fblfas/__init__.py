"""Finite-blocklength limits of fluid antenna systems.

The library models a fluid antenna that switches among N ports on an
aperture of W wavelengths and always activates the strongest port. The
analytic side condenses the exact Toeplitz port correlation into a
block-correlation model, evaluates the selected-port gain distribution
through Gauss-Laguerre quadrature over noncentral chi-square factors, and
derives finite-blocklength error-rate bounds and outage probabilities.
The Monte Carlo side simulates the exact correlated channel for
cross-validation. A CLI (``fblfas``) runs the standard experiment sweeps
and writes reproducible CSV curves.
"""

from .errors import NumericError
from .specfun import (
    Ncx2Family,
    marcum_q1,
    ncx2_cdf,
)
from .quadrature import (
    QuadratureRule,
    gauss_laguerre,
    integrate_adaptive,
)
from .channel import (
    BlockModel,
    SystemConfig,
    ToeplitzCorrelation,
    build_correlation,
    eigen_factor,
    fit_block_model,
)
from .fas_stats import (
    GainDistribution,
    block_cdf_factor,
    block_cdf_factor_adaptive,
    cdf_gfas,
    pdf_gfas,
    quantile,
)
from .metrics import (
    codeword_correlation,
    combinatorial_exponent,
    conditional_bler,
    conditional_bler_raw,
    mrc_conditional_bler,
    mrc_outage,
    mrc_statistical_bler,
    outage_probability,
    outage_threshold,
    statistical_bler,
)
from .montecarlo import (
    McEstimate,
    empirical_gain_cdf,
    empirical_outage,
    empirical_outage_sweep,
    empirical_statistical_bler,
    empirical_statistical_bler_sweep,
)

__version__ = "0.1.0"

__all__ = [
    "BlockModel",
    "GainDistribution",
    "McEstimate",
    "Ncx2Family",
    "NumericError",
    "QuadratureRule",
    "SystemConfig",
    "ToeplitzCorrelation",
    "block_cdf_factor",
    "block_cdf_factor_adaptive",
    "build_correlation",
    "cdf_gfas",
    "codeword_correlation",
    "combinatorial_exponent",
    "conditional_bler",
    "conditional_bler_raw",
    "eigen_factor",
    "empirical_gain_cdf",
    "empirical_outage",
    "empirical_outage_sweep",
    "empirical_statistical_bler",
    "empirical_statistical_bler_sweep",
    "fit_block_model",
    "gauss_laguerre",
    "integrate_adaptive",
    "marcum_q1",
    "mrc_conditional_bler",
    "mrc_outage",
    "mrc_statistical_bler",
    "ncx2_cdf",
    "outage_probability",
    "outage_threshold",
    "pdf_gfas",
    "quantile",
    "statistical_bler",
]
