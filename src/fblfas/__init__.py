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
    bessel_i0_scaled,
    marcum_q1,
    ncx2_cdf,
    ncx2_pdf,
)
from .quadrature import (
    AdaptiveResult,
    JacobiTridiagonal,
    QuadratureRule,
    gauss_laguerre,
    integrate_adaptive,
    tridiag_eigen,
)
from .channel import (
    BlockModel,
    EigenFactor,
    SystemConfig,
    ToeplitzCorrelation,
    build_correlation,
    eigen_factor,
    fit_block_model,
    load_block_model,
    load_correlation,
    sample_channels,
    save_block_model,
    save_correlation,
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
    OutageSpec,
    codeword_correlation,
    combinatorial_exponent,
    conditional_bler,
    conditional_bler_raw,
    mrc_conditional_bler,
    mrc_outage,
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
)

__version__ = "0.1.0"

__all__ = [
    "AdaptiveResult",
    "BlockModel",
    "EigenFactor",
    "GainDistribution",
    "JacobiTridiagonal",
    "McEstimate",
    "Ncx2Family",
    "NumericError",
    "OutageSpec",
    "QuadratureRule",
    "SystemConfig",
    "ToeplitzCorrelation",
    "bessel_i0_scaled",
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
    "fit_block_model",
    "gauss_laguerre",
    "integrate_adaptive",
    "load_block_model",
    "load_correlation",
    "marcum_q1",
    "mrc_conditional_bler",
    "mrc_outage",
    "ncx2_cdf",
    "ncx2_pdf",
    "outage_probability",
    "outage_threshold",
    "pdf_gfas",
    "quantile",
    "sample_channels",
    "save_block_model",
    "save_correlation",
    "statistical_bler",
]
