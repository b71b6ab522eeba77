"""Series representations of Riemann zeta values from gamma products at
roots of unity, with the supporting partial-fraction machinery."""

from .accel import AccelerationMethod, ConvergenceReport, sum_alternating
from .errors import (
    DegenerateNodesError,
    DivergenceError,
    DomainError,
    OmegaZetaError,
    PoleError,
    SignPatternError,
)
from .gamma_pfd import (
    gamma_pair,
    gamma_pfd_series,
    inverse_square_series,
    modulus_product,
)
from .oracle import PrecisionConfig, tail_power_sum, zeta_oracle
from .pfd import PfdResult, pfd_coefficients, pfd_residual
from .special import (
    exp_log,
    gamma,
    log_cosh,
    log_gamma,
    log_sin,
    log_sinh,
    roots_of_unity,
    trigamma,
)
from .unity_product import (
    ExpZetaSeries,
    GammaProduct,
    TruncatedProduct,
    product_coefficient,
    series_coefficient,
    unity_gamma_product,
    unity_product_pfd,
)
from .zeta3 import Zeta3Variant, hyperbolic_term, p_poly, q_poly, sine_term, zeta3_series
from .zeta_series import zeta_term, zeta_via_series

__version__ = "0.1.0"
