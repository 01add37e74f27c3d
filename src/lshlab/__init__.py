"""Numerical laboratory for strong log-Sobolev inequalities and strong
hypercontractivity on the cone of log-subharmonic functions."""

from .errors import (
    ConfigError,
    EvaluationFailure,
    InvalidParameter,
    LabError,
    QuadratureFailure,
    SubharmonicityError,
    TypeConditionViolation,
)
from .fields import (
    Mollifier,
    ScalarField,
    constant,
    convolve,
    cosh_field,
    dilate,
    euler,
    exp_norm_sq,
    exp_subharmonic,
    is_lsh,
    is_subharmonic,
    log_linear,
    modulus_holomorphic,
    mollifier,
    power,
    product_field,
    raw_field,
    scale,
    spherical_average,
    squared_norm,
)
from .functionals import (
    alpha_prime_fd,
    alpha_prime_with_error,
    alpha_with_error,
    entropy_with_error,
    euler_energy_with_error,
    hc_bracket_with_error,
    q_of_r,
    r_of_pq,
)
from .measures import (
    Density,
    RegularityConstants,
    convolve_measures,
    gaussian,
    gen_exponential,
    make_builtin,
    mix,
    perturb,
    poly_tail,
    product,
    regularity_constant,
    shift,
    type_report,
    uniform_ball,
)
from .quadrature import QuadratureSpec, default_spec, integrate, lp_norm_with_error
from .checks import (
    CheckReport,
    best_constant,
    check_density_approximation,
    check_dilated_convolution_bound,
    check_dilation_bound,
    check_general_shc,
    check_radial_euler_scaling,
    check_shc,
    check_slsi,
    check_spherical_monotonicity,
    default_battery,
)
from .campaign import CampaignConfig, load_config, preset, run, run_campaign

__version__ = "0.1.0"
