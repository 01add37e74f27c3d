"""The paper's engine as an oracle where no closed form exists.

The sHC curve alpha(r) = ||f_r||_{q(r)} has the derivative alpha'(r) =
(2 / (c r q)) alpha(r)^{1-q} bracket(r), where bracket(r) is the sLSI deficit
of f_r^{q(r)} (Gross's derivative argument).  Integrating it from r to 1,

    alpha(1) - alpha(r) = int_r^1 alpha'(s) ds,

computes an sHC row's deficit a second way: the left side from two norms, the
right side from entropy and energy integrals of f_s^{q(s)}, on a 12-point
Gauss-Legendre rule in s.  It needs no moment-generating function, so it
reaches perturbed measures, non-Gaussian tails, convolutions of non-Gaussian
factors, and mollified fields.  The two sides must agree within the summed
error estimates e(alpha(1)) + e(alpha(r)) + sum_j w_j e(alpha'(s_j)).

Left out: cases where the tilt q(s) s lam nears the tail's rate, where
alpha' is too steep for the rule in s.  On the Gaussian-Laplace convolution
at c = 0.7, e^{x/2} reaches a tilt of 0.97 against the tail's rate 1 and
alpha'(0.7) = -86; there the 12-node rule misses by 7e-4, while
``alpha_prime_fd`` matches alpha' to 4e-5 relative.
"""

import numpy as np
import pytest

import lshlab as L
from lshlab.functionals import alpha_prime_with_error, alpha_with_error

R = 0.7
S_NODES, S_WEIGHTS = np.polynomial.legendre.leggauss(12)

FIELDS = {
    "log_linear": L.log_linear([0.5]),
    "cosh": L.cosh_field(0.6),
    "mollified": L.convolve(L.log_linear([0.5]), L.mollifier(1, 4)),
}

#: each measure's builder and the constants c it is checked at
MEASURES = {
    "perturbed_gaussian": (
        lambda: L.perturb(L.gaussian(1.0), lambda pts: 0.3 * np.sin(2.0 * pts[:, 0]),
                          label="0.3 sin 2x"),
        (1.0, 0.7)),
    "gen_exponential_1.5": (lambda: L.gen_exponential(1.0, 1.5, 1), (1.0, 0.7)),
    "gaussian_laplace": (
        lambda: L.convolve_measures(L.gaussian(1.0), L.gen_exponential(1.0, 1.0, 1)), (1.0,)),
}


@pytest.fixture(scope="module")
def measures():
    return {name: build() for name, (build, _) in MEASURES.items()}


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("measure, c", [(name, c) for name, (_, cs) in MEASURES.items()
                                        for c in cs])
def test_alpha_drop_is_the_integrated_slope(measures, measure, c, field):
    f, mu = FIELDS[field], measures[measure]
    spec = L.default_spec(mu)
    a1, e1 = alpha_with_error(f, mu, c, 1.0, spec)
    ar, er = alpha_with_error(f, mu, c, R, spec)
    s = R + (1.0 - R) * (S_NODES + 1.0) / 2.0
    w = S_WEIGHTS * (1.0 - R) / 2.0
    slopes = np.array([alpha_prime_with_error(f, mu, c, sj, spec) for sj in s])
    integral, e_integral = w @ slopes[:, 0], w @ slopes[:, 1]
    assert abs((a1 - ar) - integral) <= e1 + er + e_integral
