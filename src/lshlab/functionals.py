"""Entropy, Euler energy, and the dilation-norm curve alpha(r).

For a constant c > 0 the contraction exponent is q(r) = r^(-2/c), decreasing
with q(1) = 1, and

    alpha(r) = || f_r ||_{L^{q(r)}(mu)},   f_r(x) = f(r x).

The strong log-Sobolev deficit of a field g is (c/2) * int E g dmu - Ent(g),
and the derivative of alpha admits the closed form

    alpha'(r) = (2 / (c r q)) ||f_r||_q^{1-q} [ A ln A
                - int f_r^q ln f_r^q dmu + (c q / 2) int f_r^{q-1} E f_r dmu ]

with A = ||f_r||_q^q.  All entropy-type integrands are evaluated in log-space
(probability weights pi_i proportional to w_i f_r^q) so large exponents never
overflow.  Functions come in plain and ``*_with_error`` forms; the latter
propagate the quadrature error estimates used by the check suite.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .errors import InvalidParameter, QuadratureFailure
from .fields import VALUE_FLOOR, ScalarField, dilate, power
from .quadrature import QuadratureSpec, lp_norm_with_error, weighted_moments

#: q(r) values beyond this guard are rejected (integrands would overflow)
Q_GUARD = 1e4
DEFAULT_R_GRID = (0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 1.0)
_LOG_VALUE_FLOOR = math.log(VALUE_FLOOR)


def q_of_r(r: float, c: float) -> float:
    """Contraction exponent q(r) = r^(-2/c)."""
    if not (0.0 < r <= 1.0):
        raise InvalidParameter("r must lie in (0, 1]")
    if c <= 0:
        raise InvalidParameter("c must be positive")
    return float(r) ** (-2.0 / float(c))


def r_of_pq(p: float, q: float, c: float) -> float:
    """Contraction time r(p, q) = (p/q)^(c/2) in (0, 1]."""
    if not (0.0 < p <= q):
        raise InvalidParameter("require 0 < p <= q")
    return (p / q) ** (c / 2.0)


# ---------------------------------------------------------------------------
# entropy and Euler energy
# ---------------------------------------------------------------------------

def _log_weight(pts, lg):
    """The factor ln g of a weight g, read from the values the weight passes."""
    return lg


def _euler_log(g: ScalarField, exponent: float = 1.0):
    """The factor x . grad(ln g) = (x . grad g) / g of the weight g^exponent,
    with 1 / g taken from the weight's log values; where g is below
    VALUE_FLOOR it is 0, with a RuntimeWarning."""
    def factor(pts, lg):
        log_g = lg / exponent
        floored = log_g <= _LOG_VALUE_FLOOR
        if np.any(floored):
            warnings.warn(
                "zero field values floored in a derivative integrand "
                f"({int(np.count_nonzero(floored))} nodes)",
                RuntimeWarning,
                stacklevel=2,
            )
        with np.errstate(over="ignore", invalid="ignore"):
            # inf * 0 where g overflows: the NaN fails the integral, with its witness
            e = np.einsum("ij,ij->i", pts, g.gradient(pts)) * np.exp(-log_g)
        return np.where(floored, 0.0, e)

    return factor


def _mass(log_mass: float) -> float:
    if log_mass > 700.0:
        raise QuadratureFailure(f"||g||_1 overflows; log value {log_mass:.3g}")
    return math.exp(log_mass)


def _entropy(log_mass: float, mean_lg: float) -> float:
    """Ent(g) = ||g||_1 (E[ln g] - ln ||g||_1), the mean taken under g / ||g||_1."""
    return _mass(log_mass) * (mean_lg - log_mass)


def _checked_entropy(val: float, err: float) -> tuple[float, float]:
    scale = max(1.0, abs(val))
    if val < -(1e-6 * scale + 3.0 * err):
        raise QuadratureFailure(
            f"entropy {val:.3g} is negative beyond tolerance; quadrature breakdown"
        )
    return float(val), max(float(err), 1e-15)


def entropy_with_error(g: ScalarField, mu, spec: QuadratureSpec) -> tuple[float, float]:
    """Ent(g) = int g ln(g / ||g||_1) dmu with its error estimate."""
    return _checked_entropy(*weighted_moments(
        g.log_value, [_log_weight], mu, spec, lambda lm, means: _entropy(lm, means[0])))


def entropy(g: ScalarField, mu, spec: QuadratureSpec) -> float:
    return entropy_with_error(g, mu, spec)[0]


def euler_energy_with_error(g: ScalarField, mu, spec: QuadratureSpec) -> tuple[float, float]:
    """int E g dmu = ||g||_1 E[x . grad ln g], the dilation energy (no c/2 prefactor)."""
    val, err = weighted_moments(g.log_value, [_euler_log(g)], mu, spec,
                                lambda lm, means: _mass(lm) * means[0])
    return float(val), max(float(err), 1e-15)


def entropy_energy_with_error(g: ScalarField, mu,
                              spec: QuadratureSpec) -> tuple[float, float, float, float]:
    """(Ent(g), its error, int E g dmu, its error) from one weight g."""
    def fn(lm, means):
        return np.array([_entropy(lm, means[0]), _mass(lm) * means[1]])

    (ent, ee), (e_ent, e_ee) = weighted_moments(
        g.log_value, [_log_weight, _euler_log(g)], mu, spec, fn)
    return (*_checked_entropy(ent, e_ent), float(ee), max(float(e_ee), 1e-15))


def euler_energy(g: ScalarField, mu, spec: QuadratureSpec) -> float:
    return euler_energy_with_error(g, mu, spec)[0]


# ---------------------------------------------------------------------------
# alpha(r) and its derivative
# ---------------------------------------------------------------------------

def _checked_q(r: float, c: float) -> float:
    q = q_of_r(r, c)
    if q > Q_GUARD:
        raise InvalidParameter(
            f"q(r) = {q:.3g} too large at r = {r:g}; raise the r-grid minimum"
        )
    return q


class DilationNorms:
    """||f_r||_{L^q(mu)} of one field with its error estimate, memoised on (r, q).

    ``norms(r, q)`` is ``lp_norm_with_error(dilate(f, r), mu, q, spec)``,
    integrated the first time it is asked for; a QuadratureFailure is memoised
    as well and raised again.  ``norms(1, 1)`` is ||f||_1, which is also
    alpha(1) at every c, since q(1) = 1.
    """

    def __init__(self, f: ScalarField, mu, spec: QuadratureSpec):
        self.f, self.mu, self.spec = f, mu, spec
        self._memo = {}

    def __call__(self, r: float, q: float) -> tuple[float, float]:
        key = (float(r), float(q))
        if key not in self._memo:
            try:
                self._memo[key] = lp_norm_with_error(dilate(self.f, r), self.mu, q, self.spec)
            except QuadratureFailure as exc:
                self._memo[key] = exc
        hit = self._memo[key]
        if isinstance(hit, QuadratureFailure):
            raise hit
        return hit

    def alpha(self, r: float, c: float) -> tuple[float, float]:
        """alpha(r) = ||f_r||_{q(r)}; InvalidParameter when q(r) exceeds Q_GUARD."""
        return self(r, _checked_q(r, c))


def alpha_with_error(f: ScalarField, mu, c: float, r: float,
                     spec: QuadratureSpec) -> tuple[float, float]:
    """alpha(r) = ||f_r||_{q(r)} with its quadrature error estimate."""
    return DilationNorms(f, mu, spec).alpha(r, c)


def alpha(f: ScalarField, mu, c: float, r: float, spec: QuadratureSpec) -> float:
    return alpha_with_error(f, mu, c, r, spec)[0]


def alpha_prime_with_error(f: ScalarField, mu, c: float, r: float,
                           spec: QuadratureSpec) -> tuple[float, float]:
    """Analytic derivative of alpha at r, from the closed-form bracket.

    With g = f_r^q the bracket is ln A - E[ln g] + (c q / 2) E[x . grad ln f_r],
    the means taken under g / A, A = ||g||_1 = alpha(r)^q.
    """
    if not f.has_gradient and not f.smooth:
        raise InvalidParameter("derivative formula needs a smooth field with gradient")
    q = _checked_q(r, c)
    fr = dilate(f, r)

    def fn(log_a, means):
        if log_a / q > 700.0:
            raise QuadratureFailure(f"alpha(r) overflows; log value {log_a / q:.3g}")
        bracket = log_a - means[0] + (c * q / 2.0) * means[1]
        return (2.0 / (c * r * q)) * math.exp(log_a / q) * bracket

    val, err = weighted_moments(lambda pts: q * fr.log_value(pts),
                                [_log_weight, _euler_log(fr, q)], mu, spec, fn)
    return float(val), max(float(err), 1e-15)


def alpha_prime_analytic(f: ScalarField, mu, c: float, r: float,
                         spec: QuadratureSpec) -> float:
    return alpha_prime_with_error(f, mu, c, r, spec)[0]


def alpha_prime_fd(f: ScalarField, mu, c: float, r: float, spec: QuadratureSpec,
                   step: float = 1e-4) -> float:
    """Finite-difference derivative of alpha: central inside (0, 1), one-sided
    (second order, from the left) at r = 1."""
    a = lambda rr: alpha(f, mu, c, rr, spec)
    if r + step <= 1.0:
        return (a(r + step) - a(r - step)) / (2.0 * step)
    return (3.0 * a(r) - 4.0 * a(r - step) + a(r - 2.0 * step)) / (2.0 * step)


def hc_bracket_with_error(f: ScalarField, mu, c: float, r: float,
                          spec: QuadratureSpec) -> tuple[float, float]:
    """-Ent(f_r^q) + (c/2) int E(f_r^q) dmu; at r = 1 this is the sLSI deficit."""
    q = _checked_q(r, c)
    g = power(dilate(f, r), q) if q != 1.0 else dilate(f, r)
    ent, e1, ee, e2 = entropy_energy_with_error(g, mu, spec)
    return -ent + (c / 2.0) * ee, e1 + (c / 2.0) * e2


def hc_bracket(f: ScalarField, mu, c: float, r: float, spec: QuadratureSpec) -> float:
    return hc_bracket_with_error(f, mu, c, r, spec)[0]
