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
from scipy.special import logsumexp

from .errors import InvalidParameter, QuadratureFailure
from .fields import LOG_FLOOR, VALUE_FLOOR, ScalarField, dilate, euler, power
from .quadrature import (
    QuadratureSpec,
    adaptive_weighted,
    integrate,
    lp_norm_with_error,
    measure_nodes,
)

#: q(r) values beyond this guard are rejected (integrands would overflow)
Q_GUARD = 1e4
DEFAULT_R_GRID = (0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 1.0)


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

def _entropy_nodes(g: ScalarField, mu, spec: QuadratureSpec) -> float:
    pts, logw = measure_nodes(mu, spec)
    lg = g.log_value(pts)
    s = logw + lg
    log_a = float(logsumexp(s))
    if not math.isfinite(log_a):
        raise QuadratureFailure("||g||_1 is zero or divergent; entropy undefined")
    if log_a > 700.0:
        raise QuadratureFailure("||g||_1 overflows; entropy cannot be represented")
    pi = np.exp(s - log_a)
    mean_lg = float(pi @ lg)
    return math.exp(log_a) * (mean_lg - log_a)


def entropy_with_error(g: ScalarField, mu, spec: QuadratureSpec) -> tuple[float, float]:
    """Ent(g) = int g ln(g / ||g||_1) dmu with a doubling error estimate."""
    if spec.scheme == "adaptive_1d":
        l1, e1 = adaptive_weighted(mu, spec, g.log_value)
        if not (l1 > 0 and math.isfinite(l1)):
            raise QuadratureFailure(f"||g||_1 = {l1}; entropy undefined")
        log_l1 = math.log(l1)
        val, err = adaptive_weighted(
            mu, spec, g.log_value, factor=lambda pts: g.log_value(pts) - log_l1
        )
        err = err + abs(e1 / l1)
    else:
        val = _entropy_nodes(g, mu, spec)
        val2 = _entropy_nodes(g, mu, spec.halved())
        err = abs(val - val2)
    scale = max(1.0, abs(val))
    if val < -(1e-6 * scale + 3.0 * err):
        raise QuadratureFailure(
            f"entropy {val:.3g} is negative beyond tolerance; quadrature breakdown"
        )
    return val, max(err, 1e-15)


def entropy(g: ScalarField, mu, spec: QuadratureSpec) -> float:
    return entropy_with_error(g, mu, spec)[0]


def euler_energy_with_error(g: ScalarField, mu, spec: QuadratureSpec) -> tuple[float, float]:
    """int E g dmu, the dilation energy (no c/2 prefactor)."""
    if spec.scheme == "adaptive_1d":
        # factor through E g = g * (x . grad ln g) so the tail is weighted
        # by the measure before the gradient is evaluated
        return adaptive_weighted(
            mu, spec, g.log_value, factor=lambda pts: _grad_log(g, pts)
        )
    return integrate(lambda pts: euler(g, pts), mu, spec)


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


def _grad_log(fr: ScalarField, pts) -> np.ndarray:
    """x . grad(ln f_r)(x) = E f_r / f_r, with zero-value flooring reported."""
    vals = fr(pts)
    grad = fr.gradient(pts)
    e = np.einsum("ij,ij->i", pts, grad)
    floored = vals < VALUE_FLOOR
    if np.any(floored):
        warnings.warn(
            "zero field values floored in a derivative integrand "
            f"({int(np.count_nonzero(floored))} nodes)",
            RuntimeWarning,
            stacklevel=3,
        )
    out = np.zeros_like(e)
    ok = ~floored
    with np.errstate(invalid="ignore"):
        # inf / inf where f_r overflows: the NaN fails the integral, with its witness
        out[ok] = e[ok] / vals[ok]
    return out


def _alpha_prime_nodes(f, mu, c, r, q, spec) -> float:
    fr = dilate(f, r)
    pts, logw = measure_nodes(mu, spec)
    lfr = fr.log_value(pts)
    s = logw + q * lfr
    log_a = float(logsumexp(s))
    if not math.isfinite(log_a):
        raise QuadratureFailure("||f_r||_q^q diverges in the derivative formula")
    pi = np.exp(s - log_a)
    mean_lfr = float(pi @ lfr)
    mean_elog = float(pi @ _grad_log(fr, pts))
    bracket = log_a - q * mean_lfr + (c * q / 2.0) * mean_elog
    alpha_r = math.exp(log_a / q)
    return (2.0 / (c * r * q)) * alpha_r * bracket


def alpha_prime_with_error(f: ScalarField, mu, c: float, r: float,
                           spec: QuadratureSpec) -> tuple[float, float]:
    """Analytic derivative of alpha at r, from the closed-form bracket."""
    if not f.has_gradient and not f.smooth:
        raise InvalidParameter("derivative formula needs a smooth field with gradient")
    q = _checked_q(r, c)
    if spec.scheme == "adaptive_1d":
        fr = dilate(f, r)
        log_g = lambda pts: q * fr.log_value(pts)
        a_val, ea = adaptive_weighted(mu, spec, log_g)
        if not (a_val > 0 and math.isfinite(a_val)):
            raise QuadratureFailure("||f_r||_q^q diverges in the derivative formula")
        b_val, eb = adaptive_weighted(
            mu, spec, log_g, factor=lambda pts: q * fr.log_value(pts)
        )
        c_val, ec = adaptive_weighted(
            mu, spec, log_g, factor=lambda pts: _grad_log(fr, pts)
        )
        alpha_r = a_val ** (1.0 / q)
        bracket = math.log(a_val) - b_val / a_val + (c * q / 2.0) * c_val / a_val
        val = (2.0 / (c * r * q)) * alpha_r * bracket
        err = (2.0 / (c * r * q)) * alpha_r * (
            ea / a_val + eb / a_val + (c * q / 2.0) * ec / a_val
        )
        return val, max(err, 1e-15)
    val = _alpha_prime_nodes(f, mu, c, r, q, spec)
    val2 = _alpha_prime_nodes(f, mu, c, r, q, spec.halved())
    return val, max(abs(val - val2), 1e-15)


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
    ent, e1 = entropy_with_error(g, mu, spec)
    ee, e2 = euler_energy_with_error(g, mu, spec)
    return -ent + (c / 2.0) * ee, e1 + (c / 2.0) * e2


def hc_bracket(f: ScalarField, mu, c: float, r: float, spec: QuadratureSpec) -> float:
    return hc_bracket_with_error(f, mu, c, r, spec)[0]
