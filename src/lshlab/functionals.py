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
overflow.  The Euler factor lives in the same coordinate: E g / g =
x . grad ln g is a factor column next to ln g in one column map, which
evaluates the field's log map once, so int E g dmu is ||g||_1 times the mean
of x . grad ln g under g / ||g||_1 and nothing divides by g.  Only what no
double holds overflows (QuadratureFailure): ||g||_1 or alpha(r) above
e^709.78, or an infinite Ent(g), int E g dmu or alpha'(r).  Functions come in
plain and ``*_with_error`` forms, the latter with quadrature error estimates.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidParameter, QuadratureFailure
from .fields import ScalarField, dilate, power
from .quadrature import (LOG_MAX, QuadratureSpec, adaptive_lp_norms, lp_norm_with_error,
                         weighted_moments)

#: q(r) values beyond this guard are rejected (integrands would overflow)
Q_GUARD = 1e4
#: a deficit that should be >= 0 may reach -(INEQ_ABS * scale + NOISE_FACTOR
#: * its quadrature error): the tolerance of every inequality in ``checks``
#: and of the entropy's sign here
INEQ_ABS = 1e-6
NOISE_FACTOR = 3.0
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

def _weight_columns(g: ScalarField, exponent: float = 1.0):
    """pts -> the columns [ln g^exponent | ln g^exponent | x . grad ln g] of the
    weight g^exponent for ``weighted_moments``, from one evaluation of g: its
    log, then the factors that log and E g / g = x . grad ln g."""
    def columns(pts):
        lg, dlg = g.log_value(pts, grad=True)
        lw = exponent * lg
        return np.column_stack([lw, lw, np.einsum("ij,ij->i", pts, dlg)])

    return columns


def _times_exp(log_scale: float, value: float, scale: str, what: str) -> float:
    """``what`` = e^log_scale * value; QuadratureFailure when the ``scale``
    e^log_scale or the product is beyond the largest double."""
    if log_scale > LOG_MAX:
        raise QuadratureFailure(f"{scale} overflows; log value {log_scale:.3g}")
    out = math.exp(log_scale) * float(value)
    if not math.isfinite(out):
        raise QuadratureFailure(f"{what} overflows")
    return out


def _checked_entropy(val: float, err: float) -> tuple[float, float]:
    scale = max(1.0, abs(val))
    if val < -(INEQ_ABS * scale + NOISE_FACTOR * err):
        raise QuadratureFailure(
            f"entropy {val:.3g} is negative beyond tolerance; quadrature breakdown"
        )
    return float(val), max(float(err), 1e-15)


def entropy_energy_with_error(g: ScalarField, mu,
                              spec: QuadratureSpec) -> tuple[float, float, float, float]:
    """(Ent(g), its error, int E g dmu, its error) from one weight g."""
    def fn(lm, means):  # Ent(g) = ||g||_1 (E[ln g] - ln ||g||_1), E under g / ||g||_1
        return np.array([_times_exp(lm, means[0] - lm, "||g||_1", "Ent(g)"),
                         _times_exp(lm, means[1], "||g||_1", "int E g dmu")])

    (ent, ee), (e_ent, e_ee) = weighted_moments(_weight_columns(g), mu, spec, fn)
    return (*_checked_entropy(ent, e_ent), float(ee), max(float(e_ee), 1e-15))


def entropy_with_error(g: ScalarField, mu, spec: QuadratureSpec) -> tuple[float, float]:
    """Ent(g) = int g ln(g / ||g||_1) dmu with its error estimate."""
    return entropy_energy_with_error(g, mu, spec)[:2]


def entropy(g: ScalarField, mu, spec: QuadratureSpec) -> float:
    return entropy_with_error(g, mu, spec)[0]


def euler_energy_with_error(g: ScalarField, mu, spec: QuadratureSpec) -> tuple[float, float]:
    """int E g dmu = ||g||_1 E[x . grad ln g], the dilation energy (no c/2 prefactor)."""
    return entropy_energy_with_error(g, mu, spec)[2:]


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


def _norm_or_failure(f: ScalarField, mu, q: float, spec: QuadratureSpec):
    try:
        return lp_norm_with_error(f, mu, q, spec)
    except QuadratureFailure as exc:
        return exc


class DilationNorms:
    """||f_r||_{L^q(mu)} of one field with its error estimate, memoised on (r, q).

    ``fill(keys)`` integrates every (r, q) of ``keys`` not yet memoised; it
    is the one-field call of :func:`fill_norms`, which fills the norms of
    many fields on one measure together.  ``norms(r, q)`` fills its one key
    and returns it; a QuadratureFailure is memoised as well and raised
    again.  ``norms(1, 1)`` is ||f||_1, which is also alpha(1) at every c,
    since q(1) = 1.
    """

    def __init__(self, f: ScalarField, mu, spec: QuadratureSpec):
        self.f, self.mu, self.spec = f, mu, spec
        self._memo = {}

    def fill(self, keys) -> list[bool]:
        """Integrate the keys not yet memoised; whether each key's norm is available."""
        return fill_norms([(self, keys)])[0]

    def __call__(self, r: float, q: float) -> tuple[float, float]:
        key = (float(r), float(q))
        if key not in self._memo:
            self.fill([key])
        hit = self._memo[key]
        if isinstance(hit, QuadratureFailure):
            raise hit
        return hit

    def alpha(self, r: float, c: float) -> tuple[float, float]:
        """alpha(r) = ||f_r||_{q(r)}; InvalidParameter when q(r) exceeds Q_GUARD."""
        return self(r, _checked_q(r, c))


def fill_norms(requests) -> list[list[bool]]:
    """For each (norms, keys) of ``requests``, integrate the keys that
    ``norms``, a :class:`DilationNorms`, has not memoised; for each request,
    whether each of its keys' norms is available.

    Every ``norms`` shares one measure and one spec.  On ``adaptive_1d``
    every missing norm of every request is one ``adaptive_lp_norms`` batch:
    one adaptive loop carries them all, each integral refined, stopped and
    failed on its own, its column map q ln f(r x) sending each node to its
    own field's log map.  Each result is bit for bit ``lp_norm_with_error(
    dilate(f, r), mu, q, spec)`` wherever the field's log map is pointwise
    (a convolved field agrees to about 1e-15).  Node schemes have no loop to
    share and integrate the keys one after another.
    """
    norms_of = [norms for norms, _ in requests]
    keys_of = [[(float(r), float(q)) for r, q in keys] for _, keys in requests]
    # (request, key) of each norm not yet memoised, once
    todo = list(dict.fromkeys((i, key) for i, keys in enumerate(keys_of)
                              for key in keys if key not in norms_of[i]._memo))
    # refuses an r outside (0, 1], and r < 1 on an uncertified f, before any norm
    dilated = [dilate(norms_of[i].f, r) for i, (r, _) in todo]
    if todo and norms_of[0].spec.scheme == "adaptive_1d":
        owner = np.array([i for i, _ in todo])
        r_of = np.array([r for _, (r, _) in todo])

        def log_f(pts, k):  # ln f(r x), f and r those of each node's own norm
            x, at = r_of[k][:, None] * pts, owner[k]
            out = np.empty(len(k))
            for i in np.bincount(at, minlength=len(norms_of)).nonzero()[0]:
                mine = at == i
                out[mine] = norms_of[i].f.log_value(x[mine])
            return out

        found = adaptive_lp_norms(log_f, norms_of[0].mu, [q for _, (_, q) in todo])
    else:  # a node scheme has no adaptive loop to share
        found = [_norm_or_failure(g, norms_of[i].mu, q, norms_of[i].spec)
                 for g, (i, (_, q)) in zip(dilated, todo)]
    for (i, key), res in zip(todo, found):
        norms_of[i]._memo[key] = res
    return [[not isinstance(norms._memo[key], QuadratureFailure) for key in keys]
            for norms, keys in zip(norms_of, keys_of)]


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
    q = _checked_q(r, c)

    def fn(log_a, means):
        bracket = log_a - means[0] + (c * q / 2.0) * means[1]
        return _times_exp(log_a / q, (2.0 / (c * r * q)) * bracket, "alpha(r)", "alpha'(r)")

    val, err = weighted_moments(_weight_columns(dilate(f, r), q), mu, spec, fn)
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
