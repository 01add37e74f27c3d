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
e^709.78, or an infinite Ent(g), int E g dmu or alpha'(r).  Each function
returns its value with its quadrature error estimate.

The norms ||f_r||_q of a battery on one measure, alpha(r) among them, are
read from one table, :class:`DilationNorms`: each norm integrated once, each
fill in one ``lp_norms`` call, each ln f_r evaluated once per node set.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidParameter, QuadratureFailure
from .fields import ScalarField, dilate, power
from .quadrature import LOG_MAX, QuadratureSpec, lp_norms, weighted_moments

#: q(r) values beyond this guard are rejected (integrands would overflow)
Q_GUARD = 1e4
#: the scale and noise factors of every inequality's tolerance (see ``verdict``)
INEQ_ABS = 1e-6
NOISE_FACTOR = 3.0
DEFAULT_R_GRID = (0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 1.0)
#: bytes of ln f_r values one DilationNorms table keeps on its node sets: the
#: 3-D Gauss-Hermite default sHC search keeps about 15 MB
LOG_MEMO_BYTES = 64 * 2**20


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


def verdict(deficit: float, scale: float, noise: float) -> tuple[float, bool]:
    """(tol, passed) of an inequality whose ``deficit`` should be >= 0: it
    may reach -tol, tol = INEQ_ABS * scale + NOISE_FACTOR * noise, with
    ``noise`` the deficit's quadrature error.  The one rule of every
    inequality in ``checks`` and of the entropy's sign here."""
    tol = INEQ_ABS * scale + NOISE_FACTOR * noise
    return tol, bool(deficit >= -tol)


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
    if not verdict(val, max(1.0, abs(val)), err)[1]:
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


def euler_energy_with_error(g: ScalarField, mu, spec: QuadratureSpec) -> tuple[float, float]:
    """int E g dmu = ||g||_1 E[x . grad ln g], the dilation energy (no c/2 prefactor)."""
    return entropy_energy_with_error(g, mu, spec)[2:]


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
    """||f_r||_{L^q(mu)} of each member f of a battery on one measure, with
    its error estimate, memoised on (member, r, q); a QuadratureFailure is
    memoised and raised again.  ``norms(i, 1, 1)`` is ||f_i||_1, also
    alpha(1) at every c, since q(1) = 1.

    ``fill(keys)`` integrates the missing (member, r, q) keys in one
    ``lp_norms`` call, each reading ln f_r(x) as the member's ln f(r x).  On
    a node set, which its node count names (the measure and spec are fixed),
    ln f_r is kept per (member, r) while the kept values fit
    ``LOG_MEMO_BYTES``, and evaluated again past it, with the same bits.  A
    norm filled with others is bit for bit the norm alone wherever the
    field's log map is pointwise (a convolved field agrees to about 1e-15 on
    ``adaptive_1d``).
    """

    def __init__(self, fields, mu, spec: QuadratureSpec):
        self.fields, self.mu, self.spec = list(fields), mu, spec
        self._memo, self._logs = {}, {}

    def _log_on_nodes(self, i: int, r: float, pts) -> np.ndarray:
        """ln f(r x) of member i on one of the table's two node sets, kept
        while the kept values fit ``LOG_MEMO_BYTES``."""
        out = self._logs.get((i, r, len(pts)))
        if out is None:
            out = self.fields[i].log_value(r * pts)
            if sum(v.nbytes for v in self._logs.values()) + out.nbytes <= LOG_MEMO_BYTES:
                self._logs[(i, r, len(pts))] = out
        return out

    def fill(self, keys):
        """Integrate the keys not yet memoised; ``dilate``'s refusals, of an r
        outside (0, 1] and of r < 1 on an uncertified member, come before any
        norm."""
        new = [key for key in dict.fromkeys((i, float(r), float(q)) for i, r, q in keys)
               if key not in self._memo]
        for i, r, _ in new:
            dilate(self.fields[i], r)
        if not new:
            return
        owner, r_of = np.array([i for i, _, _ in new]), np.array([r for _, r, _ in new])

        def log_f(pts, k):  # ln f(r x), f and r those of each node's own norm
            if isinstance(k, int):  # every node is norm k's: a node set
                return self._log_on_nodes(*new[k][:2], pts)
            x, at = r_of[k][:, None] * pts, owner[k]
            out = np.empty(len(at))
            # not np.unique, which imports numpy.ma (about 1.7 MB)
            for i in np.bincount(at).nonzero()[0]:
                mine = at == i
                out[mine] = self.fields[i].log_value(x[mine])
            return out

        self._memo.update(zip(new, lp_norms(log_f, self.mu, [q for _, _, q in new], self.spec)))

    def __call__(self, i: int, r: float, q: float) -> tuple[float, float]:
        key = (i, float(r), float(q))
        if key not in self._memo:
            self.fill([key])
        hit = self._memo[key]
        if isinstance(hit, QuadratureFailure):
            raise hit
        return hit

    def alpha(self, i: int, r: float, c: float) -> tuple[float, float]:
        """alpha(r) = ||f_r||_{q(r)} of member i; InvalidParameter when q(r) exceeds Q_GUARD."""
        return self(i, r, _checked_q(r, c))


def alpha_with_error(f: ScalarField, mu, c: float, r: float,
                     spec: QuadratureSpec) -> tuple[float, float]:
    """alpha(r) = ||f_r||_{q(r)} with its quadrature error estimate."""
    return DilationNorms([f], mu, spec).alpha(0, r, c)


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


def alpha_prime_fd(f: ScalarField, mu, c: float, r: float, spec: QuadratureSpec,
                   step: float = 1e-4) -> float:
    """Finite-difference derivative of alpha: central inside (0, 1), one-sided
    (second order, from the left) at r = 1."""
    a = lambda rr: alpha_with_error(f, mu, c, rr, spec)[0]
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
