"""Integration of scalar maps against Density measures.

Schemes
-------
gauss_hermite     Gaussian measures only; probabilists' nodes per axis.
tensor_trapezoid  uniform tensor grid over the truncation box.
adaptive_1d       full-line adaptive quadrature via the x = tan(theta)
                  substitution (handles algebraic tails); dim 1 only.  A
                  globally adaptive 21-point Gauss-Kronrod rule (QUADPACK's
                  qk21 and its error formula) bisects every interval above
                  its share of the tolerance and sends the nodes of all new
                  intervals to the measure and the integrand in one batch.
monte_carlo       importance sampling with the measure itself as sampler;
                  streams are keyed by the spec seed (counter-based), so
                  parallel and serial runs agree bit for bit.

Every integral is one call to ``weighted_moments``.  For a weight g = e^{ln g}
it forms ln int g dmu and the means of factor columns under g dmu / int g dmu
in log space, so large powers never overflow, and returns a function ``fn``
of them with an error estimate from one rule: |fn(spec) - fn(spec.halved())|
(half the nodes per axis, or the first half of the samples) on node schemes,
and on ``adaptive_1d`` the first-order change of fn when each of its adaptive
integrals moves by that integral's own error estimate.

The module needs numpy only.  SciPy's ``quad`` normalises a raw 1-D density
(``line_mass``, reached from ``raw_mass``); ``scipy.integrate`` is imported on
that first use and is read through the module attribute ``sp_integrate``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from functools import lru_cache, reduce
from typing import Callable, Optional

import numpy as np
# imported here, not on the first Gauss-Hermite rule, so that the import of
# numpy.polynomial falls into set-up rather than into a timed integral
from numpy.polynomial.hermite import hermgauss

from .errors import InvalidParameter, QuadratureFailure

Array = np.ndarray

SCHEMES = ("gauss_hermite", "tensor_trapezoid", "adaptive_1d", "monte_carlo")

_TRAP_DEFAULT = {1: 2049, 2: 257, 3: 65}
_GH_DEFAULT = 101
_MC_DEFAULT = 200_000


def __getattr__(name):
    # ``sp_integrate`` is scipy.integrate, imported on first access; it may be
    # replaced by assignment (tests and tracers do)
    if name == "sp_integrate":
        from scipy import integrate
        return integrate
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class QuadratureSpec:
    scheme: str
    nodes_per_axis: Optional[int] = None
    truncation_radius: Optional[float] = None
    mc_samples: int = _MC_DEFAULT
    seed: int = 0
    target_rel_tol: float = 1e-8

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise InvalidParameter(f"unknown scheme {self.scheme!r}; choose from {SCHEMES}")
        if self.nodes_per_axis is not None and self.nodes_per_axis < 3:
            raise InvalidParameter("nodes_per_axis must be at least 3")
        if self.mc_samples < 2:
            raise InvalidParameter("mc_samples must be at least 2")
        if self.target_rel_tol <= 0:
            raise InvalidParameter("target_rel_tol must be positive")

    def resolved(self, dim: int) -> "QuadratureSpec":
        """This spec with a grid scheme's default node count on R^dim filled in."""
        grid = ("gauss_hermite", "tensor_trapezoid")
        if self.nodes_per_axis is not None or self.scheme not in grid:
            return self
        n = _GH_DEFAULT if self.scheme == "gauss_hermite" else _TRAP_DEFAULT.get(dim)
        return replace(self, nodes_per_axis=n)

    def halved(self) -> "QuadratureSpec":
        """Companion spec at roughly half resolution, for error estimates; a
        grid scheme's node count must be set (see ``resolved``)."""
        if self.scheme == "monte_carlo":
            return replace(self, mc_samples=max(2, self.mc_samples // 2))
        n = self.nodes_per_axis
        if n is None:
            raise InvalidParameter(f"{self.scheme} spec has no node count to halve")
        return replace(self, nodes_per_axis=max(3, (n - 1) // 2 + 1))

    def to_dict(self) -> dict:
        return {
            "scheme": self.scheme,
            "nodes_per_axis": self.nodes_per_axis,
            "truncation_radius": self.truncation_radius,
            "mc_samples": self.mc_samples,
            "seed": self.seed,
            "target_rel_tol": self.target_rel_tol,
        }


def default_spec(mu, **overrides) -> QuadratureSpec:
    """Scheme selection per measure family: Gauss-Hermite for Gaussians,
    batched adaptive Gauss-Kronrod on the whole line in one dimension
    (``adaptive_1d``, refined to ``target_rel_tol``), tensor trapezoid up to
    dim 3, Monte Carlo beyond."""
    if mu.family == "gaussian":
        base = dict(scheme="gauss_hermite", nodes_per_axis=_GH_DEFAULT)
    elif mu.family == "uniform_ball" and mu.dim <= 3:
        # grid aligned to the support treats the boundary exactly
        base = dict(scheme="tensor_trapezoid", nodes_per_axis=_TRAP_DEFAULT[mu.dim])
    elif mu.dim == 1:
        base = dict(scheme="adaptive_1d")
    elif mu.dim <= 3:
        base = dict(scheme="tensor_trapezoid", nodes_per_axis=_TRAP_DEFAULT[mu.dim])
    else:
        base = dict(scheme="monte_carlo")
    base.update(overrides)
    return QuadratureSpec(**base)


# ---------------------------------------------------------------------------
# node construction
# ---------------------------------------------------------------------------

def _logsumexp(v: Array) -> float:
    """ln sum e^v, shifted by the largest entry; -inf when v is empty or all -inf."""
    top = float(np.max(v, initial=-math.inf))
    if top == -math.inf:
        return top
    return top + math.log(float(np.sum(np.exp(v - top))))


@lru_cache(maxsize=64)
def _hermgauss(n: int):
    """Physicists' Gauss-Hermite nodes and weights (weight e^{-t^2}) of order n."""
    return hermgauss(n)


def tensor_grid(axis: Array, dim: int, weights: Optional[Array] = None,
                combine=np.multiply):
    """The dim-fold tensor grid of ``axis`` as (m, dim) points, first coordinate
    slowest.  With per-axis ``weights`` it also returns each point's weight,
    their product; ``combine=np.add`` sums per-axis log-weights instead."""
    pts = np.stack(np.meshgrid(*([axis] * dim), indexing="ij"), axis=-1).reshape(-1, dim)
    if weights is None:
        return pts
    return pts, reduce(combine.outer, [weights] * dim).ravel()


def _trap_nodes(R: float, n: int, dim: int):
    """Trapezoid tensor nodes on [-R, R]^dim and their log Lebesgue weights."""
    axis = np.linspace(-R, R, n)
    h = axis[1] - axis[0]
    w = np.full(n, h)
    w[0] = w[-1] = h / 2.0
    return tensor_grid(axis, dim, np.log(w), np.add)


def measure_nodes(mu, spec: QuadratureSpec):
    """Nodes and log-weights such that int h dmu ~= sum exp(logw) h(pts)."""
    if spec.scheme == "gauss_hermite":
        if mu.family != "gaussian":
            raise InvalidParameter(
                "gauss_hermite is only valid for gaussian target measures"
            )
        sigma = mu.params[0]
        t, w = _hermgauss(spec.resolved(mu.dim).nodes_per_axis)
        pts_axis = math.sqrt(2.0) * sigma * t
        with np.errstate(divide="ignore"):
            # weights underflowing double precision act as a hard truncation
            # at |x| ~ 37 sigma; the doubling estimate reports the effect
            logw_axis = np.log(w) - 0.5 * math.log(math.pi)
        return tensor_grid(pts_axis, mu.dim, logw_axis, np.add)
    if spec.scheme == "tensor_trapezoid":
        if mu.dim > 3:
            raise InvalidParameter("tensor_trapezoid caps at dim 3")
        R = spec.truncation_radius or mu.truncation_radius
        pts, logw_leb = _trap_nodes(R, spec.resolved(mu.dim).nodes_per_axis, mu.dim)
        return pts, logw_leb + mu.log_pdf(pts)
    if spec.scheme == "monte_carlo":
        rng = np.random.Generator(np.random.Philox(key=spec.seed))
        pts = mu.sample(rng, spec.mc_samples)
        return pts, np.full(spec.mc_samples, -math.log(spec.mc_samples))
    raise InvalidParameter(f"{spec.scheme} has no fixed node set")


def _fail_at_first(bad: Array, pts: Array):
    # a row of an (m, K) integrand is bad when any of its columns is
    if bad.ndim == 2:
        bad = bad.any(axis=1)
    if np.any(bad):
        raise QuadratureFailure(
            "non-finite integrand value inside the truncation region",
            point=pts[int(np.argmax(bad))],
        )


# ---------------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------------

def weighted_moments(log_g, factors, mu, spec: QuadratureSpec, fn):
    """(fn(log_mass, means), its error) for the weight g = exp(log_g).

    ``log_mass`` is ln int g dmu and ``means`` the 1-D array of the means of
    all factor columns under g dmu / int g dmu.  ``log_g`` maps (m, dim)
    points to ln g, or to an (m, 1 + j) array whose first column is ln g and
    whose other columns ride along to the factors (one evaluation of a field
    gives both), or is None for g = 1, whose mass is exactly 1 (the means are
    then plain integrals).  A factor maps (points, what ``log_g`` gave there)
    to m values or an (m, k) array.  Node schemes evaluate each map once per
    node set, the default node count resolved before it is halved;
    ``adaptive_1d`` runs one adaptive loop for the mass and one per column.
    """
    if spec.scheme == "adaptive_1d":
        return _adaptive_moments(log_g, factors, mu, spec, fn)
    spec = spec.resolved(mu.dim)
    value = fn(*_node_moments(log_g, factors, mu, spec))
    return value, np.abs(value - fn(*_node_moments(log_g, factors, mu, spec.halved())))


def _node_moments(log_g, factors, mu, spec: QuadratureSpec):
    pts, logw = measure_nodes(mu, spec)
    if log_g is None:
        lg, log_mass, pi = None, 0.0, np.exp(logw)
    else:
        lg = np.asarray(log_g(pts), dtype=float)
        lw = _first_column(lg)
        _fail_at_first(np.isnan(lw) | (lw == math.inf), pts)
        s = logw + lw
        log_mass = _logsumexp(s)
        if not math.isfinite(log_mass):
            raise QuadratureFailure("the weight integrates to zero or diverges")
        pi = np.exp(s - log_mass)
    means = []
    for factor in factors:
        vals = np.asarray(factor(pts, lg), dtype=float)
        _fail_at_first(~np.isfinite(vals), pts)
        means.append(np.atleast_1d(pi @ vals))
    return log_mass, np.concatenate(means) if means else np.empty(0)


def _first_column(lg: Array) -> Array:
    """ln g from what a weight map returned: the values, or their first column."""
    return lg if lg.ndim == 1 else lg[:, 0]


def _adaptive_moments(log_g, factors, mu, spec: QuadratureSpec, fn):
    mass, e_mass = (1.0, 0.0) if log_g is None else adaptive_weighted(mu, spec, log_g)
    if not (mass > 0.0 and math.isfinite(mass)):
        raise QuadratureFailure(f"the weight integrates to {mass}")
    parts = [part for factor in factors for part in _adaptive_columns(factor, mu, spec, log_g)]
    ints = np.array([v for v, _ in parts])
    value = fn(math.log(mass), ints / mass)
    err = np.abs(fn(math.log(mass + e_mass), ints / (mass + e_mass)) - value)
    for j, (_, e) in enumerate(parts):
        moved = ints.copy()
        moved[j] += e
        err = err + np.abs(fn(math.log(mass), moved / mass) - value)
    return value, err


def _adaptive_columns(factor, mu, spec: QuadratureSpec, log_g) -> list:
    """(integral, error) of g times each column of ``factor``, one adaptive
    loop each, so every column refines as it would on its own."""
    width = 1  # columns of the factor; set by its first evaluation

    def column(j):
        def value(pts, lg):
            nonlocal width
            v = np.asarray(factor(pts, lg), dtype=float)
            width = v.shape[1] if v.ndim == 2 else 1
            return v[:, j] if v.ndim == 2 else v

        return adaptive_weighted(mu, spec, log_g, value)

    first = column(0)
    return [first] + [column(j) for j in range(1, width)]


# QUADPACK's qk21 (Piessens et al. 1983): the 21 Kronrod abscissae on
# [-1, 1], their weights, and the weights of the embedded 10-point Gauss rule
# (0 at the Kronrod-only abscissae)
_XK_HALF = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
])
_WK_HALF = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077548032407009, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
])
_WG_HALF = np.array([
    0.0, 0.066671344308688137593568809893332, 0.0, 0.149451349150580593145776339657697,
    0.0, 0.219086362515982043995534934228163, 0.0, 0.269266719309996355091226921569469,
    0.0, 0.295524224714752870173892994651338,
])
_GK_X = np.concatenate([-_XK_HALF, [0.0], _XK_HALF[::-1]])
_GK_WK = np.concatenate([_WK_HALF, [0.149445554002916905664936468389821], _WK_HALF[::-1]])
_GK_WG = np.concatenate([_WG_HALF, [0.0], _WG_HALF[::-1]])

_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)
#: intervals of the adaptive rule, and its absolute error target
_ADAPTIVE_LIMIT = 300
_ADAPTIVE_EPSABS = 1e-12


def _gk21(lo: Array, hi: Array, integrand) -> tuple[Array, Array]:
    """qk21 on each interval [lo_i, hi_i]: (integrals, QUADPACK error estimates).

    ``integrand`` gets the (m, 21) abscissae of all intervals in one array.
    """
    center, half = (lo + hi) / 2.0, (hi - lo) / 2.0
    f = integrand(center[:, None] + half[:, None] * _GK_X)
    resk = f @ _GK_WK
    mean = resk / 2.0
    resabs = np.abs(half) * (np.abs(f) @ _GK_WK)
    resasc = np.abs(half) * (np.abs(f - mean[:, None]) @ _GK_WK)
    err = np.abs((resk - f @ _GK_WG) * half)
    scaled = resasc * np.minimum(1.0, (200.0 * err / np.where(resasc > 0, resasc, 1.0)) ** 1.5)
    err = np.where((resasc != 0) & (err != 0), scaled, err)
    err = np.where(resabs > _TINY / (50.0 * _EPS), np.maximum(50.0 * _EPS * resabs, err), err)
    return resk * half, err


def adaptive_weighted(mu, spec: QuadratureSpec, log_g, factor=None) -> tuple[float, float]:
    """Full-line adaptive integral of g * factor against mu, g = exp(log_g) or 1.

    x = tan(theta) maps the line to (-pi/2, pi/2), where a globally adaptive
    21-point Gauss-Kronrod rule runs: each round evaluates the 21 nodes of
    every new interval in one (m, 1) batch, then bisects every interval whose
    error is above its share (by length) of the tolerance
    max(1e-12, spec.target_rel_tol * |value|), until the summed error meets
    it or there are 300 intervals; the returned error is then the sum, above
    the tolerance, with no warning.

    ``factor(pts, log_g(pts))`` gives one value per row of the (m, 1) ``pts``
    (``log_g(pts)`` is None for g = 1); it is evaluated only at nodes where the
    weight is not negligible.  ln g and the log-density are summed before
    exponentiation, so large powers never overflow when the product with the
    measure is moderate.  A node whose exponent exceeds 700 or whose value is
    not finite raises QuadratureFailure at once, with the largest such x of
    that round as its point.
    """
    if mu.dim != 1:
        raise InvalidParameter("adaptive_1d requires a one-dimensional measure")
    log_norm = math.log(mu.norm_const)

    def integrand(theta: Array) -> Array:
        pts = np.tan(theta).reshape(-1, 1)
        expo, lg = np.asarray(mu._log_density(pts), dtype=float) - log_norm, None
        if log_g is not None:
            lg = np.asarray(log_g(pts), dtype=float)
            expo = _first_column(lg) + expo
        live = ~(expo < -700.0)
        v = np.zeros(expo.shape)
        if np.any(live):
            fac = 1.0 if factor is None else factor(pts[live], None if lg is None else lg[live])
            with np.errstate(over="ignore", invalid="ignore"):
                v[live] = (np.exp(np.minimum(expo[live], 709.0)) * fac
                           / np.cos(theta.ravel()[live]) ** 2)
        bad = live & ((expo > 700.0) | ~np.isfinite(expo) | ~np.isfinite(v))
        if np.any(bad):
            raise QuadratureFailure(
                "non-finite integrand value inside the truncation region",
                point=float(pts[bad, 0].max()),
            )
        return v.reshape(theta.shape)

    lo, hi = np.array([-math.pi / 2]), np.array([math.pi / 2])
    res, err = _gk21(lo, hi, integrand)
    while True:
        value, total_err = float(res.sum()), float(err.sum())
        tol = max(_ADAPTIVE_EPSABS, spec.target_rel_tol * abs(value))
        room = _ADAPTIVE_LIMIT - lo.size
        if total_err <= tol or room <= 0:
            break
        mid = (lo + hi) / 2.0
        # QUADPACK's round-off guard: a bisection must leave both halves wider
        # than about 100 ulps of the midpoint
        ulp_floor = (1.0 + 100.0 * _EPS) * (np.abs(mid) + 1000.0 * _TINY)
        split = (err > tol * (hi - lo) / math.pi) & (np.maximum(np.abs(lo), np.abs(hi)) > ulp_floor)
        idx = np.flatnonzero(split)
        if idx.size == 0:
            break
        if idx.size > room:
            idx = idx[np.argsort(-err[idx], kind="stable")[:room]]
        keep = np.ones(lo.size, dtype=bool)
        keep[idx] = False
        new_lo = np.concatenate([lo[idx], mid[idx]])
        new_hi = np.concatenate([mid[idx], hi[idx]])
        new_res, new_err = _gk21(new_lo, new_hi, integrand)
        lo, hi = np.concatenate([lo[keep], new_lo]), np.concatenate([hi[keep], new_hi])
        res, err = np.concatenate([res[keep], new_res]), np.concatenate([err[keep], new_err])
    return value, max(total_err, abs(value) * 1e-15)


def integrate(h, mu, spec: QuadratureSpec):
    """Integral of h against mu, with an error estimate.

    ``h`` is a ScalarField or any map vectorized over (m, dim) batches.  It
    returns either m values, and the integral is (value, error) as floats, or
    an (m, K) array of K integrands evaluated together, and the integral is
    (values, errors) as arrays of shape (K,), column by column the same as
    integrating each column on its own.  On grids each node set is evaluated
    once for all columns; ``adaptive_1d`` runs one adaptive loop per column.
    """
    ndim = []

    def factor(pts, _):
        vals = np.asarray(h(pts), dtype=float)
        ndim.append(vals.ndim)
        return vals

    value, err = weighted_moments(None, [factor], mu, spec, lambda _, means: means)
    err = np.maximum(err, np.abs(value) * 1e-15)
    if ndim[0] == 1:
        return float(value[0]), float(err[0])
    return value, err


def integrate_log(logh, mu, spec: QuadratureSpec) -> tuple[float, float]:
    """log of the integral of exp(logh) against mu; overflow-safe.

    Returns (log_value, log_error) where log_error estimates the error on the
    log scale (roughly the relative error of the integral).
    """
    logv, err = weighted_moments(logh, (), mu, spec, lambda log_mass, _: log_mass)
    return logv, max(float(err), 1e-15)


def lp_norm(f, mu, p: float, spec: QuadratureSpec) -> float:
    """(int f^p dmu)^(1/p) of a field, p > 0; for p < 1 only a quasi-norm."""
    return lp_norm_with_error(f, mu, p, spec)[0]


def lp_norm_with_error(f, mu, p: float, spec: QuadratureSpec) -> tuple[float, float]:
    if p <= 0:
        raise InvalidParameter("lp_norm requires p > 0")
    logv, logerr = integrate_log(lambda pts: p * f.log_value(pts), mu, spec)
    if logv / p > 709.0:
        raise QuadratureFailure(f"L^{p:g} norm overflows (log value {logv / p:.3g})")
    norm = math.exp(logv / p)
    return norm, norm * logerr / p


# ---------------------------------------------------------------------------
# normalization helpers used at Density construction time
# ---------------------------------------------------------------------------

def line_mass(log_density_scalar: Callable[[float], float]) -> tuple[float, float]:
    """Full-line mass of exp(log_density) via the tan substitution."""

    def integrand(theta):
        x = math.tan(theta)
        ld = float(log_density_scalar(x))
        if ld == -math.inf:
            return 0.0
        return math.exp(ld) / math.cos(theta) ** 2

    # QUADPACK's extrapolation copes with integrable endpoint singularities
    # such as (1 + x^2)^(-3/4) at theta = +-pi/2, where the batched rule
    # stalls.  Read through the module, so that a replaced sp_integrate is used
    quad = sys.modules[__name__].sp_integrate.quad
    value, err = quad(integrand, -math.pi / 2, math.pi / 2, limit=300)
    return float(value), float(err)


def raw_mass(log_density_batch: Callable[[Array], Array], dim: int,
             truncation_radius: float) -> tuple[float, float]:
    """Mass of exp(log_density) for an arbitrary (batch) log-density.

    Dim 1 integrates the full line adaptively; dims 2-3 use the tensor
    trapezoid over the truncation box.
    """
    if dim == 1:
        return line_mass(lambda x: float(log_density_batch(np.array([[x]]))[0]))
    if dim > 3:
        raise InvalidParameter("normalization quadrature caps at dim 3")
    n = _TRAP_DEFAULT[dim]
    value = _trap_mass(log_density_batch, dim, truncation_radius, n)
    v2 = _trap_mass(log_density_batch, dim, truncation_radius, (n - 1) // 2 + 1)
    return value, abs(value - v2)


def _trap_mass(log_density_batch, dim, R, n) -> float:
    pts, logw = _trap_nodes(R, n, dim)
    lv = logw + np.asarray(log_density_batch(pts), dtype=float)
    return float(np.exp(_logsumexp(lv[np.isfinite(lv)])))
