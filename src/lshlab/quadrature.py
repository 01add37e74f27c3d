"""Integration of scalar maps against Density measures.

Schemes
-------
gauss_hermite     Gaussian measures only; probabilists' nodes per axis.
tensor_trapezoid  uniform tensor grid over the truncation box.
adaptive_1d       full-line adaptive quadrature via the x = tan(theta)
                  substitution (handles algebraic tails); dim 1 only.
monte_carlo       importance sampling with the measure itself as sampler;
                  streams are keyed by the spec seed (counter-based), so
                  parallel and serial runs agree bit for bit.

Every integral returns (value, error_estimate): node-doubling differences for
grids, standard error for Monte Carlo.  Positive integrands can be integrated
entirely in log-space (``integrate_log``) to avoid overflow of large powers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, Optional

import numpy as np
from scipy import integrate as sp_integrate
from scipy.special import logsumexp, roots_hermite

from .errors import InvalidParameter, QuadratureFailure

Array = np.ndarray

SCHEMES = ("gauss_hermite", "tensor_trapezoid", "adaptive_1d", "monte_carlo")

_TRAP_DEFAULT = {1: 2049, 2: 257, 3: 65}
_GH_DEFAULT = 101
_MC_DEFAULT = 200_000


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

    def halved(self) -> "QuadratureSpec":
        """Companion spec at roughly half resolution, for error estimates."""
        if self.scheme == "monte_carlo":
            return replace(self, mc_samples=max(2, self.mc_samples // 2))
        n = self.nodes_per_axis
        if n is None:
            return replace(self, nodes_per_axis=None)
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
    adaptive full-line quadrature in one dimension, tensor trapezoid up to
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

@lru_cache(maxsize=64)
def _hermgauss(n: int):
    t, w = roots_hermite(n)
    return t, w


def _tensor(axis_pts: Array, axis_logw: Array, dim: int):
    if dim == 1:
        return axis_pts.reshape(-1, 1), axis_logw
    grids = np.meshgrid(*([axis_pts] * dim), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    lw = axis_logw
    for _ in range(dim - 1):
        lw = np.add.outer(lw, axis_logw)
    return pts, lw.ravel()


def measure_nodes(mu, spec: QuadratureSpec):
    """Nodes and log-weights such that int h dmu ~= sum exp(logw) h(pts).

    Returns None for the adaptive scheme, which is function-based.
    """
    if spec.scheme == "adaptive_1d":
        return None
    if spec.scheme == "gauss_hermite":
        if mu.family != "gaussian":
            raise InvalidParameter(
                "gauss_hermite is only valid for gaussian target measures"
            )
        sigma = mu.params[0]
        n = spec.nodes_per_axis or _GH_DEFAULT
        t, w = _hermgauss(n)
        pts_axis = math.sqrt(2.0) * sigma * t
        with np.errstate(divide="ignore"):
            # weights underflowing double precision act as a hard truncation
            # at |x| ~ 37 sigma; the doubling estimate reports the effect
            logw_axis = np.log(w) - 0.5 * math.log(math.pi)
        return _tensor(pts_axis, logw_axis, mu.dim)
    if spec.scheme == "tensor_trapezoid":
        if mu.dim > 3:
            raise InvalidParameter("tensor_trapezoid caps at dim 3")
        R = spec.truncation_radius or mu.truncation_radius
        n = spec.nodes_per_axis or _TRAP_DEFAULT[mu.dim]
        axis = np.linspace(-R, R, n)
        h = axis[1] - axis[0]
        w = np.full(n, h)
        w[0] = w[-1] = h / 2.0
        pts, logw_leb = _tensor(axis, np.log(w), mu.dim)
        return pts, logw_leb + mu.log_pdf(pts)
    if spec.scheme == "monte_carlo":
        rng = np.random.Generator(np.random.Philox(key=spec.seed))
        pts = mu.sample(rng, spec.mc_samples)
        return pts, np.full(spec.mc_samples, -math.log(spec.mc_samples))
    raise InvalidParameter(f"unknown scheme {spec.scheme!r}")


def _check_finite(vals: Array, pts: Array):
    # a row of an (m, K) integrand is bad when any of its columns is
    bad = ~np.isfinite(vals)
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

def integrate(h, mu, spec: QuadratureSpec):
    """Integral of h against mu, with an error estimate.

    ``h`` is a ScalarField or any map vectorized over (m, dim) batches.  It
    returns either m values, and the integral is (value, error) as floats, or
    an (m, K) array of K integrands evaluated together, and the integral is
    (values, errors) as arrays of shape (K,), column by column the same as
    integrating each column on its own.  On grids each node set is evaluated
    once for all columns; ``adaptive_1d`` runs one ``quad`` per column.
    """
    if spec.scheme == "adaptive_1d":
        return _integrate_adaptive(h, mu, spec)
    pts, logw = measure_nodes(mu, spec)
    vals = np.asarray(h(pts), dtype=float)
    _check_finite(vals, pts)
    value = np.exp(logw) @ vals
    if spec.scheme == "monte_carlo":
        err = np.std(vals, axis=0, ddof=1) / math.sqrt(vals.shape[0])
    else:
        pts2, logw2 = measure_nodes(mu, spec.halved())
        err = np.abs(value - np.exp(logw2) @ np.asarray(h(pts2), dtype=float))
    err = np.maximum(err, np.abs(value) * 1e-15)
    if vals.ndim == 1:
        return float(value), float(err)
    return value, err


def _integrate_adaptive(h, mu, spec: QuadratureSpec):
    if mu.dim != 1:
        raise InvalidParameter("adaptive_1d requires a one-dimensional measure")
    width = None  # K of an (m, K) integrand, 0 for m values; set by the first call

    def column(j):
        witness = []

        def integrand(theta):
            nonlocal width
            x = math.tan(theta)
            pt = np.array([[x]])
            pdf = float(mu.pdf(pt)[0])
            if pdf == 0.0 and width is not None:
                # h may overflow where the measure has no mass; the first
                # call still evaluates h to learn the column width
                return 0.0
            hv = np.asarray(h(pt), dtype=float)
            if width is None:
                width = hv.shape[1] if hv.ndim == 2 else 0
            v = float(hv.reshape(-1)[j]) * pdf
            v /= math.cos(theta) ** 2
            if not math.isfinite(v):
                witness.append(x)
                return 0.0
            return v

        value, err = sp_integrate.quad(
            integrand, -math.pi / 2, math.pi / 2, limit=300, epsabs=1e-12,
            epsrel=spec.target_rel_tol,
        )
        if witness:
            raise QuadratureFailure(
                "non-finite integrand value inside the truncation region", point=witness[0]
            )
        return float(value), max(float(err), abs(value) * 1e-15)

    first = column(0)
    if not width:
        return first
    parts = [first] + [column(j) for j in range(1, width)]
    return np.array([v for v, _ in parts]), np.array([e for _, e in parts])


def adaptive_weighted(mu, spec: QuadratureSpec, log_g, factor=None) -> tuple[float, float]:
    """Full-line adaptive integral of exp(log_g(x)) * factor(x) against mu.

    The log of the positive part and the log-density are summed before
    exponentiation, so large powers never overflow when the product with the
    measure is moderate.
    """
    if mu.dim != 1:
        raise InvalidParameter("adaptive_1d requires a one-dimensional measure")
    log_norm = math.log(mu.norm_const)
    witness = []

    def integrand(theta):
        x = math.tan(theta)
        pt = np.array([[x]])
        expo = float(np.asarray(log_g(pt))[0]) + float(
            np.asarray(mu._log_density(pt))[0]
        ) - log_norm
        if expo < -700.0:
            return 0.0
        fac = float(np.asarray(factor(pt))[0]) if factor is not None else 1.0
        v = math.exp(min(expo, 709.0)) * fac / math.cos(theta) ** 2
        if not math.isfinite(v) or expo > 700.0:
            witness.append(x)
            return 0.0
        return v

    value, err = sp_integrate.quad(
        integrand, -math.pi / 2, math.pi / 2, limit=300, epsabs=1e-12,
        epsrel=spec.target_rel_tol,
    )
    if witness:
        raise QuadratureFailure(
            "non-finite integrand value inside the truncation region", point=witness[0]
        )
    return float(value), max(float(err), abs(value) * 1e-15)


def integrate_log(logh, mu, spec: QuadratureSpec) -> tuple[float, float]:
    """log of the integral of exp(logh) against mu; overflow-safe.

    Returns (log_value, log_error) where log_error estimates the error on the
    log scale (roughly the relative error of the integral).
    """
    if spec.scheme == "adaptive_1d":
        v, e = adaptive_weighted(mu, spec, logh)
        if v <= 0:
            raise QuadratureFailure("positive integrand integrated to a non-positive value")
        return math.log(v), e / v
    pts, logw = measure_nodes(mu, spec)
    lv = np.asarray(logh(pts), dtype=float)
    bad = np.isnan(lv) | (lv == math.inf)
    if np.any(bad):
        raise QuadratureFailure(
            "non-finite integrand value inside the truncation region",
            point=pts[int(np.argmax(bad))],
        )
    logv = float(logsumexp(logw + lv))
    if spec.scheme == "monte_carlo":
        # delta-method standard error on the log scale
        w = np.exp(lv - np.max(lv[np.isfinite(lv)]))
        err = float(np.std(w, ddof=1) / (math.sqrt(w.size) * max(np.mean(w), 1e-300)))
    else:
        pts2, logw2 = measure_nodes(mu, spec.halved())
        logv2 = float(logsumexp(logw2 + np.asarray(logh(pts2), dtype=float)))
        err = abs(logv - logv2)
    return logv, max(err, 1e-15)


def lp_norm(f, mu, p: float, spec: QuadratureSpec) -> float:
    """(int f^p dmu)^(1/p) for p > 0; for p < 1 this is only a quasi-norm."""
    return lp_norm_with_error(f, mu, p, spec)[0]


def lp_norm_with_error(f, mu, p: float, spec: QuadratureSpec) -> tuple[float, float]:
    if p <= 0:
        raise InvalidParameter("lp_norm requires p > 0")
    if hasattr(f, "log_value"):
        logh = lambda pts: p * f.log_value(pts)
    else:
        logh = lambda pts: p * np.log(np.maximum(np.asarray(f(pts), dtype=float), 1e-300))
    logv, logerr = integrate_log(logh, mu, spec)
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

    value, err = sp_integrate.quad(integrand, -math.pi / 2, math.pi / 2, limit=300)
    return float(value), float(err)


def radial_mass(log_profile: Callable[[float], float], dim: int) -> float:
    """Mass of a rotation-invariant density exp(log_profile(|x|)) on R^n."""
    surface = 2.0 * math.pi ** (dim / 2.0) / math.gamma(dim / 2.0)

    def integrand(t):
        return math.exp(float(log_profile(t))) * t ** (dim - 1)

    value, _ = sp_integrate.quad(integrand, 0.0, math.inf, limit=300)
    return surface * float(value)


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
    axis = np.linspace(-R, R, n)
    h = axis[1] - axis[0]
    w = np.full(n, h)
    w[0] = w[-1] = h / 2.0
    pts, logw = _tensor(axis, np.log(w), dim)
    lv = logw + np.asarray(log_density_batch(pts), dtype=float)
    return float(np.exp(logsumexp(lv[np.isfinite(lv)])))
