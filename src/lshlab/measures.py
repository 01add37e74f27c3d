"""Probability densities on R^n and their Euclidean-regularity constants.

A :class:`Density` wraps its normalized log-density, a sampler, a truncation
radius beyond which mass is negligible, and a label recording its
construction.  Densities are immutable and safe to evaluate concurrently.

Every log map is normalized when it is built, and only a closure that changes
the mass integrates anything: the built-in families fold their closed-form
constants into the map; ``mix``, ``shift`` and ``product`` combine normalized
log-densities, so their mass is exactly 1; ``perturb`` pays for one
``integrate_log`` of its weight against the normalized base;
``convolve_measures`` normalizes what it evaluates (its FFT cache's e_1 line
on trusted nodes, tangent lines past them, read at t = x_1 in 1-D and at |x|
in 2-D and 3-D, where it takes rotation-invariant factors only) by its own
mass.  Every closure composes its factors' samplers; sampling a Density built
without one raises.  The module needs numpy only, SciPy serves the tests as an
oracle.

The regularity constant of exponential type p is

    C_p(a, s) = sup_x sup_{|y| <= s} |x|^p rho(a x + y) / rho(x),

estimated by grid search over the ball of radius ``truncation_radius`` (so
the estimate is a lower bound of the sup of the density as evaluated, not of
the measure's: a convolution's reader error can lift it above the closed
form): on the e_1 line for a rotation-invariant measure, in any dimension,
else on a tensor grid (dim <= 3).  If the log-ratio is still increasing at the
grid boundary, or exceeds the overflow guard, the sup is reported as divergent
with a witness.

Closure operations (bounded perturbation, mixture, product, convolution)
build new densities whose constants obey explicit combination bounds; those
bounds are exercised by the check suite.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from . import quadrature
from .errors import (EvaluationFailure, InvalidParameter, QuadratureFailure,
                     TypeConditionViolation)
from .fields import LOG_FLOOR, _ball_volume, _batch
from .quadrature import LOG_MAX

Array = np.ndarray

#: ratios above this guard are reported as type-condition violations
LOG_RATIO_GUARD = math.log(1e100)

#: default sup-search nodes per axis, by dimension
GRID_NODES = {1: 2001, 2: 201, 3: 61}
#: the near-one window (1, 1 + eps] used for the uniform C0 bound
NEAR_ONE_EPS = 0.25
NEAR_ONE_COUNT = 16

_CONV_CACHE_NODES = {1: 16385, 2: 513, 3: 129}
_CONV_EXTENT_FACTOR = 1.3
#: the cache is trusted where it is at least this fraction of its peak; the
#: FFT's round-off is about 1e-16 of the peak (Wilson & Keich 2016)
_CONV_RELIABLE = 1e-12
#: the tail's slope is the finite difference over this many cells inward
_CONV_SLOPE_CELLS = 4


@dataclass(frozen=True)
class Density:
    """A probability density on R^n: its normalized log-density map and,
    optionally, a sampler."""

    dim: int
    truncation_radius: float
    rotation_invariant: bool
    strictly_positive: bool
    label: str
    family: Optional[str] = None
    params: tuple = ()
    _log_density: Callable[[Array], Array] = field(repr=False, default=None)
    _sampler: Optional[Callable] = field(repr=False, default=None)

    def log_pdf(self, x):
        """Normalized log-density; -inf outside the support."""
        pts, single = _batch(x, self.dim)
        lv = self._log_density(pts)
        return float(lv[0]) if single else lv

    def pdf(self, x):
        """Normalized density value; raises on exp overflow, never returns inf."""
        if not np.all(np.isfinite(x)):
            raise InvalidParameter("evaluation point must be finite")
        lv = self.log_pdf(x)
        if np.any(lv > LOG_MAX):
            pts = np.reshape(x, (-1, self.dim))
            raise EvaluationFailure("density evaluation overflows exp",
                                    witness=pts[np.argmax(lv)])
        return np.exp(lv)

    def sample(self, rng: np.random.Generator, size: int) -> Array:
        if self._sampler is None:
            raise InvalidParameter(f"measure {self.label!r} has no direct sampler")
        return self._sampler(rng, size)


# ---------------------------------------------------------------------------
# built-in families
# ---------------------------------------------------------------------------

def gaussian(sigma: float = 1.0, dim: int = 1) -> Density:
    """Centered isotropic Gaussian with scale sigma."""
    sigma = float(sigma)
    if sigma <= 0:
        raise InvalidParameter("gaussian scale must be positive")
    _validate_dim(dim)

    log_norm = math.log((math.sqrt(2.0 * math.pi) * sigma) ** dim)

    def logd(pts):
        return -np.sum(pts * pts, axis=1) / (2.0 * sigma**2) - log_norm

    return Density(
        dim=dim,
        truncation_radius=8.0 * sigma * math.sqrt(dim),
        rotation_invariant=True,
        strictly_positive=True,
        label=f"gaussian(sigma={sigma:g}, dim={dim})",
        family="gaussian",
        params=(sigma,),
        _log_density=logd,
        _sampler=lambda rng, size: rng.normal(0.0, sigma, size=(size, dim)),
    )


def gen_exponential(c: float = 1.0, a: float = 1.0, dim: int = 1) -> Density:
    """Density proportional to exp(-c |x|^a) for a, c > 0."""
    c, a = float(c), float(a)
    if c <= 0 or a <= 0:
        raise InvalidParameter("gen_exponential requires c > 0 and a > 0")
    _validate_dim(dim)

    # |S^{n-1}| Gamma(n/a) / (a c^{n/a}), |S^{n-1}| = n |B^n|, in logs:
    # Gamma(n/a) overflows for small a
    k = dim / a
    log_norm = math.log(k * _ball_volume(dim)) + math.lgamma(k) - k * math.log(c)
    if abs(log_norm) > LOG_MAX:
        raise InvalidParameter(f"gen_exponential(c={c:g}, a={a:g}) has mass e^{log_norm:.4g}")
    # ln of the mass rounded to a double: pinned regularity constants and
    # reports depend on this float to the last bit
    log_norm = math.log(math.exp(log_norm))
    # radius with tail mass below 1e-12, from the incomplete-gamma inverse
    tail = _gammainccinv(k, 1e-12)
    log_trunc = math.log(tail / c) / a
    if log_trunc > LOG_MAX:
        raise InvalidParameter(
            f"gen_exponential(c={c:g}, a={a:g}) has truncation radius e^{log_trunc:.4g}")
    trunc = (tail / c) ** (1.0 / a)

    def logd(pts):
        return -c * np.linalg.norm(pts, axis=1) ** a - log_norm

    def sampler(rng, size):
        u = rng.gamma(dim / a, 1.0, size=size)
        t = (u / c) ** (1.0 / a)
        if dim == 1:
            sign = rng.choice([-1.0, 1.0], size=size)
            return (t * sign).reshape(-1, 1)
        d = rng.standard_normal((size, dim))
        d /= np.linalg.norm(d, axis=1, keepdims=True)
        return d * t[:, None]

    return Density(
        dim=dim,
        truncation_radius=float(trunc),
        rotation_invariant=True,
        strictly_positive=True,
        label=f"gen_exponential(c={c:g}, a={a:g}, dim={dim})",
        family="gen_exponential",
        params=(c, a),
        _log_density=logd,
        _sampler=sampler,
    )


def _gammainccinv(k: float, q: float) -> float:
    """The x with Q(k, x) = q <= 1e-12, Q the regularised upper incomplete gamma.

    Newton on ln Q = k ln x - x + ln h - ln Gamma(k), of slope -1 / (x h), where
    Lentz's method sums h = Gamma(k, x) / (x^k e^-x) as a continued fraction
    (DiDonato & Morris 1986); it is fast beyond k + 1, where the root lies.
    """
    x = k + 1.0
    for _ in range(50):
        b = x + 1.0 - k
        c, d = math.inf, 1.0 / b
        h, i, delta = d, 0, 0.0
        while abs(delta - 1.0) > 1e-15:
            i += 1
            b += 2.0
            d = 1.0 / (b - i * (i - k) * d)
            c = b - i * (i - k) / c
            delta = d * c
            h *= delta
        step = (k * math.log(x) - x + math.log(h) - math.lgamma(k) - math.log(q)) * x * h
        x += step
        # ln Q is off by ~k ln x ulps, so beyond k ~ 1e7 the loop count ends it
        if abs(step) <= 1e-12 * x:
            break
    return x


def poly_tail(alpha: float, dim: int = 1) -> Density:
    """Density proportional to (1 + x^2)^(-alpha) on R, alpha > 1/2."""
    alpha = float(alpha)
    if alpha <= 0.5:
        raise InvalidParameter("poly_tail requires alpha > 1/2 for integrability")
    if dim != 1:
        raise InvalidParameter("poly_tail is one-dimensional")

    # ln of sqrt(pi) Gamma(alpha - 1/2) / Gamma(alpha), the gammas in logs for
    # large alpha
    log_norm = math.log(math.sqrt(math.pi)
                        * math.exp(math.lgamma(alpha - 0.5) - math.lgamma(alpha)))
    nu = 2.0 * alpha - 1.0

    def sampler(rng, size):
        return (rng.standard_t(nu, size=size) / math.sqrt(nu)).reshape(-1, 1)

    return Density(
        dim=1,
        # grid-search radius only; integrals use the full-line adaptive scheme
        truncation_radius=100.0,
        rotation_invariant=True,
        strictly_positive=True,
        label=f"poly_tail(alpha={alpha:g})",
        family="poly_tail",
        params=(alpha,),
        _log_density=lambda pts: -alpha * np.log1p(pts[:, 0] ** 2) - log_norm,
        _sampler=sampler,
    )


def uniform_ball(radius: float = 1.0, dim: int = 1) -> Density:
    """Uniform distribution on the centered ball of the given radius."""
    radius = float(radius)
    if radius <= 0:
        raise InvalidParameter("uniform_ball radius must be positive")
    _validate_dim(dim)
    log_norm = math.log(_ball_volume(dim, radius))

    def logd(pts):
        out = np.full(pts.shape[0], -log_norm)
        out[np.linalg.norm(pts, axis=1) > radius] = -math.inf
        return out

    def sampler(rng, size):
        d = rng.standard_normal((size, dim))
        d /= np.linalg.norm(d, axis=1, keepdims=True)
        t = radius * rng.random(size) ** (1.0 / dim)
        return d * t[:, None]

    return Density(
        dim=dim,
        truncation_radius=radius,
        rotation_invariant=True,
        strictly_positive=False,
        label=f"uniform_ball(R={radius:g}, dim={dim})",
        family="uniform_ball",
        params=(radius,),
        _log_density=logd,
        _sampler=sampler,
    )


_FAMILIES = {
    "gaussian": (gaussian, ("sigma",)),
    "gen_exponential": (gen_exponential, ("c", "a")),
    "poly_tail": (poly_tail, ("alpha",)),
    "uniform_ball": (uniform_ball, ("radius",)),
}


def make_builtin(kind: str, params: dict, dim: int) -> Density:
    """Construct a built-in density by family tag and parameter dict."""
    if kind not in _FAMILIES:
        raise InvalidParameter(
            f"unknown density family {kind!r}; choose from {sorted(_FAMILIES)}"
        )
    ctor, names = _FAMILIES[kind]
    unknown = set(params) - set(names)
    if unknown:
        raise InvalidParameter(f"unexpected parameters {sorted(unknown)} for {kind}")
    sig = inspect.signature(ctor).parameters
    missing = [name for name in names
               if name not in params and sig[name].default is sig[name].empty]
    if missing:
        raise InvalidParameter(f"{kind} needs parameter {missing[0]!r}")
    kwargs = {name: params[name] for name in names if name in params}
    return ctor(dim=dim, **kwargs)


def _validate_dim(dim: int):
    if not isinstance(dim, (int, np.integer)) or dim < 1:
        raise InvalidParameter("dim must be a positive integer")


# ---------------------------------------------------------------------------
# closure operations
# ---------------------------------------------------------------------------

def mix(mu1: Density, mu2: Density, t: float) -> Density:
    """Convex combination (1 - t) mu1 + t mu2 of equal-dimensional measures."""
    if mu1.dim != mu2.dim:
        raise InvalidParameter("mixture components must share a dimension")
    t = float(t)
    if not (0.0 <= t <= 1.0):
        raise InvalidParameter("mixture weight must lie in [0, 1]")

    def logd(pts):
        parts = []
        if t < 1.0:
            parts.append(math.log(1.0 - t) + mu1.log_pdf(pts))
        if t > 0.0:
            parts.append(math.log(t) + mu2.log_pdf(pts))
        if len(parts) == 1:
            return parts[0]
        return np.logaddexp(parts[0], parts[1])

    def sampler(rng, size):
        pick = rng.random(size) < t
        out = mu1.sample(rng, size)
        n2 = int(np.count_nonzero(pick))
        if n2:
            out[pick] = mu2.sample(rng, n2)
        return out

    return Density(
        dim=mu1.dim,
        truncation_radius=max(mu1.truncation_radius, mu2.truncation_radius),
        rotation_invariant=mu1.rotation_invariant and mu2.rotation_invariant,
        strictly_positive=(t < 1.0 and mu1.strictly_positive)
        or (t > 0.0 and mu2.strictly_positive),
        label=f"mix({mu1.label}, {mu2.label}, t={t:g})",
        _log_density=logd,
        _sampler=sampler,
    )


def product(mu1: Density, mu2: Density) -> Density:
    """Product measure on R^(n1 + n2); log-density adds componentwise."""
    n1 = mu1.dim

    def logd(pts):
        return mu1.log_pdf(pts[:, :n1]) + mu2.log_pdf(pts[:, n1:])

    def sampler(rng, size):
        return np.concatenate([mu1.sample(rng, size), mu2.sample(rng, size)], axis=1)

    rot = (
        mu1.family == "gaussian"
        and mu2.family == "gaussian"
        and mu1.params == mu2.params
    )
    return Density(
        dim=mu1.dim + mu2.dim,
        truncation_radius=math.hypot(mu1.truncation_radius, mu2.truncation_radius),
        rotation_invariant=rot,
        strictly_positive=mu1.strictly_positive and mu2.strictly_positive,
        label=f"product({mu1.label}, {mu2.label})",
        _log_density=logd,
        _sampler=sampler,
    )


def convolve_measures(mu1: Density, mu2: Density) -> Density:
    """Convolution mu1 * mu2 via FFT on a cached grid, read in log space on one line.

    The FFT runs on the grid box and keeps the cache's line through 0 along
    e_1.  In 2-D and 3-D both factors must be rotation-invariant: their
    convolution is then a profile of |x|, which that line holds.  The reader
    evaluates e^u(t), u the linear interpolant of a log table on the line, at
    t = x_1 in 1-D and t = |x| in 2-D and 3-D.  The table holds the cache's log
    where it is trusted, at least ``_CONV_RELIABLE`` of the peak.  Past the
    outermost trusted point R on either side of the mode c, it holds, as does
    the reader off the box, the line ln rho(c +- R) + (|t - c| - R) s of slope
    s <= 0, above a log-concave ln rho; past R a heavy factor, one whose tail
    the grid cuts off, bounds the decay from below.  The mass of the reader,
    (|S^(n-1)| / 2) int |t|^(n-1) e^u dt on the box and past it, normalizes it.

    The grid has M = ``_CONV_CACHE_NODES[dim]`` nodes per axis (odd, so 0 is a
    node).  Each axis of the FFT is zero-padded to the smallest 5-smooth length
    of at least 3(M - 1)/2 + 1: wrap-around then misses the M kept samples, so
    they are those of the linear convolution, and the length has no large
    prime factor.  The truncation radius is the factors' summed; in 1-D, at
    most the largest |x| of a trusted node.

    Deterministic quadrature caps at dim 3; higher dimensions are rejected
    with advice to use Monte Carlo sampling of sums instead.
    """
    if mu1.dim != mu2.dim:
        raise InvalidParameter("convolution components must share a dimension")
    n = mu1.dim
    if n > 3:
        raise InvalidParameter(
            "deterministic convolution quadrature caps at dim 3; "
            "use monte_carlo sampling of component sums instead"
        )
    if n > 1 and not (mu1.rotation_invariant and mu2.rotation_invariant):
        odd = mu2 if mu1.rotation_invariant else mu1
        raise InvalidParameter(f"convolution in dim {n} is read at |x| and needs "
                               f"rotation-invariant factors; {odd.label!r} is not")
    M = _CONV_CACHE_NODES[n]
    L = _CONV_EXTENT_FACTOR * (mu1.truncation_radius + mu2.truncation_radius)
    axis = np.linspace(-L, L, M)
    h = axis[1] - axis[0]
    # only the e_1 line through 0 of the cache and of the factors' logs is
    # kept, copied out; the n-D points and logs are freed before the FFT
    e1 = (slice(None),) + ((M - 1) // 2,) * (n - 1)
    pts = quadrature.tensor_grid(axis, n)
    logs = [mu1.log_pdf(pts).reshape([M] * n), mu2.log_pdf(pts).reshape([M] * n)]
    lines = [lv[e1].copy() for lv in logs]
    a, b = (np.exp(np.maximum(lv, LOG_FLOOR)) for lv in logs)
    del pts, logs
    size, axes = (_fft_length(3 * (M - 1) // 2 + 1),) * n, tuple(range(n))
    full = np.fft.irfftn(np.fft.rfftn(a, size, axes) * np.fft.rfftn(b, size, axes), size, axes)
    # the M central samples of the 2M - 1 of the linear convolution, per axis
    conv = full[(slice((M - 1) // 2, (M - 1) // 2 + M),) * n] * h**n
    conv = np.maximum(conv, 0.0)
    if not 0.0 < conv.sum() < math.inf:
        raise EvaluationFailure("convolution cache has no mass")
    level = math.log(conv.max() * _CONV_RELIABLE)
    c = axis[np.argmax(conv[e1])]
    logc = np.log(np.maximum(conv[e1], 1e-300))

    def on_line(t):
        return np.pad(t[:, None], ((0, 0), (0, n - 1)))

    # a factor whose ln rho is convex at the line's ends, its slope flattening
    # outward, is heavy: its tail lies above every line, and the grid cuts it
    # off, so the cache misses mass beyond L - T of the other (poly_tail(1) *
    # N(0, 1) read a slope of -0.77 for -0.015).  Past R, ln rho decays no
    # faster than ln of a heavy factor
    reach, heavy = L - h, []
    for lv, mu, other in ((lines[0], mu1, mu2), (lines[1], mu2, mu1)):
        with np.errstate(invalid="ignore"):  # -inf - -inf off a support
            convex = [lv[e] - 2.0 * lv[e + d] + lv[e + 2 * d] > 0.0 for e, d in ((0, 1), (-1, -1))]
        if any(convex):
            reach = min(reach, L - other.truncation_radius - h)
            heavy.append((mu, lv))
    ok = (logc >= level) & (np.abs(axis) <= reach)

    def interpolate(t):
        """Linear between the nodes of each point's cell."""
        cell = np.clip(np.floor((t + L) / h), 0, M - 2).astype(int)
        # weights from the cell's own nodes, which are off by up to 1e-12 h
        w = (t - axis[cell]) / (axis[cell + 1] - axis[cell])
        return (1.0 - w) * logc[cell] + w * logc[cell + 1]

    # on each side u of the mode, R is where the interpolant last crosses the
    # trusted level inside the reach: found on steps of h / 2 and placed
    # between the last two linearly.  E is ln rho at R, S the slope over the
    # last few cells
    u = np.array([-1.0, 1.0])
    ts = np.arange(0.0, np.abs(axis[ok] - c).max() + 2.0 * h, h / 2.0)
    p = c + ts[:, None] * u
    v = np.where(np.abs(p) <= reach, interpolate(p.ravel()).reshape(p.shape), -math.inf)
    i = ts.size - 2 - np.argmax(v[-2::-1] >= level, axis=0)  # c, the peak, is on both sides
    inner, outer = v[i, [0, 1]], v[i + 1, [0, 1]]
    with np.errstate(divide="ignore", invalid="ignore"):
        R = ts[i] + 0.5 * h * np.where(outer < level, (inner - level) / (inner - outer), 0.0)
    edge, step = c + R * u, _CONV_SLOPE_CELLS * h
    E = interpolate(edge)
    S = np.minimum(E - interpolate(edge - step * u), 0.0) / step
    F = [mu.log_pdf(on_line(edge)) for mu, _ in heavy]

    def line(t, lfs):
        """The line on each point's side of the mode and whether the point lies
        past R; with a heavy factor of log ln f, at least ln rho(c +- R) +
        ln f(t) - ln f(c +- R), and at most ln rho(c +- R)."""
        d = t - c
        k, r = (d > 0).astype(int), np.abs(d)
        out = E[k] + (r - R[k]) * S[k]
        for lf, Fi in zip(lfs, F):
            out = np.maximum(out, E[k] + np.minimum(lf - Fi[k], 0.0))
        return out, r > R[k]

    far = np.flatnonzero(~ok)
    values, past = line(axis[far], [lv[far] for _, lv in heavy])
    logc[far[past]] = values[past]

    def logd(qts):
        """The table's interpolant on the box, the lines off it."""
        t = qts[:, 0] if n == 1 else np.linalg.norm(qts, axis=1)
        out = interpolate(t)
        off = np.abs(t) > L
        if np.any(off):
            out[off] = line(t[off], [mu.log_pdf(qts[off]) for mu, _ in heavy])[0]
        return out

    # the reader's mass on R^n is (|S^(n-1)| / 2) int |t|^(n-1) e^u dt, on the
    # box and on the two half-lines past it; |S^(n-1)| / 2 = pi^(n/2) /
    # Gamma(n/2) is exactly 1 in 1-D
    mass = [_log_interpolant_mass(logc, axis, n)]
    mass += [_log_line_tail(lambda t: logd(on_line(t)) + (n - 1) * np.log(np.abs(t)), side * L)
             for side in (-1.0, 1.0)]
    log_mass = np.logaddexp.reduce(mass) + math.log(math.pi ** (n / 2) / math.gamma(n / 2))
    # the table and the lines off the box, in place
    logc -= log_mass
    E -= log_mass
    radius = mu1.truncation_radius + mu2.truncation_radius
    if n == 1:
        # integrals run on the whole line, so the radius only bounds the
        # regularity search, which must read trusted nodes.  In 2-D and 3-D
        # it is also the trapezoid's box, and that rule's halving estimate
        # misses aliasing of the interpolant's kinks at some radii
        radius = min(radius, float(np.abs(axis[ok]).max()))

    def sampler(rng, size):
        return mu1.sample(rng, size) + mu2.sample(rng, size)

    return Density(
        dim=n,
        truncation_radius=radius,
        rotation_invariant=mu1.rotation_invariant and mu2.rotation_invariant,
        strictly_positive=mu1.strictly_positive or mu2.strictly_positive,
        label=f"convolve({mu1.label}, {mu2.label})",
        _log_density=logd,
        _sampler=sampler,
    )


def _log_line_tail(logd, x0: float) -> float:
    """ln of the integral of e^logd on the half-line beyond x0 (on its far
    side from 0), logd a map of 1-D arrays: exact for logd piecewise linear on
    the geometric nodes x0 e^{k / 32}, k <= 2048, and past the last of them
    the power law of the last step's log-log slope beta, e^logd(X) X / (beta - 1)."""
    x = x0 * np.exp(np.arange(2049) / 32.0)
    lv = logd(x)
    d, dx = np.diff(lv), np.diff(x)
    beta = -d[-1] * 32.0
    if not beta > 1.0:
        raise EvaluationFailure("convolution has a tail that does not decay")
    # e^a (e^d - 1) / d per step, 1 at d = 0
    ratio = np.divide(np.expm1(d), d, out=np.ones_like(d), where=d != 0)
    logs = np.append(lv[:-1] + np.log(np.abs(dx) * ratio),
                     lv[-1] + math.log(abs(x[-1]) / (beta - 1.0)))
    return float(np.logaddexp.reduce(logs))


def _log_interpolant_mass(table: Array, axis: Array, n: int) -> float:
    """ln int |t|^(n-1) e^u dt over the nodes' span, u the linear interpolant
    of the log table on the uniform nodes ``axis``: the 2-point Gauss-Legendre
    rule in every cell."""
    h = axis[1] - axis[0]
    total = 0.0
    for g in (0.5 - 0.5 / math.sqrt(3.0), 0.5 + 0.5 / math.sqrt(3.0)):
        u = (1.0 - g) * table[:-1] + g * table[1:]
        total += float((np.abs(axis[:-1] + g * h) ** (n - 1) * np.exp(u)).sum())
    return math.log(total) + math.log(h / 2.0)


def _fft_length(n: int) -> int:
    """The smallest 2^i 3^j 5^k >= n: an FFT length with only small prime factors."""
    while True:
        m = n
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


def shift(mu: Density, offset) -> Density:
    """Translate a measure by a fixed offset vector."""
    offset = np.atleast_1d(np.asarray(offset, dtype=float))
    if offset.shape[0] != mu.dim:
        raise InvalidParameter("offset dimension mismatch")

    return Density(
        dim=mu.dim,
        truncation_radius=mu.truncation_radius + float(np.linalg.norm(offset)),
        rotation_invariant=False,
        strictly_positive=mu.strictly_positive,
        label=f"shift({mu.label}, {np.array2string(offset, separator=',')})",
        _log_density=lambda pts: mu.log_pdf(pts - offset[None, :]),
        _sampler=lambda rng, size: mu.sample(rng, size) + offset[None, :],
    )


def perturb(
    mu: Density,
    log_weight: Callable[[Array], Array],
    *,
    label: str = "w",
) -> Density:
    """Reweighted measure with density proportional to rho(x) * exp(log_weight(x)).

    When the weight is bounded (C <= w <= D), regularity constants of the
    result are controlled by (D/C) times those of the base measure.  The
    normalizer Z = int e^w dmu is one ``integrate_log`` against mu with mu's
    default deterministic scheme, so dim is capped at 3.  The result is not
    taken to be rotation-invariant; its sampler accepts mu's samples against
    1.5 times the largest weight on a grid over the truncation ball, probed
    when it samples.
    """
    if mu.dim > 3:
        raise InvalidParameter("normalization quadrature caps at dim 3")

    def sampler(rng, size):
        probe = _grid_points(mu.dim, mu.truncation_radius, {1: 4097, 2: 101, 3: 31}[mu.dim])
        envelope = float(np.exp(np.max(log_weight(probe)))) * 1.5
        out = np.empty((size, mu.dim))
        filled = 0
        while filled < size:
            m = max(2 * (size - filled), 256)
            xs = mu.sample(rng, m)
            accept = rng.random(m) < np.exp(log_weight(xs)) / envelope
            take = xs[accept][: size - filled]
            out[filled : filled + take.shape[0]] = take
            filled += take.shape[0]
        return out

    label = f"perturb({mu.label}, {label})"
    try:
        log_mass, _ = quadrature.integrate_log(log_weight, mu, quadrature.default_spec(mu))
    except QuadratureFailure as exc:
        raise EvaluationFailure(f"cannot normalize {label!r}: {exc}",
                                witness=exc.witness) from exc
    # the sampler's envelope, e^w in linear space, would overflow with it
    if not log_mass < LOG_MAX:
        raise EvaluationFailure(f"cannot normalize {label!r}: mass e^{log_mass:.4g}")
    return Density(
        dim=mu.dim,
        truncation_radius=mu.truncation_radius,
        rotation_invariant=False,
        strictly_positive=mu.strictly_positive,
        label=label,
        _log_density=lambda pts: (mu.log_pdf(pts) + np.asarray(log_weight(pts), dtype=float)
                                  - log_mass),
        _sampler=sampler,
    )


# ---------------------------------------------------------------------------
# regularity constants
# ---------------------------------------------------------------------------

def _grid_points(dim: int, radius: float, nodes_per_axis: int) -> Array:
    pts = quadrature.tensor_grid(np.linspace(-radius, radius, nodes_per_axis), dim)
    return pts[np.linalg.norm(pts, axis=1) <= radius * (1.0 + 1e-12)]


def _y_grid(dim: int, s: float, h: float) -> Array:
    """Grid on the ball |y| <= s with spacing matching the x-grid."""
    steps = np.arange(-math.floor(s / h) * h, s + h / 2, h)
    # sorted and deduplicated as np.unique would, without its numpy.ma import
    vals = np.sort(np.concatenate([steps, [-s, 0.0, s]]))
    vals = vals[np.concatenate([[True], np.diff(vals) > 0])]
    ys = quadrature.tensor_grid(vals, dim)
    return ys[np.linalg.norm(ys, axis=1) <= s * (1.0 + 1e-12)]


def _ln_best_ratio(mu: Density, p: float, a: float, xs: Array, ys: Array) -> Array:
    """max over y of p log|x| + log rho(a x + y) - log rho(x), per x row."""
    log_x = np.full(xs.shape[0], -math.inf)
    nrm = np.linalg.norm(xs, axis=1)
    if p == 0:
        log_x[:] = 0.0
    else:
        pos = nrm > 0
        log_x[pos] = p * np.log(nrm[pos])
    base = mu.log_pdf(xs)
    best = np.full(xs.shape[0], -math.inf)
    for y in ys:
        shifted = mu.log_pdf(a * xs + y[None, :])
        np.maximum(best, shifted, out=best)
    return log_x + best - base


def regularity_constant(
    mu: Density,
    p: float,
    a: float,
    s: float = 0.0,
) -> float:
    """Grid estimate of the type-p constant C_p(a, s).

    x runs over ``GRID_NODES[d]`` nodes per axis on the ball of radius
    ``truncation_radius`` in R^d, y over the ball |y| <= s at the same spacing,
    both zero-padded to R^dim.  d = 1 for a rotation-invariant measure: there
    {|a x + y| : |y| <= s} = [(a|x| - s)+, a|x| + s] depends on |x| alone, so
    the e_1 line with shifts along e_1 is exact in every dimension.  Any other
    measure is searched on its own tensor grid, d = dim <= 3.  The estimate is
    the maximum of the ratio over the grid, hence a lower bound of the sup of
    the ratio of ``log_pdf`` as evaluated; where ``log_pdf`` approximates the
    measure, as a convolution's line table does, it can exceed the measure's
    own sup.  Raises :class:`TypeConditionViolation` (with the witness point)
    when the ratio exceeds the overflow guard or is still increasing at the
    grid boundary.
    """
    if a < 1.0:
        raise InvalidParameter("regularity constants are defined for a >= 1")
    if s < 0 or p < 0:
        raise InvalidParameter("require s >= 0 and p >= 0")
    if not mu.strictly_positive:
        raise InvalidParameter(
            f"{mu.label!r} vanishes on part of space; regularity estimation "
            "requires a strictly positive density"
        )
    d = 1 if mu.rotation_invariant else mu.dim
    if d > 3:
        raise InvalidParameter("regularity grid search is implemented for dim <= 3")

    R = mu.truncation_radius
    nax = GRID_NODES[d]
    h = 2.0 * R / (nax - 1)
    xs, ys = (np.pad(pts, ((0, 0), (0, mu.dim - d)))
              for pts in (_grid_points(d, R, nax), _y_grid(d, s, h)))

    lr = _ln_best_ratio(mu, p, a, xs, ys)
    top = float(np.max(lr))
    if top > LOG_RATIO_GUARD:
        x = xs[int(np.argmax(lr))]
        raise TypeConditionViolation(f"type-{p:g} condition violated at x={x}: "
                                     "ratio exceeds the overflow guard", witness=x)

    nrm = np.linalg.norm(xs, axis=1)
    boundary = nrm >= 0.9 * R
    if np.any(boundary) and np.any(~boundary):
        b_top = float(np.max(lr[boundary]))
        if b_top >= float(np.max(lr[~boundary])):
            idx = np.flatnonzero(boundary)[int(np.argmax(lr[boundary]))]
            xb = xs[idx : idx + 1]
            inner = 0.97 * xb
            lr_in = float(_ln_best_ratio(mu, p, a, inner, ys)[0])
            if lr[idx] > lr_in + 1e-9:
                raise TypeConditionViolation(f"type-{p:g} condition violated at x={xb[0]}: "
                                             "ratio increases toward the grid boundary",
                                             witness=xb[0])
    return float(np.exp(top))


@dataclass
class RegularityConstants:
    """Estimated C_p(a, s) table with the grid that produced it."""

    p: float
    entries: list  # (a, s, estimate) for finite estimates
    violations: list  # (a, s, witness point) where the sup diverges
    uniform_near_one: Optional[float]
    near_one_eps: float
    grid_spec: dict

    @property
    def numerically_type_p(self) -> bool:
        return not self.violations and self.uniform_near_one is not None

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "entries": [
                {"a": a, "s": s, "estimate": v} for a, s, v in self.entries
            ],
            "violations": [
                {"a": a, "s": s, "witness": list(np.atleast_1d(w))}
                for a, s, w in self.violations
            ],
            "uniform_near_one": self.uniform_near_one,
            "near_one_eps": self.near_one_eps,
            "grid_spec": self.grid_spec,
            "numerically_type_p": self.numerically_type_p,
        }


def type_report(
    mu: Density,
    p: float,
    a_list: Sequence[float],
    s_list: Sequence[float] = (0.0,),
    eps: float = NEAR_ONE_EPS,
) -> RegularityConstants:
    """Tabulate regularity constants over an (a, s) grid.

    The measure is flagged numerically type p iff every requested estimate is
    finite; divergent entries are recorded with their witness points.  The
    uniform-near-one bound maximizes C_0(a, 0) over a in (1, 1 + eps].
    """
    if not a_list or not s_list:
        raise InvalidParameter("a_list and s_list must be non-empty")
    entries = []
    violations = []
    for a in a_list:
        for s in s_list:
            try:
                entries.append((a, s, regularity_constant(mu, p, a, s)))
            except TypeConditionViolation as exc:
                violations.append((a, s, exc.witness))

    uniform = None
    try:
        vals = [
            regularity_constant(mu, 0.0, 1.0 + eps * (i + 1) / NEAR_ONE_COUNT, 0.0)
            for i in range(NEAR_ONE_COUNT)
        ]
        uniform = float(max(vals))
    except TypeConditionViolation as exc:
        violations.append((f"near-one sweep (eps={eps:g})", 0.0, exc.witness))

    d = 1 if mu.rotation_invariant else mu.dim  # as regularity_constant searches
    return RegularityConstants(
        p=p,
        entries=entries,
        violations=violations,
        uniform_near_one=uniform,
        near_one_eps=eps,
        grid_spec={"dim": d, "nodes_per_axis": GRID_NODES[d], "radius": mu.truncation_radius},
    )
