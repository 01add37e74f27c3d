"""Probability densities on R^n and their Euclidean-regularity constants.

A :class:`Density` wraps its normalized log-density, a truncation radius
beyond which mass is negligible, and a label recording its construction.
Densities are immutable and safe to evaluate concurrently.

Every log map is normalized when it is built, and only a closure that changes
the mass integrates anything: the built-in families fold their closed-form
constants into the map; ``mix``, ``shift`` and ``product`` combine normalized
log-densities, so their mass is exactly 1; ``perturb`` pays for one
``integrate_log`` of its weight against the normalized base;
``convolve_measures`` sums int rho_1(y) rho_2(x - y) dy in log space, so it
is normalized as its factors are (at |x| in 2-D and 3-D, for rotation-invariant
factors only).  The module needs numpy only, SciPy serves the tests as an
oracle.

The regularity constant of exponential type p is

    C_p(a, s) = sup_x sup_{|y| <= s} |x|^p rho(a x + y) / rho(x),

estimated on the nodes of a grid over the ball of radius ``truncation_radius``:
the sup over x is a lower bound of that of the density as evaluated (a
convolution is evaluated to about 1e-9 in ln).  A rotation-invariant measure is
searched on the e_1 line in any dimension, its inner sup exact for the evaluated
profile: rho((a|x| - s)+), read once per node.  Any other measure scans a grid
of shifts y on a tensor grid (dim <= 3).  A log-ratio still increasing at the
grid boundary, or over the overflow guard, is reported as divergent with a witness.

Closure operations (bounded perturbation, mixture, product, convolution)
build new densities whose constants obey explicit combination bounds; those
bounds are exercised by the check suite.
"""

from __future__ import annotations

import inspect
import math
import threading
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from typing import Callable, Optional, Sequence

import numpy as np

from . import quadrature
from .errors import (EvaluationFailure, InvalidParameter, QuadratureFailure,
                     TypeConditionViolation)
from .fields import _ball_volume, _batch
from .quadrature import LOG_MAX

Array = np.ndarray

#: ratios above this guard are reported as type-condition violations
LOG_RATIO_GUARD = math.log(1e100)

#: default sup-search nodes per axis, by dimension
GRID_NODES = {1: 2001, 2: 201, 3: 61}
#: the near-one window (1, 1 + eps] used for the uniform C0 bound
NEAR_ONE_EPS = 0.25
NEAR_ONE_COUNT = 16

#: initial nodes of a convolution's ln rho table, before its spacing is halved
#: (at most twice): x in [-2T, 2T] in 1-D, the radii [0, 2T] in 2-D and 3-D
_CONV_TABLE_NODES = {1: 1025, 2: 193, 3: 193}


@dataclass(frozen=True)
class Density:
    """A probability density on R^n given by its normalized log-density map.
    ``rotation_invariant`` means that rho depends on |x| alone and does not
    increase along rays."""

    dim: int
    truncation_radius: float
    rotation_invariant: bool
    strictly_positive: bool
    label: str
    family: Optional[str] = None
    params: tuple = ()
    _log_density: Callable[[Array], Array] = field(repr=False, default=None)

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

    return Density(
        dim=dim,
        truncation_radius=float(trunc),
        rotation_invariant=True,
        strictly_positive=True,
        label=f"gen_exponential(c={c:g}, a={a:g}, dim={dim})",
        family="gen_exponential",
        params=(c, a),
        _log_density=logd,
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

    return Density(
        dim=dim,
        truncation_radius=radius,
        rotation_invariant=True,
        strictly_positive=False,
        label=f"uniform_ball(R={radius:g}, dim={dim})",
        family="uniform_ball",
        params=(radius,),
        _log_density=logd,
    )


_FAMILIES = {ctor.__name__: ctor for ctor in (gaussian, gen_exponential, poly_tail, uniform_ball)}


def make_builtin(kind: str, params: dict, dim: int) -> Density:
    """Construct a built-in density by family tag and parameter dict; a
    family's parameters are its builder's, ``dim`` apart."""
    if kind not in _FAMILIES:
        raise InvalidParameter(
            f"unknown density family {kind!r}; choose from {sorted(_FAMILIES)}"
        )
    ctor = _FAMILIES[kind]
    sig = inspect.signature(ctor).parameters
    names = [name for name in sig if name != "dim"]
    unknown = set(params) - set(names)
    if unknown:
        raise InvalidParameter(f"unexpected parameters {sorted(unknown)} for {kind}")
    missing = [name for name in names
               if name not in params and sig[name].default is sig[name].empty]
    if missing:
        raise InvalidParameter(f"{kind} needs parameter {missing[0]!r}")
    return ctor(dim=dim, **params)


def _validate_dim(dim: int):
    if not quadrature.is_count(dim):
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

    return Density(
        dim=mu1.dim,
        truncation_radius=max(mu1.truncation_radius, mu2.truncation_radius),
        rotation_invariant=mu1.rotation_invariant and mu2.rotation_invariant,
        strictly_positive=(t < 1.0 and mu1.strictly_positive)
        or (t > 0.0 and mu2.strictly_positive),
        label=f"mix({mu1.label}, {mu2.label}, t={t:g})",
        _log_density=logd,
    )


def product(mu1: Density, mu2: Density) -> Density:
    """Product measure on R^(n1 + n2); log-density adds componentwise."""
    n1 = mu1.dim

    def logd(pts):
        return mu1.log_pdf(pts[:, :n1]) + mu2.log_pdf(pts[:, n1:])

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
    )


def convolve_measures(mu1: Density, mu2: Density) -> Density:
    """Convolution mu1 * mu2: ln int rho_1(y) rho_2(x - y) dy summed in log space
    on Gauss-Legendre panels (``_partition``), so normalized as its factors are.
    In 1-D y runs over one factor's panels, the other's mapped through x - y
    and any gap between them.  In 2-D and 3-D both factors must be
    rotation-invariant, hence non-increasing along rays (``Density``):
    rho(|x|) = |S^(n-2)| int t^(n-1) rho_o(t) int_0^pi rho_i(|x e_1 - t (cos th,
    sin th)|) sin^(n-2) th dth dt, the factor of the larger radius outside, th
    on ``_angle_rule``, t-nodes below e^-45 of the largest term even at th = 0
    skipped.  The first read tabulates ln rho, under a lock, on
    ``_CONV_TABLE_NODES[dim]`` nodes of x in [-2T, 2T] or |x| in [0, 2T], T the
    factors' radii summed (the truncation radius), halving the spacing at most
    twice while over 32 cells with finite ends fail ``_cubic_cells``.  A point
    on a cell that passes is read by the cubic through its four nearest nodes,
    within 1e-9 in ln, else summed directly.  Dimensions above 3 are refused.
    The panels resolve a factor's ln rho only where it is continuous: on
    uniform_ball(1, 2) * gaussian(0.5, 2), ln rho(0.5925, 0) is 4.7e-3 off."""
    if mu1.dim != mu2.dim:
        raise InvalidParameter("convolution components must share a dimension")
    n = mu1.dim
    if n > 3:
        raise InvalidParameter(f"convolution quadrature is implemented for dim <= 3, not dim {n}")
    if n > 1 and not (mu1.rotation_invariant and mu2.rotation_invariant):
        odd = mu2 if mu1.rotation_invariant else mu1
        raise InvalidParameter(f"convolution in dim {n} is read at |x| and needs "
                               f"rotation-invariant factors; {odd.label!r} is not")
    radius = mu1.truncation_radius + mu2.truncation_radius
    inner, outer = sorted((mu1, mu2), key=lambda mu: mu.truncation_radius)
    state, lock = {}, threading.Lock()

    def on_line(mu):
        def logd(t):  # ln rho of mu at t e_1, t of any shape
            pts = np.zeros((t.size, n))
            pts[:, 0] = t.ravel()
            return mu.log_pdf(pts).reshape(t.shape)
        return logd

    f_in, f_out = on_line(inner), on_line(outer)

    def direct(c):
        """ln rho at x (|x|) = c, in blocks of 2^18 nodes or (t, th) pairs."""
        b_in, b_out, cos_th, log_th = state["rules"]
        out = np.empty(c.size)
        step = max(1, 2**18 // (16 * (b_in.size + b_out.size + 18) * (cos_th.size if n > 1 else 1)))
        for k in range(0, c.size, step):
            ck = c[k:k + step]
            t, logw = _row_panels(ck, b_in, b_out, n, inner.truncation_radius / 4.0)
            if n == 1:
                out[k:k + step] = _log_sum_rows(logw + f_out(t) + f_in(ck[:, None] - t))
                continue
            with np.errstate(divide="ignore"):
                terms = logw + (n - 1) * np.log(t) + f_out(t)
            bound = terms + f_in(np.abs(ck[:, None] - t))
            keep = bound > np.max(bound, axis=1, keepdims=True) - 45.0
            keep[:, 0] |= ~keep.any(axis=1)  # every row keeps a term
            rows, cols = np.nonzero(keep)
            r, t = ck[rows, None], t[rows, cols, None]
            d = np.sqrt(np.maximum(r * r + t * t - 2.0 * r * t * cos_th, 0.0))
            vals = terms[rows, cols] + _log_sum_rows(f_in(d) + log_th)
            out[k:k + step] = np.logaddexp.reduceat(vals, np.flatnonzero(np.diff(rows, prepend=-1)))
        return out

    def table():
        with lock:
            if "values" not in state:
                state["rules"] = (_partition(f_in, inner.truncation_radius),
                                  _partition(f_out, outer.truncation_radius),
                                  *(_angle_rule(n) if n > 1 else (None, None)))
                lo = -2.0 * radius if n == 1 else 0.0
                values = direct(np.linspace(lo, 2.0 * radius, _CONV_TABLE_NODES[n]))
                for halvings in range(3):  # the even profile is mirrored to -2T + k h
                    full = values if n == 1 else np.concatenate([values[:0:-1], values])
                    cells, h = _cubic_cells(full), (2.0 * radius - lo) / (values.size - 1)
                    finite = np.isfinite(full[:-1]) & np.isfinite(full[1:])
                    if halvings == 2 or np.count_nonzero(~cells & finite) <= 32:
                        break
                    mids = direct(lo + h * (np.arange(values.size - 1) + 0.5))
                    values = np.append(np.column_stack([values[:-1], mids]).ravel(), values[-1])
                state.update(h=h, values=full, cells=cells)
        return state["h"], state["values"], state["cells"]

    def logd(pts):
        t = pts[:, 0] if n == 1 else np.linalg.norm(pts, axis=1)
        h, v, cells = table()
        u = (t + 2.0 * radius) / h
        i = np.clip(np.nan_to_num(np.floor(u), nan=-1.0), 0, v.size - 2).astype(int)
        read = cells[i]  # the table's two end cells on each side are never read
        s, i = (u - i)[read], i[read]
        out = np.full(t.size, -math.inf)
        out[read] = (3.0 * (s + 1.0) * (s - 1.0) * (s - 2.0) * v[i]
                     - s * (s - 1.0) * (s - 2.0) * v[i - 1]
                     - 3.0 * (s + 1.0) * s * (s - 2.0) * v[i + 1]
                     + (s + 1.0) * s * (s - 1.0) * v[i + 2]) / 6.0
        # points that share a coordinate, as a grid's do at |x|, are summed once
        far = ~read & np.isfinite(t)
        coords, inverse = np.unique(t[far], return_inverse=True)
        out[far] = direct(coords)[inverse]
        return out

    return Density(
        dim=n,
        truncation_radius=radius,
        rotation_invariant=mu1.rotation_invariant and mu2.rotation_invariant,
        strictly_positive=mu1.strictly_positive or mu2.strictly_positive,
        label=f"convolve({mu1.label}, {mu2.label})",
        _log_density=logd,
    )


@lru_cache(maxsize=None)
def _gauss_legendre(m: int) -> tuple[Array, Array]:
    """m-point Gauss-Legendre nodes and weights on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(m)
    return (1.0 + x) / 2.0, w / 2.0


def _panel_nodes(b: Array, c=0.0) -> tuple[Array, Array]:
    """Nodes and log-weights of 16-point Gauss-Legendre on the panels between
    breakpoints along the last axis of ``b``; one ending at a kink, 0 or c,
    is mapped through s^2 (3 - 2 s), so that a cusp |y|^(1/2) is smooth in s."""
    s, w = _gauss_legendre(16)
    lo, width = b[..., :-1, None], np.diff(b, axis=-1)[..., None]
    ends = (b[..., :-1], b[..., 1:])
    mapped = (ends[0] == 0.0) | (ends[1] == 0.0) | (ends[0] == c) | (ends[1] == c)
    with np.errstate(divide="ignore"):  # a panel of width 0 weighs 0
        nodes, logw = lo + width * s, np.log(width) + np.log(w)
        nodes[mapped] = lo[mapped] + width[mapped] * s * s * (3.0 - 2.0 * s)
        logw[mapped] = np.log(width[mapped]) + np.log(6.0 * w * s * (1.0 - s))
    return nodes.reshape(b.shape[:-1] + (-1,)), logw.reshape(b.shape[:-1] + (-1,))


def _log_sum_rows(v: Array) -> Array:
    """ln sum e^v along the last axis, shifted by each row's largest entry."""
    top = np.nan_to_num(np.max(v, axis=-1, keepdims=True), neginf=0.0)
    with np.errstate(divide="ignore"):
        return np.log(np.sum(np.exp(v - top), axis=-1)) + top[..., 0]


def _partition(logd: Callable[[Array], Array], T: float) -> Array:
    """Breakpoints on [-2T, 2T], 0 among them: from panels T/4 wide, a panel
    is halved while logd at its nodes strays from their chord by over 2 (0.25
    at the kink 0, for the mapped rule), unless 800 below its peak or 2^-40 T
    wide.  On two factors' panels the strays add to 4 at most: 1e-14 relative
    where both ln rho are continuous; a support edge is not resolved."""
    b = np.linspace(-2.0 * T, 2.0 * T, 17)  # b[8] is exactly 0
    while b.size < 2000:
        y = _panel_nodes(b)[0].reshape(-1, 16)
        f = logd(y)
        s = (y - y[:, :1]) / (y[:, -1:] - y[:, :1])
        with np.errstate(invalid="ignore"):  # -inf on both sides of the chord
            stray = np.max(np.abs(f - f[:, :1] - s * (f[:, -1:] - f[:, :1])), axis=1)
        limit = np.where((b[:-1] == 0.0) | (b[1:] == 0.0), 0.25, 2.0)
        split = ~(stray <= limit) & (f.max(axis=1) > f.max() - 800.0) & (np.diff(b) > 2.0**-40 * T)
        if not split.any():
            break
        b = np.sort(np.concatenate([b, (b[:-1] + b[1:])[split] / 2.0]))
    return b


def _row_panels(c: Array, moving: Array, fixed: Array, n: int, width: float):
    """``_panel_nodes`` per row c on ``fixed``, ``moving`` mapped to c - b (t >= 0
    in 2-D and 3-D), and 16 panels across any gap, ``width`` wide at its ends
    and growing geometrically, which resolve a power-law tail across it."""
    fixed = fixed if n == 1 else fixed[fixed >= 0.0]
    g0 = np.minimum(fixed[-1], c - moving[0])  # the gap [g0, g1], if g1 > g0
    g1 = np.maximum(g0, np.maximum(fixed[0], c - moving[-1]))
    parts = [np.broadcast_to(fixed, (c.size, fixed.size)),
             np.maximum(c[:, None] - moving, -math.inf if n == 1 else 0.0)]
    if np.any(g1 > g0):
        d = width * ((1.0 + (g1 - g0)[:, None] / (2.0 * width)) ** (np.arange(9) / 8.0) - 1.0)
        parts += [g0[:, None] + d, g1[:, None] - d]
    return _panel_nodes(np.sort(np.concatenate(parts, axis=1), axis=1), c[:, None])


def _angle_rule(n: int) -> tuple[Array, Array]:
    """cos th and log-weights for int_0^pi g(th) |S^(n-2)| sin^(n-2) th dth:
    10-point Gauss-Legendre on [0, pi 2^-10] and [pi 2^(k-1), pi 2^k], k =
    -9..0, resolving the inner factor's peak at th = 0 down to about 1e-2 wide."""
    s, w = _gauss_legendre(10)
    b = np.concatenate([[0.0], math.pi * 2.0 ** np.arange(-10.0, 1.0)])
    th = (b[:-1, None] + np.diff(b)[:, None] * s).ravel()
    return np.cos(th), (np.log(np.diff(b)[:, None] * w).ravel() + (n - 2) * np.log(np.sin(th))
                        + math.log(2.0 * math.pi ** ((n - 1) / 2) / math.gamma((n - 1) / 2)))


def _cubic_cells(v: Array) -> Array:
    """Cells of a uniform table of odd length on which the cubic through the
    four nearest nodes is within about 1e-9: the cubic through the even nodes
    misses each odd node by e, 16 times the error at the table's spacing, and
    a cell needs e <= 1.6e-8 at the odd nodes of its six nearest, all finite."""
    e = np.where(np.isfinite(v), 0.0, math.inf)
    with np.errstate(invalid="ignore"):
        e[3:-3:2] = np.abs((9.0 * (v[2:-4:2] + v[4:-2:2]) - v[:-6:2] - v[6::2]) / 16.0 - v[3:-3:2])
    return np.r_[False, False, np.convolve(~(e <= 1.6e-8), np.ones(6), "valid") == 0, False, False]


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
    normalizer Z = int e^w dmu is one ``integrate_log`` against mu on the
    rule that the result itself is integrated on by default (``adaptive_1d``
    in 1-D, the trapezoid in 2-D and 3-D, refused above).  The result is not
    taken to be rotation-invariant.
    """
    label = f"perturb({mu.label}, {label})"
    out = Density(
        dim=mu.dim,
        truncation_radius=mu.truncation_radius,
        rotation_invariant=False,
        strictly_positive=mu.strictly_positive,
        label=label,  # log_mass is bound below, before out is returned
        _log_density=lambda pts: (mu.log_pdf(pts) + np.asarray(log_weight(pts), dtype=float)
                                  - log_mass),
    )
    try:
        log_mass, _ = quadrature.integrate_log(log_weight, mu, quadrature.default_spec(out))
    except QuadratureFailure as exc:
        raise EvaluationFailure(f"cannot normalize {label!r}: {exc}",
                                witness=exc.witness) from exc
    return out


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


def _ln_best_ratio(mu: Density, p: float, a: float, s: float, xs: Array, ys) -> Array:
    """max over |y| <= s of p log|x| + log rho(a x + y) - log rho(x), per x row.

    A rotation-invariant rho does not increase along rays, so the max is read
    once, at (a|x| - s)+ on x's side of the e_1 line; ``xs`` is then that line,
    on which ln rho must not rise outward.  Other measures scan the shifts ``ys``."""
    nrm = np.linalg.norm(xs, axis=1)
    with np.errstate(divide="ignore"):
        log_x = p * np.log(nrm) if p else 0.0
    base = mu.log_pdf(xs)
    if not mu.rotation_invariant:
        return log_x + reduce(np.maximum, (mu.log_pdf(a * xs + y) for y in ys)) - base
    out = nrm[1:] > nrm[:-1]  # node i + 1 is the farther of the pair
    rise = np.flatnonzero(np.where(out, base[1:] > base[:-1], base[:-1] > base[1:]))
    if rise.size:
        x = xs[rise[0] + (not out[rise[0]])]
        raise InvalidParameter(f"{mu.label!r} is flagged rotation-invariant, but ln rho "
                               f"rises from x={x} to the next node outward", witness=x)
    pts = np.zeros_like(xs)
    pts[:, 0] = np.copysign(np.maximum(a * nrm - s, 0.0), xs[:, 0])
    return log_x + mu.log_pdf(pts) - base


def regularity_constant(
    mu: Density,
    p: float,
    a: float,
    s: float = 0.0,
) -> float:
    """Grid estimate of the type-p constant C_p(a, s).

    x runs over ``GRID_NODES[d]`` nodes per axis on the ball of radius
    ``truncation_radius`` in R^d, zero-padded to R^dim.  d = 1 for a
    rotation-invariant measure in every dimension: its rho does not increase
    along rays (checked on the line with no tolerance: a rise of ln rho from a
    node to the next one outward raises :class:`InvalidParameter`, that node
    the witness), so the sup over |y| <= s of rho(a x + y) is rho((a|x| - s)+),
    exact for the evaluated profile.  Any other measure is searched on its own
    tensor grid, d = dim <= 3, y over |y| <= s at the x-grid's spacing.  The
    sup over x is the maximum over the nodes, a lower bound of the sup of the
    ratio of ``log_pdf`` as evaluated.  Raises :class:`TypeConditionViolation`
    (with the witness point) when the ratio exceeds the overflow guard or is
    still increasing at the grid boundary.
    """
    for name, value, low in (("p", p, 0.0), ("a", a, 1.0), ("s", s, 0.0)):
        if not low <= value < math.inf:
            raise InvalidParameter(
                f"regularity constants need a finite {name} >= {low:g}, got {name} = {value}")
    if not mu.strictly_positive:
        raise InvalidParameter(
            f"{mu.label!r} vanishes on part of space; regularity estimation "
            "requires a strictly positive density"
        )
    d = 1 if mu.rotation_invariant else mu.dim
    if d > 3:
        raise InvalidParameter("regularity grid search is implemented for dim <= 3")

    R, nax = mu.truncation_radius, GRID_NODES[d]
    xs = np.pad(_grid_points(d, R, nax), ((0, 0), (0, mu.dim - d)))
    ys = None if mu.rotation_invariant else _y_grid(d, s, 2.0 * R / (nax - 1))

    lr = _ln_best_ratio(mu, p, a, s, xs, ys)
    top = float(np.max(lr))
    if top > LOG_RATIO_GUARD:
        x = xs[int(np.argmax(lr))]
        raise TypeConditionViolation(f"type-{p:g} condition violated at x={x}: "
                                     "ratio exceeds the overflow guard", witness=x)

    boundary = np.linalg.norm(xs, axis=1) >= 0.9 * R
    if np.any(boundary) and np.any(~boundary) and np.max(lr[boundary]) >= np.max(lr[~boundary]):
        idx = np.flatnonzero(boundary)[int(np.argmax(lr[boundary]))]
        xb = xs[idx : idx + 1]
        if lr[idx] > float(_ln_best_ratio(mu, p, a, s, 0.97 * xb, ys)[0]) + 1e-9:
            raise TypeConditionViolation(f"type-{p:g} condition violated at x={xb[0]}: "
                                         "ratio increases toward the grid boundary", witness=xb[0])
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
            **vars(self),
            "entries": [{"a": a, "s": s, "estimate": v} for a, s, v in self.entries],
            "violations": [{"a": a, "s": s, "witness": list(np.atleast_1d(w))}
                           for a, s, w in self.violations],
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
