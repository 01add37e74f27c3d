"""Scalar fields with log-subharmonicity certificates.

A :class:`ScalarField` is an immutable composition tree over R^n exposing a
vectorized value map, an optional analytic gradient, and an optional stable
log-value map.  Fields constructed through the certified builders
(``log_linear``, ``exp_subharmonic``, ``modulus_holomorphic``, ``power``,
``product_field``, ``dilate``, ``convolve``) are log-subharmonic by
construction; the certificate records the construction route and ``is_lsh``
provides the falsifiable numerical test (sub-mean inequality of ln f over
spheres).

``value_and_gradient`` returns f(x) and grad f(x) together.  A convolution,
and any dilation of one, computes both from one sweep of the inner field over
the mollifier nodes; every other field evaluates its two maps in turn.

Point convention: a single point is a 1-D array of shape (dim,); a batch is a
2-D array of shape (m, dim).  All value/gradient maps are vectorized over
batches.  Fields are immutable after construction and safe to evaluate from
concurrent contexts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import InvalidParameter, SubharmonicityError
from .quadrature import tensor_grid

Array = np.ndarray

#: values below this floor are treated as exact zeros (0 * ln 0 = 0 convention)
VALUE_FLOOR = 1e-300
#: log of the smallest positive value we ever report
LOG_FLOOR = -750.0
_FD_STEP = float(np.finfo(float).eps) ** (1.0 / 3.0)

CERTIFICATES = (
    "log_linear",
    "exp_subharmonic",
    "modulus_holomorphic",
    "power",
    "product",
    "dilation",
    "convolution",
    "mollified",
    "unverified",
)


def _batch(x, dim: int) -> tuple[Array, bool]:
    """Normalize a point or batch of points to shape (m, dim)."""
    pts = np.asarray(x, dtype=float)
    if pts.ndim == 1:
        if pts.shape[0] != dim:
            raise InvalidParameter(f"point has {pts.shape[0]} coordinates, expected {dim}")
        return pts.reshape(1, dim), True
    if pts.ndim == 2 and pts.shape[1] == dim:
        return pts, False
    raise InvalidParameter(f"expected shape (m, {dim}) or ({dim},), got {pts.shape}")


@dataclass(frozen=True)
class ScalarField:
    """A non-negative scalar field on R^n.

    ``certificate`` is the construction tag; everything except "unverified"
    is log-subharmonic by construction and must pass :func:`is_lsh` at random
    probes.  ``smooth`` permits finite-difference derivatives when no analytic
    gradient is attached.
    """

    dim: int
    certificate: str
    smooth: bool
    label: str
    _value: Callable[[Array], Array] = field(repr=False)
    _log_value: Optional[Callable[[Array], Array]] = field(repr=False, default=None)
    _gradient: Optional[Callable[[Array], Array]] = field(repr=False, default=None)
    _value_and_gradient: Optional[Callable[[Array], tuple[Array, Array]]] = field(
        repr=False, default=None)

    def __post_init__(self):
        if self.certificate not in CERTIFICATES:
            raise InvalidParameter(f"unknown certificate tag {self.certificate!r}")
        if self.dim < 1:
            raise InvalidParameter("dim must be a positive integer")

    def __call__(self, x):
        pts, single = _batch(x, self.dim)
        v = np.asarray(self._value(pts), dtype=float)
        return float(v[0]) if single else v

    def log_value(self, x):
        """ln f(x), with -inf-safe flooring at ``LOG_FLOOR``."""
        pts, single = _batch(x, self.dim)
        if self._log_value is not None:
            lv = np.asarray(self._log_value(pts), dtype=float)
        else:
            v = np.asarray(self._value(pts), dtype=float)
            lv = np.log(np.maximum(v, VALUE_FLOOR))
        lv = np.maximum(lv, LOG_FLOOR)
        return float(lv[0]) if single else lv

    @property
    def has_gradient(self) -> bool:
        return self._gradient is not None

    def gradient(self, x):
        """Analytic gradient when attached, else central differences (smooth fields)."""
        pts, single = _batch(x, self.dim)
        if self._gradient is not None:
            g = np.asarray(self._gradient(pts), dtype=float)
        elif self.smooth:
            g = self._fd_gradient(pts)
        else:
            raise InvalidParameter(
                f"field {self.label!r} has no gradient and is not flagged smooth"
            )
        return g[0] if single else g

    def value_and_gradient(self, x):
        """(f(x), grad f(x)), from one joint map when the field has one."""
        pts, single = _batch(x, self.dim)
        if self._value_and_gradient is not None:
            v, g = self._value_and_gradient(pts)
            v, g = np.asarray(v, dtype=float), np.asarray(g, dtype=float)
        else:
            v, g = self(pts), self.gradient(pts)
        return (float(v[0]), g[0]) if single else (v, g)

    def _fd_gradient(self, pts: Array) -> Array:
        g = np.empty_like(pts)
        for j in range(self.dim):
            h = _FD_STEP * np.maximum(1.0, np.abs(pts[:, j]))
            up = pts.copy()
            dn = pts.copy()
            up[:, j] += h
            dn[:, j] -= h
            g[:, j] = (self._value(up) - self._value(dn)) / (2.0 * h)
        return g


def euler(f: ScalarField, x):
    """Euler operator Ef(x) = x . grad f(x), the dilation-semigroup generator."""
    pts, single = _batch(x, f.dim)
    if not f.has_gradient and not f.smooth:
        raise InvalidParameter("Euler operator needs an analytic gradient or a smooth field")
    g = f.gradient(pts)
    e = np.einsum("ij,ij->i", pts, g)
    return float(e[0]) if single else e


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def constant(value: float, dim: int = 1) -> ScalarField:
    if value < 0:
        raise InvalidParameter("constant fields must be non-negative")
    c = float(value)
    logc = math.log(c) if c > 0 else LOG_FLOOR
    return ScalarField(
        dim=dim,
        certificate="log_linear",
        smooth=True,
        label=f"constant({c:g})",
        _value=lambda pts: np.full(pts.shape[0], c),
        _log_value=lambda pts: np.full(pts.shape[0], logc),
        _gradient=lambda pts: np.zeros_like(pts),
    )


def _overflow_to_inf(fn: Callable[[Array], Array]) -> Callable[[Array], Array]:
    """``fn`` with floating overflow giving inf silently: an integral turns the
    inf into a QuadratureFailure carrying the point, so a warning is redundant."""
    def quiet(pts):
        with np.errstate(over="ignore"):
            return fn(pts)

    return quiet


def log_linear(lam) -> ScalarField:
    """f(x) = exp(lam . x); ln f is linear, hence harmonic."""
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    if not np.all(np.isfinite(lam)):
        raise InvalidParameter("log_linear requires a finite coefficient vector")
    dim = lam.shape[0]

    val = _overflow_to_inf(lambda pts: np.exp(pts @ lam))
    return ScalarField(
        dim=dim,
        certificate="log_linear",
        smooth=True,
        label=f"log_linear({np.array2string(lam, separator=',')})",
        _value=val,
        _log_value=lambda pts: pts @ lam,
        _gradient=lambda pts: val(pts)[:, None] * lam[None, :],
    )


def cosh_field(lam: float) -> ScalarField:
    """f(x) = cosh(lam x) on R; (ln cosh)'' = lam^2 sech^2 > 0, so ln f is convex."""
    lam = float(lam)

    def logv(pts):
        t = lam * pts[:, 0]
        return np.logaddexp(t, -t) - math.log(2.0)

    return ScalarField(
        dim=1,
        certificate="exp_subharmonic",
        smooth=True,
        label=f"cosh_field({lam:g})",
        _value=_overflow_to_inf(lambda pts: np.cosh(lam * pts[:, 0])),
        _log_value=logv,
        _gradient=_overflow_to_inf(lambda pts: (lam * np.sinh(lam * pts[:, 0]))[:, None]),
    )


def exp_subharmonic(
    u: Callable[[Array], Array],
    dim: int,
    grad_u: Optional[Callable[[Array], Array]] = None,
    label: str = "exp_subharmonic(u)",
    *,
    verify: bool = True,
    seed: int = 7,
) -> ScalarField:
    """f = exp(u) for a (numerically verified) subharmonic u.

    ``u`` must be vectorized over (m, dim) batches.  Construction is rejected,
    with a witness point, when u fails the sphere sub-mean test at random
    probes.
    """
    if verify:
        rep = _sub_mean_test(u, dim, seed=seed)
        if not rep.passed:
            x, r, mean, center = rep.violations[0]
            raise SubharmonicityError(
                f"u fails the sphere-mean test at x={x}, radius {r:g}: "
                f"mean {mean:.6g} < value {center:.6g}",
                witness=x,
            )

    def val(pts):
        return np.exp(np.asarray(u(pts), dtype=float))

    grad = None
    if grad_u is not None:
        def grad(pts):
            return np.exp(np.asarray(u(pts), dtype=float))[:, None] * np.asarray(grad_u(pts))

    return ScalarField(
        dim=dim,
        certificate="exp_subharmonic",
        smooth=True,
        label=label,
        _value=val,
        _log_value=lambda pts: np.asarray(u(pts), dtype=float),
        _gradient=grad,
    )


def exp_norm_sq(lam: float, dim: int) -> ScalarField:
    """f(x) = exp(lam |x|^2) with lam >= 0; rotation-invariant and LSH."""
    lam = float(lam)
    if lam < 0:
        raise InvalidParameter("exp_norm_sq requires lam >= 0")
    sq = lambda pts: np.sum(pts * pts, axis=1)
    f = exp_subharmonic(
        lambda pts: lam * sq(pts),
        dim,
        grad_u=lambda pts: 2.0 * lam * pts,
        label=f"exp_norm_sq({lam:g})",
        verify=False,
    )
    return f


def modulus_holomorphic(coeffs: Sequence[complex]) -> ScalarField:
    """f(x, y) = |P(x + iy)| for a polynomial P; ln|P| is subharmonic on R^2.

    ``coeffs`` are ascending-order polynomial coefficients.  The gradient is
    analytic away from zeros of P (and reported as 0 exactly at them).
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    if coeffs.ndim != 1 or coeffs.size == 0:
        raise InvalidParameter("coeffs must be a non-empty 1-D sequence")
    dcoeffs = np.polynomial.polynomial.polyder(coeffs)

    def _w(pts):
        z = pts[:, 0] + 1j * pts[:, 1]
        return np.polynomial.polynomial.polyval(z, coeffs)

    def val(pts):
        return np.abs(_w(pts))

    def grad(pts):
        z = pts[:, 0] + 1j * pts[:, 1]
        w = np.polynomial.polynomial.polyval(z, coeffs)
        wp = np.polynomial.polynomial.polyval(z, dcoeffs) if dcoeffs.size else np.zeros_like(z)
        aw = np.abs(w)
        safe = np.maximum(aw, VALUE_FLOOR)
        prod = np.conj(w) * wp
        g = np.stack([prod.real / safe, -prod.imag / safe], axis=1)
        g[aw < VALUE_FLOOR] = 0.0
        return g

    return ScalarField(
        dim=2,
        certificate="modulus_holomorphic",
        smooth=True,
        label=f"modulus_holomorphic(deg={coeffs.size - 1})",
        _value=val,
        _gradient=grad,
    )


def power(f: ScalarField, p: float) -> ScalarField:
    """f^p for p > 0; preserves log-subharmonicity (ln f^p = p ln f)."""
    p = float(p)
    if p <= 0:
        raise InvalidParameter("power exponent must be > 0")

    val = _overflow_to_inf(lambda pts: np.exp(np.clip(p * f.log_value(pts), LOG_FLOOR, None)))

    grad = None
    if f.has_gradient:
        def grad(pts):
            lv = f.log_value(pts)
            fac = np.exp(np.clip((p - 1.0) * lv, LOG_FLOOR, 709.0))
            fac[lv <= LOG_FLOOR] = 0.0
            return p * fac[:, None] * f.gradient(pts)

    return ScalarField(
        dim=f.dim,
        certificate="power",
        smooth=f.smooth,
        label=f"power({f.label}, {p:g})",
        _value=val,
        _log_value=lambda pts: p * f.log_value(pts),
        _gradient=grad,
    )


def product_field(f: ScalarField, g: ScalarField) -> ScalarField:
    """Pointwise product; ln(fg) = ln f + ln g stays subharmonic."""
    if f.dim != g.dim:
        raise InvalidParameter("product factors must share a dimension")

    grad = None
    if f.has_gradient and g.has_gradient:
        def grad(pts):
            return f(pts)[:, None] * g.gradient(pts) + g(pts)[:, None] * f.gradient(pts)

    return ScalarField(
        dim=f.dim,
        certificate="product",
        smooth=f.smooth and g.smooth,
        label=f"product({f.label}, {g.label})",
        _value=lambda pts: f(pts) * g(pts),
        _log_value=lambda pts: f.log_value(pts) + g.log_value(pts),
        _gradient=grad,
    )


def scale(f: ScalarField, t: float) -> ScalarField:
    """t * f for t > 0 (product with a constant field)."""
    return product_field(constant(t, f.dim), f)


def dilate(f: ScalarField, r: float) -> ScalarField:
    """Dilation f_r(x) = f(rx) for r in (0, 1]; r = 1 returns f itself."""
    r = float(r)
    if not (0.0 < r <= 1.0):
        raise InvalidParameter(f"dilation factor must lie in (0, 1], got {r}")
    if r == 1.0:
        return f

    grad = None
    if f.has_gradient:
        grad = lambda pts: r * f.gradient(r * pts)

    joint = None
    if f._value_and_gradient is not None:
        def joint(pts):
            v, g = f.value_and_gradient(r * pts)
            return v, r * g

    return ScalarField(
        dim=f.dim,
        certificate="dilation",
        smooth=f.smooth,
        label=f"dilate({f.label}, {r:g})",
        _value=lambda pts: f(r * pts),
        _log_value=lambda pts: f.log_value(r * pts),
        _gradient=grad,
        _value_and_gradient=joint,
    )


def raw_field(
    fn: Callable[[Array], Array],
    dim: int,
    grad: Optional[Callable[[Array], Array]] = None,
    smooth: bool = True,
    label: str = "raw_field",
) -> ScalarField:
    """Wrap an arbitrary vectorized map with certificate "unverified".

    No non-negativity or subharmonicity is asserted; such fields are only
    accepted where the operation at hand does not require a certificate
    (spherical averaging, ad-hoc probing).
    """
    return ScalarField(
        dim=dim,
        certificate="unverified",
        smooth=smooth,
        label=label,
        _value=lambda pts: np.asarray(fn(pts), dtype=float),
        _gradient=grad,
    )


def squared_norm(dim: int) -> ScalarField:
    """f(x) = |x|^2; subharmonic (Laplacian 2n > 0) though not LSH in general."""
    return raw_field(
        lambda pts: np.sum(pts * pts, axis=1),
        dim,
        grad=lambda pts: 2.0 * pts,
        label="squared_norm",
    )


# ---------------------------------------------------------------------------
# mollifiers and convolution
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _unit_bump_mass(dim: int) -> float:
    """Integral of exp(-1/(1-|u|^2)) over the unit ball, by Gauss-Legendre."""
    n = {1: 400, 2: 160, 3: 96}[dim]
    t, w = np.polynomial.legendre.leggauss(n)
    pts, wts = tensor_grid(t, dim, w)
    r2 = np.sum(pts * pts, axis=1)
    vals = np.zeros(pts.shape[0])
    inside = r2 < 1.0
    vals[inside] = np.exp(-1.0 / (1.0 - r2[inside]))
    return float(vals @ wts)


@dataclass(frozen=True)
class Mollifier:
    """Smooth unit-mass bump supported in the ball of radius ``support_radius``.

    The profile is the standard bump amplitude * exp(-1/(1 - |x/s|^2)), with
    the amplitude fixed so the total mass is 1.  The family is closed under
    the mass-preserving rescaling s -> s/k, which keeps
    Vol(supp) * ||.||_{p'}^p constant across scales.
    """

    dim: int
    scale_index: float
    support_radius: float
    amplitude: float

    def __call__(self, x):
        pts, single = _batch(x, self.dim)
        v = self._values(pts)
        return float(v[0]) if single else v

    def _values(self, pts: Array) -> Array:
        t = np.sum((pts / self.support_radius) ** 2, axis=1)
        out = np.zeros(pts.shape[0])
        inside = t < 1.0
        out[inside] = self.amplitude * np.exp(-1.0 / (1.0 - t[inside]))
        return out

    def gradient(self, x):
        pts, single = _batch(x, self.dim)
        s2 = self.support_radius**2
        t = np.sum(pts * pts, axis=1) / s2
        g = np.zeros_like(pts)
        inside = t < 1.0
        if np.any(inside):
            one_m = 1.0 - t[inside]
            base = self.amplitude * np.exp(-1.0 / one_m)
            g[inside] = base[:, None] * (-2.0 * pts[inside] / s2) / (one_m**2)[:, None]
        return g[0] if single else g

    @property
    def vol_support(self) -> float:
        n = self.dim
        return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0) * self.support_radius**n

    @property
    def sup_value(self) -> float:
        return self.amplitude * math.exp(-1.0)

    def mass(self) -> float:
        """Total mass by quadrature over the support (should be 1)."""
        _, c = _ball_nodes(self, want_gradient=False, accurate=True)
        return float(np.sum(c))

    def lebesgue_norm(self, p: float) -> float:
        """(integral of phi^p dx)^(1/p) against Lebesgue measure; p = inf -> sup."""
        if p == math.inf:
            return self.sup_value
        y, c, w, vals = _ball_nodes(self, want_gradient=False, raw=True, accurate=True)
        return float(np.sum(w * vals**p) ** (1.0 / p))


def mollifier(dim: int, k: int, base_radius: float = 1.0) -> Mollifier:
    """Scale-k member of the mollifier family: support radius base_radius / k."""
    if k < 1:
        raise InvalidParameter("scale index k must be a positive integer")
    return _bump(dim, float(base_radius) / float(k), scale_index=float(k))


def _bump(dim: int, radius: float, scale_index: float | None = None) -> Mollifier:
    if radius <= 0:
        raise InvalidParameter("support radius must be positive")
    amplitude = 1.0 / (_unit_bump_mass(dim) * radius**dim)
    return Mollifier(
        dim=dim,
        scale_index=scale_index if scale_index is not None else 1.0 / radius,
        support_radius=radius,
        amplitude=amplitude,
    )


#: per-axis nodes for convolution evaluation (speed) and for norm/mass
#: diagnostics (accuracy; mass must come out 1 within 1e-8)
_CONV_NODES = {1: 64, 2: 40, 3: 20}
_NORM_NODES = {1: 320, 2: 96, 3: 64}
#: point-node pairs per row block of a convolution sweep: the block's shifted
#: points (16 bytes a pair in 2-D) stay a few MB, within cache reach
_CONV_BLOCK_PAIRS = 200_000
#: point-node pairs one convolution sweep may take (about 2 s at the 1e8
#: pairs/s of a 2-core machine).  The largest sweep in the tests and the
#: benchmark is 1.6e7 (101^2 Gauss-Hermite points x 1,600 nodes in 2-D); the
#: 2-D trapezoid default, 257^2 x 1,600 = 1.1e8, fits, and every 3-D default
#: (at least 65^3 x 8,000 = 2.2e9) is refused before any work
CONV_MAX_PAIRS = 200_000_000


def _ball_nodes(phi: Mollifier, want_gradient: bool = True, raw: bool = False,
                accurate: bool = False):
    """Gauss-Legendre tensor nodes on the support box of ``phi``.

    Returns (y, c[, cg]) with c_i = w_i * phi(y_i) so that
    (f * phi)(x) ~= sum_i c_i f(x - y_i); cg_i = w_i * grad phi(y_i).
    """
    s = phi.support_radius
    n1 = (_NORM_NODES if accurate else _CONV_NODES)[phi.dim]
    t, w = np.polynomial.legendre.leggauss(n1)
    t = t * s
    w = w * s
    y, wts = tensor_grid(t, phi.dim, w)
    vals = phi._values(y)
    c = wts * vals
    if raw:
        return y, c, wts, vals
    if not want_gradient:
        return y, c
    cg = wts[:, None] * phi.gradient(y)
    return y, c, cg


def convolve(f: ScalarField, phi: Mollifier) -> ScalarField:
    """Smoothing convolution (f * phi)(x) = integral of f(x - y) phi(y) dy.

    Preserves the log-subharmonic cone and yields a C-infinity field; the
    gradient is computed as f * grad(phi).  ``value_and_gradient`` reduces
    each sweep of f against the stacked weights [c | grad c], so value and
    gradient cost one evaluation of f at every x - y.
    """
    if f.dim != phi.dim:
        raise InvalidParameter("field and mollifier dimensions differ")
    y, c, cg = _ball_nodes(phi)
    c_cg = np.column_stack([c, cg])

    def _reduce(pts: Array, weights: Array) -> Array:
        # f at x - y for one row block of points at a time, reduced against
        # the node weights at once, so no (points, nodes) matrix is kept
        if pts.shape[0] * y.shape[0] > CONV_MAX_PAIRS:
            raise InvalidParameter(
                f"convolution sweep of {pts.shape[0]} points x {y.shape[0]} nodes = "
                f"{pts.shape[0] * y.shape[0]:.3g} pairs exceeds CONV_MAX_PAIRS = "
                f"{CONV_MAX_PAIRS:.3g}; integrate on fewer nodes")
        out = np.empty((pts.shape[0],) + weights.shape[1:])
        block = max(1, _CONV_BLOCK_PAIRS // max(1, y.shape[0]))
        shifted = np.empty((min(block, pts.shape[0]), y.shape[0], f.dim))
        for lo in range(0, pts.shape[0], block):
            chunk = pts[lo : lo + block]
            shifted = shifted[: chunk.shape[0]]
            # one coordinate at a time: a broadcast over the length-dim last
            # axis would run one short inner loop per point-node pair
            for j in range(f.dim):
                np.subtract(chunk[:, j, None], y[None, :, j], out=shifted[:, :, j])
            out[lo : lo + chunk.shape[0]] = f(
                shifted.reshape(-1, f.dim)
            ).reshape(chunk.shape[0], y.shape[0]) @ weights
        return out

    def val(pts):
        return _reduce(pts, c)

    def grad(pts):
        return _reduce(pts, cg)

    def joint(pts):
        out = _reduce(pts, c_cg)
        return out[:, 0], out[:, 1:]

    return ScalarField(
        dim=f.dim,
        certificate="mollified",
        smooth=True,
        label=f"convolve({f.label}, k={phi.scale_index:g})",
        _value=val,
        _gradient=grad,
        _value_and_gradient=joint,
    )


def dilated_convolve(f: ScalarField, phi: Mollifier, r: float) -> ScalarField:
    """Smooth-then-shrink: x -> (f * phi)(rx) for r in (0, 1)."""
    r = float(r)
    if not (0.0 < r < 1.0):
        raise InvalidParameter(f"dilated convolution requires r in (0, 1), got {r}")
    g = dilate(convolve(f, phi), r)
    return replace(g, certificate="mollified")


# ---------------------------------------------------------------------------
# spherical averaging and the subharmonicity tests
# ---------------------------------------------------------------------------

_DIM2_ANGLES = 64
_DIM3_ROTATIONS = 256
_DIM3_SEED = 20240517


@lru_cache(maxsize=None)
def _rotations(dim: int, count: Optional[int] = None) -> Array:
    """A fixed discretization of the rotation group: (K, dim, dim) matrices."""
    if dim == 1:
        return np.array([[[1.0]], [[-1.0]]])
    if dim == 2:
        count = count or _DIM2_ANGLES
        th = 2.0 * math.pi * np.arange(count) / count
        return np.stack(
            [np.array([[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]]) for a in th]
        )
    if dim == 3:
        rng = np.random.default_rng(_DIM3_SEED)
        mats = []
        for _ in range(count or _DIM3_ROTATIONS):
            # uniform rotation from a random quaternion
            q = rng.standard_normal(4)
            q /= np.linalg.norm(q)
            a, b, c, d = q
            mats.append(
                np.array(
                    [
                        [a * a + b * b - c * c - d * d, 2 * (b * c - a * d), 2 * (b * d + a * c)],
                        [2 * (b * c + a * d), a * a - b * b + c * c - d * d, 2 * (c * d - a * b)],
                        [2 * (b * d - a * c), 2 * (c * d + a * b), a * a - b * b - c * c + d * d],
                    ]
                )
            )
        return np.stack(mats)
    raise InvalidParameter("rotation sampling is implemented for dim <= 3")


@lru_cache(maxsize=None)
def _unit_sphere_rule(dim: int, refine: int = 1) -> tuple[Array, Array]:
    """Directions and weights for mean values over the unit sphere.

    dim 1: the two endpoints; dim 2: a uniform angular grid (trapezoid rule,
    spectrally accurate for periodic integrands); dim 3: Gauss-Legendre in
    cos(theta) times a uniform azimuthal grid.  Weights sum to 1.
    """
    if dim == 1:
        return np.array([[1.0], [-1.0]]), np.array([0.5, 0.5])
    if dim == 2:
        count = _DIM2_ANGLES * refine
        th = 2.0 * math.pi * np.arange(count) / count
        dirs = np.stack([np.cos(th), np.sin(th)], axis=1)
        return dirs, np.full(count, 1.0 / count)
    if dim == 3:
        n_theta = 16 * refine
        n_phi = 2 * n_theta
        t, w = np.polynomial.legendre.leggauss(n_theta)  # t = cos(theta)
        phi = 2.0 * math.pi * np.arange(n_phi) / n_phi
        s = np.sqrt(1.0 - t**2)
        dirs = np.stack(
            [
                np.outer(s, np.cos(phi)).ravel(),
                np.outer(s, np.sin(phi)).ravel(),
                np.outer(t, np.ones(n_phi)).ravel(),
            ],
            axis=1,
        )
        wts = np.outer(w / 2.0, np.full(n_phi, 1.0 / n_phi)).ravel()
        return dirs, wts
    raise InvalidParameter("sphere rules are implemented for dim <= 3")


def spherical_average(f: ScalarField) -> ScalarField:
    """Average of f over the rotation orbit of each point.

    dim 1: (f(x) + f(-x))/2; higher dimensions: the weighted sphere rule of
    :func:`_unit_sphere_rule` applied at radius |x| (the orbit average only
    depends on |x|).  The result is rotation-invariant by construction up to
    discretization and carries no certificate.
    """
    if f.dim > 3:
        raise InvalidParameter("spherical averaging is implemented for dim <= 3")
    dirs, wts = _unit_sphere_rule(f.dim)

    def val(pts):
        radii = np.linalg.norm(pts, axis=1)
        spheres = radii[:, None, None] * dirs[None, :, :]
        vals = f(spheres.reshape(-1, f.dim)).reshape(pts.shape[0], dirs.shape[0])
        return vals @ wts

    return ScalarField(
        dim=f.dim,
        certificate="unverified",
        smooth=f.smooth,
        label=f"spherical_average({f.label})",
        _value=val,
    )


def sphere_rule(dim: int, center, radius: float, refine: int = 1) -> tuple[Array, Array]:
    """Weighted nodes on the sphere around ``center``; same discretization as
    averaging.  ``refine`` multiplies the node count (used to adjudicate
    candidate violations sitting within discretization error)."""
    center = np.asarray(center, dtype=float)
    dirs, wts = _unit_sphere_rule(dim, refine)
    return center[None, :] + radius * dirs, wts


def sphere_mean(fn: Callable[[Array], Array], dim: int, center, radius: float) -> float:
    """Weighted mean of ``fn`` over the discretized sphere around ``center``."""
    pts, wts = sphere_rule(dim, center, radius)
    return float(np.asarray(fn(pts), dtype=float) @ wts)


@dataclass
class MeanValueReport:
    """Outcome of a sub-mean-value test: mean over spheres >= center value."""

    passed: bool
    checked: int
    skipped: int
    tolerance: float
    violations: list  # entries (x, radius, sphere_mean, center_value)

    def worst_violation(self):
        if not self.violations:
            return None
        return min(self.violations, key=lambda v: v[2] - v[3])


def default_probes(dim: int, count: int = 64, seed: int = 11, radius: float = 2.5) -> Array:
    """Reproducible probe cloud inside the ball of the given radius."""
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((count, dim))
    norms = np.linalg.norm(pts, axis=1, keepdims=True)
    scales = radius * rng.random((count, 1)) ** (1.0 / dim)
    return pts / np.maximum(norms, 1e-12) * scales


def _sub_mean_test(
    fn: Callable[[Array], Array],
    dim: int,
    probes: Optional[Array] = None,
    radii: Sequence[float] = (0.05, 0.1, 0.2, 0.4),
    tol: float = 1e-7,
    seed: int = 11,
) -> MeanValueReport:
    if probes is None:
        probes = default_probes(dim, seed=seed)
    violations = []
    checked = 0
    for x in probes:
        cv = float(np.asarray(fn(x.reshape(1, -1)))[0])
        for r in radii:
            m = sphere_mean(fn, dim, x, r)
            checked += 1
            if m < cv - tol * max(1.0, abs(cv)):
                violations.append((x.copy(), float(r), m, cv))
    return MeanValueReport(
        passed=not violations, checked=checked, skipped=0, tolerance=tol, violations=violations
    )


def is_subharmonic(
    f, dim: Optional[int] = None, probes=None, radii=(0.05, 0.1, 0.2, 0.4), tol=1e-7, seed=11
) -> MeanValueReport:
    """Sphere sub-mean test applied to the field values themselves."""
    if isinstance(f, ScalarField):
        fn, dim = (lambda pts: f(pts)), f.dim
    else:
        if dim is None:
            raise InvalidParameter("dim required for bare callables")
        fn = f
    return _sub_mean_test(fn, dim, probes=probes, radii=radii, tol=tol, seed=seed)


def is_lsh(
    f: ScalarField,
    probes: Optional[Array] = None,
    radii: Sequence[float] = (0.05, 0.1, 0.2, 0.4),
    tol: float = 1e-7,
    seed: int = 11,
) -> MeanValueReport:
    """Numerical log-subharmonicity test.

    For each probe x and radius r the sphere mean of ln f must exceed
    ln f(x) - tol (scaled by the local magnitude of ln f).  Probes where f
    falls below the value floor are skipped and counted: ln f = -inf there
    satisfies the sub-mean inequality vacuously.  Sphere nodes landing on
    zeros are dropped; a probe with more than 10% dropped nodes is skipped.
    A candidate violation is confirmed on an 8x finer sphere rule before it
    is reported, so discretization error near log singularities cannot
    produce a false failure.
    """
    if probes is None:
        probes = default_probes(f.dim, seed=seed)
    violations = []
    checked = 0
    skipped = 0

    def log_sphere_mean(x, r, refine):
        pts, wts = sphere_rule(f.dim, x, r, refine=refine)
        vals = f(pts)
        ok = vals >= VALUE_FLOOR
        kept = float(wts[ok].sum())
        if kept < 0.9:
            return None
        return float((wts[ok] @ np.log(vals[ok])) / kept)

    for x in probes:
        cv = f(x)
        if cv < VALUE_FLOOR:
            skipped += 1
            continue
        lc = math.log(cv)
        for r in radii:
            m = log_sphere_mean(x, r, refine=1)
            if m is None:
                skipped += 1
                continue
            checked += 1
            local = tol * max(1.0, abs(lc))
            if m < lc - local and f.dim > 1:
                m = log_sphere_mean(x, r, refine=8)
                if m is None:
                    skipped += 1
                    continue
            if m < lc - local:
                violations.append((x.copy(), float(r), m, lc))
    return MeanValueReport(
        passed=not violations, checked=checked, skipped=skipped, tolerance=tol,
        violations=violations,
    )
