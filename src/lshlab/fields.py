"""Scalar fields with log-subharmonicity certificates.

A :class:`ScalarField` is an immutable composition tree over R^n.  The paper
works on the cone of log-subharmonic functions, so a certified field is
defined by one map in log space: a batch of points goes to (ln f, grad ln f),
with the gradient computed only when asked.  The certified builders give it
directly: ``constant``, ``log_linear``, ``cosh_field``, ``exp_subharmonic``
and ``exp_norm_sq``, ``modulus_holomorphic`` (grad ln|P| = (Re P'/P,
-Im P'/P), 0 at zeros of P), ``power`` (p times), ``product_field`` (a sum),
``dilate`` (r grad ln f(r x)) and ``convolve``.  ``ScalarField`` derives the
value f = e^{ln f}, ``log_value``, the gradient f grad ln f and
``value_and_gradient`` from that map in one place; compositions read the
inner map itself, so only the public ``log_value`` floors ln f at
``LOG_FLOOR``.  Certified fields are log-subharmonic by construction; the
certificate records the construction route and ``is_lsh`` provides the
falsifiable numerical test (sub-mean inequality of ln f over spheres).
Unverified fields (``raw_field``, ``squared_norm``, ``spherical_average``)
may be signed, so they alone keep a value map, with an optional gradient map.

A convolution sweeps the inner field over the mollifier nodes once for both
ln(f * phi) and grad ln(f * phi) = sum_i cg_i f(x - y_i) / sum_i c_i f(x - y_i).
The sweep sums the linear values of f; only rows whose sum is not a finite
positive number (f overflows or underflows there) are summed again from
ln f, each shifted by its largest value (log-sum-exp).

Point convention: a single point is a 1-D array of shape (dim,); a batch is a
2-D array of shape (m, dim).  All maps are vectorized over batches.  Fields
are immutable after construction and safe to evaluate from concurrent
contexts.
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
#: (points, grad) -> (ln f, grad ln f or None): the map that defines a certified field
LogMap = Callable[[Array, bool], tuple[Array, Optional[Array]]]

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


def _central_differences(fn: Callable[[Array], Array], pts: Array) -> Array:
    """Gradient of a vectorized map by central differences, one axis at a time."""
    g = np.empty_like(pts)
    for j in range(pts.shape[1]):
        h = _FD_STEP * np.maximum(1.0, np.abs(pts[:, j]))
        up = pts.copy()
        dn = pts.copy()
        up[:, j] += h
        dn[:, j] -= h
        g[:, j] = (np.asarray(fn(up), dtype=float) - np.asarray(fn(dn), dtype=float)) / (2.0 * h)
    return g


@dataclass(frozen=True)
class ScalarField:
    """A non-negative scalar field on R^n.

    ``certificate`` is the construction tag; everything except "unverified"
    is log-subharmonic by construction, must pass :func:`is_lsh` at random
    probes, and is defined by its log map ``_log``.  An unverified field is
    defined by its value map ``_value`` and an optional ``_gradient``;
    ``smooth`` permits finite-difference derivatives when it has none.
    """

    dim: int
    certificate: str
    smooth: bool
    label: str
    _log: Optional[LogMap] = field(repr=False, default=None)
    _value: Optional[Callable[[Array], Array]] = field(repr=False, default=None)
    _gradient: Optional[Callable[[Array], Array]] = field(repr=False, default=None)

    def __post_init__(self):
        if self.certificate not in CERTIFICATES:
            raise InvalidParameter(f"unknown certificate tag {self.certificate!r}")
        if self.dim < 1:
            raise InvalidParameter("dim must be a positive integer")
        if (self._log is None) != (self.certificate == "unverified"):
            raise InvalidParameter(
                "a certified field is defined by its log map, an unverified one by its values")

    def __call__(self, x):
        pts, single = _batch(x, self.dim)
        if self._log is None:
            v = np.asarray(self._value(pts), dtype=float)
        else:
            # an overflow gives inf silently: an integral turns it into a
            # QuadratureFailure carrying the point
            with np.errstate(over="ignore"):
                v = np.exp(self._log(pts, False)[0])
        return float(v[0]) if single else v

    def log_value(self, x, grad: bool = False):
        """ln f(x), floored at ``LOG_FLOOR``; with ``grad``, (ln f(x), grad ln f(x)).

        An unverified field takes both from its values, floored at VALUE_FLOOR.
        """
        pts, single = _batch(x, self.dim)
        if self._log is not None:
            lv, dlv = self._log(pts, grad)
        else:
            v = np.maximum(np.asarray(self._value(pts), dtype=float), VALUE_FLOOR)
            lv, dlv = np.log(v), (self._linear_gradient(pts) / v[:, None] if grad else None)
        lv = np.maximum(lv, LOG_FLOOR)
        if single:
            return (float(lv[0]), dlv[0]) if grad else float(lv[0])
        return (lv, dlv) if grad else lv

    def gradient(self, x):
        """grad f(x): f grad ln f for a certified field; for an unverified one
        its gradient map, else central differences (smooth fields only)."""
        pts, single = _batch(x, self.dim)
        g = self.value_and_gradient(pts)[1]
        return g[0] if single else g

    def value_and_gradient(self, x):
        """(f(x), grad f(x)) from one evaluation of the log map."""
        pts, single = _batch(x, self.dim)
        if self._log is None:
            v, g = np.asarray(self._value(pts), dtype=float), self._linear_gradient(pts)
        else:
            lv, dlv = self._log(pts, True)
            # inf * 0 where f overflows: the NaN fails an integral, with its witness
            with np.errstate(over="ignore", invalid="ignore"):
                v = np.exp(lv)
                g = v[:, None] * dlv
        return (float(v[0]), g[0]) if single else (v, g)

    def _linear_gradient(self, pts: Array) -> Array:
        if self._gradient is not None:
            return np.asarray(self._gradient(pts), dtype=float)
        if self.smooth:
            return _central_differences(self._value, pts)
        raise InvalidParameter(
            f"field {self.label!r} has no gradient and is not flagged smooth"
        )


def euler(f: ScalarField, x):
    """Euler operator Ef(x) = x . grad f(x), the dilation-semigroup generator."""
    pts, single = _batch(x, f.dim)
    e = np.einsum("ij,ij->i", pts, f.gradient(pts))
    return float(e[0]) if single else e


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def _certified(label: str, dim: int, certificate: str, log: LogMap) -> ScalarField:
    return ScalarField(dim=dim, certificate=certificate, smooth=True, label=label, _log=log)


def _needs_log_map(*fs: ScalarField):
    for f in fs:
        if f.certificate == "unverified":
            raise InvalidParameter(
                f"field {f.label!r} is unverified; compositions need a certified field")


def constant(value: float, dim: int = 1) -> ScalarField:
    if value < 0:
        raise InvalidParameter("constant fields must be non-negative")
    c = float(value)
    logc = math.log(c) if c > 0 else LOG_FLOOR
    return _certified(f"constant({c:g})", dim, "log_linear", lambda pts, grad: (
        np.full(pts.shape[0], logc), np.zeros_like(pts) if grad else None))


def log_linear(lam) -> ScalarField:
    """f(x) = exp(lam . x); ln f is linear, hence harmonic."""
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    if not np.all(np.isfinite(lam)):
        raise InvalidParameter("log_linear requires a finite coefficient vector")
    return _certified(
        f"log_linear({np.array2string(lam, separator=',')})", lam.shape[0], "log_linear",
        lambda pts, grad: (pts @ lam, np.tile(lam, (pts.shape[0], 1)) if grad else None))


def cosh_field(lam: float) -> ScalarField:
    """f(x) = cosh(lam x) on R; (ln cosh)'' = lam^2 sech^2 > 0, so ln f is convex."""
    lam = float(lam)

    def log(pts, grad):
        t = lam * pts[:, 0]
        return (np.logaddexp(t, -t) - math.log(2.0),
                (lam * np.tanh(t))[:, None] if grad else None)

    return _certified(f"cosh_field({lam:g})", 1, "exp_subharmonic", log)


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

    ``u`` must be vectorized over (m, dim) batches; grad ln f = grad u comes
    from ``grad_u``, or from central differences of u without it.
    Construction is rejected, with a witness point, when u fails the sphere
    sub-mean test at random probes.
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
    du = grad_u or (lambda pts: _central_differences(u, pts))
    return _certified(label, dim, "exp_subharmonic", lambda pts, grad: (
        np.asarray(u(pts), dtype=float), np.asarray(du(pts), dtype=float) if grad else None))


def exp_norm_sq(lam: float, dim: int) -> ScalarField:
    """f(x) = exp(lam |x|^2) with lam >= 0; rotation-invariant and LSH."""
    lam = float(lam)
    if lam < 0:
        raise InvalidParameter("exp_norm_sq requires lam >= 0")
    return exp_subharmonic(
        lambda pts: lam * np.sum(pts * pts, axis=1),
        dim,
        grad_u=lambda pts: 2.0 * lam * pts,
        label=f"exp_norm_sq({lam:g})",
        verify=False,
    )


def modulus_holomorphic(coeffs: Sequence[complex]) -> ScalarField:
    """f(x, y) = |P(x + iy)| for a polynomial P; ln|P| is subharmonic on R^2.

    ``coeffs`` are ascending-order polynomial coefficients.  grad ln|P| is
    (Re P'/P, -Im P'/P), and 0 where |P| is below VALUE_FLOOR.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    if coeffs.ndim != 1 or coeffs.size == 0:
        raise InvalidParameter("coeffs must be a non-empty 1-D sequence")
    dcoeffs = np.polynomial.polynomial.polyder(coeffs)

    def log(pts, grad):
        z = pts[:, 0] + 1j * pts[:, 1]
        w = np.polynomial.polynomial.polyval(z, coeffs)
        aw = np.abs(w)
        with np.errstate(divide="ignore"):
            lv = np.log(aw)
        if not grad:
            return lv, None
        zero = aw < VALUE_FLOOR
        wp = np.polynomial.polynomial.polyval(z, dcoeffs) if dcoeffs.size else np.zeros_like(z)
        ratio = np.where(zero, 0.0, wp / np.where(zero, 1.0, w))
        return lv, np.stack([ratio.real, -ratio.imag], axis=1)

    return _certified(f"modulus_holomorphic(deg={coeffs.size - 1})", 2,
                      "modulus_holomorphic", log)


def power(f: ScalarField, p: float) -> ScalarField:
    """f^p for p > 0; preserves log-subharmonicity (ln f^p = p ln f)."""
    p = float(p)
    if p <= 0:
        raise InvalidParameter("power exponent must be > 0")
    _needs_log_map(f)

    def log(pts, grad):
        lv, dlv = f._log(pts, grad)
        return p * lv, (p * dlv if grad else None)

    return _certified(f"power({f.label}, {p:g})", f.dim, "power", log)


def product_field(f: ScalarField, g: ScalarField) -> ScalarField:
    """Pointwise product; ln(fg) = ln f + ln g stays subharmonic."""
    if f.dim != g.dim:
        raise InvalidParameter("product factors must share a dimension")
    _needs_log_map(f, g)

    def log(pts, grad):
        (lf, dlf), (lg, dlg) = f._log(pts, grad), g._log(pts, grad)
        return lf + lg, (dlf + dlg if grad else None)

    return _certified(f"product({f.label}, {g.label})", f.dim, "product", log)


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
    _needs_log_map(f)

    def log(pts, grad):
        lv, dlv = f._log(r * pts, grad)
        return lv, (r * dlv if grad else None)

    return _certified(f"dilate({f.label}, {r:g})", f.dim, "dilation", log)


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

    Preserves the log-subharmonic cone and yields a C-infinity field.  With
    c_i = w_i phi(y_i) and cg_i = w_i grad phi(y_i) on the mollifier nodes y_i,
    ln(f * phi)(x) = ln sum_i c_i f(x - y_i) and grad ln(f * phi)(x) =
    sum_i cg_i f(x - y_i) / sum_i c_i f(x - y_i), both from one sweep of f
    against the stacked weights [c | cg].  The sweep sums values of f; a row
    whose sum is not a finite positive number is summed again from ln f,
    shifted by its largest value over the nodes where c_i > 0.
    """
    if f.dim != phi.dim:
        raise InvalidParameter("field and mollifier dimensions differ")
    _needs_log_map(f)
    y, c, cg = _ball_nodes(phi)
    c_cg = np.column_stack([c, cg])
    live = c > 0

    def blocks(pts: Array):
        # x - y for one row block of points at a time, so no (points, nodes)
        # matrix is kept: (first row, rows, the block's points as (rows * nodes, dim))
        if pts.shape[0] * y.shape[0] > CONV_MAX_PAIRS:
            raise InvalidParameter(
                f"convolution sweep of {pts.shape[0]} points x {y.shape[0]} nodes = "
                f"{pts.shape[0] * y.shape[0]:.3g} pairs exceeds CONV_MAX_PAIRS = "
                f"{CONV_MAX_PAIRS:.3g}; integrate on fewer nodes")
        block = max(1, _CONV_BLOCK_PAIRS // max(1, y.shape[0]))
        shifted = np.empty((min(block, pts.shape[0]), y.shape[0], f.dim))
        for lo in range(0, pts.shape[0], block):
            chunk = pts[lo : lo + block]
            shifted = shifted[: chunk.shape[0]]
            # one coordinate at a time: a broadcast over the length-dim last
            # axis would run one short inner loop per point-node pair
            for j in range(f.dim):
                np.subtract(chunk[:, j, None], y[None, :, j], out=shifted[:, :, j])
            yield lo, chunk.shape[0], shifted.reshape(-1, f.dim)

    def sweep(pts: Array, weights: Array) -> Array:
        out = np.empty((pts.shape[0],) + weights.shape[1:])
        with np.errstate(over="ignore", invalid="ignore"):
            for lo, rows, shifted in blocks(pts):
                out[lo : lo + rows] = f(shifted).reshape(rows, -1) @ weights
        return out

    def log_sweep(pts: Array, weights: Array) -> tuple[Array, Array]:
        # (top, sums): the sums of the sweep times e^{-top}, top the row's largest ln f
        top = np.empty(pts.shape[0])
        out = np.empty((pts.shape[0],) + weights.shape[1:])
        for lo, rows, shifted in blocks(pts):
            lf = np.where(live, f._log(shifted, False)[0].reshape(rows, -1), -np.inf)
            top[lo : lo + rows] = lf.max(axis=1)
            out[lo : lo + rows] = np.exp(lf - top[lo : lo + rows, None]) @ weights
        return top, out

    def log(pts, grad):
        weights = c_cg if grad else c
        sums = sweep(pts, weights).reshape(pts.shape[0], -1)
        top = np.zeros(pts.shape[0])
        redo = ~(np.isfinite(sums).all(axis=1) & (sums[:, 0] > 0))
        if np.any(redo):
            top[redo], again = log_sweep(pts[redo], weights)
            sums[redo] = again.reshape(-1, sums.shape[1])
        return top + np.log(sums[:, 0]), (sums[:, 1:] / sums[:, :1] if grad else None)

    return _certified(f"convolve({f.label}, k={phi.scale_index:g})", f.dim, "mollified", log)


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
