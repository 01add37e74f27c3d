"""Scalar fields, certified log-subharmonic by construction.

A :class:`ScalarField` is an immutable composition tree over R^n.  The paper
works on the cone of log-subharmonic functions, so a certified field is
defined by one map in log space: a batch of points goes to (ln f, grad ln f),
with the gradient computed only when asked.  The certified builders give it
directly: ``constant``, ``log_linear``, ``cosh_field``, ``exp_subharmonic``
and ``exp_norm_sq``, ``modulus_holomorphic`` (grad ln|P| = (Re P'/P,
-Im P'/P), 0 at zeros of P), ``power`` (p times), ``product_field`` (a sum),
``dilate`` (r grad ln f(r x)) and ``convolve``.  ``ScalarField`` derives the
value f = e^{ln f}, ``log_value`` (with ``grad``, ln f and grad ln f from one
evaluation) and the gradient f grad ln f from that map in one place;
compositions read the inner map itself, so only the public ``log_value``
floors ln f at ``LOG_FLOOR``.  A field is certified exactly when it has a log map
(``ScalarField.certified``); certified fields are log-subharmonic by
construction, their ``label`` records that construction, and ``is_lsh`` is
the falsifiable test, the sphere sub-mean scan on the unfloored log map.  One
scan, with one skip and NaN rule, serves ``is_lsh``, ``is_subharmonic`` and
the check of ``exp_subharmonic``.  Unverified fields (``raw_field``,
``squared_norm``, ``spherical_average``) may be signed, so they alone keep a
value map, with an optional gradient map (central differences without one).

A convolution sweeps the inner field over the mollifier nodes once for both
ln(f * phi) and grad ln(f * phi) = sum_i cg_i f(x - y_i) / sum_i c_i f(x - y_i).
The nodes are one polar rule on the unit ball (Gauss-Legendre radii times
sphere directions), which also normalises the bump and gives its norms as
radial sums.  The sweep is one log-sum-exp per point: it reads the inner
log map, unfloored, at the shifted nodes x - y_i, subtracts the row's largest
value t(x) and sums e^{ln f - t} against the weights, so ln(f * phi) = t +
ln sum_i c_i e^{ln f(x - y_i) - t} keeps full precision where f itself
would overflow or be subnormal.  It runs on the thread that calls it, in row
blocks of a fixed size.

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
from .quadrature import _logsumexp, _unit_sphere_rule

Array = np.ndarray
#: (points, grad) -> (ln f, grad ln f or None): the map that defines a certified
#: field.  It returns new arrays, which the caller may overwrite
LogMap = Callable[[Array, bool], tuple[Array, Optional[Array]]]

#: values below this floor are treated as exact zeros (0 * ln 0 = 0 convention)
VALUE_FLOOR = 1e-300
#: log of the smallest positive value we ever report
LOG_FLOOR = -750.0
_FD_STEP = float(np.finfo(float).eps) ** (1.0 / 3.0)


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

    A certified field is defined by its log map ``_log``; it is
    log-subharmonic by construction and must pass :func:`is_lsh` at random
    probes.  An unverified field is defined by its value map ``_value`` and an
    optional ``_gradient``, central differences of the values without one.
    """

    dim: int
    label: str
    _log: Optional[LogMap] = field(repr=False, default=None)
    _value: Optional[Callable[[Array], Array]] = field(repr=False, default=None)
    _gradient: Optional[Callable[[Array], Array]] = field(repr=False, default=None)

    def __post_init__(self):
        if self.dim < 1:
            raise InvalidParameter("dim must be a positive integer")
        if (self._log is None) == (self._value is None):
            raise InvalidParameter(
                "a field is defined by either its log map (certified) or its values")

    @property
    def certified(self) -> bool:
        """Log-subharmonic by construction: the field has a log map."""
        return self._log is not None

    def __call__(self, x):
        pts, single = _batch(x, self.dim)
        if self._log is None:
            v = np.asarray(self._value(pts), dtype=float)
        else:
            # an overflow gives inf silently: an integral turns it into a
            # QuadratureFailure whose witness is the point
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
        its gradient map, else central differences."""
        pts, single = _batch(x, self.dim)
        if self._log is None:
            g = self._linear_gradient(pts)
        else:
            lv, dlv = self._log(pts, True)
            # inf * 0 where f overflows: the NaN fails an integral, with its witness
            with np.errstate(over="ignore", invalid="ignore"):
                g = np.exp(lv)[:, None] * dlv
        return g[0] if single else g

    def _linear_gradient(self, pts: Array) -> Array:
        if self._gradient is not None:
            return np.asarray(self._gradient(pts), dtype=float)
        return _central_differences(self._value, pts)


def euler(f: ScalarField, x):
    """Euler operator Ef(x) = x . grad f(x), the dilation-semigroup generator."""
    pts, single = _batch(x, f.dim)
    e = np.einsum("ij,ij->i", pts, f.gradient(pts))
    return float(e[0]) if single else e


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def _certified(label: str, dim: int, log: LogMap) -> ScalarField:
    return ScalarField(dim=dim, label=label, _log=log)


def _needs_log_map(*fs: ScalarField):
    for f in fs:
        if not f.certified:
            raise InvalidParameter(
                f"field {f.label!r} is unverified; compositions need a certified field")


def constant(value: float, dim: int = 1) -> ScalarField:
    if value < 0:
        raise InvalidParameter("constant fields must be non-negative")
    c = float(value)
    logc = math.log(c) if c > 0 else LOG_FLOOR
    return _certified(f"constant({c:g})", dim, lambda pts, grad: (
        np.full(pts.shape[0], logc), np.zeros_like(pts) if grad else None))


def log_linear(lam) -> ScalarField:
    """f(x) = exp(lam . x); ln f is linear, hence harmonic."""
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    if not np.all(np.isfinite(lam)):
        raise InvalidParameter("log_linear requires a finite coefficient vector")
    return _certified(
        f"log_linear({np.array2string(lam, separator=',')})", lam.shape[0],
        lambda pts, grad: (pts @ lam, np.tile(lam, (pts.shape[0], 1)) if grad else None))


def cosh_field(lam: float) -> ScalarField:
    """f(x) = cosh(lam x) on R; (ln cosh)'' = lam^2 sech^2 > 0, so ln f is convex."""
    lam = float(lam)

    def log(pts, grad):
        t = lam * pts[:, 0]
        return (np.logaddexp(t, -t) - math.log(2.0),
                (lam * np.tanh(t))[:, None] if grad else None)

    return _certified(f"cosh_field({lam:g})", 1, log)


def exp_subharmonic(
    u: Callable[[Array], Array],
    dim: int,
    grad_u: Optional[Callable[[Array], Array]] = None,
    label: str = "exp_subharmonic(u)",
    *,
    verify: bool = True,
) -> ScalarField:
    """f = exp(u) for a (numerically verified) subharmonic u.

    ``u`` must be vectorized over (m, dim) batches and return an array the
    caller may overwrite (see ``LogMap``); grad ln f = grad u comes
    from ``grad_u``, or from central differences of u without it.
    Construction is rejected, with a witness point, when u fails the sphere
    sub-mean test at random probes.
    """
    if verify:
        rep = _sub_mean_test(u, dim, seed=7)
        if not rep.passed:
            x, r, mean, center = rep.violations[0]
            raise SubharmonicityError(
                f"u fails the sphere-mean test at x={x}, radius {r:g}: "
                f"mean {mean:.6g} < value {center:.6g}",
                witness=x,
            )
    du = grad_u or (lambda pts: _central_differences(u, pts))
    return _certified(label, dim, lambda pts, grad: (
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

    return _certified(f"modulus_holomorphic(deg={coeffs.size - 1})", 2, log)


def power(f: ScalarField, p: float) -> ScalarField:
    """f^p for p > 0; preserves log-subharmonicity (ln f^p = p ln f)."""
    p = float(p)
    if p <= 0:
        raise InvalidParameter("power exponent must be > 0")
    _needs_log_map(f)

    def log(pts, grad):
        lv, dlv = f._log(pts, grad)
        return p * lv, (p * dlv if grad else None)

    return _certified(f"power({f.label}, {p:g})", f.dim, log)


def product_field(f: ScalarField, g: ScalarField) -> ScalarField:
    """Pointwise product; ln(fg) = ln f + ln g stays subharmonic."""
    if f.dim != g.dim:
        raise InvalidParameter("product factors must share a dimension")
    _needs_log_map(f, g)

    def log(pts, grad):
        (lf, dlf), (lg, dlg) = f._log(pts, grad), g._log(pts, grad)
        return lf + lg, (dlf + dlg if grad else None)

    return _certified(f"product({f.label}, {g.label})", f.dim, log)


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

    return _certified(f"dilate({f.label}, {r:g})", f.dim, log)


def raw_field(
    fn: Callable[[Array], Array],
    dim: int,
    grad: Optional[Callable[[Array], Array]] = None,
    label: str = "raw_field",
) -> ScalarField:
    """Wrap an arbitrary vectorized map as an unverified field.

    No non-negativity or subharmonicity is asserted; such fields are only
    accepted where the operation at hand does not require a certified field
    (spherical averaging, ad-hoc probing).  Without ``grad`` the gradient is
    taken by central differences.
    """
    return ScalarField(
        dim=dim,
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

#: Gauss-Legendre nodes of the radial part of the unit-ball rule
_BALL_RADII = 32
#: directions of the unit-ball rule (see _unit_sphere_rule): the two endpoints
#: in 1-D, 16 angles in 2-D, 5 polar angles times 10 azimuths in 3-D
_BALL_DIRECTIONS = {1: 2, 2: 16, 3: 5}


def _ball_volume(dim: int, radius: float = 1.0) -> float:
    """Lebesgue volume of the ball of the given radius in R^dim."""
    return math.pi ** (dim / 2.0) / math.gamma(dim / 2.0 + 1.0) * radius**dim


@lru_cache(maxsize=None)
def _unit_ball_rule(dim: int) -> tuple[Array, Array, Array, Array]:
    """Polar rule on the unit ball: (rho, w, dirs, dw), so that the integral
    of F over |y| < 1 is ~= sum_ij w_i dw_j F(rho_i dirs_j).

    sum_j dw_j = 1 and w carries the sphere area and the rho^{n-1} Jacobian,
    so a radial integrand needs the radial sum alone.  The radial part is
    exact for rho^{n-1} times a polynomial in rho^2 of degree below 64: the
    positive half of 64-node Gauss-Legendre in rho in odd dimension (the
    integrand is even), 32-node Gauss-Legendre in u = rho^2 in even dimension.
    """
    if dim not in _BALL_DIRECTIONS:
        raise InvalidParameter("mollifiers are implemented for dim <= 3")
    if dim % 2:
        t, w = np.polynomial.legendre.leggauss(2 * _BALL_RADII)
        rho, w = t[_BALL_RADII:], w[_BALL_RADII:] * t[_BALL_RADII:] ** (dim - 1)
    else:
        t, w = np.polynomial.legendre.leggauss(_BALL_RADII)
        u = (t + 1.0) / 2.0
        rho, w = np.sqrt(u), w / 4.0 * u ** (dim / 2.0 - 1.0)
    dirs, dw = _unit_sphere_rule(dim, _BALL_DIRECTIONS[dim])
    return rho, dim * _ball_volume(dim) * w, dirs, dw


@dataclass(frozen=True)
class Mollifier:
    """Smooth unit-mass bump supported in the ball of radius ``support_radius``.

    The profile is the standard bump amplitude * exp(-1/(1 - |x/s|^2)), with
    the amplitude fixed so that its mass on the unit-ball rule is 1.  The
    family is closed under the mass-preserving rescaling s -> s/k, which keeps
    Vol(supp) * ||.||_{p'}^p constant across scales.
    """

    dim: int
    scale_index: float
    support_radius: float
    amplitude: float

    def _profile(self, pts: Array) -> tuple[Array, Array]:
        """(phi, 1 - |x/s|^2 inside the support and 1 outside) at a batch."""
        t = np.sum((pts / self.support_radius) ** 2, axis=1)
        one_m = np.where(t < 1.0, 1.0 - t, 1.0)
        return np.where(t < 1.0, self.amplitude * np.exp(-1.0 / one_m), 0.0), one_m

    def __call__(self, x):
        pts, single = _batch(x, self.dim)
        v = self._profile(pts)[0]
        return float(v[0]) if single else v

    def gradient(self, x):
        pts, single = _batch(x, self.dim)
        v, one_m = self._profile(pts)
        g = (-2.0 * v / (self.support_radius * one_m) ** 2)[:, None] * pts
        return g[0] if single else g

    @property
    def vol_support(self) -> float:
        return _ball_volume(self.dim, self.support_radius)

    @property
    def sup_value(self) -> float:
        return self.amplitude * math.exp(-1.0)

    def _log_norm(self, p: float) -> float:
        """ln of the integral of phi^p dx, a log-sum-exp over the unit-ball
        rule's radii, so phi^p neither overflows nor underflows at large p."""
        rho, w, _, _ = _unit_ball_rule(self.dim)
        return _logsumexp(np.log(self.support_radius**self.dim * w)
                          + p * (math.log(self.amplitude) - 1.0 / (1.0 - rho**2)))

    def mass(self) -> float:
        """Total mass on the unit-ball rule (1 up to round-off)."""
        return math.exp(self._log_norm(1.0))

    def lebesgue_norm(self, p: float) -> float:
        """(integral of phi^p dx)^(1/p) against Lebesgue measure; p = inf -> sup."""
        if p == math.inf:
            return self.sup_value
        return math.exp(self._log_norm(p) / p)


def mollifier(dim: int, k: float) -> Mollifier:
    """Scale-k member of the mollifier family, for any real k >= 1: the
    unit-mass bump supported in the ball of radius 1 / k."""
    if not k >= 1:
        raise InvalidParameter(f"scale index k must be a number >= 1, got {k}")
    unit = Mollifier(dim=dim, scale_index=float(k), support_radius=1.0 / k, amplitude=1.0)
    return replace(unit, amplitude=1.0 / unit.mass())


#: point-node pairs per row block of a convolution sweep: the block's buffers
#: (shifted points, 16 bytes a pair in 2-D, and ln f) stay a couple of MB,
#: within cache reach, however many points are swept.  The block boundaries
#: reach the last bits of the output, so a new value changes results
_CONV_BLOCK_PAIRS = 100_000
#: point-node pairs one convolution sweep may take (about 2 s at the 1.2e8
#: and 0.9e8 pairs/s of a log-linear inner field in 2-D and 3-D with one BLAS
#: thread).  The polar Gauss-Hermite defaults fit: 1,700 points x 512 nodes =
#: 8.7e5 in 2-D and 28,900 x 1,600 = 4.6e7 in 3-D; so does the 2-D trapezoid
#: default, 257^2 x 512 = 3.4e7, while the 3-D trapezoid default (65^3 x
#: 1,600 = 4.4e8) is refused before any work
CONV_MAX_PAIRS = 200_000_000


def _ball_nodes(phi: Mollifier) -> tuple[Array, Array, Array]:
    """The unit-ball rule on the support of ``phi``: (y, c, cg).

    c_i = w_i * phi(y_i) and cg_i = w_i * grad phi(y_i), so that
    (f * phi)(x) ~= sum_i c_i f(x - y_i) and sum_i c_i = 1 up to round-off.
    Nodes whose weight underflows to 0 near the edge of the support are
    dropped, so every c_i is positive.
    """
    rho, w, dirs, dw = _unit_ball_rule(phi.dim)
    s = phi.support_radius
    y = (s * rho[:, None, None] * dirs[None]).reshape(-1, phi.dim)
    wts = s**phi.dim * np.outer(w, dw).ravel()
    c = wts * phi(y)
    keep = c > 0
    return y[keep], c[keep], wts[keep, None] * phi.gradient(y[keep])


def convolve(f: ScalarField, phi: Mollifier) -> ScalarField:
    """Smoothing convolution (f * phi)(x) = integral of f(x - y) phi(y) dy.

    Preserves the log-subharmonic cone and yields a C-infinity field.  With
    c_i = w_i phi(y_i) and cg_i = w_i grad phi(y_i) on the polar nodes y_i of
    :func:`_ball_nodes` (64 in 1-D, 512 in 2-D, 1,600 in 3-D),
    ln(f * phi)(x) = ln sum_i c_i f(x - y_i) and grad ln(f * phi)(x) =
    sum_i cg_i f(x - y_i) / sum_i c_i f(x - y_i), both from one sweep of f
    against the stacked weights [c | cg].  The sweep works in log space: with
    t(x) the largest ln f(x - y_i) of the row, it sums e^{ln f(x - y_i) - t},
    so ln(f * phi) = t + ln of the first sum and the gradient is the ratio of
    the sums, whatever the size of f.  A sweep over ``CONV_MAX_PAIRS``
    point-node pairs is refused before any work.

    The points are swept in row blocks of ``_CONV_BLOCK_PAIRS`` point-node
    pairs, one after another on the calling thread, so a sweep's memory does
    not grow with its point count.  A log-linear inner field sweeps about
    1.2e8 pairs/s in 2-D and 0.9e8 in 3-D with one BLAS thread.
    """
    if f.dim != phi.dim:
        raise InvalidParameter("field and mollifier dimensions differ")
    _needs_log_map(f)
    y, c, cg = _ball_nodes(phi)
    c_cg = np.column_stack([c, cg])
    block = max(1, _CONV_BLOCK_PAIRS // y.shape[0])

    def log(pts, grad):
        if pts.shape[0] * y.shape[0] > CONV_MAX_PAIRS:
            raise InvalidParameter(
                f"convolution sweep of {pts.shape[0]} points x {y.shape[0]} nodes = "
                f"{pts.shape[0] * y.shape[0]:.3g} pairs exceeds CONV_MAX_PAIRS = "
                f"{CONV_MAX_PAIRS:.3g}; integrate on fewer nodes")
        weights = c_cg if grad else c[:, None]
        top = np.empty(pts.shape[0])
        sums = np.empty((pts.shape[0], weights.shape[1]))

        def sweep(lo):
            # x - y for one row block of points, so no (points, nodes) matrix
            # is kept
            chunk = pts[lo : lo + block]
            rows = chunk.shape[0]
            shifted = np.empty((rows, y.shape[0], f.dim))
            # one coordinate at a time: a broadcast over the length-dim last
            # axis would run one short inner loop per point-node pair
            for j in range(f.dim):
                np.subtract(chunk[:, j, None], y[None, :, j], out=shifted[:, :, j])
            lf = f._log(shifted.reshape(-1, f.dim), False)[0].reshape(rows, -1)
            top[lo : lo + rows] = lf.max(axis=1)
            lf -= top[lo : lo + rows, None]
            sums[lo : lo + rows] = np.exp(lf, out=lf) @ weights

        # a block's buffers are freed when its call returns, so the next
        # block reuses their memory while it is still in cache
        for lo in range(0, pts.shape[0], block):
            sweep(lo)
        return top + np.log(sums[:, 0]), (sums[:, 1:] / sums[:, :1] if grad else None)

    return _certified(f"convolve({f.label}, k={phi.scale_index:g})", f.dim, log)


def dilated_convolve(f: ScalarField, phi: Mollifier, r: float) -> ScalarField:
    """Smooth-then-shrink: x -> (f * phi)(rx) for r in (0, 1)."""
    r = float(r)
    if not (0.0 < r < 1.0):
        raise InvalidParameter(f"dilated convolution requires r in (0, 1), got {r}")
    return dilate(convolve(f, phi), r)


# ---------------------------------------------------------------------------
# spherical averaging and the sub-mean scan
# ---------------------------------------------------------------------------

_DIM2_ANGLES = 64


def sphere_rule(dim: int, refine: int = 1) -> tuple[Array, Array]:
    """Unit directions and weights shared by averaging and the sub-mean scan:
    64 angles in 2-D, 16 polar angles in 3-D, times ``refine``."""
    return _unit_sphere_rule(dim, refine * (16 if dim == 3 else _DIM2_ANGLES))


def spherical_average(f: ScalarField) -> ScalarField:
    """Average of f over the rotation orbit of each point.

    dim 1: (f(x) + f(-x))/2; higher dimensions: the weighted sphere rule of
    :func:`sphere_rule` applied at radius |x| (the orbit average only
    depends on |x|).  The result is rotation-invariant by construction up to
    discretization and is unverified.
    """
    if f.dim > 3:
        raise InvalidParameter("spherical averaging is implemented for dim <= 3")
    return raw_field(lambda pts: np.matmul(*orbit_values(f, pts)), f.dim,
                     label=f"spherical_average({f.label})")


def orbit_values(f: ScalarField, pts: Array) -> tuple[Array, Array]:
    """f on the :func:`sphere_rule` orbit |x| dirs of each point x, as a
    (points, directions) array, and the rule's weights."""
    dirs, wts = sphere_rule(f.dim)
    spheres = np.linalg.norm(pts, axis=1)[:, None, None] * dirs[None, :, :]
    return f(spheres.reshape(-1, f.dim)).reshape(pts.shape[0], dirs.shape[0]), wts


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


def default_probes(dim: int, count: int = 64, seed: int = 11) -> Array:
    """Reproducible probe cloud inside the ball of radius 2.5."""
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((count, dim))
    norms = np.linalg.norm(pts, axis=1, keepdims=True)
    scales = 2.5 * rng.random((count, 1)) ** (1.0 / dim)
    return pts / np.maximum(norms, 1e-12) * scales


def _sub_mean_test(
    fn: Callable[[Array], Array],
    dim: int,
    probes: Optional[Array] = None,
    seed: int = 11,
) -> MeanValueReport:
    """The sphere sub-mean scan: the mean of ``fn`` over each sphere of radius
    0.05, 0.1, 0.2 and 0.4 around each probe must be >= fn(probe) - tol *
    max(1, |fn(probe)|), tol = 1e-7.

    ``fn`` is evaluated on the probes, then on the probe x radius x direction
    nodes one probe's spheres a call (one sphere on the finer rule), so a
    costly map such as a 3-D convolution sees no more points a call than one
    probe needs.  -inf (ln f at a zero of f) is the one value set aside: a
    probe where fn is -inf is skipped, counted once; -inf nodes are dropped
    from their sphere's mean, and a sphere that loses over 10% of its weight
    is skipped.  A NaN is a violation; a center that overflowed to +inf
    passes, as no float mean can fall below it.  In dim > 1 a candidate
    violation is re-taken on the 8x finer rule, so discretization error near
    a log singularity cannot fail the test.
    """
    probes = default_probes(dim, seed=seed) if probes is None else np.asarray(probes, dtype=float)
    radii, tol = np.array([0.05, 0.1, 0.2, 0.4]), 1e-7
    cv = np.asarray(fn(probes), dtype=float)
    live = np.flatnonzero(cv != -np.inf)
    # one sphere per live probe and radius, probe-major
    x = np.repeat(probes[live], radii.shape[0], axis=0)
    r = np.tile(radii, live.shape[0])
    c = np.repeat(cv[live], radii.shape[0])
    # nodes of one probe's spheres on the base rule: the most fn sees a call
    per_call = radii.shape[0] * sphere_rule(dim)[1].shape[0]

    def means(idx, refine):
        # (mean over each sphere idx with its -inf nodes dropped, weight kept)
        dirs, wts = sphere_rule(dim, refine)
        sums = np.empty((2, idx.shape[0]))
        block = max(1, per_call // wts.shape[0])
        for lo in range(0, idx.shape[0], block):
            i = idx[lo : lo + block]
            nodes = (x[i, None, :] + r[i, None, None] * dirs).reshape(-1, dim)
            vals = np.asarray(fn(nodes), dtype=float).reshape(i.shape[0], -1)
            zero = vals == -np.inf
            sums[:, lo : lo + block] = np.where(zero, 0.0, vals) @ wts, ~zero @ wts
        with np.errstate(divide="ignore", invalid="ignore"):
            return sums[0] / sums[1], sums[1]

    with np.errstate(invalid="ignore"):
        floor = c - tol * np.maximum(1.0, np.abs(c))
    m, kept = means(np.arange(c.shape[0]), 1)
    # written as "not >=" so that a NaN fails
    bad = (kept >= 0.9) & ~(m >= floor) & (c != np.inf)
    checked = int((kept >= 0.9).sum())
    skipped = probes.shape[0] - live.shape[0] + c.shape[0] - checked
    if dim > 1 and bad.any():
        idx = np.flatnonzero(bad)
        m[idx], kept = means(idx, 8)
        skipped += int((kept < 0.9).sum())
        bad[idx] = (kept >= 0.9) & ~(m[idx] >= floor[idx]) & (c[idx] != np.inf)
    violations = [(x[i].copy(), float(r[i]), float(m[i]), float(c[i]))
                  for i in np.flatnonzero(bad)]
    return MeanValueReport(passed=not violations, checked=checked, skipped=skipped,
                           tolerance=tol, violations=violations)


def is_subharmonic(f: ScalarField, seed: int = 11) -> MeanValueReport:
    """Sphere sub-mean test applied to the field values themselves."""
    return _sub_mean_test(f, f.dim, seed=seed)


def is_lsh(f: ScalarField, probes: Optional[Array] = None, seed: int = 11) -> MeanValueReport:
    """Numerical log-subharmonicity test: the sub-mean scan of
    :func:`_sub_mean_test` on ln f, so probes on zeros of f are skipped and
    sphere nodes on zeros dropped.

    A certified field is scanned on its log map, unfloored: ln f never goes
    through f = e^{ln f}, which overflows or underflows far from 0.  An
    unverified field is scanned on the log of its values, a value below
    ``VALUE_FLOOR`` counting as a zero (ln f = -inf).
    """
    def log(pts):
        if f.certified:
            return f._log(pts, False)[0]
        v = f(pts)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(v < VALUE_FLOOR, -np.inf, np.log(v))
    return _sub_mean_test(log, f.dim, probes, seed)
