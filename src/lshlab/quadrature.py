"""Integration of scalar maps against Density measures.

Schemes
-------
gauss_hermite     Gaussian measures up to dim 3, one polar rule: m =
                  nodes_per_axis // 2 generalised Gauss-Laguerre radii in
                  u = |x|^2 / (2 sigma^2) (Golub-Welsch) times the sphere
                  rule's directions: +-1 in 1-D, where it is Gauss-Hermite
                  with 2m nodes; 2 ceil(m/3) angles in 2-D; ceil(m/3) polar
                  angles times twice as many azimuths in 3-D.  100, 1,700
                  and 28,900 nodes at the default 101.
tensor_trapezoid  uniform tensor grid over the truncation box; a weight whose
                  mass reaches the box's edge fails (``EDGE_MASS_SHARE``).
adaptive_1d       full-line adaptive quadrature via the x = tan(theta)
                  substitution (handles algebraic tails); dim 1 only.  One
                  globally adaptive 21-point Gauss-Kronrod loop (QUADPACK's
                  qk21) for the weight and every factor, summed in log
                  space with a running shift; one loop carries K >= 1
                  independent integrals in lockstep, each bit for bit as
                  alone, the rule and every sum being row-invariant; see
                  ``_adaptive_batch``.

Every scheme stops at dim 3: a node set above it is refused where it would be
built, in ``measure_nodes``.

Every integral runs through one primitive, ``_moments``, with one column
map: points and the integral's index to the columns [ln g | factors],
evaluated once per node set (or per adaptive round).  For the weight g =
e^{ln g} it forms ln int g dmu and the means of the factors under g dmu /
int g dmu in log space, so large powers never overflow, and returns a
function ``fn`` of them with an error estimate from one rule: |fn(spec) -
fn(spec.halved())| (half the nodes per axis, which on gauss_hermite halves
the radii and the angles together) on node schemes, and on ``adaptive_1d``
the first-order change of fn when each column's integral moves by its own
error estimate.  One call carries K >= 1
integrals, each failing alone: one node set and its halved companion, or
one adaptive loop, serve them all.  ``weighted_moments`` is its one-integral
call, ``integrate`` the weight ln g = 0 with the integrand as its factors,
``lp_norms`` the weights f_k^{p_k} alone and ``lp_norm_with_error`` one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache, reduce
from numbers import Integral
from typing import Optional

import numpy as np
# imported here, not on the first sphere rule, so that the import of
# numpy.polynomial falls into set-up rather than into a timed integral
from numpy.polynomial.legendre import leggauss

from .errors import InvalidParameter, QuadratureFailure

Array = np.ndarray

SCHEMES = ("gauss_hermite", "tensor_trapezoid", "adaptive_1d")

_TRAP_DEFAULT = {1: 2049, 2: 257, 3: 65}
_GH_DEFAULT = 101
#: ln of the largest double: a value whose log exceeds it overflows
LOG_MAX = math.log(np.finfo(float).max)
#: nodes one node set may hold, of at most 3 coordinates each: 48 MB of
#: points at most, each column the integrand evaluates 16 MB more.  The
#: largest default, the 65^3 = 274,625-node trapezoid, fits
MAX_NODES = 2_000_000
#: the largest share of a weight's mass that the trapezoid box's outer shell
#: may hold where the measure goes on past the box: more means the box cuts
#: off mass that the halved node set misses too, unseen by the estimate
EDGE_MASS_SHARE = 1e-8

#: unused here; benchmarks/tracer.py reads and replaces it when it installs
sp_integrate = None


def is_count(value, least: int = 1) -> bool:
    """Whether ``value`` is an integer >= ``least``: numpy's integers are
    Integral too, a bool is not a count."""
    return not isinstance(value, bool) and isinstance(value, Integral) and value >= least


@dataclass(frozen=True)
class QuadratureSpec:
    scheme: str
    nodes_per_axis: Optional[int] = None

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise InvalidParameter(f"unknown scheme {self.scheme!r}; choose from {SCHEMES}")
        n = self.nodes_per_axis
        if n is not None and not is_count(n, 3):
            raise InvalidParameter(f"nodes_per_axis must be an integer >= 3, got {n!r}")

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
        n = self.nodes_per_axis
        if n is None:
            raise InvalidParameter(f"{self.scheme} spec has no node count to halve")
        return replace(self, nodes_per_axis=max(3, (n - 1) // 2 + 1))

    def to_dict(self) -> dict:
        return dict(vars(self))


def default_spec(mu, **overrides) -> QuadratureSpec:
    """Scheme selection per measure family: the polar Gauss-Hermite rule for
    Gaussians up to dim 3, batched adaptive Gauss-Kronrod on the whole line
    in one dimension (``adaptive_1d``, refined to ``_ADAPTIVE_RTOL``), tensor
    trapezoid otherwise (uniform balls in 1-D too).  Above dim 3 the trapezoid
    has no default node count, and ``measure_nodes`` refuses it."""
    if mu.family == "gaussian" and mu.dim <= 3:
        base = dict(scheme="gauss_hermite", nodes_per_axis=_GH_DEFAULT)
    elif mu.dim == 1 and mu.family != "uniform_ball":
        base = dict(scheme="adaptive_1d")
    else:
        # a uniform ball's grid is aligned to the support's ends only in 1-D;
        # a disc or ball boundary cuts the grid's cells
        base = dict(scheme="tensor_trapezoid", nodes_per_axis=_TRAP_DEFAULT.get(mu.dim))
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


@lru_cache(maxsize=None)
def _unit_sphere_rule(dim: int, count: int) -> tuple[Array, Array]:
    """Directions and weights for mean values over the unit sphere.

    dim 1: the two endpoints (``count`` is ignored); dim 2: ``count`` uniform
    angles (trapezoid rule, spectrally accurate for periodic integrands); dim
    3: ``count``-node Gauss-Legendre in cos(theta) times 2 * ``count`` uniform
    azimuths.  Weights sum to 1.
    """
    if dim == 1:
        return np.array([[1.0], [-1.0]]), np.array([0.5, 0.5])
    if dim == 2:
        th = 2.0 * math.pi * np.arange(count) / count
        dirs = np.stack([np.cos(th), np.sin(th)], axis=1)
        return dirs, np.full(count, 1.0 / count)
    if dim == 3:
        n_phi = 2 * count
        t, w = leggauss(count)  # t = cos(theta)
        phi = 2.0 * math.pi * np.arange(n_phi) / n_phi
        s = np.sqrt(1.0 - t**2)
        dirs = np.stack(np.broadcast_arrays(
            np.outer(s, np.cos(phi)), np.outer(s, np.sin(phi)), t[:, None]), axis=-1)
        return dirs.reshape(-1, 3), np.outer(w / 2.0, np.full(n_phi, 1.0 / n_phi)).ravel()
    raise InvalidParameter("sphere rules are implemented for dim <= 3")


def _laguerre_rule(m: int, alpha: float) -> tuple[Array, Array]:
    """Nodes u_i and log-weights of m-node generalised Gauss-Laguerre for the
    weight u^alpha e^{-u} on (0, inf), the weights normalised to sum to 1.

    Golub & Welsch (1969): the nodes are the eigenvalues of the Jacobi matrix
    of the three-term recurrence (diagonal 2k + alpha + 1, off-diagonal
    sqrt(k (k + alpha))).  The weights are the Christoffel function
    1 / sum_k p_k(u_i)^2 of the orthonormal polynomials, run up the same
    recurrence and rescaled at every step, so a tail weight far below the
    smallest double keeps its relative accuracy in log space.
    """
    k = np.arange(m)
    diag, off = 2.0 * k + alpha + 1.0, np.sqrt(k * (k + alpha))
    u = np.linalg.eigvalsh(np.diag(diag) + np.diag(off[1:], 1) + np.diag(off[1:], -1))
    # p_{j+1} off_{j+1} = (u - diag_j) p_j - off_j p_{j-1}, with p_0 = 1 and
    # off_0 = 0; after each step p_j, p_{j+1} and the running sum are divided
    # by a common scale
    prev, cur, total, log_scale = np.zeros(m), np.ones(m), np.ones(m), np.zeros(m)
    for j in range(m - 1):
        nxt = ((u - diag[j]) * cur - off[j] * prev) / off[j + 1]
        scale = np.hypot(cur, nxt)
        prev, cur = cur / scale, nxt / scale
        total = total / scale**2 + cur**2
        log_scale += 2.0 * np.log(scale)
    logw = -(np.log(total) + log_scale)
    return u, logw - _logsumexp(logw)


@lru_cache(maxsize=64)
def _polar_gauss_rule(dim: int, m: int) -> tuple[Array, Array]:
    """Nodes and log-weights of N(0, I) on R^dim, dim <= 3: the m radii
    sqrt(2 u_i) of Gauss-Laguerre with alpha = dim/2 - 1 times the
    directions of the sphere rule (2 ceil(m/3) angles in 2-D, ceil(m/3)
    polar angles in 3-D), radius slowest.  The sphere rule is antipodal, so
    the angular mean is even in |x| and smooth in u."""
    u, logw = _laguerre_rule(m, dim / 2.0 - 1.0)
    count = math.ceil(m / 3)
    dirs, dw = _unit_sphere_rule(dim, 2 * count if dim == 2 else count)
    pts = (np.sqrt(2.0 * u)[:, None, None] * dirs[None]).reshape(-1, dim)
    logw = (logw[:, None] + np.log(dw)[None]).ravel()
    logw.flags.writeable = False
    return pts, logw


def tensor_grid(axis: Array, dim: int, log_weights: Optional[Array] = None):
    """The dim-fold tensor grid of ``axis`` as (m, dim) points, first coordinate
    slowest.  With per-axis ``log_weights`` it also returns each point's
    log-weight, their sum."""
    pts = np.stack(np.meshgrid(*([axis] * dim), indexing="ij"), axis=-1).reshape(-1, dim)
    if log_weights is None:
        return pts
    return pts, reduce(np.add.outer, [log_weights] * dim).ravel()


def _trap_nodes(R: float, n: int, dim: int):
    """Trapezoid tensor nodes on [-R, R]^dim and their log Lebesgue weights."""
    axis = np.linspace(-R, R, n)
    h = axis[1] - axis[0]
    w = np.full(n, h)
    w[0] = w[-1] = h / 2.0
    return tensor_grid(axis, dim, np.log(w))


def _bounded(count: int, spec: QuadratureSpec):
    """Refuse a node set of more than ``MAX_NODES`` nodes before it is built."""
    if count > MAX_NODES:
        raise InvalidParameter(
            f"{spec.scheme} node set of {count:,} nodes exceeds MAX_NODES = {MAX_NODES:,}; "
            "integrate on fewer nodes")


def measure_nodes(mu, spec: QuadratureSpec):
    """Nodes and log-weights such that int h dmu ~= sum exp(logw) h(pts) on
    R^dim, dim <= 3; a set over ``MAX_NODES`` nodes is refused before any
    array is built."""
    if spec.scheme == "gauss_hermite":
        if mu.family != "gaussian":
            raise InvalidParameter(
                "gauss_hermite is only valid for gaussian target measures"
            )
        if mu.dim > 3:
            raise InvalidParameter(
                f"gauss_hermite is implemented for dim <= 3, not dim {mu.dim}")
        m = spec.resolved(mu.dim).nodes_per_axis // 2
        k = math.ceil(m / 3)  # the sphere rule's directions: 2, 2k, k x 2k
        _bounded(m * (2, 2 * k, 2 * k * k)[mu.dim - 1], spec)
        pts, logw = _polar_gauss_rule(mu.dim, m)
        return mu.params[0] * pts, logw
    if spec.scheme == "tensor_trapezoid":
        if mu.dim > 3:
            raise InvalidParameter(
                f"tensor_trapezoid caps at dim 3: it needs dim <= 3, not dim {mu.dim}")
        n = spec.resolved(mu.dim).nodes_per_axis
        _bounded(n**mu.dim, spec)
        pts, logw_leb = _trap_nodes(mu.truncation_radius, n, mu.dim)
        return pts, logw_leb + mu.log_pdf(pts)
    raise InvalidParameter(f"{spec.scheme} has no fixed node set")


def _fail_at_first(bad: Array, pts: Array):
    if np.any(bad):
        raise QuadratureFailure(
            "non-finite integrand value inside the truncation region",
            witness=pts[int(np.argmax(bad))],
        )


# ---------------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------------

def weighted_moments(columns, mu, spec: QuadratureSpec, fn):
    """(fn(log_mass, means), its error) for the weight g = exp(ln g).

    ``columns`` maps (m, dim) points to an (m, 1 + k) array: column 0 is ln g
    and the other k columns are factors, all from one evaluation (m values
    are ln g alone, k = 0).  ``log_mass`` is ln int g dmu and ``means`` the
    k means of the factors under g dmu / int g dmu.  Node schemes evaluate
    the map once per node set, the default node count resolved before it is
    halved; ``adaptive_1d`` runs one adaptive loop for the weight and every
    factor.  A QuadratureFailure raised while the quantity is formed (the
    weight integrating to 0, a norm beyond the double range) carries the
    node of largest weight as its witness.
    """
    return _raised(_moments(lambda pts, k: columns(pts), mu, spec, fn, 1)[0])[:2]


def _moments(columns, mu, spec: QuadratureSpec, fn, count: int) -> list:
    """For each of ``count`` integrals k, what ``weighted_moments`` gives for
    the column map ``columns(pts, k)`` and the node of largest weight, or the
    QuadratureFailure it raises.  ``k`` is a plain int on node schemes, where
    a whole node set is integral k's, and on ``adaptive_1d`` the integer
    array of each point's integral."""
    if spec.scheme == "adaptive_1d":
        found = _adaptive_batch(mu, columns, count)

        def one(k):  # each column's integral moved by its own error estimate
            shift, values, errors, peak = _raised(found[k])
            return _with_error(lambda v: fn(shift + math.log(v[0]), v[1:] / v[0]), values,
                               values + np.diag(errors), peak)
    else:
        spec = spec.resolved(mu.dim)
        full, half = measure_nodes(mu, spec), measure_nodes(mu, spec.halved())
        edge = (_cut_edge(mu, full[0], 2.0 * mu.truncation_radius / (spec.nodes_per_axis - 1))
                if spec.scheme == "tensor_trapezoid" else None)

        def one(k):
            at = lambda pts: columns(pts, k)
            *values, peak = _node_moments(at, *full, edge)
            return _with_error(lambda v: fn(v[0], v[1]), values, [_node_moments(at, *half)], peak)
    return [_caught(one, k) for k in range(count)]


def _cut_edge(mu, pts: Array, step: float) -> Array:
    """The trapezoid nodes on the box's outer shell (max|x_i| = R), less those
    where mu vanishes one grid step out: there the box edge is the support's."""
    at = np.abs(pts) >= mu.truncation_radius
    edge = at.any(axis=1)
    if not mu.strictly_positive:
        edge[edge] = np.isfinite(mu.log_pdf(pts[edge] + step * np.sign(pts[edge]) * at[edge]))
    return edge


def _caught(fn, *args):
    """fn(*args), or the QuadratureFailure it raises."""
    try:
        return fn(*args)
    except QuadratureFailure as exc:
        return exc


def _raised(out):
    """``out``, unless it is a QuadratureFailure, which is raised."""
    if isinstance(out, QuadratureFailure):
        raise out
    return out


def _with_error(at, values, moved, peak):
    """(at(values), the summed change of at over ``moved``, peak)."""
    try:
        value = at(values)
        return value, sum(np.abs(at(v) - value) for v in moved), peak
    except QuadratureFailure as exc:  # raised by fn, which knows no point
        exc.witness = peak
        raise


def _columns_at(columns, pts: Array) -> Array:
    """What ``columns`` gives at pts, as an (m, 1 + k) array, with no warning
    on overflow: where it matters, the integral fails with its witness."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.asarray(columns(pts), dtype=float).reshape(pts.shape[0], -1)


def _node_moments(columns, pts: Array, logw: Array, edge: Optional[Array] = None):
    """(ln int g dmu, the factors' means, the node of largest weight) on pts;
    it fails when the nodes of the mask ``edge`` hold more than
    ``EDGE_MASS_SHARE`` of the mass, with the heaviest of them as witness."""
    cols = _columns_at(columns, pts)
    _fail_at_first(np.isnan(cols[:, 0]) | (cols[:, 0] == math.inf), pts)
    s = logw + cols[:, 0]
    peak = pts[int(np.argmax(s))].copy()  # not a view that keeps pts alive
    log_mass = _logsumexp(s)
    if not math.isfinite(log_mass):
        raise QuadratureFailure("the weight integrates to zero or diverges", witness=peak)
    if edge is not None and _logsumexp(s[edge]) - log_mass > math.log(EDGE_MASS_SHARE):
        raise QuadratureFailure(
            f"more than {EDGE_MASS_SHARE:g} of the weight's mass lies on the edge of the "
            "trapezoid's box", witness=pts[int(np.argmax(np.where(edge, s, -math.inf)))].copy())
    # a node is bad when any of its factors is
    _fail_at_first(~np.isfinite(cols[:, 1:]).all(axis=1), pts)
    return log_mass, np.exp(s - log_mass) @ cols[:, 1:], peak


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
#: intervals of the adaptive rule, and its absolute and relative error targets
_ADAPTIVE_LIMIT = 300
_ADAPTIVE_EPSABS = 1e-12
_ADAPTIVE_RTOL = 1e-8
#: a final adaptive interval's mean weight must reach this fraction of the largest sampled
_PEAK_KEPT = 1e-6


def _gk21(f: Array) -> tuple[Array, Array]:
    """qk21 from an integrand's values at the 21 abscissae (last axis) of
    intervals, each times its interval's half-width: (integrals, QUADPACK
    error estimates), of shape f.shape[:-1].  Each sum runs along its own
    row, so an interval's result does not depend on the others in f."""
    fw = f * _GK_WK
    resk = np.add.reduce(fw, axis=-1)
    resabs = np.add.reduce(np.abs(fw), axis=-1)  # |f| w_k, the weights being > 0
    resasc = np.add.reduce(np.abs(f - resk[..., None] / 2.0) * _GK_WK, axis=-1)
    err = np.abs(resk - np.add.reduce(f * _GK_WG, axis=-1))
    scaled = resasc * np.minimum(1.0, (200.0 * err / np.where(resasc > 0, resasc, 1.0)) ** 1.5)
    err = np.where((resasc != 0) & (err != 0), scaled, err)
    err = np.where(resabs > _TINY / (50.0 * _EPS), np.maximum(50.0 * _EPS * resabs, err), err)
    return resk, err


def _by_integral(x: Array, owner: Array, count: int) -> Array:
    """(rows, count) sums of x's (rows, n) entries by their integral
    ``owner``: each integral's terms added in order, whatever else x holds."""
    return np.array([np.bincount(owner, weights=row, minlength=count) for row in x])


def _first_of(mask: Array, owner: Array, count: int) -> Array:
    """For each integral, the index of its first entry where ``mask`` holds
    (mask.size where none does)."""
    first = np.full(count, mask.size)
    hits = mask.nonzero()[0]
    np.minimum.at(first, owner[hits], hits)
    return first


def adaptive_weighted(mu, spec: QuadratureSpec, columns):
    """(shift, values, errors, peak) of ``_adaptive_batch`` for the one
    integral ``columns``: e^shift values[j] is the integral against mu of g =
    exp(ln g) times column j (column 0: g alone), e^shift errors[j] its
    error, and peak the node of largest weight.  ``spec`` sets nothing; the
    benchmark tracer reads it.
    """
    return _raised(_adaptive_batch(mu, lambda pts, k: columns(pts), 1)[0])


def _adaptive_batch(mu, columns, count: int) -> list:
    """One globally adaptive 21-point Gauss-Kronrod loop on x = tan(theta)
    for ``count`` integrals at once: for each, what ``adaptive_weighted``
    returns, or the QuadratureFailure it raises.

    ``columns(pts, k)`` maps (m, 1) points and the integral k[i] of each
    point to the (m, 1 + C) columns [ln g | factors] of that integral.  Each
    round calls it once, at the nodes of every integral's new intervals, and
    sums e^{expo - shift} times each column: expo is ln g plus the
    log-density and log-Jacobian, the shift the integral's largest expo so
    far.  Each integral bisects where any column's error is above its share
    (by length) of max(1e-12, 1e-8 |value|) in unshifted units, until all
    meet it or it holds 300 intervals (then the worst error over tolerance
    goes first).  A node whose shifted weight underflows adds 0 whatever its
    factors; a NaN or +inf expo, or a non-finite factor of positive weight,
    fails the integral, and so do a weight that is 0 at every node and a
    peak lost between the final nodes (no final interval's mean weight
    within ``_PEAK_KEPT`` of the largest weight sampled), which every sum
    would understate.  A failed integral leaves the loop; the others go on.

    Every decision is the integral's own, and every sum and rule runs along
    one integral's entries in the order it holds them alone, so each result
    is bit for bit that of the integral run alone wherever the column map
    and the log-density are pointwise.
    """
    if mu.dim != 1:
        raise InvalidParameter("adaptive_1d requires a one-dimensional measure")
    # per integral: the lowest double as shift, so that weights are 0 while
    # every expo is -inf, and the node of largest weight
    shift, peak = np.full(count, -float(np.finfo(float).max)), np.zeros((count, 1))
    # eps_abs is the absolute tolerance in shifted units, at least _TINY
    eps_abs = np.full(count, math.inf)
    failed, out = np.zeros(count, dtype=bool), [None] * count  # out: each failure
    nonfinite_value = "non-finite integrand value inside the truncation region"

    def fail(which: Array, points: Array, at: Array, message: str):
        # each integral of ``which`` fails, its witness points[at[j]]
        for j in which.nonzero()[0]:
            failed[j], out[j] = True, QuadratureFailure(message, witness=points[at[j]].copy())

    def round_(lo: Array, hi: Array, owner: Array, first: bool = False):
        # the columns' integrals on [lo_i, hi_i] and their errors, (C, n)
        # each, and, when a shift grew, each integral's factor from its old
        # shift to its new one (1 where it stayed)
        half = (hi - lo) / 2.0
        pts = np.tan(((lo + hi) / 2.0)[:, None] + half[:, None] * _GK_X).reshape(-1, 1)
        k = owner.repeat(_GK_X.size)
        cols = np.asarray(columns(pts, k), dtype=float).reshape(k.size, -1)
        expo = (cols[:, 0] + np.asarray(mu._log_density(pts), dtype=float)
                + np.log1p(pts[:, 0] * pts[:, 0]))  # dx = (1 + x^2) dtheta
        top = np.full(count, -math.inf)  # -inf also where an integral has no new node
        np.maximum.at(top, k, expo)
        bad = ~(top < math.inf)  # fails at its first NaN or +inf expo
        if bad.any():
            fail(bad, pts, _first_of(np.isnan(expo) | (expo == math.inf), k, count),
                 nonfinite_value)
        # a failed integral takes no new peak: a NaN top matches no expo
        grow, rescale = ((top > shift) | first) & ~failed, None
        if grow.any():
            peak[grow] = pts[_first_of(expo == top[k], k, count)[grow]]
            new_shift = np.where(grow, np.maximum(shift, top), shift)
            rescale, shift[:] = np.exp(shift - new_shift), new_shift
            eps_abs[:] = np.maximum(_ADAPTIVE_EPSABS * np.exp(-shift), _TINY)
        w = np.exp(expo - shift[k])
        f = w[None]
        if cols.shape[1] > 1:
            f = np.multiply(cols.T, w, order="C")
            f[0] = w
            nonfinite = ~np.isfinite(f)
            if nonfinite.any():
                hit = nonfinite.any(axis=0) & (w > 0.0)  # a bad factor of positive weight
                fail((np.bincount(k[hit], minlength=count) > 0) & ~failed, pts,
                     _first_of(hit, k, count), nonfinite_value)
                f[nonfinite] = 0.0
        return (*_gk21(f.reshape(len(f), half.size, -1) * half[:, None]), rescale)

    lo, hi = np.full(count, -math.pi / 2), np.full(count, math.pi / 2)
    owner = np.arange(count)
    with np.errstate(over="ignore", invalid="ignore"):
        res, err, _ = round_(lo, hi, owner, first=True)
        while True:
            if failed[owner].any():  # a failed integral's intervals leave the loop
                live = ~failed[owner]
                lo, hi, res, err = lo[live], hi[live], res[:, live], err[:, live]
                owner = owner[live]
            tol = np.maximum(eps_abs, _ADAPTIVE_RTOL * np.abs(_by_integral(res, owner, count)))
            ratio = err / tol[:, owner]
            room = _ADAPTIVE_LIMIT - np.bincount(owner, minlength=count)
            done = (_by_integral(ratio, owner, count).max(axis=0) <= 1.0) | (room <= 0)
            worst = ratio.max(axis=0)
            mid = (lo + hi) / 2.0
            # QUADPACK's round-off guard: a bisection must leave both halves
            # wider than about 100 ulps of the midpoint
            ulp_floor = (1.0 + 100.0 * _EPS) * (np.abs(mid) + 1000.0 * _TINY)
            split = ((worst > (hi - lo) / math.pi) & ~done[owner]
                     & (np.maximum(np.abs(lo), np.abs(hi)) > ulp_floor))
            idx = split.nonzero()[0]
            if idx.size == 0:
                break
            by = owner[idx]
            if (np.bincount(by, minlength=count) > room).any():
                # an integral short of room splits its worst intervals first
                order = np.lexsort((-worst[idx], by))
                ranked = by[order]
                fits = np.arange(idx.size) - np.searchsorted(ranked, ranked) < room[ranked]
                idx = np.sort(idx[order][fits])
                by = owner[idx]
            keep = np.ones(lo.size, dtype=bool)
            keep[idx] = False
            # each integral's new intervals in the order it holds them alone:
            # its left halves, then its right ones
            cut = mid[idx]
            new_lo, new_hi = np.concatenate([lo[idx], cut]), np.concatenate([cut, hi[idx]])
            new_owner = np.concatenate([by, by])
            new_res, new_err, rescale = round_(new_lo, new_hi, new_owner)
            res, err = res[:, keep], err[:, keep]
            if rescale is not None:  # the kept intervals in their integral's new shift
                res, err = res * rescale[owner[keep]], err * rescale[owner[keep]]
            res = np.concatenate([res, new_res], axis=1)
            err = np.concatenate([err, new_err], axis=1)
            lo, hi = np.concatenate([lo[keep], new_lo]), np.concatenate([hi[keep], new_hi])
            owner = np.concatenate([owner[keep], new_owner])
    # the weight is >= 0, so res[0] / (hi - lo), an interval's mean weight, is
    # at least 1/171 of the largest weight of its nodes
    mean_top = np.full(count, -math.inf)
    np.maximum.at(mean_top, owner, res[0] / (hi - lo))
    fail((mean_top < _PEAK_KEPT) & ~failed, peak, np.arange(count),
         "the weight integrates to 0 or its peak was lost")
    values = _by_integral(res, owner, count)
    errors = np.maximum(_by_integral(err, owner, count), np.abs(values) * 1e-15)
    return [out[j] or (float(shift[j]), values[:, j], errors[:, j], peak[j].copy())
            for j in range(count)]


def integrate(h, mu, spec: QuadratureSpec) -> tuple[float, float]:
    """(Integral of h against mu, its error estimate).

    ``h`` is a ScalarField or any map vectorized over (m, dim) batches that
    returns m values.  This is ``weighted_moments`` with the weight ln g = 0
    and h as its one factor column: h is evaluated at every node, once per
    node set on grids and once per round of the adaptive loop, and an
    adaptive node where the measure's density underflows contributes 0.
    """
    value, err = weighted_moments(
        lambda pts: np.column_stack([np.zeros(pts.shape[0]), np.ravel(h(pts))]),
        mu, spec, lambda log_mass, means: math.exp(log_mass) * means[0])
    return float(value), max(float(err), abs(float(value)) * 1e-15)


def _log_mass(log_mass, means):
    return log_mass


def integrate_log(logh, mu, spec: QuadratureSpec) -> tuple[float, float]:
    """(ln of the integral of exp(logh) against mu, its error on the log
    scale), the error being about the integral's relative error."""
    logv, err = weighted_moments(logh, mu, spec, _log_mass)
    return logv, max(float(err), 1e-15)


def lp_norm_with_error(f, mu, p: float, spec: QuadratureSpec) -> tuple[float, float]:
    """((int f^p dmu)^(1/p) of a field, its error), p > 0; for p < 1 only a quasi-norm."""
    return _raised(lp_norms(lambda pts, k: f.log_value(pts), mu, [p], spec)[0])


def lp_norms(log_f, mu, ps, spec: QuadratureSpec) -> list:
    """For each k, (||f_k||_{p_k}, its error), or the QuadratureFailure this
    norm raises alone, all from one ``_moments`` call.  ``log_f(pts, k)`` is
    ln f_k at (m, dim) points, ``k`` as in ``_moments``: a plain int on node
    schemes, on ``adaptive_1d`` the integer array of each point's norm.
    """
    if min(ps) <= 0:
        raise InvalidParameter("lp_norm requires p > 0")
    p_of = np.asarray(ps, dtype=float)
    found = _moments(lambda pts, k: p_of[k] * log_f(pts, k), mu, spec, _log_mass, len(ps))
    return [res if isinstance(res, QuadratureFailure) else _caught(_lp_norm, p, *res)
            for p, res in zip(ps, found)]


def _lp_norm(p: float, logv: float, logerr: float, peak) -> tuple[float, float]:
    """(||f||_p, its error) from ln int f^p dmu, its error and its witness."""
    # on the reported value only, not on the halved or moved ones of its error
    if logv / p > LOG_MAX:
        raise QuadratureFailure(f"L^{p:g} norm overflows (log value {logv / p:.3g})", witness=peak)
    norm = math.exp(logv / p)
    return norm, norm * max(float(logerr), 1e-15) / p
