"""Falsifiable numerical checks for the inequality and monotonicity suite.

Each check returns a :class:`CheckReport` carrying the full input echo, the
computed quantities (lhs, rhs, deficits, witnesses), the tolerance used, and
the verdict.  Tolerance hierarchy: inequality checks accept a deficit down to
-(INEQ_ABS * scale + NOISE_FACTOR * quadrature error estimate), so
integration noise can never fail an inequality that holds with equality; the
pointwise monotonicity lemmas, which integrate nothing, allow a drop of
LEMMA_TOL relative to max(1, |value|).

Reports never raise on a mathematical violation (that is a *failed* check,
with witnesses); they only go *inconclusive* when a required quantity cannot
be computed (divergent integral, unavailable regularity constant).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import InvalidParameter, LabError, QuadratureFailure, TypeConditionViolation
from .fields import (
    Mollifier,
    ScalarField,
    constant,
    convolve,
    cosh_field,
    default_probes,
    dilate,
    euler,
    exp_norm_sq,
    is_subharmonic,
    log_linear,
    mollifier,
    orbit_values,
    power,
    product_field,
    spherical_average,
)
from .functionals import (
    DEFAULT_R_GRID,
    INEQ_ABS,
    NOISE_FACTOR,
    Q_GUARD,
    DilationNorms,
    entropy_energy_with_error,
    q_of_r,
    r_of_pq,
)
from .measures import Density, regularity_constant
from .quadrature import QuadratureSpec, default_spec, lp_norm_with_error, weighted_moments

LEMMA_TOL = 1e-7
DEFAULT_C_RANGE = (0.25, 4.0)
BISECTION_RESOLUTION = 1e-3
#: the mollifier scale k of the battery member and of the checks that take one
DEFAULT_MOLLIFIER_SCALE = 4
#: the mollifier scales k and dilations r that check_density_approximation
#: tabulates by default
APPROX_K_LIST = (1, 2, 4, 8, 16)
APPROX_R_LIST = (0.9, 0.95, 0.99)
#: the radii r at which the monotonicity lemmas compare r x with the probes x
LEMMA_R_GRID = tuple(0.1 * i for i in range(1, 11))

#: caveat attached to every strong-hypercontractivity report
SHC_NOTE = (
    "tested on explicit smooth battery members only; closures of the "
    "log-subharmonic cone are not representable numerically"
)


def _jsonify(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


@dataclass
class CheckReport:
    """Per-check outcome: quantities, deficits, tolerance, pass/fail."""

    check_id: str
    kind: str
    inputs: dict
    quantities: dict
    tolerance: Optional[float]  # None when inconclusive
    passed: bool
    inconclusive: bool = False
    notes: list = dc_field(default_factory=list)
    spec: dict = dc_field(default_factory=dict)

    def to_dict(self) -> dict:
        return _jsonify(vars(self))


def _inconclusive(check_id, kind, inputs, spec, reason) -> CheckReport:
    """The one builder of an inconclusive report; ``reason`` is a message or
    the :class:`LabError` that made the verdict impossible, whose witness, if
    any, is kept as ``quantities["witness"]``."""
    witness = getattr(reason, "witness", None)
    quantities = {} if witness is None else {"witness": np.atleast_1d(witness)}
    return CheckReport(
        check_id=check_id,
        kind=kind,
        inputs=inputs,
        quantities=quantities,
        tolerance=None,
        passed=False,
        inconclusive=True,
        notes=[f"inconclusive: {reason}"],
        spec=spec.to_dict() if spec is not None else {},
    )


def _report(check_id, kind, inputs, mu, spec, body, notes=()) -> CheckReport:
    """The one rule of an integral check: ``body(spec)`` gives (quantities,
    tolerance, passed) on ``spec`` (``default_spec(mu)`` when None) resolved
    for ``mu``, and the report echoes that spec.  A QuadratureFailure raised
    in the body makes the report inconclusive, its witness kept; any other
    error reaches the caller."""
    spec = (spec or default_spec(mu)).resolved(mu.dim)
    try:
        quantities, tolerance, passed = body(spec)
    except QuadratureFailure as exc:
        return _inconclusive(check_id, kind, inputs, spec, exc)
    return CheckReport(check_id=check_id, kind=kind, inputs=inputs, quantities=quantities,
                       tolerance=tolerance, passed=passed, notes=list(notes),
                       spec=spec.to_dict())


# ---------------------------------------------------------------------------
# inequality checks
# ---------------------------------------------------------------------------

def slsi_terms(g: ScalarField, mu: Density,
               spec: QuadratureSpec) -> tuple[float, float, float, float]:
    """The four numbers every sLSI verdict needs: (Ent, e_Ent, EE, e_EE).

    EE is the dilation energy int E g dmu; e_* are the quadrature error
    estimates.  Raises InvalidParameter for an uncertified field or a measure
    that is not rotation-invariant, and QuadratureFailure when an integral
    cannot be computed.
    """
    if not g.certified:
        raise InvalidParameter("check_slsi requires a certified field")
    if not mu.rotation_invariant:
        raise InvalidParameter(
            "the dilation energy is only known positive on the cone for "
            "rotation-invariant measures"
        )
    return entropy_energy_with_error(g, mu, spec)


def slsi_verdict(terms: tuple[float, float, float, float],
                 c: float) -> tuple[float, float, bool]:
    """(deficit, tol, passed) for the sLSI at constant c from :func:`slsi_terms`.

    The deficit (c/2) EE - Ent is affine in c, so one set of terms serves
    every c.
    """
    ent, e_ent, ee, e_ee = terms
    deficit = (c / 2.0) * ee - ent
    scale = max(1.0, abs(ent), abs(c / 2.0 * ee))
    tol = INEQ_ABS * scale + NOISE_FACTOR * (e_ent + (c / 2.0) * e_ee)
    return deficit, tol, bool(deficit >= -tol)


def check_slsi(
    g: ScalarField,
    mu: Density,
    c: float,
    spec: Optional[QuadratureSpec] = None,
    check_id: str = "slsi",
) -> CheckReport:
    """Strong log-Sobolev deficit (c/2) int E g dmu - Ent(g), passing iff >= -tol."""
    def body(spec):
        terms = slsi_terms(g, mu, spec)
        deficit, tol, passed = slsi_verdict(terms, c)
        ent, _, ee, _ = terms
        return ({"entropy": ent, "euler_energy": ee, "lhs": ent, "rhs": c / 2.0 * ee,
                 "deficit": deficit}, tol, passed)

    inputs = {"field": g.label, "measure": mu.label, "c": c}
    return _report(check_id, "slsi", inputs, mu, spec, body)


def _require_certified(f: ScalarField):
    if not f.certified:
        raise InvalidParameter("an sHC check requires a certified field")


def _row_tol(e: float, e_base: float, base: float) -> float:
    """Relative tolerance of a norm with error ``e`` against ``base`` +- ``e_base``."""
    return INEQ_ABS + NOISE_FACTOR * (e + e_base) / max(base, 1e-300)


def _shc_keys(cs: Iterable[float], r_grid: Sequence[float]) -> list:
    """The (r, q) of every norm an sHC verdict at each c of ``cs`` can read:
    ||f||_1 and alpha(r) at every q(r) <= Q_GUARD.  An r outside (0, 1]
    raises here, before any norm, whether or not a verdict stops early."""
    every = [(r, q_of_r(r, c)) for c in cs for r in r_grid]
    return [(1.0, 1.0)] + [(r, q) for r, q in every if q <= Q_GUARD]


def shc_rows(norms: DilationNorms, i: int, c: float,
             r_grid: Sequence[float]) -> list[tuple[dict, float]]:
    """The r-grid rows of :func:`check_shc` at constant c for member i of
    ``norms``, as (row, slack) pairs in ascending r, whatever the order of
    ``r_grid``: alpha's monotonicity is read along r, not along the grid.

    The slack is how far the row's alpha falls below the previous (smaller
    r) live row's beyond that row's tolerance (0.0 for a skipped row and for
    the first live one).  A row whose norms fail to integrate, or whose q(r)
    exceeds Q_GUARD, is skipped.  Raises InvalidParameter for an uncertified
    field, before the r-grid is read, and QuadratureFailure when ||f||_1
    cannot be computed, or when a row failed to integrate (it may be the
    failing one) and the live rows pass.  The norms come in one fill: ||f||_1, and
    alpha(r) at every q(r) <= Q_GUARD.
    """
    _require_certified(norms.fields[i])
    norms.fill([(i, r, q) for r, q in _shc_keys((c,), r_grid)])
    base, e_base = norms(i, 1.0, 1.0)
    pairs, prev, failure = [], None, None
    for r in sorted(r_grid):
        row = {"r": float(r), "q_of_r": q_of_r(r, c)}
        try:
            a, e_a = norms.alpha(i, r, c)
        except (QuadratureFailure, InvalidParameter) as exc:
            failure = failure or (exc if isinstance(exc, QuadratureFailure) else None)
            row.update({"skipped": True, "reason": str(exc)})
            pairs.append((row, 0.0))
            continue
        tol_rel = _row_tol(e_a, e_base, base)
        row.update(
            {
                "skipped": False,
                "alpha": a,
                "deficit": base - a,
                "row_passed": bool(a <= base * (1.0 + tol_rel)),
                "tol_rel": tol_rel,
            }
        )
        slack = 0.0 if prev is None else prev["alpha"] - a * (1.0 + prev["tol_rel"])
        prev = row
        pairs.append((row, slack))
    if failure is not None and shc_passed(pairs):
        raise failure
    return pairs


def shc_passed(rows: Iterable[tuple[dict, float]]) -> bool:
    """The sHC verdict on (row, slack) pairs: some row with r < 1 is live,
    every live row passes, and no slack is positive (alpha is monotone).

    The r = 1 row alone is no evidence: alpha(1) = ||f||_1 meets it by
    construction at every c.
    """
    live = False
    for row, slack in rows:
        if row["skipped"]:
            continue
        if not row["row_passed"] or slack > 0:
            return False
        live = live or row["r"] < 1.0
    return live


def check_shc(
    f: ScalarField,
    mu: Density,
    c: float,
    r_grid: Sequence[float] = DEFAULT_R_GRID,
    spec: Optional[QuadratureSpec] = None,
    check_id: str = "shc",
) -> CheckReport:
    """Strong hypercontractivity in L^1 form: ||f_r||_{q(r)} <= ||f||_1 on
    the r-grid, plus monotonicity of alpha(r).  Hoelder's ||f_r||_1 <=
    ||f_r||_{q(r)} makes a passing row bound ||f_r||_1 by ||f||_1 too.

    Every row is evaluated; the r = 1 row reuses ||f||_1.
    """
    if len(r_grid) == 0:
        raise InvalidParameter("r_grid must be non-empty")
    def body(spec):
        norms = DilationNorms([f], mu, spec)
        pairs = shc_rows(norms, 0, c, r_grid)  # raises for ||f||_1, or a row that could fail
        rows = [row for row, _ in pairs]
        worst_drop = max([0.0] + [slack for _, slack in pairs])
        return ({"norm1": norms(0, 1.0, 1.0)[0], "rows": rows,
                 "alpha_monotone": not worst_drop > 0, "worst_monotonicity_drop": worst_drop,
                 "skipped_rows": sum(row["skipped"] for row in rows)},
                INEQ_ABS, shc_passed(pairs))

    inputs = {"field": f.label, "measure": mu.label, "c": c, "r_grid": list(r_grid)}
    return _report(check_id, "shc", inputs, mu, spec, body, [SHC_NOTE])


def check_general_shc(
    f: ScalarField,
    mu: Density,
    c: float,
    p: float,
    q: float,
    spec: Optional[QuadratureSpec] = None,
    check_id: str = "general_shc",
) -> CheckReport:
    """||f_r||_q <= ||f||_p at the contraction time r = (p/q)^(c/2) and below.

    It passes only when the row at r* is live: the rows below r* cannot stand
    in for the inequality at r*, where ||f_r||_q is largest.
    """
    def body(spec):
        r_star = r_of_pq(p, q, c)
        _require_certified(f)
        norms = DilationNorms([f], mu, spec)
        r_rows = (r_star, 0.9 * r_star, 0.75 * r_star)
        norms.fill([(0, 1.0, p)] + [(0, r, q) for r in r_rows])
        base, e_base = norms(0, 1.0, p)
        rows = []
        ok = True
        for r in r_rows:
            try:
                lhs, e_lhs = norms(0, r, q)
            except QuadratureFailure as exc:
                rows.append({"r": r, "skipped": True, "reason": str(exc)})
                continue
            good = bool(lhs <= base * (1.0 + _row_tol(e_lhs, e_base, base)))
            rows.append({"r": r, "skipped": False, "lhs": lhs, "rhs": base, "passed": good})
            ok = ok and good
        return ({"r_star": r_star, "norm_p": base, "rows": rows}, INEQ_ABS,
                ok and not rows[0]["skipped"])

    inputs = {"field": f.label, "measure": mu.label, "c": c, "p": p, "q": q}
    return _report(check_id, "general_shc", inputs, mu, spec, body, [SHC_NOTE])


def _operator_bound(kind, check_id, inputs, f, mu, p, r, spec, phi=None) -> CheckReport:
    """The rule both operator bounds share: ||(f * phi)_r||_p against the
    right-hand side of :func:`check_dilated_convolution_bound`, or, without
    ``phi``, ||f_r||_p against that of :func:`check_dilation_bound` (s = 0,
    the mollifier terms 1).  Inconclusive when C or a norm is unavailable."""
    spec = (spec or default_spec(mu)).resolved(mu.dim)
    s = 0.0 if phi is None else phi.support_radius
    try:
        c_est = regularity_constant(mu, 0.0, 1.0 / r, s / r)
    except (InvalidParameter, TypeConditionViolation) as exc:
        return _inconclusive(check_id, kind, inputs, spec, LabError(
            f"regularity constant unavailable: {exc}", witness=exc.witness))

    def body(spec):
        if phi is None:
            norms, vol, phi_norm = DilationNorms([f], mu, spec), 1.0, 1.0
        else:
            norms, vol = DilationNorms([convolve(f, phi), f], mu, spec), phi.vol_support
            phi_norm = phi.sup_value if p == 1.0 else phi.lebesgue_norm(p / (p - 1.0))
        keys = [(0, r, p), (len(norms.fields) - 1, 1.0, p)]
        norms.fill(keys)
        (lhs, e_lhs), (fnorm, e_f) = [norms(*key) for key in keys]
        factor = r ** (-mu.dim / p) * c_est ** (1.0 / p) * vol ** (1.0 / p) * phi_norm
        rhs = factor * fnorm
        tol = INEQ_ABS * rhs + NOISE_FACTOR * (e_lhs + factor * e_f)
        terms = ({"norm_p": fnorm} if phi is None
                 else {"mollifier_norm": phi_norm, "vol_support": vol})
        return ({"lhs": lhs, "rhs": rhs, "slack": rhs - lhs, "regularity_constant": c_est,
                 **terms}, tol, bool(lhs <= rhs + tol))

    return _report(check_id, kind, inputs, mu, spec, body)


def check_dilation_bound(
    f: ScalarField,
    mu: Density,
    p: float,
    r: float,
    spec: Optional[QuadratureSpec] = None,
    check_id: str = "dilation_bound",
) -> CheckReport:
    """Dilation operator bound ||f_r||_p <= r^(-n/p) C(1/r, 0)^(1/p) ||f||_p."""
    if not (0.0 < r <= 1.0):
        raise InvalidParameter("r must lie in (0, 1]")
    inputs = {"field": f.label, "measure": mu.label, "p": p, "r": r}
    return _operator_bound("dilation_bound", check_id, inputs, f, mu, p, r, spec)


def check_dilated_convolution_bound(
    f: ScalarField,
    mu: Density,
    p: float,
    phi: Mollifier,
    r: float,
    spec: Optional[QuadratureSpec] = None,
    check_id: str = "dilated_convolution_bound",
) -> CheckReport:
    """Dilated-convolution bound

    ||(f * phi)_r||_p <= r^(-n/p) C(1/r, s/r)^(1/p) Vol(K)^(1/p)
                         ||phi||_{p'} ||f||_p,

    with K = supp phi, s its radius, and p' the Hoelder conjugate of p >= 1.
    """
    if p < 1.0:
        raise InvalidParameter("the dilated convolution bound needs p >= 1")
    if not (0.0 < r < 1.0):
        raise InvalidParameter("r must lie in (0, 1)")
    inputs = {"field": f.label, "measure": mu.label, "p": p, "r": r,
              "mollifier_scale": phi.scale_index}
    return _operator_bound("dilated_convolution_bound", check_id, inputs, f, mu, p, r,
                           spec, phi)


# ---------------------------------------------------------------------------
# density-approximation experiment
# ---------------------------------------------------------------------------

def check_density_approximation(
    f: ScalarField,
    mu: Density,
    p: float,
    k_list: Sequence[int] = APPROX_K_LIST,
    r_list: Sequence[float] = APPROX_R_LIST,
    spec: Optional[QuadratureSpec] = None,
    check_id: str = "density_approx",
) -> CheckReport:
    """Dilated-convolution approximation errors e(k, r) = ||(f * phi_k)_r - f||_p.

    Passes iff the best cell is within 1% of ||f||_p and convergence is monotone
    within twice the quadrature noise: along r -> 1 (at the largest scale) on
    the total error, and along the mollifier scale on the k-controlled split
    term ||(f * phi_k)_r - f_r||_p.  (The total error saturates at the
    dilation gap ||f_r - f||_p and is not monotone in k beyond it, since the
    convolution factor can partially cancel that gap.)  Every approximant
    must also have a finite dilation-energy norm ||E (f * phi_k)_r||_p.

    Each cell is one ``weighted_moments`` call in log space, from one sweep
    of g = (f * phi_k)_r per node set: the weight g^p with the factors
    |expm1(ln f - ln g)|^p, |x . grad ln g|^p and, at r = max(r_list),
    |expm1(ln f_r - ln g)|^p, so each factor times the weight is |g - f|^p,
    |E g|^p or |g - f_r|^p; the p-th roots are taken in log space, so a
    large ||f||_p never overflows.
    """
    if len(k_list) == 0 or len(r_list) == 0:
        raise InvalidParameter("k_list and r_list must be non-empty")

    def lp_norms(log_mass, means):
        # (int g^p * factor dmu)^(1/p), the p-th root taken in log space; a
        # norm beyond the double range is inf, and energies_finite reports it
        with np.errstate(divide="ignore", over="ignore"):
            return np.exp((log_mass + np.log(means)) / p)

    def body(spec):
        base, _ = lp_norm_with_error(f, mu, p, spec)
        target = 0.01 * base
        k_max, r_max = max(k_list), max(r_list)
        cells = {}
        energy_norms = {}
        split_k = {}
        f_rmax = dilate(f, r_max)
        for k in k_list:
            phi = mollifier(mu.dim, k)
            smoothed = convolve(f, phi)
            for r in r_list:
                g = dilate(smoothed, r)

                def columns(pts, g=g, split=(r == r_max)):
                    lg, dlg = g.log_value(pts, grad=True)
                    factors = [np.expm1(f.log_value(pts) - lg),
                               np.einsum("ij,ij->i", pts, dlg)]
                    if split:
                        factors.append(np.expm1(f_rmax.log_value(pts) - lg))
                    return np.column_stack([p * lg, np.abs(np.column_stack(factors)) ** p])

                try:
                    norms, noises = weighted_moments(columns, mu, spec, lp_norms)
                except QuadratureFailure as exc:
                    cells[(k, r)] = {"skipped": True, "reason": str(exc)}
                    continue
                cells[(k, r)] = {"skipped": False, "error": float(norms[0]),
                                 "noise": float(noises[0])}
                energy_norms[(k, r)] = {"value": float(norms[1]), "noise": float(noises[1])}
                if len(norms) > 2:
                    split_k[k] = (float(norms[2]), float(noises[2]))

        live = {key: cell for key, cell in cells.items() if not cell["skipped"]}
        if not live:
            raise QuadratureFailure("every cell failed to integrate")
        best = min(cell["error"] for cell in live.values())

        def _monotone(seq):
            return not any(e2 > e1 + 2.0 * (n1 + n2) for (e1, n1), (e2, n2) in zip(seq, seq[1:]))

        along_k = [split_k[k] for k in sorted(k_list) if k in split_k]
        along_r = [(live[(k_max, r)]["error"], live[(k_max, r)]["noise"])
                   for r in sorted(r_list) if (k_max, r) in live]
        decreasing = _monotone(along_k) and _monotone(along_r)
        energies_finite = all(math.isfinite(e["value"]) for e in energy_norms.values())
        return ({
            "norm_p": base,
            "target": target,
            "best_error": best,
            "cells": [{"k": k, "r": r, **cell} for (k, r), cell in sorted(cells.items())],
            "split_errors_along_k": [{"k": k, "error": split_k[k][0]} for k in sorted(split_k)],
            "energy_norms": [
                {"k": k, "r": r, **e} for (k, r), e in sorted(energy_norms.items())
            ],
            "decreasing": decreasing,
            "energies_finite": energies_finite,
        }, target, bool(best <= target and decreasing and energies_finite))

    inputs = {"field": f.label, "measure": mu.label, "p": p, "k_list": list(k_list),
              "r_list": list(r_list)}
    return _report(check_id, "density_approx", inputs, mu, spec, body)


# ---------------------------------------------------------------------------
# monotonicity lemmas
# ---------------------------------------------------------------------------

def _lemma_report(check_id, kind, inputs, probes, violations) -> CheckReport:
    """The report of a monotonicity lemma scanned at ``probes`` over LEMMA_R_GRID."""
    return CheckReport(
        check_id=check_id,
        kind=kind,
        inputs=inputs,
        quantities={
            "probes": int(len(probes)),
            "grid_points": len(LEMMA_R_GRID),
            "violations": violations[:8],
            "violation_count": len(violations),
        },
        tolerance=LEMMA_TOL,
        passed=not violations,
    )


def check_spherical_monotonicity(
    f: ScalarField,
    check_id: str = "spherical_monotone",
) -> CheckReport:
    """r -> (spherical average of f)(r x) is non-decreasing, to LEMMA_TOL, for subharmonic f."""
    kind = "spherical_monotone"
    inputs = {"field": f.label, "tol": LEMMA_TOL}
    rep = is_subharmonic(f, seed=29)
    if not rep.passed:
        return _inconclusive(check_id, kind, inputs, None, LabError(
            "field is not numerically subharmonic", witness=rep.worst_violation()[0]))
    probes = default_probes(f.dim, count=64, seed=13)
    # one probe's r grid a call, so a 3-D convolution sweeps 10 orbits at once
    favg, grid = spherical_average(f), np.asarray(LEMMA_R_GRID)[:, None]
    vals = np.array([favg(grid * x) for x in probes])
    low, high = vals[:, :-1], vals[:, 1:]
    # "not >=" so that a NaN is a drop; from an overflowed +inf it is none
    with np.errstate(invalid="ignore"):
        bad = ~(high >= low - LEMMA_TOL * np.maximum(1.0, np.abs(low))) & (low != np.inf)
    violations = [{"x": probes[i], "r_low": LEMMA_R_GRID[j], "r_high": LEMMA_R_GRID[j + 1],
                   "drop": low[i, j] - high[i, j]} for i, j in np.argwhere(bad)]
    return _lemma_report(check_id, kind, inputs, probes, violations)


def check_radial_euler_scaling(
    k: ScalarField,
    check_id: str = "radial_euler_scaling",
) -> CheckReport:
    """E k(r x) <= r^(2 - n) E k(x), to LEMMA_TOL, for smooth rotation-invariant subharmonic k.

    Invariance gate: at each of the first eight probes x, k must match k(x)
    to 1e-6 max(1, |k(x)|) on its :func:`orbit_values` (the sphere-rule orbit
    |x| dirs); otherwise the report is inconclusive.  An orbit value equal to
    k(x) has no spread, an overflowed +inf included, and the bound of an
    infinite k(x) is 1e-6, so it needs an orbit equal to it.
    """
    kind = "radial_euler_scaling"
    inputs = {"field": k.label, "tol": LEMMA_TOL}
    n = k.dim
    probes = default_probes(n, count=64, seed=17)
    sample = probes[:8]
    vals = k(sample)
    orbits, _ = orbit_values(k, sample)
    bound = 1e-6 * np.maximum(1.0, np.where(np.isfinite(vals), np.abs(vals), 0.0))
    with np.errstate(invalid="ignore"):
        spread = np.where(orbits == vals[:, None], 0.0, np.abs(orbits - vals[:, None]))
    # written as "not <=" so that a NaN on an orbit fails the gate
    off = ~np.all(spread <= bound[:, None], axis=1)
    if np.any(off):
        return _inconclusive(check_id, kind, inputs, None, LabError(
            "field is not rotation-invariant at probes", witness=sample[np.argmax(off)]))
    # E k at the probes (scale 1) and at r x for every r of the grid, in one batch
    scales = np.array((1.0,) + LEMMA_R_GRID)
    e = euler(k, (scales[:, None, None] * probes).reshape(-1, n)).reshape(len(scales), -1)
    lhs, rhs = e[1:], scales[1:, None] ** (2 - n) * e[0]
    # "not <=" so that a NaN is a violation; an overflowed -inf bound is none
    with np.errstate(invalid="ignore"):
        bad = ~(lhs <= rhs + LEMMA_TOL * np.maximum(1.0, np.abs(rhs))) & (rhs != -np.inf)
    violations = [{"x": probes[j], "r": LEMMA_R_GRID[i], "lhs": float(lhs[i, j]),
                   "rhs": float(rhs[i, j])} for i, j in np.argwhere(bad)]
    return _lemma_report(check_id, kind, inputs, probes, violations)


# ---------------------------------------------------------------------------
# best-constant search
# ---------------------------------------------------------------------------

def _bisect(passes, lo: float, hi: float) -> tuple[float, float]:
    """The bracket (largest failing c, smallest passing c) in which bisection
    of [lo, hi] to BISECTION_RESOLUTION ends: (lo, lo) when lo passes, (hi,
    hi) when hi fails.  ``passes(c)`` is the verdict at c.  Every bracket end
    is a node of the one bisection tree of [lo, hi], whatever the verdict."""
    if passes(lo):
        return lo, lo
    if not passes(hi):
        return hi, hi
    while hi - lo > BISECTION_RESOLUTION:
        mid = 0.5 * (lo + hi)
        if passes(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


def best_constant(
    battery: Sequence[ScalarField],
    mu: Density,
    mode: str = "slsi",
    c_range: tuple[float, float] = DEFAULT_C_RANGE,
    spec: Optional[QuadratureSpec] = None,
    r_grid: Sequence[float] = DEFAULT_R_GRID,
) -> float:
    """Bisection for the smallest c at which the whole battery passes.

    Inequality checks are monotone in c (the right-hand side scales with c),
    so bisection is valid.  If no c in the range passes, the range maximum is
    returned; it is then only a lower bound for the true constant.  Each step
    stops at the first failing member.  An inconclusive member makes the search
    inconclusive: its QuadratureFailure is raised, label in front, witness kept.

    In sLSI mode each member is integrated at most once, the first time a step
    reaches it: the deficit is affine in c, so later steps only re-run
    :func:`slsi_verdict` on the cached (Ent, EE) terms.

    In sHC mode the search is seeded with the sLSI answer, which the
    equivalence sHC(c) <=> sLSI(c) makes the likely one.  The sLSI bisection
    of the certified members runs first, over the same range, so both ends
    of its bracket are nodes of the sHC bisection, and one fill integrates
    the sHC norms at both.  The sHC bisection then runs with a monotone
    memo: a c at or above the smallest c seen to pass passes, and a c at or
    below the largest c seen to fail fails, with no integral and so no
    failure to raise.  Before it, a second fill integrates the norms at
    whichever of c_min and c_max the memo leaves undecided.  When the
    brackets agree no step integrates anything; when they do not, the
    seed's verdicts settle the steps on their side.  Where the sLSI terms
    cannot be computed (a measure that is not rotation-invariant, no
    certified member, a failed integral) there is no seed; a failure in the
    seed or in its sHC verdicts is never raised.  The battery shares one
    :class:`DilationNorms` table, so no norm is integrated twice; a step the
    memo does not settle first fills every norm its verdicts can read, for
    every certified member, in one call.  The verdict is the one
    :func:`check_shc` reports, member by member, so which member fails, and
    which failure is raised, are those of a step that reaches the members
    one by one.
    """
    if mode not in ("slsi", "shc"):
        raise InvalidParameter("mode must be 'slsi' or 'shc'")
    if not battery:
        raise InvalidParameter("battery must be non-empty")
    if mode == "shc" and len(r_grid) == 0:
        raise InvalidParameter("r_grid must be non-empty")
    lo, hi = float(c_range[0]), float(c_range[1])
    if not 0.0 < lo < hi < math.inf:
        raise InvalidParameter(f"c_range must satisfy 0 < c_min < c_max < inf, got {tuple(c_range)}")
    if mode == "shc":
        _shc_keys((lo,), r_grid)  # an r outside (0, 1] is refused before the seed's integrals
    spec = (spec or default_spec(mu)).resolved(mu.dim)
    terms = {}  # battery index -> its slsi_terms, built once

    def slsi(i: int, c: float) -> bool:
        if i not in terms:
            terms[i] = slsi_terms(battery[i], mu, spec)
        return slsi_verdict(terms[i], c)[2]

    def passes(verdict, c: float, members: Iterable[int] = range(len(battery))) -> bool:
        for i in members:
            try:
                if not verdict(i, c):
                    return False
            except QuadratureFailure as exc:
                raise QuadratureFailure(f"{battery[i].label}: {exc}", witness=exc.witness) from exc
        return True

    def c_star(lo: float, hi: float) -> float:
        if lo == hi:
            return lo
        # snap the bracket midpoint to the double nearest k / 1000 (k * 0.001 can be 1 ulp off)
        return round(0.5 * (lo + hi) / BISECTION_RESOLUTION) / round(1.0 / BISECTION_RESOLUTION)

    if mode == "slsi":
        return c_star(*_bisect(lambda c: passes(slsi, c), lo, hi))

    norms = DilationNorms(battery, mu, spec)
    certified = [i for i, f in enumerate(battery) if f.certified]
    passed_at, failed_at = math.inf, -math.inf  # the smallest c seen to pass, the largest to fail

    def shc(i: int, c: float) -> bool:
        return shc_passed(shc_rows(norms, i, c, r_grid))

    def fill(cs: Iterable[float]):
        # the norms of the verdicts at every c of cs that the memo leaves undecided
        keys = _shc_keys([c for c in cs if failed_at < c < passed_at], r_grid)
        norms.fill([(i, r, q) for i in certified for r, q in keys])

    def shc_passes(c: float) -> bool:
        nonlocal passed_at, failed_at
        if c >= passed_at:
            return True
        if c <= failed_at:
            return False
        fill((c,))
        if passes(shc, c):
            passed_at = c
            return True
        failed_at = c
        return False

    try:
        seed = _bisect(lambda c: passes(slsi, c, certified), lo, hi) if certified else ()
        fill(seed)  # the sHC norms at both ends of the sLSI bracket
    except LabError:
        seed = ()
    for c in seed:
        try:
            shc_passes(c)
        except LabError:
            pass
    fill((lo, hi))
    return c_star(*_bisect(shc_passes, lo, hi))


def default_battery(dim: int = 1,
                    lam_values: Sequence[float] = (0.4, 0.8, 1.2)) -> list[ScalarField]:
    """Shipped test battery: constants, the equality family, strictly convex
    log-profiles, power/product compositions, and one mollified field."""
    def lam_vec(lam):
        v = np.zeros(dim)
        v[0] = lam
        return v

    battery = [constant(1.5, dim)]
    battery += [log_linear(lam_vec(lam)) for lam in lam_values]
    if dim == 1:
        convex = cosh_field(0.8)
    else:
        convex = exp_norm_sq(0.05, dim)
    battery.append(convex)
    battery.append(power(convex, 1.5))
    battery.append(product_field(log_linear(lam_vec(0.4)), convex))
    battery.append(convolve(log_linear(lam_vec(0.8)), mollifier(dim, DEFAULT_MOLLIFIER_SCALE)))
    return battery
