"""A closed-form oracle for the sLSI and sHC checks on g = e^{lam . x}.

For a measure mu with moment-generating function M(lam) = E_mu e^{lam . x},
Ent(g) = lam . grad M - M ln M and int E g dmu = lam . grad M, so the sLSI
deficit (c/2) int E g dmu - Ent(g) is M ((c/2 - 1) rho + ln M), with rho =
lam . grad M / M.  The sHC row at r reads alpha(r) = ||g_r||_q = M(q r
lam)^{1/q}, q = r^{-2/c}.  Hoelder bounds ||g_r||_1 = M(r lam) by alpha(r), so
the row does not read it; the oracle integrates it on the row's spec and holds
it to the row's tolerance.  Every measure of CASES is rotation-invariant or
1-D, so M depends on t = |lam| alone, and each MGF below maps t to (ln M,
rho); the shifted and product measures of ORIENTED_CASES are tilted along e_1
alone, lam = t e_1.

A mollified g = e^{lam . x} * phi_k is K e^{lam . x}, with K = int e^{-lam . y}
phi_k(y) dy, so on the Gaussian its sLSI deficit is K times g's, ||g||_1 =
K e^{t^2/2}, and its sHC row at r reads alpha(r) = K e^{q r^2 t^2 / 2}.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import i0, ive

import lshlab as L
from lshlab.checks import check_shc, check_slsi
from lshlab.errors import InvalidParameter


@pytest.fixture
def shc(tables):
    """check_shc(f, mu, c) as (report, [(row, ||f_r||_1) for each live row]):
    the norms are filled into the check's own table, so each ln f_r is
    evaluated once for both of a row's norms."""
    def run(f, mu, c):
        rep = check_shc(f, mu, c)
        norms = tables.pop()
        if rep.inconclusive:
            return rep, []
        live = [row for row in rep.quantities["rows"] if not row["skipped"]]
        norms.fill([(0, row["r"], 1.0) for row in live])
        return rep, [(row, norms(0, row["r"], 1.0)[0]) for row in live]

    return run


def _gaussian(s2):
    """N(0, s2 I): M = e^{s2 t^2 / 2}."""
    return lambda t: (s2 * t * t / 2.0, s2 * t * t)


def _laplace(n):
    """gen_exponential(2, 1, n), density ~ e^{-2|x|}: M = (1 - t^2/4)^{-(n+1)/2},
    divergent for t >= 2."""
    k = (n + 1) / 2.0

    def mgf(t):
        if t >= 2.0:
            return math.inf, math.inf
        u = 1.0 - t * t / 4.0
        return -k * math.log(u), k * t * t / (2.0 * u)
    return mgf


def _disc(t):
    """uniform_ball(1, 2): M = 2 I_1(t) / t, lam . grad M = 2 I_2(t)."""
    return math.log(2.0 * ive(1, t) / t) + t, t * ive(2, t) / ive(1, t)


def _ball(t):
    """uniform_ball(1, 3): M = 3 (t cosh t - sinh t) / t^3."""
    ch, sh = math.cosh(t), math.sinh(t)
    return (math.log(3.0 * (t * ch - sh) / t**3),
            ((t * t + 3.0) * sh - 3.0 * t * ch) / (t * ch - sh))


def _mixture(t):
    """mix(N(0, 0.8^2), N(0, 1.25^2), 0.3): the convex combination of their Ms."""
    parts = [(0.7, 0.64), (0.3, 1.5625)]
    m = sum(w * math.exp(s2 * t * t / 2.0) for w, s2 in parts)
    return math.log(m), sum(w * s2 * t * t * math.exp(s2 * t * t / 2.0) for w, s2 in parts) / m


# (measure, MGF, tilts |lam| along e_1).  The Gaussian tilts stop at 3:
# beyond it, Gauss-Hermite's large-q alpha rows are off by more than their
# tolerance (ROADMAP item 2).  gen_exponential(0.5, 2, 2) at lam = 4 and
# gen_exponential(2, 1, 2) at lam = 0.3 and 1.5 are wrong on the tensor
# trapezoid without its box-edge guard
CASES = {
    "gaussian-1": (lambda: L.gaussian(1.0, 1), _gaussian(1.0), (0.5, 1.5, 3.0)),
    "gaussian-2": (lambda: L.gaussian(1.0, 2), _gaussian(1.0), (0.5, 1.5, 3.0)),
    "gaussian-3": (lambda: L.gaussian(1.0, 3), _gaussian(1.0), (0.5, 1.5, 3.0)),
    "normal-1": (lambda: L.gen_exponential(0.5, 2, 1), _gaussian(1.0), (0.5, 1.5, 3.0)),
    "normal-2": (lambda: L.gen_exponential(0.5, 2, 2), _gaussian(1.0), (1.5, 4.0)),
    "normal-3": (lambda: L.gen_exponential(0.5, 2, 3), _gaussian(1.0), (1.5,)),
    "laplace-1": (lambda: L.gen_exponential(2, 1, 1), _laplace(1), (0.3, 0.8, 1.5)),
    "laplace-2": (lambda: L.gen_exponential(2, 1, 2), _laplace(2), (0.3, 1.5)),
    "laplace-3": (lambda: L.gen_exponential(2, 1, 3), _laplace(3), (0.3,)),
    "disc": (lambda: L.uniform_ball(1.0, 2), _disc, (1.0, 4.0)),
    "ball": (lambda: L.uniform_ball(1.0, 3), _ball, (4.0,)),
    "convolution-2": (lambda: L.convolve_measures(L.gaussian(1.0, 2), L.gaussian(0.7, 2)),
                      _gaussian(1.49), (1.5,)),
    "mixture-1": (lambda: L.mix(L.gaussian(0.8), L.gaussian(1.25), 0.3), _mixture,
                  (0.5, 1.5, 3.0)),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_checks_match_closed_form_mgf(case, shc):
    build, mgf, tilts = CASES[case]
    mu = build()
    for t in tilts:
        f = L.log_linear(t * np.eye(mu.dim)[0])
        ln_m, rho = mgf(t)
        for c in (0.5, 1.0):
            rep = check_slsi(f, mu, c)
            if not rep.inconclusive:
                want = math.exp(ln_m) * ((c / 2.0 - 1.0) * rho + ln_m)
                assert abs(rep.quantities["deficit"] - want) <= rep.tolerance, (t, c, want)
            rep, live = shc(f, mu, c)
            if rep.inconclusive:
                continue
            base = rep.quantities["norm1"]
            for row, norm1 in live:
                r, q = row["r"], row["q_of_r"]
                ln_alpha = mgf(q * r * t)[0] / q
                # a Laplace-type row whose tilt q r t reaches 2 diverges
                assert math.isfinite(ln_alpha), (t, c, r, row["alpha"])
                err = row["tol_rel"] * base
                assert abs(row["alpha"] - math.exp(ln_alpha)) <= err, (t, c, r)
                assert abs(norm1 - math.exp(mgf(r * t)[0])) <= err, (t, c, r)


def _shifted(mgf, m):
    """A shift whose offset has first coordinate m: along lam = t e_1, ln M
    and lam . grad M / M gain t m."""
    def shifted(t):
        ln_m, rho = mgf(t)
        return ln_m + t * m, rho + t * m
    return shifted


# (measure, MGF along e_1) for measures that are not rotation-invariant: a
# shift by m adds lam . m to ln M, and a product tilted along e_1 keeps its
# first factor's M.  check_slsi refuses them, so the oracle reads the sHC rows
ORIENTED_CASES = {
    "shift-1": (lambda: L.shift(L.gaussian(1.0, 1), [0.5]), _shifted(_gaussian(1.0), 0.5)),
    "shift-2": (lambda: L.shift(L.gaussian(1.0, 2), [0.5, -0.3]),
                _shifted(_gaussian(1.0), 0.5)),
    "product-gaussians": (lambda: L.product(L.gaussian(1.0, 1), L.gaussian(0.8, 1)),
                          _gaussian(1.0)),
    "product-mixture": (lambda: L.product(L.mix(L.gaussian(0.8), L.gaussian(1.25), 0.3),
                                          L.gaussian(1.0, 1)), _mixture),
}


@pytest.mark.parametrize("case", sorted(ORIENTED_CASES))
def test_shc_on_oriented_measures_matches_closed_form_mgf(case, shc):
    build, mgf = ORIENTED_CASES[case]
    mu = build()
    with pytest.raises(InvalidParameter, match="rotation-invariant"):
        check_slsi(L.log_linear(np.eye(mu.dim)[0]), mu, 1.0)
    for t in (0.5, 1.5, 3.0):
        for c in (0.5, 1.0):
            f = L.log_linear(t * np.eye(mu.dim)[0])
            rep, live = shc(f, mu, c)
            if rep.inconclusive:
                continue
            base = rep.quantities["norm1"]
            for row, norm1 in live:
                r, q = row["r"], row["q_of_r"]
                err = row["tol_rel"] * base
                assert abs(row["alpha"] - math.exp(mgf(q * r * t)[0] / q)) <= err, (t, c, r)
                assert abs(norm1 - math.exp(mgf(r * t)[0])) <= err, (t, c, r)


# The box-edge rule fails sHC rows of these Laplace-type tilts on the tensor
# trapezoid, rows whose alpha is finite and above ||f||_1, and every row left
# passes.  A row that failed to integrate may be the failing one, so the
# report is inconclusive, with that row's witness, and best_constant raises
@pytest.mark.parametrize("n, lam, c, r", [
    (2, (0.8, 0.0), 1.0, 0.5),
    (3, (0.3, 0.0, 0.0), 0.5, 0.6),
    (3, (0.3 / math.sqrt(3),) * 3, 0.5, 0.6),
    (3, (0.8 / math.sqrt(3),) * 3, 0.5, 0.6),
])
def test_shc_pass_on_laplace_agrees_with_closed_form(n, lam, c, r):
    mgf, t = _laplace(n), math.hypot(*lam)
    q = r ** (-2.0 / c)
    assert mgf(q * r * t)[0] / q > mgf(t)[0]  # alpha(r) > ||f||_1: the sHC fails
    f, mu = L.log_linear(lam), L.gen_exponential(2, 1, n)
    rep = check_shc(f, mu, c)
    assert rep.inconclusive and not rep.passed
    assert len(rep.quantities["witness"]) == n
    with pytest.raises(L.QuadratureFailure, match="log_linear"):
        L.best_constant([f], mu, mode="shc")


def _mollifier_factor(n, k, t):
    """K = int e^{-lam . y} phi_k(y) dy for |lam| = t: the sphere average of
    e^{-lam . y} at |y| = rho, cosh, I_0 or sinh(u)/u of u = t rho, against
    the bump's radial mass rho^{n-1} e^{-1/(1 - (k rho)^2)} on [0, 1/k]."""
    kernel = {1: math.cosh, 2: i0, 3: lambda u: math.sinh(u) / u}[n]
    mass = lambda rho: rho ** (n - 1) * math.exp(-1.0 / (1.0 - (k * rho) ** 2))
    return (quad(lambda rho: kernel(t * rho) * mass(rho), 0.0, 1.0 / k)[0]
            / quad(mass, 0.0, 1.0 / k)[0])


def _mollified_cases():
    cases = [(n, k, t, c) for n in (1, 2) for k in (1, 4) for t in (0.5, 1.5)
             for c in (0.5, 1.0)]
    # a 3-D sHC search takes seconds; one 3-D sLSI check
    return [pytest.param(*case, id=f"{case[0]}d-k{case[1]}-t{case[2]}-c{case[3]}")
            for case in cases + [(3, 4, 1.5, 1.0)]]


@pytest.mark.parametrize("n, k, t, c", _mollified_cases())
def test_mollified_checks_match_closed_form(n, k, t, c, shc):
    mu, scale = L.gaussian(1.0, n), _mollifier_factor(n, k, t)
    g = L.convolve(L.log_linear(t * np.eye(n)[0]), L.mollifier(n, k))
    rep = check_slsi(g, mu, c)
    want = scale * math.exp(t * t / 2.0) * (c - 1.0) * t * t / 2.0
    assert not rep.inconclusive
    assert abs(rep.quantities["deficit"] - want) <= rep.tolerance, want
    if n == 3:
        return
    rep, live = shc(g, mu, c)
    assert not rep.inconclusive
    base = rep.quantities["norm1"]
    for row, norm1 in live:
        r, q = row["r"], row["q_of_r"]
        err = row["tol_rel"] * base
        assert abs(row["alpha"] - scale * math.exp(q * (r * t) ** 2 / 2.0)) <= err, r
        assert abs(norm1 - scale * math.exp((r * t) ** 2 / 2.0)) <= err, r
