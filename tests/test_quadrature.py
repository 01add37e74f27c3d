import math
import warnings

import numpy as np
import pytest

import lshlab as L
from lshlab import quadrature
from lshlab.errors import InvalidParameter, QuadratureFailure
from lshlab.quadrature import QuadratureSpec, measure_nodes, tensor_grid, weighted_moments


def ones(pts):
    return np.ones(pts.shape[0])


class TestTensorGrid:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_points_and_weights(self, dim):
        axis, w = np.array([-1.0, 0.5, 2.0]), np.array([0.25, 0.5, 0.125])
        pts, wts = tensor_grid(axis, dim, w)
        idx = np.array(np.unravel_index(np.arange(3**dim), (3,) * dim)).T
        assert np.array_equal(pts, axis[idx])  # first coordinate slowest
        assert np.array_equal(wts, np.prod(w[idx], axis=1))
        _, logw = tensor_grid(axis, dim, np.log(w), np.add)
        assert np.allclose(np.exp(logw), wts, rtol=1e-15)
        assert np.array_equal(tensor_grid(axis, dim), pts)


class TestHermiteNodes:
    @pytest.mark.parametrize("n", [26, 51, 101])
    def test_against_scipy_roots_hermite(self, n):
        from scipy.special import roots_hermite

        t, w = quadrature._hermgauss(n)
        t_ref, w_ref = roots_hermite(n)
        np.testing.assert_allclose(t, t_ref, rtol=0, atol=1e-14)
        np.testing.assert_allclose(w, w_ref, rtol=1e-12, atol=0)


class TestLogSumExp:
    def test_shifted_sum(self):
        v = np.array([-1000.0, -1001.0, -np.inf])
        assert quadrature._logsumexp(v) == pytest.approx(-1000.0 + math.log1p(math.exp(-1.0)),
                                                         rel=1e-15)

    @pytest.mark.parametrize("v", [np.empty(0), np.full(3, -np.inf)], ids=["empty", "all -inf"])
    def test_no_mass_is_minus_infinity(self, v):
        assert quadrature._logsumexp(v) == -math.inf


class TestSpecValidation:
    def test_unknown_scheme(self):
        with pytest.raises(InvalidParameter):
            QuadratureSpec(scheme="simpson")

    def test_bad_counts(self):
        with pytest.raises(InvalidParameter):
            QuadratureSpec(scheme="monte_carlo", mc_samples=1)
        with pytest.raises(InvalidParameter):
            QuadratureSpec(scheme="tensor_trapezoid", nodes_per_axis=2)

    @pytest.mark.parametrize("scheme, n", [("gauss_hermite", 101), ("tensor_trapezoid", 2049)])
    def test_default_node_count_resolved_before_halving(self, gauss1, scheme, n):
        # an unset count is the scheme's default, and its error estimate is
        # that of the default count, not |value - value| = 0
        f = L.log_linear([3.0])
        unset = L.integrate(f, gauss1, QuadratureSpec(scheme=scheme))
        assert unset == L.integrate(f, gauss1, QuadratureSpec(scheme=scheme, nodes_per_axis=n))
        with pytest.raises(InvalidParameter, match="no node count"):
            QuadratureSpec(scheme=scheme).halved()

    def test_gauss_hermite_only_for_gaussians(self):
        mu = L.gen_exponential(1.0, 1.0, 1)
        with pytest.raises(InvalidParameter):
            L.integrate(ones, mu, QuadratureSpec(scheme="gauss_hermite"))


class TestIntegrate:
    @pytest.mark.parametrize(
        "mu",
        [
            L.gaussian(1.0, 1),
            L.gaussian(0.7, 2),
            L.gen_exponential(1.0, 1.0, 1),
            L.gen_exponential(1.0, 2.0, 2),
            L.poly_tail(1.0),
            L.uniform_ball(1.5, 1),
        ],
        ids=lambda m: m.label,
    )
    def test_total_mass_is_one(self, mu):
        value, err = L.integrate(ones, mu, L.default_spec(mu))
        assert value == pytest.approx(1.0, abs=1e-8)
        assert math.isfinite(err)

    def test_gaussian_second_moment(self, gauss1, gh_spec):
        value, _ = L.integrate(lambda pts: pts[:, 0] ** 2, gauss1, gh_spec)
        assert value == pytest.approx(1.0, rel=1e-12)

    def test_moment_generating_function(self, gauss1, gh_spec):
        value, _ = L.integrate(L.log_linear([0.8]), gauss1, gh_spec)
        assert value == pytest.approx(math.exp(0.32), rel=1e-10)

    def test_error_estimate_attached(self, gauss1):
        for scheme in ("gauss_hermite", "tensor_trapezoid", "monte_carlo"):
            spec = QuadratureSpec(scheme=scheme, mc_samples=5000)
            value, err = L.integrate(lambda pts: pts[:, 0] ** 2, gauss1, spec)
            assert math.isfinite(err) and err >= 0

    def test_scheme_agreement_within_combined_errors(self, gauss1):
        h = L.log_linear([0.6])
        v_gh, e_gh = L.integrate(h, gauss1, QuadratureSpec(scheme="gauss_hermite"))
        v_mc, e_mc = L.integrate(
            h, gauss1, QuadratureSpec(scheme="monte_carlo", mc_samples=200_000, seed=3)
        )
        assert abs(v_gh - v_mc) <= 3.0 * (e_gh + e_mc)

    def test_dilation_change_of_variables(self, gauss1):
        # int f(rx) dmu(x) = r^-n int f(u) rho(u/r)/rho(u) dmu(u)
        f = L.cosh_field(0.8)
        r = 0.7
        spec = L.default_spec(gauss1)
        lhs, _ = L.integrate(L.dilate(f, r), gauss1, spec)

        def rhs_map(pts):
            ratio = np.exp(gauss1.log_pdf(pts / r) - gauss1.log_pdf(pts))
            return f(pts) * ratio / r

        rhs, _ = L.integrate(rhs_map, gauss1, spec)
        assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_monte_carlo_bit_identical(self, gauss1):
        spec = QuadratureSpec(scheme="monte_carlo", mc_samples=10_000, seed=42)
        h = L.cosh_field(0.5)
        v1, e1 = L.integrate(h, gauss1, spec)
        v2, e2 = L.integrate(h, gauss1, spec)
        assert v1 == v2 and e1 == e2

    def test_monte_carlo_seed_changes_stream(self, gauss1):
        h = L.cosh_field(0.5)
        v1, _ = L.integrate(h, gauss1, QuadratureSpec(scheme="monte_carlo", seed=1,
                                                      mc_samples=10_000))
        v2, _ = L.integrate(h, gauss1, QuadratureSpec(scheme="monte_carlo", seed=2,
                                                      mc_samples=10_000))
        assert v1 != v2

    def test_non_finite_integrand_reports_witness(self, gauss1, gh_spec):
        with pytest.raises(QuadratureFailure) as err, np.errstate(divide="ignore"):
            L.integrate(lambda pts: 1.0 / pts[:, 0], gauss1, gh_spec)
        assert err.value.point is not None

    def test_adaptive_poly_tail_moment(self):
        mu = L.poly_tail(1.5)
        spec = L.default_spec(mu)
        # oracle: int_0^inf x (1+x^2)^{-3/2} dx = [-(1+x^2)^{-1/2}] = 1 and the
        # unnormalized full-line mass is 2, so the mean of |x| is 1
        value_abs, _ = L.integrate(lambda pts: np.abs(pts[:, 0]), mu, spec)
        assert value_abs == pytest.approx(1.0, rel=1e-8)


def _laplace():
    return L.gen_exponential(1.0, 1.0, 1)


# (measure, h, closed form of int h dmu): Laplace and its shift have a kink of
# the density at 0 and 0.37, and poly_tail(2) has an algebraic tail
_CLOSED_FORMS = {
    "laplace-kink": (_laplace, lambda pts: np.exp(0.3 * pts[:, 0]), 1.0 / (1.0 - 0.09)),
    "shifted-kink": (lambda: L.shift(_laplace(), [0.37]), lambda pts: np.exp(0.3 * pts[:, 0]),
                     math.exp(0.3 * 0.37) / (1.0 - 0.09)),
    "poly-tail": (lambda: L.poly_tail(2.0, 1), lambda pts: pts[:, 0] ** 2, 1.0),
}


class TestAdaptiveRule:
    def test_kronrod_table_is_exact_to_degree_31(self):
        # 21 Kronrod nodes integrate degree 31 exactly and the embedded
        # 10-point Gauss rule degree 19, so the error estimate vanishes there
        lo, hi = np.array([-1.0, 0.0]), np.array([1.0, 2.0])
        for k in (0, 1, 18, 19, 30, 31):
            res, err = quadrature._gk21(lo, hi, lambda t, k=k: t ** k)
            want = [(1 - (-1) ** (k + 1)) / (k + 1), 2.0 ** (k + 1) / (k + 1)]
            np.testing.assert_allclose(res, want, rtol=1e-13, atol=1e-15)
            if k <= 19:
                assert np.all(err <= 1e-12 * np.maximum(1.0, np.abs(want)))

    @pytest.mark.parametrize("case", sorted(_CLOSED_FORMS))
    def test_error_covers_the_closed_form(self, case):
        make_mu, h, want = _CLOSED_FORMS[case]
        mu = make_mu()
        spec = L.default_spec(mu)
        assert spec.scheme == "adaptive_1d"
        value, err = L.integrate(h, mu, spec)
        assert abs(value - want) <= err
        assert err <= 1e-6 * want

    @pytest.mark.parametrize("case", ["laplace-kink", "shifted-kink"])
    def test_log_space_weight_matches_the_factor(self, case):
        # the same integral with e^{0.3x} as log_g instead of a factor
        make_mu, _, want = _CLOSED_FORMS[case]
        mu = make_mu()
        value, err = quadrature.adaptive_weighted(mu, L.default_spec(mu),
                                                  lambda pts: 0.3 * pts[:, 0])
        assert abs(value - want) <= err

    def test_interval_cap_reports_a_large_error_without_warning(self):
        # sign(sin 40x) jumps about 130 times where N(0, 1) has mass; each jump
        # needs ~25 bisections for 1e-8, so the 300 intervals run out
        mu = L.shift(L.gaussian(1.0, 1), [0.1])
        spec = L.default_spec(mu)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value, err = quadrature.adaptive_weighted(
                mu, spec, None, lambda pts, lg: np.sign(np.sin(40.0 * pts[:, 0])))
        assert math.isfinite(value)
        assert err > max(1e-12, spec.target_rel_tol * abs(value))

    def test_weighted_moments_never_calls_quad(self, monkeypatch):
        class NoQuad:
            def quad(self, *args, **kwargs):
                raise AssertionError("quad reached from the weighted-integral path")

        mu = L.mix(L.gaussian(0.8, 1), L.gaussian(1.25, 1), 0.7)  # normalised by quad
        monkeypatch.setattr(quadrature, "sp_integrate", NoQuad())
        spec = L.default_spec(mu)
        f = L.log_linear([0.5])
        norm = L.lp_norm(f, mu, 2.0, spec)
        # int e^{lam x} dN(0, s^2) = e^{lam^2 s^2 / 2}
        want = math.sqrt(0.3 * math.exp(0.5 * 0.64) + 0.7 * math.exp(0.5 * 1.5625))
        assert norm == pytest.approx(want, rel=1e-8)
        assert L.integrate(f, mu, spec)[0] == pytest.approx(
            0.3 * math.exp(0.125 * 0.64) + 0.7 * math.exp(0.125 * 1.5625), rel=1e-8)


def three_columns(pts):
    x = pts[:, 0]
    return np.stack([2.0 + np.cos(x), x * x, 1.0 / (1.0 + x * x)], axis=1)


class TestVectorIntegrate:
    @pytest.mark.parametrize("mu, spec", [
        (L.gaussian(1.0, 1), QuadratureSpec(scheme="gauss_hermite")),
        (L.gaussian(0.7, 1), QuadratureSpec(scheme="tensor_trapezoid")),
        (L.gaussian(1.0, 1), QuadratureSpec(scheme="monte_carlo", mc_samples=50_000, seed=4)),
        (L.gen_exponential(0.5, 2.0, 1), QuadratureSpec(scheme="adaptive_1d")),
    ], ids=lambda v: getattr(v, "scheme", None) or v.label)
    def test_columns_match_scalar_integrals(self, mu, spec):
        values, errs = L.integrate(three_columns, mu, spec)
        assert values.shape == errs.shape == (3,)
        for j in range(3):
            v, e = L.integrate(lambda pts: three_columns(pts)[:, j], mu, spec)
            assert isinstance(v, float) and isinstance(e, float)
            np.testing.assert_allclose(values[j], v, rtol=1e-13, atol=0)
            # a node-doubling error is a difference of close sums: compare it
            # on the scale of the integral it belongs to
            np.testing.assert_allclose(errs[j], e, rtol=1e-13, atol=1e-13 * abs(v))

    def test_single_column_stays_an_array(self, gauss1, gh_spec):
        values, errs = L.integrate(lambda pts: pts[:, :1] ** 2, gauss1, gh_spec)
        assert values.shape == errs.shape == (1,)
        assert values[0] == pytest.approx(1.0, rel=1e-12)

    def test_witness_is_the_row_of_the_bad_column(self, gauss1, gh_spec):
        pts, _ = measure_nodes(gauss1, gh_spec)
        bad_row = 37

        def h(x):
            out = np.ones((x.shape[0], 2))
            out[np.all(x == pts[bad_row], axis=1), 1] = np.nan
            return out

        with pytest.raises(QuadratureFailure) as err:
            L.integrate(h, gauss1, gh_spec)
        np.testing.assert_array_equal(err.value.point, pts[bad_row])


class TestWeightedMoments:
    # under g = e^{lam x} the Gaussian's mass is e^{lam^2 / 2} and x has mean lam
    @pytest.mark.parametrize("mu", [L.gaussian(1.0, 1), L.gen_exponential(0.5, 2.0, 1)],
                             ids=("gauss_hermite", "adaptive_1d"))
    def test_mass_and_means_of_a_tilted_gaussian(self, mu):
        lam = 0.7
        spec = L.default_spec(mu)
        value, err = weighted_moments(
            lambda pts: lam * pts[:, 0],
            [lambda pts, lg: lg, lambda pts, lg: np.stack([pts[:, 0], pts[:, 0] ** 2], 1)],
            mu, spec, lambda log_mass, means: np.concatenate([[log_mass], means]))
        want = [lam * lam / 2, lam * lam, lam, 1 + lam * lam]
        assert value == pytest.approx(want, rel=1e-8)
        assert np.all(err < 1e-6)

    def test_unit_weight_means_are_integrals(self, gauss1, gh_spec):
        value, _ = weighted_moments(None, [lambda pts, lg: pts[:, 0] ** 2], gauss1, gh_spec,
                                    lambda log_mass, means: np.array([log_mass, means[0]]))
        assert value[0] == 0.0 and value[1] == pytest.approx(1.0, rel=1e-12)

    def test_adaptive_error_is_first_order_change(self):
        # fn = means[0] * e^{log_mass} is int g x dmu; its error is that integral's own
        mu = L.gen_exponential(0.5, 2.0, 1)
        spec = L.default_spec(mu)
        lam = 0.7
        direct = quadrature.adaptive_weighted(
            mu, spec, lambda pts: lam * pts[:, 0], lambda pts, lg: pts[:, 0])
        value, err = weighted_moments(lambda pts: lam * pts[:, 0],
                                      [lambda pts, lg: pts[:, 0]], mu, spec,
                                      lambda log_mass, means: math.exp(log_mass) * means[0])
        assert value == pytest.approx(direct[0], rel=1e-14)
        assert err == pytest.approx(direct[1], rel=1e-6)


class TestLpNorm:
    def test_constant_has_unit_norms(self, gauss1, gh_spec):
        f = L.constant(1.0, 1)
        for p in (0.5, 1.0, 2.0, 7.0):
            assert L.lp_norm(f, gauss1, p, gh_spec) == pytest.approx(1.0, rel=1e-10)

    @pytest.mark.parametrize("p", [0.5, 1.0, 2.0, 3.5])
    def test_log_linear_closed_form(self, gauss1, gh_spec, p):
        lam = 0.8
        f = L.log_linear([lam])
        # (int e^{p lam x} dmu)^{1/p} = e^{p lam^2 / 2}
        assert L.lp_norm(f, gauss1, p, gh_spec) == pytest.approx(
            math.exp(p * lam**2 / 2.0), rel=1e-9
        )

    def test_sub_unit_exponent_accepted(self, gauss1, gh_spec):
        assert L.lp_norm(L.cosh_field(0.5), gauss1, 0.5, gh_spec) > 0

    def test_p_must_be_positive(self, gauss1, gh_spec):
        with pytest.raises(InvalidParameter):
            L.lp_norm(L.constant(1.0, 1), gauss1, 0.0, gh_spec)

    def test_large_power_stays_finite_with_honest_error(self, gauss1):
        # the L^16 integrand of e^{3x} peaks at x = 48, outside any Hermite
        # rule's reach in double precision; log-space evaluation never
        # overflows and the doubling estimate flags the unresolved integrand
        from lshlab.quadrature import lp_norm_with_error

        f = L.log_linear([3.0])
        val, err = lp_norm_with_error(f, gauss1, 16.0, QuadratureSpec(
            scheme="gauss_hermite", nodes_per_axis=101))
        assert math.isfinite(val)
        assert err / val > 1.0

    def test_large_power_accurate_in_check_regime(self, gauss1, gh_spec):
        # exponents the inequality checks actually reach (q(r) <= ~16)
        f = L.log_linear([0.5])
        val = L.lp_norm(f, gauss1, 16.0, gh_spec)
        assert val == pytest.approx(math.exp(16.0 * 0.25 / 2.0), rel=1e-10)
