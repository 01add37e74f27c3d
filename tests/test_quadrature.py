import math

import numpy as np
import pytest

import lshlab as L
from lshlab.errors import InvalidParameter, QuadratureFailure
from lshlab.quadrature import QuadratureSpec, measure_nodes


def ones(pts):
    return np.ones(pts.shape[0])


class TestSpecValidation:
    def test_unknown_scheme(self):
        with pytest.raises(InvalidParameter):
            QuadratureSpec(scheme="simpson")

    def test_bad_counts(self):
        with pytest.raises(InvalidParameter):
            QuadratureSpec(scheme="monte_carlo", mc_samples=1)
        with pytest.raises(InvalidParameter):
            QuadratureSpec(scheme="tensor_trapezoid", nodes_per_axis=2)

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
