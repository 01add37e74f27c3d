import gc
import math
import tracemalloc

import numpy as np
import pytest
import scipy.integrate
from scipy.special import gammainccinv

import lshlab as L
from lshlab import measures
from lshlab.errors import (
    EvaluationFailure,
    InvalidParameter,
    TypeConditionViolation,
)
from lshlab.measures import Density


def mass(mu, **spec_overrides):
    spec = L.default_spec(mu, **spec_overrides)
    value, _ = L.integrate(lambda pts: np.ones(pts.shape[0]), mu, spec)
    return value


def _quad_mass(density, lo):
    """int_lo^inf density, lo = -inf or 0, by QUADPACK at a 2e-14 relative tolerance."""
    value, err = scipy.integrate.quad(density, lo, math.inf, epsabs=0.0, epsrel=2e-14,
                                      limit=500)
    assert err <= 1e-13 * value
    return value


class TestBuiltins:
    def test_gaussian_normalization(self, gauss1):
        # the normalizing constant Z = 1 / rho(0)
        assert math.exp(-gauss1.log_pdf([0.0])) == pytest.approx(math.sqrt(2 * math.pi),
                                                                 rel=1e-12)
        assert mass(gauss1) == pytest.approx(1.0, abs=1e-10)

    def test_two_sided_exponential(self):
        mu = L.gen_exponential(c=1.0, a=1.0, dim=1)
        x = np.array([[0.3], [-1.7], [2.4]])
        assert mu.pdf(x) == pytest.approx(0.5 * np.exp(-np.abs(x[:, 0])), rel=1e-10)
        assert mass(mu) == pytest.approx(1.0, abs=1e-10)

    def test_poly_tail_against_arctan_antiderivative(self):
        mu = L.poly_tail(1.0)
        # independent oracle: adaptive quadrature of the unnormalized density
        # over [-X, X] must match the arctan antiderivative
        for X in (1.0, 10.0, 250.0):
            val, _ = scipy.integrate.quad(lambda x: 1.0 / (1.0 + x * x), -X, X)
            assert val == pytest.approx(2.0 * math.atan(X), rel=1e-10)
        assert math.exp(-mu.log_pdf([0.0])) == pytest.approx(math.pi, rel=1e-10)
        assert mass(mu) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("sigma, dim", [(1.0, 1), (0.7, 2), (1.3, 3)])
    def test_gaussian_norm_const_against_quad(self, sigma, dim):
        line = _quad_mass(lambda x: math.exp(-x * x / (2.0 * sigma**2)), -math.inf)
        log_z = -L.gaussian(sigma, dim).log_pdf(np.zeros(dim))
        assert math.exp(log_z) == pytest.approx(line**dim, rel=1e-13)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("a", [1.0, 2.0, 4.0])
    def test_gen_exponential_norm_const_against_quad(self, a, dim):
        c = 0.7
        sphere = 2.0 * math.pi ** (dim / 2.0) / math.gamma(dim / 2.0)
        radial = _quad_mass(lambda t: t ** (dim - 1) * math.exp(-c * t**a), 0.0)
        log_z = -L.gen_exponential(c, a, dim).log_pdf(np.zeros(dim))
        assert math.exp(log_z) == pytest.approx(sphere * radial, rel=1e-13)

    @pytest.mark.parametrize("alpha", [0.75, 1.0, 3.0])
    def test_poly_tail_norm_const_against_quad(self, alpha):
        want = _quad_mass(lambda x: (1.0 + x * x) ** -alpha, -math.inf)
        assert math.exp(-L.poly_tail(alpha).log_pdf([0.0])) == pytest.approx(want, rel=1e-13)

    def test_uniform_ball_mass(self):
        mu = L.uniform_ball(1.5, dim=1)
        assert mass(mu) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize(
        "kind,params,dim",
        [
            ("poly_tail", {"alpha": 0.5}, 1),
            ("poly_tail", {"alpha": 1.0}, 2),
            ("gaussian", {"sigma": -1.0}, 1),
            ("gaussian", {"sigma": 0.0}, 1),
            ("gen_exponential", {"c": -2.0, "a": 1.0}, 1),
            ("uniform_ball", {"radius": 0.0}, 1),
            ("gen_exponential", {"c": 1.0, "a": 0.005}, 1),  # mass e^864
        ],
    )
    def test_out_of_range_parameters_rejected(self, kind, params, dim):
        with pytest.raises(InvalidParameter):
            L.make_builtin(kind, params, dim)

    @pytest.mark.parametrize("k", [1e-3, 1e-2, 0.5, 1, 3, 30, 150, 1e3, 1e4, 1e5, 1e6])
    def test_gamma_tail_inverse_against_scipy(self, k):
        assert measures._gammainccinv(k, 1e-12) == pytest.approx(gammainccinv(k, 1e-12),
                                                                  rel=1e-12, abs=0)

    @pytest.mark.parametrize("c, a, dim", [(1.0, 1.0, 1), (0.5 / 1.6**2, 2.0, 1),
                                           (0.7, 4.0, 3), (2.0, 0.5, 2)])
    def test_gen_exponential_truncation_radius(self, c, a, dim):
        want = (gammainccinv(dim / a, 1e-12) / c) ** (1.0 / a)
        got = L.gen_exponential(c, a, dim).truncation_radius
        assert got == pytest.approx(want, rel=1e-15, abs=0)

    def test_overflowing_truncation_radius_rejected(self):
        # the normalising constant e^-51 is fine, the radius (x / c)^(1 / a) is e^10640
        with pytest.raises(InvalidParameter,
                           match=r"c=3700, a=0.0001\) has truncation radius e\^1.064e\+04"):
            L.gen_exponential(3700.0, 1e-4, 1)

    def test_underflowing_mass_rejected(self):
        # the normalising constant 4 c^-2 is e^-1380 and the radius is 0.0 in
        # double precision; the density's log_pdf would take ln 0
        with pytest.raises(InvalidParameter, match=r"c=1e\+300, a=0.5\) has mass e\^-1380"):
            L.gen_exponential(1e300, 0.5, 1)

    def test_make_builtin_dispatch(self):
        mu = L.make_builtin("gaussian", {"sigma": 2.0}, 1)
        assert mu.params == (2.0,)
        with pytest.raises(InvalidParameter):
            L.make_builtin("lebesgue", {}, 1)
        with pytest.raises(InvalidParameter):
            L.make_builtin("gaussian", {"spread": 1.0}, 1)


class TestEval:
    def test_standard_gaussian_values(self, gauss1):
        assert gauss1.pdf(np.array([0.0])) == pytest.approx(0.3989422804014327, rel=1e-12)
        # frozen from direct formula evaluation exp(-1/2)/sqrt(2 pi)
        assert gauss1.pdf(np.array([1.0])) == pytest.approx(0.24197072451914337, rel=1e-12)

    def test_outside_support_is_zero(self):
        mu = L.uniform_ball(1.0, dim=1)
        assert mu.pdf(np.array([2.0])) == 0.0

    def test_overflow_reported_not_silent(self, gauss1):
        spiked = Density(
            dim=1,
            truncation_radius=8.0,
            rotation_invariant=True,
            strictly_positive=True,
            label="spiked",
            _log_density=lambda pts: 1600.0 * np.exp(-1e6 * pts[:, 0] ** 2),
        )
        with pytest.raises(EvaluationFailure) as err:
            spiked.pdf(np.array([0.0]))
        assert err.value.witness is not None

    def test_non_finite_point_rejected(self, gauss1):
        with pytest.raises(InvalidParameter):
            gauss1.pdf(np.array([math.inf]))

    def test_rotation_invariance_flag(self, gauss1, gauss2, rng):
        flagged = [
            gauss2,
            L.gen_exponential(1.0, 1.0, 2),
            L.mix(L.gaussian(1.0, 2), L.gen_exponential(1.0, 1.0, 2), 0.3),
            L.convolve_measures(gauss1, L.gen_exponential(1.0, 2.0, 1)),
        ]
        for mu in flagged:
            assert mu.rotation_invariant
            pts = 0.5 * rng.standard_normal((16, mu.dim))
            for theta in (0.3, 1.2, 2.6):
                if mu.dim == 1:
                    u = np.array([[-1.0]])
                else:
                    u = np.array(
                        [
                            [math.cos(theta), -math.sin(theta)],
                            [math.sin(theta), math.cos(theta)],
                        ]
                    )
                assert mu.pdf(pts) == pytest.approx(mu.pdf(pts @ u.T), rel=1e-6)


class TestRegularityConstant:
    def test_gaussian_c0_attained_at_origin(self, gauss1):
        # analytic ratio exp(-(a^2-1)x^2/2) <= 1 with max at 0
        assert L.regularity_constant(gauss1, 0, 2.0, 0.0) == pytest.approx(1.0, abs=1e-8)

    def test_poly_tail_c0(self):
        mu = L.poly_tail(1.0)
        assert L.regularity_constant(mu, 0, 1.5, 0.0) == pytest.approx(1.0, abs=1e-8)

    def test_gaussian_p2_calculus_value(self, gauss1):
        # sup of x^2 exp(-3x^2/2) at x^2 = 2/3
        expected = (2.0 / 3.0) * math.exp(-1.0)
        assert L.regularity_constant(gauss1, 2, 2.0, 0.0) == pytest.approx(expected, abs=1e-4)

    def test_poly_tail_type1_violation_with_witness(self):
        mu = L.poly_tail(1.0)
        with pytest.raises(TypeConditionViolation) as err:
            L.regularity_constant(mu, 1, 2.0, 0.0)
        assert err.value.witness is not None

    def test_monotone_in_s(self, gauss1):
        for a in (1.2, 1.7, 2.5):
            vals = [L.regularity_constant(gauss1, 0, a, s) for s in (0.0, 0.3, 0.8, 1.5)]
            assert all(v2 >= v1 - 1e-12 for v1, v2 in zip(vals, vals[1:]))

    def test_compact_support_rejected(self):
        mu = L.uniform_ball(1.0, dim=1)
        with pytest.raises(InvalidParameter):
            L.regularity_constant(mu, 0, 2.0, 0.0)

    def test_a_below_one_rejected(self, gauss1):
        with pytest.raises(InvalidParameter):
            L.regularity_constant(gauss1, 0, 0.9, 0.0)

    @pytest.mark.parametrize("a, s", [(1.25, 0.3125), (1.5, 1.0)])
    @pytest.mark.parametrize("sigma", [1.0, 0.7])
    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_gaussian_c0_closed_form_in_every_dimension(self, dim, sigma, a, s):
        # the sup of exp(|x|^2/(2 sigma^2) - (a|x| - s)^2/(2 sigma^2)) is at
        # |x| = a s/(a^2 - 1); the line's spacing 2R/2000 bounds the miss
        expected = math.exp(s * s / (2.0 * sigma**2 * (a * a - 1.0)))
        value = L.regularity_constant(L.gaussian(sigma, dim), 0, a, s)
        assert value == pytest.approx(expected, rel=1e-4)
        assert value <= expected * (1.0 + 1e-12)

    def test_gaussian_c1_closed_form_in_3d(self):
        # ln t + t^2/2 - (1.25 t - 0.5)^2/2 peaks at t = 2 with value ln 2
        value = L.regularity_constant(L.gaussian(1.0, 3), 1, 1.25, 0.5)
        assert value == pytest.approx(2.0, rel=1e-4)
        assert value <= 2.0 * (1.0 + 1e-12)

    @pytest.mark.parametrize("mu, p, a, s, expected", [
        (L.mix(L.gaussian(0.8), L.gaussian(1.25), 0.3), 0, 1.1, 0.5, 1.791220972742594),
        (L.mix(L.gaussian(0.8), L.gaussian(1.25), 0.3), 1, 1.25, 0.3125, 1.384046214334323),
        (L.gen_exponential(1.0, 4.0, 1), 2, 1.5, 1.0, 39.65869549331915),
        (L.gen_exponential(0.5, 2.0, 1), 1, 2.0, 0.5, 0.6030737071768074),
    ], ids=["mixture_c0", "mixture_c1", "quartic_c2", "gen_gauss_c1"])
    def test_one_dimensional_constants_unchanged(self, mu, p, a, s, expected):
        # values of the 2001-node line search, pinned: a 1-D search is unchanged
        assert L.regularity_constant(mu, p, a, s) == expected


class TestTypeReport:
    def test_gaussian_type1(self, gauss1):
        rep = L.type_report(gauss1, 1.0, [1.5, 2.0], [0.0, 1.0])
        assert rep.numerically_type_p
        assert len(rep.entries) == 4
        assert all(math.isfinite(v) and v > 0 for _, _, v in rep.entries)
        assert rep.uniform_near_one == pytest.approx(1.0, abs=1e-8)

    def test_poly_tail_flagged_with_witness(self):
        mu = L.poly_tail(1.0)
        rep = L.type_report(mu, 1.0, [2.0], [0.0])
        assert not rep.numerically_type_p
        assert rep.violations and rep.violations[0][2] is not None

    def test_gaussian_shaped_type4(self):
        mu = L.gen_exponential(c=1.0, a=2.0, dim=1)
        rep = L.type_report(mu, 4.0, [1.5, 2.0], [0.0])
        assert rep.numerically_type_p

    def test_type_q_implies_type_p(self):
        mu = L.gen_exponential(c=1.0, a=2.0, dim=1)
        rep_q = L.type_report(mu, 2.0, [1.5, 2.0], [0.0, 0.5])
        rep_p = L.type_report(mu, 1.0, [1.5, 2.0], [0.0, 0.5])
        assert rep_q.numerically_type_p and rep_p.numerically_type_p

    def test_divergent_near_one_sweep_is_a_violation(self):
        # two modes 5 apart, each of width 0.05: between them rho(a x) / rho(x)
        # exceeds the overflow guard for every a in the near-one window
        mu = L.mix(L.gaussian(0.05), L.shift(L.gaussian(0.05), [5.0]), 0.5)
        rep = L.type_report(mu, 0.0, [1.1], [0.0])
        assert rep.uniform_near_one is None and not rep.numerically_type_p
        label, s, witness = rep.violations[-1]
        assert label == "near-one sweep (eps=0.25)" and s == 0.0 and witness is not None

    def test_empty_lists_rejected(self, gauss1):
        with pytest.raises(InvalidParameter):
            L.type_report(gauss1, 0.0, [], [0.0])

    def test_report_serializes(self, gauss1):
        rep = L.type_report(gauss1, 0.0, [1.5], [0.0])
        d = rep.to_dict()
        assert d["numerically_type_p"] and d["grid_spec"]["dim"] == 1

    @pytest.mark.parametrize("mu, searched", [
        (L.gaussian(1.0, 3), (1, 2001)),
        (L.product(L.gaussian(1.0), L.gaussian(1.0)), (1, 2001)),
        (L.shift(L.gaussian(1.0, 2), [0.5, 0.0]), (2, 201)),
    ], ids=["gaussian_3d", "product_of_equal_gaussians", "shifted_2d"])
    def test_grid_spec_records_the_searched_dimension(self, mu, searched):
        # a rotation-invariant measure is searched on the e_1 line, any other
        # on the tensor grid of its own dimension
        spec = L.type_report(mu, 1.0, [1.25], [0.5]).grid_spec
        assert (spec["dim"], spec["nodes_per_axis"]) == searched


class TestMix:
    def test_endpoint_is_first_component(self, gauss1):
        other = L.gen_exponential(1.0, 1.0, 1)
        mixed = L.mix(gauss1, other, 0.0)
        x = np.linspace(-3, 3, 11).reshape(-1, 1)
        assert mixed.pdf(x) == pytest.approx(gauss1.pdf(x), rel=1e-9)

    def test_self_mix_idempotent(self, gauss1):
        mixed = L.mix(gauss1, gauss1, 0.5)
        x = np.linspace(-4, 4, 17).reshape(-1, 1)
        assert mixed.pdf(x) == pytest.approx(gauss1.pdf(x), rel=1e-9)

    def test_mixture_constant_bounded_by_max(self, gauss1):
        # two unit gaussians recentered by perturbation
        left = L.shift(gauss1, [-0.5])
        right = L.shift(gauss1, [0.5])
        mixed = L.mix(left, right, 0.5)
        for a in (1.3, 2.0):
            c_mix = L.regularity_constant(mixed, 0, a, 0.0)
            c_max = max(
                L.regularity_constant(left, 0, a, 0.0),
                L.regularity_constant(right, 0, a, 0.0),
            )
            assert c_mix <= c_max * (1.0 + 1e-9)

    def test_dim_mismatch(self, gauss1, gauss2):
        with pytest.raises(InvalidParameter):
            L.mix(gauss1, gauss2, 0.5)

    def test_weight_out_of_range(self, gauss1):
        with pytest.raises(InvalidParameter):
            L.mix(gauss1, gauss1, 1.5)

    def test_mix_and_shift_mass_is_exact(self, gauss1, rng):
        # the maps combine normalized log-densities and subtract no constant
        laplace = L.gen_exponential(1.0, 1.0, 2)
        for mu1, mu2, t in ((gauss1, L.poly_tail(0.75), 0.4),
                            (L.gaussian(1.0, 2), laplace, 0.3)):
            x = 3.0 * rng.standard_normal((9, mu1.dim))
            want = np.logaddexp(math.log(1.0 - t) + mu1.log_pdf(x), math.log(t) + mu2.log_pdf(x))
            assert np.array_equal(L.mix(mu1, mu2, t).log_pdf(x), want)
        for mu, offset in ((L.poly_tail(0.75), np.array([2.0])),
                           (laplace, np.array([0.3, -0.1]))):
            x = 3.0 * rng.standard_normal((9, mu.dim))
            assert np.array_equal(L.shift(mu, offset).log_pdf(x), mu.log_pdf(x - offset))

    def test_four_dimensional_mix_and_shift(self, rng):
        g1, g2 = L.gaussian(1.0, 4), L.gaussian(2.0, 4)
        offset = np.array([0.5, -1.0, 0.0, 2.0])
        x = rng.standard_normal((9, 4))
        mixed = L.mix(g1, g2, 0.25)
        assert mixed.pdf(x) == pytest.approx(0.75 * g1.pdf(x) + 0.25 * g2.pdf(x), rel=1e-13)
        shifted = L.shift(g1, offset)
        assert shifted.pdf(x) == pytest.approx(g1.pdf(x - offset), rel=1e-13)


class TestProduct:
    def test_gaussian_factorization(self, gauss1, rng):
        prod = L.product(gauss1, gauss1)
        assert prod.dim == 2
        pts = rng.standard_normal((12, 2))
        expected = np.exp(-np.sum(pts**2, axis=1) / 2) / (2 * math.pi)
        assert prod.pdf(pts) == pytest.approx(expected, rel=1e-10)
        assert prod.rotation_invariant

    @pytest.mark.parametrize("s", [0.0, 0.5])
    def test_type_p_bound_on_shared_grid(self, gauss1, s):
        prod = L.product(gauss1, gauss1)
        p = 2.0
        a = 2.0
        lhs = L.regularity_constant(prod, p, a, s)
        cp1 = L.regularity_constant(gauss1, p, a, s)
        c01 = L.regularity_constant(gauss1, 0, a, s)
        rhs = 2 ** (p - 1) * (cp1 * c01 + c01 * cp1)
        assert lhs <= rhs * (1.0 + 1e-6)

    def test_product_with_vanishing_density_rejected_for_regularity(self, gauss1):
        prod = L.product(gauss1, L.uniform_ball(1.0, dim=1))
        with pytest.raises(InvalidParameter):
            L.regularity_constant(prod, 0, 2.0, 0.0)


class TestConvolution:
    def test_gaussian_convolution_closed_form(self, gauss1):
        conv = L.convolve_measures(gauss1, gauss1)
        xs = np.linspace(-5, 5, 201).reshape(-1, 1)
        exact = np.exp(-xs[:, 0] ** 2 / 4.0) / math.sqrt(4 * math.pi)
        assert np.max(np.abs(conv.pdf(xs) - exact)) <= 1e-6
        assert mass(conv, scheme="tensor_trapezoid", nodes_per_axis=2049) == pytest.approx(
            1.0, abs=1e-6
        )

    @pytest.mark.parametrize("dim, s1, s2, rtol", [
        (1, 1.0, 1.0, 2e-6), (1, 0.5, 1.5, 2e-6), (2, 0.7, 1.2, 2e-3),
    ])
    def test_gaussians_against_closed_form(self, dim, s1, s2, rtol):
        # N(0, s1^2) * N(0, s2^2) = N(0, s1^2 + s2^2).  The bound is that of
        # linear interpolation of the log-density, about h^2 / (8 v) per axis
        # on the cache's spacing h (0.0025 in 1-D, 0.11 in 2-D).  The FFT's
        # round-off is about 1e-16 of the peak, so on the whole grid box logs
        # are compared only where the density is above 1e-10 of the peak
        first, second = L.gaussian(s1, dim), L.gaussian(s2, dim)
        conv = L.convolve_measures(first, second)
        v = s1**2 + s2**2
        T = first.truncation_radius + second.truncation_radius
        axis = np.linspace(-1.5 * T, 1.5 * T, 6001 if dim == 1 else 241)
        xs = L.quadrature.tensor_grid(axis, dim)
        log_exact = -np.sum(xs * xs, axis=1) / (2.0 * v) - dim / 2.0 * math.log(2.0 * math.pi * v)
        peak = (2.0 * math.pi * v) ** (-dim / 2.0)
        got = conv.log_pdf(xs)
        box = np.all(np.abs(xs) <= measures._CONV_EXTENT_FACTOR * T, axis=1)
        assert np.max(np.abs(conv.pdf(xs[box]) - np.exp(log_exact[box]))) <= rtol * peak
        near = log_exact >= math.log(1e-10 * peak)
        assert np.max(np.abs(got[near] - log_exact[near])) <= rtol
        # past the trusted level ln rho continues along its tangent line, which
        # lies above a log-concave density: out to 1.5 T, T the factors' radii
        # summed, it is finite and lies below the closed form by at most 1e-4
        # more than the interpolant does in the bulk (1.2e-6 in 1-D; 5.1e-4 in
        # 2-D, mid-cell)
        assert np.all(np.isfinite(got))
        bulk_low = min(0.0, float(np.min(got[near] - log_exact[near])))
        assert np.min(got - log_exact) >= bulk_low - 1e-4

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_interpolation_against_scipy(self, dim, rng):
        # the cache of N(0, 1) * N(0, 0.7^2), read back at its own nodes on
        # the e_1 line: on the line's box the reader is the linear interpolant
        # of those values, the cache's on trusted nodes and the lines past
        # them, at x_1 in 1-D and, the pair being rotation-invariant, at |x|
        # in 2-D and 3-D
        first, second = L.gaussian(1.0, dim), L.gaussian(0.7, dim)
        conv = L.convolve_measures(first, second)
        M = measures._CONV_CACHE_NODES[dim]
        ext = measures._CONV_EXTENT_FACTOR * (first.truncation_radius + second.truncation_radius)
        axis = np.linspace(-ext, ext, M)
        logc = conv.log_pdf(np.pad(axis[:, None], ((0, 0), (0, dim - 1))))
        pts = rng.uniform(-ext, ext, size=(3000, dim))
        pts[:200] = axis[rng.integers(0, M, size=(200, dim))]
        pts[200:300, 0] = axis[0]
        pts[300:400, -1] = axis[-1]
        if dim == 1:
            want = np.interp(pts[:, 0], axis, logc)
        else:
            r = np.linalg.norm(pts, axis=1)
            pts, want = pts[r <= ext], np.interp(r[r <= ext], axis, logc)
        np.testing.assert_allclose(conv.log_pdf(pts), want, rtol=1e-12, atol=0)
        # the table and the line read off the box are normalized alike
        faces = np.zeros((2, dim))
        faces[:, 0] = ext - 1e-9, ext + 1e-9
        inside, outside = conv.log_pdf(faces)
        assert outside == pytest.approx(inside, abs=1e-6)
        # past the trusted level, 1e-12 of the peak, and past the grid, ln rho
        # does not increase along any ray from the mode
        u = rng.standard_normal((50, dim))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        radii = np.linspace(math.sqrt(2.0 * 1.49 * math.log(1e12)), 1.5 * ext, 400)
        rays = conv.log_pdf((radii[None, :, None] * u[:, None, :]).reshape(-1, dim))
        assert np.all(np.isfinite(rays))
        assert np.all(np.diff(rays.reshape(50, -1), axis=1) <= 0.0)

    @pytest.mark.parametrize("first, second", [
        (L.gaussian(1.0), L.gaussian(0.5)),
        (L.poly_tail(3.0), L.gaussian(0.5)),
        (L.gaussian(1.0, 2), L.gaussian(0.7, 2)),
    ])
    def test_evaluated_density_has_mass_one(self, first, second):
        # e^{interpolated log} lies below the cache's nodes, so a node-sum
        # normalization left 1 - 2.4e-7, 1 - 4.1e-5 and 1 - 1.07e-3 here
        conv = L.convolve_measures(first, second)
        m, err = L.integrate(lambda pts: np.ones(pts.shape[0]), conv, L.default_spec(conv))
        assert abs(m - 1.0) <= err

    @pytest.mark.parametrize("first, second", [
        (L.poly_tail(3.0), L.gaussian(0.5)),
        (L.poly_tail(1.0), L.gaussian(1.0)),
        (L.gaussian(1.0, 2), L.gaussian(0.7, 2)),
    ])
    def test_constant_field_is_an_equality_case(self, first, second):
        # Ent(1.5) = int E 1.5 dmu = 0 and ||f_r||_q = 1.5 on a probability
        # measure; on poly_tail(1) * N(0, 1) the tangent lines past the grid
        # hold 2.2e-3 of the mass, so the normalization must count them
        conv = L.convolve_measures(first, second)
        f = L.constant(1.5, conv.dim)
        for rep in (L.check_slsi(f, conv, 1.0), L.check_shc(f, conv, 1.0)):
            assert rep.passed and not rep.inconclusive

    def test_compact_factors_keep_their_support(self):
        # U[-1, 1] * U[-1, 1] has the density (2 - |x|) / 4 on [-2, 2].  Both
        # factors lie inside the grid, so nothing caps the trusted cells short
        # of the support's edge; past it the tangent of ln((2 - |x|) / 4) at
        # the last trusted cell, of slope about -1 / h, drops to 0
        conv = L.convolve_measures(L.uniform_ball(1.0), L.uniform_ball(1.0))
        xs = np.linspace(-1.99, 1.99, 4001).reshape(-1, 1)
        assert np.max(np.abs(conv.pdf(xs) - (2.0 - np.abs(xs[:, 0])) / 4.0)) <= 1e-4
        assert np.all(conv.pdf(np.array([[-2.01], [2.01]])) <= 1e-9)
        assert conv.pdf(np.array([3.0])) == 0.0
        m, err = L.integrate(lambda pts: np.ones(pts.shape[0]), conv, L.default_spec(conv))
        assert abs(m - 1.0) <= err

    def test_shifted_factor_is_read_about_its_mode(self):
        # shift(N(0, 0.5^2), 8) * N(0, 0.5^2) = N(8, 0.5).  Its cache is below
        # 1e-12 of the peak at the origin, so the rays start at the mode, 8
        conv = L.convolve_measures(L.shift(L.gaussian(0.5), [8.0]), L.gaussian(0.5))
        T = conv.truncation_radius
        xs = np.linspace(8.0 - 1.5 * T, 8.0 + 1.5 * T, 6001).reshape(-1, 1)
        log_exact = -(xs[:, 0] - 8.0) ** 2 - 0.5 * math.log(math.pi)
        got = conv.log_pdf(xs)
        near = log_exact >= math.log(1e-10 / math.sqrt(math.pi))
        assert np.max(np.abs(got[near] - log_exact[near])) <= 2e-6
        assert np.min(got - log_exact) >= -1e-4

    def test_separated_modes_keep_the_outer_tail(self):
        # (N(0, 0.1^2) + N(8, 0.1^2)) / 2 * N(0, 0.1^2): the cache falls below
        # 1e-12 of the peak between the modes, so each ray's line starts at
        # the outermost trusted point on it, past the second mode, and lies
        # above the closed form there
        mixed = L.mix(L.gaussian(0.1), L.shift(L.gaussian(0.1), [8.0]), 0.5)
        conv = L.convolve_measures(mixed, L.gaussian(0.1))
        xs = np.array([[0.0], [8.0], [9.0], [10.0], [12.0], [-2.0]])
        v = 0.02
        log_exact = (np.log(0.5 * np.exp(-xs[:, 0] ** 2 / (2 * v))
                            + 0.5 * np.exp(-(xs[:, 0] - 8.0) ** 2 / (2 * v)))
                     - 0.5 * math.log(2 * math.pi * v))
        got = conv.log_pdf(xs)
        assert np.max(np.abs(got[:3] - log_exact[:3])) <= 1e-4
        assert np.all(got[3:] >= log_exact[3:])

    @pytest.mark.parametrize("first, second, lam", [
        (L.poly_tail(1.0), L.gaussian(1.0), 0.3),
        (L.poly_tail(1.0), L.gaussian(1.0), 0.05),
        (L.poly_tail(1.0), L.gaussian(1.0), 0.01),
        (L.poly_tail(3.0), L.gaussian(0.5), 0.05),
    ])
    def test_heavy_tail_tilt_stays_inconclusive(self, first, second, lam):
        # poly_tail(alpha) * N(0, s^2) decays like x^{-2 alpha}, so int e^{lam
        # x} dmu diverges for every lam > 0.  A tangent line at the last
        # trusted point (slope -2 alpha / x, -0.06 at x = 100 for alpha = 3)
        # would make small tilts converge; past it ln rho decays as the heavy
        # factor does, so every tilt still diverges
        conv = L.convolve_measures(first, second)
        rep = L.check_slsi(L.log_linear([lam]), conv, 1.0)
        assert rep.inconclusive and not rep.passed

    def test_heavy_tail_keeps_its_power_law(self):
        # far out, poly_tail(alpha) * N(0, 1) is the poly_tail density; the
        # grid holds two thirds of the mass of poly_tail(0.6) * N(0, 1), so
        # the normalization counts the mass past it
        conv = L.convolve_measures(L.poly_tail(0.6), L.gaussian(1.0))
        xs = np.array([[50.0], [500.0], [5e4]])
        np.testing.assert_allclose(conv.log_pdf(xs), L.poly_tail(0.6).log_pdf(xs), atol=1e-3)
        # rho(0) = int (1 + y^2)^{-0.6} phi(y) dy / Z, Z = sqrt(pi) G(0.1) / G(0.6)
        z = math.sqrt(2.0 * math.pi ** 2) * math.exp(math.lgamma(0.1) - math.lgamma(0.6))
        at0 = scipy.integrate.quad(lambda y: (1.0 + y * y) ** -0.6 * math.exp(-0.5 * y * y),
                                   -40.0, 40.0)[0] / z
        assert conv.log_pdf(np.array([0.0])) == pytest.approx(math.log(at0), abs=1e-4)

    def test_regularity_search_stays_on_trusted_cells(self):
        # on N(0, 0.02) the type-0 ratio with a = 1.1, s = 0.5 peaks at |x| =
        # 2.62 (8.6e12), where the density is e^{-171} of its peak: far below
        # the FFT's round-off.  The search stops at the trusted radius, about
        # 1.05, where the ratio still increases: a violation, not C0 = 2e8
        conv = L.convolve_measures(L.gaussian(0.1), L.gaussian(0.1))
        assert conv.truncation_radius == pytest.approx(math.sqrt(0.04 * math.log(1e12)), abs=0.01)
        rep = L.type_report(conv, 0.0, [1.1], [0.5])
        assert not rep.entries and len(rep.violations) == 1

    def test_heavy_tail_is_not_type_one(self):
        # poly_tail(3) * N(0, 0.5^2): |x| rho(2x + y) / rho(x) grows like |x|
        conv = L.convolve_measures(L.poly_tail(3.0), L.gaussian(0.5))
        rep = L.type_report(conv, 1.0, [2.0], [0.5])
        assert not rep.entries and len(rep.violations) == 1

    def test_tilted_gaussian_entropy_closed_form(self):
        # on N(0, v), v = 1 + 0.8^2, Ent(e^{lam x}) = (s^2 / 2) e^{s^2 / 2} with
        # s^2 = lam^2 v; the adaptive loop reads ln rho far past the grid
        conv = L.convolve_measures(L.gaussian(1.0), L.gaussian(0.8))
        rep = L.check_slsi(L.log_linear([0.9]), conv, 1.0)
        s2 = 0.81 * 1.64
        assert rep.passed and not rep.inconclusive
        assert abs(rep.quantities["entropy"] - 0.5 * s2 * math.exp(0.5 * s2)) <= rep.tolerance

    def test_approximate_identity(self, gauss1):
        narrow = L.gaussian(0.05, 1)
        conv = L.convolve_measures(narrow, gauss1)
        xs = np.linspace(-4, 4, 101).reshape(-1, 1)
        blurred = np.exp(-xs[:, 0] ** 2 / (2 * 1.0025)) / math.sqrt(2 * math.pi * 1.0025)
        assert np.max(np.abs(conv.pdf(xs) - blurred)) <= 1e-5

    def test_near_one_constant_bound(self, gauss1):
        conv = L.convolve_measures(gauss1, gauss1)
        eps = 0.25
        rep = L.type_report(conv, 0.0, [1.1], [0.0], eps=eps)
        sup1 = L.type_report(gauss1, 0.0, [1.1], [0.0], eps=eps).uniform_near_one
        bound = (1.0 + eps) ** 1 * sup1 * sup1
        assert rep.uniform_near_one <= bound * (1.0 + 1e-6)

    def test_exponential_type_bound(self, gauss1):
        conv = L.convolve_measures(gauss1, gauss1)
        p, a, s = 2.0, 2.0, 0.0
        lhs = L.regularity_constant(conv, p, a, s)
        rhs = (
            2 ** (p - 1)
            * a**1
            * (
                L.regularity_constant(gauss1, p, a, s) * L.regularity_constant(gauss1, 0, a, 0.0)
                + L.regularity_constant(gauss1, 0, a, s) * L.regularity_constant(gauss1, p, a, 0.0)
            )
        )
        assert lhs <= rhs * (1.0 + 1e-6)

    def test_non_invariant_factors_are_refused_in_two_dimensions(self):
        # in 2-D and 3-D the convolution is read on the e_1 line at |x|, which
        # holds it only for a rotation-invariant pair; 1-D pairs of any kind
        # build (see the shifted and separated-mode tests above)
        with pytest.raises(InvalidParameter, match="rotation-invariant"):
            L.convolve_measures(L.shift(L.gaussian(1.0, 2), [1.0, 0.0]), L.gaussian(1.0, 2))

    def test_build_keeps_only_line_tables(self):
        # the 3-D build transforms 129^3 grids (a 51 MB point grid among
        # them), but the Density keeps only tables on its e_1 line
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            conv = L.convolve_measures(L.gaussian(1.0, 3), L.gen_exponential(1.0, 1.0, 3))
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert conv.dim == 3 and retained < 2**20

    def test_dim_cap_advises_monte_carlo(self):
        mu4 = L.product(L.gaussian(1.0, 2), L.gaussian(1.0, 2))
        with pytest.raises(InvalidParameter, match="monte_carlo"):
            L.convolve_measures(mu4, mu4)

    def test_dim_mismatch(self, gauss1, gauss2):
        with pytest.raises(InvalidParameter):
            L.convolve_measures(gauss1, gauss2)


@pytest.mark.parametrize("build, want", [
    (lambda: L.gen_exponential(1.0, 1.0, 4), 20.0),
    (lambda: L.uniform_ball(1.0, 4), 2.0 / 3.0),
    (lambda: L.poly_tail(3.0), 1.0 / 3.0),
    (lambda: L.mix(L.gaussian(1.0, 4), L.gaussian(2.0, 4), 0.3), 7.6),
    (lambda: L.product(L.gaussian(1.0, 2), L.gen_exponential(1.0, 1.0, 2)), 8.0),
    (lambda: L.convolve_measures(L.gaussian(1.0), L.gaussian(0.5)), 1.25),
], ids=["gen_exponential", "uniform_ball", "poly_tail", "mix", "product", "convolve"])
def test_sampler_second_moment(build, want):
    # Monte Carlo E|x|^2 from the measure's own sampler against its closed
    # form, within 5 times the estimate's halving error
    spec = L.QuadratureSpec(scheme="monte_carlo", mc_samples=200_000, seed=3)
    got, err = L.integrate(lambda pts: np.sum(pts * pts, axis=1), build(), spec)
    assert abs(got - want) <= 5.0 * err


def test_closures_of_a_samplerless_density_build_and_refuse_to_sample(gauss1):
    # closures compose their factors' samplers, so a factor without one is
    # refused when the closure samples, not when it is built
    bare = Density(dim=1, truncation_radius=8.0, rotation_invariant=True,
                   strictly_positive=True, label="bare", _log_density=gauss1.log_pdf)
    rng = np.random.default_rng(0)
    for mu in (bare, L.mix(gauss1, bare, 0.5), L.product(bare, gauss1), L.shift(bare, [1.0]),
               L.convolve_measures(gauss1, bare), L.perturb(bare, lambda pts: 0.1 * pts[:, 0])):
        with pytest.raises(InvalidParameter, match="'bare' has no direct sampler"):
            mu.sample(rng, 10)
    assert L.mix(gauss1, bare, 0.0).sample(rng, 10).shape == (10, 1)


class TestPerturbation:
    def test_normalizer_failure_carries_witness(self, gauss1):
        # the NaN weight beyond x = 1 fails the normalizing integral at a node
        # there, and the EvaluationFailure keeps that node as its witness
        with pytest.raises(EvaluationFailure) as err:
            L.perturb(gauss1, lambda pts: np.where(pts[:, 0] > 1.0, np.nan, 0.0))
        assert err.value.witness[0] > 1.0

    def test_bounded_weight_controls_constants(self, gauss1):
        # w(x) = 1 + 0.5 cos(x) has bounds C = 0.5, D = 1.5
        weighted = L.perturb(
            gauss1, lambda pts: np.log1p(0.5 * np.cos(pts[:, 0])), label="1+cos/2"
        )
        ratio_bound = 1.5 / 0.5
        for p, a in ((0.0, 1.5), (2.0, 2.0)):
            c2 = L.regularity_constant(weighted, p, a, 0.0)
            c1 = L.regularity_constant(gauss1, p, a, 0.0)
            assert c2 <= ratio_bound * c1 * (1.0 + 1e-9)

    def test_perturbation_preserves_type_report(self, gauss1):
        weighted = L.perturb(
            gauss1, lambda pts: np.log1p(0.5 * np.cos(pts[:, 0])), label="1+cos/2"
        )
        base = L.type_report(gauss1, 1.0, [1.5, 2.0], [0.0])
        pert = L.type_report(weighted, 1.0, [1.5, 2.0], [0.0])
        assert base.numerically_type_p and pert.numerically_type_p

    def test_perturbation_mass_renormalized(self, gauss1):
        weighted = L.perturb(gauss1, lambda pts: 0.3 * np.sin(pts[:, 0]), label="sin")
        assert mass(weighted) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_tilted_gaussian_normalizer(self, dim):
        # int e^{lam x_1} dN(0, sigma^2 I) = e^{lam^2 sigma^2 / 2}
        sigma, lam = 1.3, 0.7
        tilted = L.perturb(L.gaussian(sigma, dim), lambda pts: lam * pts[:, 0])
        # the normalizer Z = rho(0) / rho_tilted(0)
        origin = np.zeros(dim)
        log_z = L.gaussian(sigma, dim).log_pdf(origin) - tilted.log_pdf(origin)
        assert math.exp(log_z) == pytest.approx(math.exp(lam**2 * sigma**2 / 2), rel=1e-12)

    def test_laplace_reweighted_normalizer(self):
        # e^{-|x|} / 2 times e^{|x| / 2} integrates to 2
        base = L.gen_exponential(1.0, 1.0, 1)
        mu = L.perturb(base, lambda pts: 0.5 * np.abs(pts[:, 0]))
        assert math.exp(base.log_pdf([0.0]) - mu.log_pdf([0.0])) == pytest.approx(2.0, rel=1e-10)

    def test_four_dimensional_perturbation_rejected(self):
        def weight(pts):
            raise AssertionError("weight probed before the dimension check")

        with pytest.raises(InvalidParameter):
            L.perturb(L.gaussian(1.0, 4), weight)

    def test_rejection_sampler_matches_density(self, gauss1):
        weighted = L.perturb(
            gauss1, lambda pts: np.log1p(0.5 * np.cos(pts[:, 0])), label="1+cos/2"
        )
        rng = np.random.default_rng(5)
        xs = weighted.sample(rng, 40_000)
        # first moment oracle by adaptive quadrature
        spec = L.default_spec(weighted)
        m1, _ = L.integrate(lambda pts: pts[:, 0], weighted, spec)
        assert xs.mean() == pytest.approx(m1, abs=0.02)
