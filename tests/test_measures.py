import gc
import math
import threading
import tracemalloc

import numpy as np
import pytest
import scipy.integrate
import scipy.stats
from scipy.special import gammainccinv, ive, log_ndtr

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
            # a bool is not a dimension: these once built, labelled "dim=True"
            ("gaussian", {"sigma": 1.0}, True),
            ("gen_exponential", {"c": 1.0, "a": 1.0}, True),
            ("uniform_ball", {"radius": 1.0}, 2.0),
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

    def test_numpy_integer_dim_accepted(self):
        mu = L.uniform_ball(1.0, np.int64(2))
        assert mu.dim == 2 and mu.label == "uniform_ball(R=1, dim=2)"

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

    @pytest.mark.parametrize("p, a, s, name", [
        (math.nan, 2.0, 0.0, "p"), (math.inf, 2.0, 0.0, "p"), (-1.0, 2.0, 0.0, "p"),
        (0.0, math.nan, 0.0, "a"), (0.0, math.inf, 0.0, "a"), (0.0, 0.5, 0.0, "a"),
        (0.0, 1.1, math.nan, "s"), (0.0, 1.1, math.inf, "s"), (0.0, 1.1, -0.5, "s"),
    ])
    def test_parameters_must_be_finite_and_in_range(self, gauss1, p, a, s, name):
        # NaN fails every comparison, so it must fail the one that admits a value
        with pytest.raises(InvalidParameter, match=f"finite {name} >= "):
            L.regularity_constant(gauss1, p, a, s)
        with pytest.raises(InvalidParameter, match=f"finite {name} >= "):
            L.type_report(gauss1, p, [a], [s])

    def test_poly_tail_type1_violation_with_witness(self):
        mu = L.poly_tail(1.0)
        with pytest.raises(TypeConditionViolation) as err:
            L.regularity_constant(mu, 1, 2.0, 0.0)
        assert err.value.witness is not None

    def test_monotone_in_s(self, gauss1):
        for a in (1.2, 1.7, 2.5):
            vals = [L.regularity_constant(gauss1, 0, a, s) for s in (0.0, 0.3, 0.8, 1.5)]
            assert all(v2 >= v1 - 1e-12 for v1, v2 in zip(vals, vals[1:]))

    def test_four_dimensional_grid_search_refused(self):
        # the factors' sigmas differ, so the product is not rotation-invariant
        # and its grid would span all four dimensions
        mu = L.product(L.gaussian(1.0, 2), L.gaussian(2.0, 2))
        with pytest.raises(InvalidParameter, match="dim <= 3"):
            L.regularity_constant(mu, 0, 1.5, 0.0)

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
        (L.mix(L.gaussian(0.8), L.gaussian(1.25), 0.3), 0, 1.1, 0.5, 1.791220972742591),
        (L.mix(L.gaussian(0.8), L.gaussian(1.25), 0.3), 1, 1.25, 0.3125, 1.384046214334323),
        (L.gen_exponential(1.0, 4.0, 1), 2, 1.5, 1.0, 39.65869549331915),
        (L.gen_exponential(0.5, 2.0, 1), 1, 2.0, 0.5, 0.6030737071768074),
    ], ids=["mixture_c0", "mixture_c1", "quartic_c2", "gen_gauss_c1"])
    def test_one_dimensional_constants_unchanged(self, mu, p, a, s, expected):
        # values of the 2001-node line search, pinned: a 1-D search is unchanged.
        # mixture_c0 read ...594 while a scan over shifts found its max at
        # y = 0.5000000000000009, one arange step past s; ln rho is now read at
        # (a|x| - s)+ itself
        assert L.regularity_constant(mu, p, a, s) == expected

    @pytest.mark.parametrize("mu", [
        L.gaussian(1.0),
        L.gen_exponential(1.0, 1.0, 1),
        L.gen_exponential(0.5, 2.0, 1),
        L.gen_exponential(1.0, 4.0, 1),
        L.poly_tail(1.0),
        L.mix(L.gaussian(0.8), L.gaussian(1.25), 0.3),
        L.convolve_measures(L.gaussian(1.0), L.gen_exponential(1.0, 1.0, 1)),
    ], ids=["gaussian", "laplace", "gen_gauss", "quartic", "poly_tail", "mixture", "convolution"])
    def test_radial_read_matches_the_shift_scan(self, mu):
        # shift(mu, [0]) is not flagged rotation-invariant, so it is searched
        # by the scan over shifts y on the same 2001-node line; the radial read
        # of rho((a|x| - s)+) gives its values, or its violation and witness
        scanned = L.shift(mu, [0.0])
        for p in (0.0, 1.0, 2.0):
            for a in (1.1, 1.5):
                for s in (0.0, 0.25, 1.0):
                    try:
                        want = L.regularity_constant(scanned, p, a, s)
                    except TypeConditionViolation as exc:
                        with pytest.raises(TypeConditionViolation) as err:
                            L.regularity_constant(mu, p, a, s)
                        np.testing.assert_array_equal(err.value.witness, exc.witness)
                        continue
                    got = L.regularity_constant(mu, p, a, s)
                    assert got == pytest.approx(want, rel=1e-13, abs=0.0), (p, a, s)

    def test_rotation_invariant_search_reads_the_density_twice(self):
        # one batch on the line and one at (a|x| - s)+; a scan over the 253
        # shifts |y| <= 1 at the line's spacing read 254
        batches = []

        def logd(pts):
            batches.append(pts.shape[0])
            return -0.5 * np.sum(pts * pts, axis=1) - 0.5 * math.log(2.0 * math.pi)

        mu = Density(dim=1, truncation_radius=8.0, rotation_invariant=True,
                     strictly_positive=True, label="counted", _log_density=logd)
        value = L.regularity_constant(mu, 0, 1.1, 1.0)
        assert len(batches) <= 3
        assert value == pytest.approx(math.exp(1.0 / (2.0 * 0.21)), rel=1e-4)

    def test_ring_profile_flagged_rotation_invariant_is_refused(self):
        # ln rho = -(|x| - 3)^2 / 2 rises away from the origin up to |x| = 3,
        # so rho((a|x| - s)+) is not the sup over the shifts: the search
        # refuses it, naming a node where ln rho rises to the next one outward
        ring = Density(dim=1, truncation_radius=10.0, rotation_invariant=True,
                       strictly_positive=True, label="ring",
                       _log_density=lambda pts: -0.5 * (np.abs(pts[:, 0]) - 3.0) ** 2)
        with pytest.raises(InvalidParameter, match="'ring' is flagged rotation-invariant") as err:
            L.regularity_constant(ring, 0, 1.1, 0.5)
        witness = err.value.witness
        assert abs(witness[0]) < 3.0
        step = math.copysign(20.0 / 2000, witness[0])
        assert ring.log_pdf(witness + step) > ring.log_pdf(witness)
        rep = L.check_dilation_bound(L.log_linear([0.5]), ring, 1.0, 0.8)
        assert rep.inconclusive and not rep.passed
        np.testing.assert_array_equal(rep.quantities["witness"], witness)


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

    def test_shift_offset_of_wrong_length_refused(self, gauss2):
        with pytest.raises(InvalidParameter, match="offset dimension mismatch"):
            L.shift(gauss2, [0.5, 0.0, 1.0])

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


def _gaussian_pair(dim):
    """N(0, 1) * N(0, 0.7^2) = N(0, 1.49 I) on rays out to 1.5 T, T the
    factors' truncation radii summed."""
    first, second = L.gaussian(1.0, dim), L.gaussian(0.7, dim)
    T = first.truncation_radius + second.truncation_radius
    r = np.linspace(0.0, 1.5 * T, 601)
    u = np.random.default_rng(dim).standard_normal((r.size, dim))
    pts = r[:, None] * u / np.linalg.norm(u, axis=1, keepdims=True)
    return first, second, pts, -r * r / 2.98 - dim / 2.0 * math.log(2.0 * math.pi * 1.49)


def _narrow_gaussian():
    first, second = L.gaussian(0.05), L.gaussian(1.0)
    x = np.linspace(-1.5 * 8.4, 1.5 * 8.4, 2001)
    return first, second, x[:, None], -x * x / 2.005 - 0.5 * math.log(2.0 * math.pi * 1.0025)


def _laplace():
    # e^{-|y|} / 2 * N(0, s^2): rho(x) = e^{s^2 / 2} (e^{-x} Phi(x / s - s) +
    # e^{x} Phi(-x / s - s)) / 2
    s, x = 0.5, np.linspace(-60.0, 60.0, 2001)
    log_ref = (math.log(0.5) + s * s / 2.0
               + np.logaddexp(-x + log_ndtr(x / s - s), x + log_ndtr(-x / s - s)))
    return L.gen_exponential(1.0, 1.0, 1), L.gaussian(s), x[:, None], log_ref


def _shifted():
    first, second = L.shift(L.gaussian(0.5), [8.0]), L.gaussian(0.5)
    x = np.linspace(8.0 - 24.0, 8.0 + 24.0, 2001)
    return first, second, x[:, None], -(x - 8.0) ** 2 - 0.5 * math.log(math.pi)


def _uniform():
    x = np.linspace(-1.99, 1.99, 2001)
    return L.uniform_ball(1.0), L.uniform_ball(1.0), x[:, None], np.log((2.0 - np.abs(x)) / 4.0)


def _cusp_1d():
    # QUADPACK on int e^{-sqrt|y|} / 4 phi(x - y) dy, split at y = 0 and y = x
    first, second = L.gen_exponential(1.0, 0.5, 1), L.gaussian(1.0)
    x = np.array([0.0, 1.0, 3.0])
    ref = []
    for xi in x:
        f = lambda y: (math.exp(-math.sqrt(abs(y)) - (xi - y) ** 2 / 2.0)
                       / (4.0 * math.sqrt(2.0 * math.pi)))
        cuts = (-math.inf, 0.0, xi, math.inf)
        ref.append(math.log(sum(scipy.integrate.quad(f, lo, hi, epsabs=0.0, epsrel=1e-13,
                                                     limit=500)[0]
                                for lo, hi in zip(cuts, cuts[1:]))))
    return first, second, x[:, None], np.array(ref)


def _cusp_2d():
    # the angle integrated in closed form: rho(r) = int_0^inf s rho_1(s)
    # e^{-(r - s)^2 / 2} ive(0, r s) ds for rho_1 = e^{-sqrt|y|} / (24 pi) on
    # R^2 and N(0, I_2), by QUADPACK.  ln rho(0) = -5.355, where the FFT
    # grid, spaced for the wide factor's radius (h = 6.9), read -4.488
    first, second = L.gen_exponential(1.0, 0.5, 2), L.gaussian(1.0, 2)
    r = np.array([0.0, 1.0, 3.0])
    ref = [math.log(scipy.integrate.quad(
        lambda s: s * math.exp(-math.sqrt(s) - (ri - s) ** 2 / 2.0) * ive(0, ri * s)
        / (24.0 * math.pi),
        0.0, math.inf, epsabs=0.0, epsrel=1e-13, limit=500)[0]) for ri in r]
    assert round(ref[0], 3) == -5.355
    return first, second, np.column_stack([r, np.zeros(3)]), np.array(ref)


class TestConvolution:
    @pytest.mark.parametrize("case", [
        lambda: _gaussian_pair(1), lambda: _gaussian_pair(2), lambda: _gaussian_pair(3),
        _narrow_gaussian, _laplace, _shifted, _uniform, _cusp_1d, _cusp_2d,
    ], ids=["gauss-1d", "gauss-2d", "gauss-3d", "narrow-gauss", "laplace-to-60", "shifted",
            "uniform", "cusp-1d", "cusp-2d"])
    def test_reads_closed_forms_and_references(self, case):
        # ln rho within 1e-8 of a closed form out to 1.5 T about the mode, T
        # the factors' truncation radii summed (Laplace * N(0, 0.5^2) to |x| =
        # 60, U[-1, 1] * U[-1, 1] = (2 - |x|) / 4 to |x| = 1.99), or of a
        # QUADPACK reference for the cusped factor e^{-sqrt|y|}
        first, second, pts, log_ref = case()
        got = L.convolve_measures(first, second).log_pdf(pts)
        np.testing.assert_allclose(got, log_ref, rtol=0, atol=1e-8)

    def test_narrow_factor_beside_a_wide_one(self):
        # gen_exponential(1, 1, 3) * N(0, I_3): ln rho(0) = ln E rho_1(Y), Y ~
        # N(0, I_3), = ln 4 pi int s^2 e^{-s} / (8 pi) e^{-s^2 / 2} ds / (2
        # pi)^{3/2} by QUADPACK.  The FFT grid, spaced for the wide factor's
        # radius (h = 0.97), under-sampled the narrow one and read -4.554; the
        # 2-D case is the cusp-2d reference above
        ref = math.log(scipy.integrate.quad(
            lambda s: s * s * math.exp(-s - s * s / 2.0), 0.0, math.inf, epsabs=0.0,
            epsrel=1e-13)[0] / (2.0 * (2.0 * math.pi) ** 1.5))
        got = L.convolve_measures(L.gen_exponential(1.0, 1.0, 3), L.gaussian(1.0, 3))
        got = got.log_pdf(np.zeros(3))
        assert got == pytest.approx(ref, abs=1e-8)
        assert round(got, 3) == -4.617

    def test_regularity_reads_the_density_where_it_searches(self):
        # shift(N(0, 0.5^2), 8) * N(0, 0.5^2) = N(8, 0.5): C0(1.1, 0.5) =
        # e^{7.75 + 0.25 / 0.84}, where the FFT's tangent lines read 2054.2.
        # N(0, I) * N(0, 0.7^2 I) in 2-D = N(0, 1.49 I): C0(1.1, 0.5) =
        # e^{0.25 / (0.21 * 2.98)}, of which the grid's maximum is a lower
        # bound (the FFT's bulk error lifted it to 1.49182)
        shifted = L.convolve_measures(L.shift(L.gaussian(0.5), [8.0]), L.gaussian(0.5))
        assert L.regularity_constant(shifted, 0.0, 1.1, 0.5) == pytest.approx(
            math.exp(7.75 + 0.25 / 0.84), rel=1e-3)
        plane = L.convolve_measures(L.gaussian(1.0, 2), L.gaussian(0.7, 2))
        c0, sharp = L.regularity_constant(plane, 0.0, 1.1, 0.5), math.exp(0.25 / (0.21 * 2.98))
        assert sharp * (1.0 - 1e-5) <= c0 <= sharp

    def test_concurrent_first_reads_build_one_table(self, monkeypatch):
        # the table is built at the first read, once, under a lock: four
        # threads reading at once partition each factor once and agree
        calls = []
        partition = measures._partition
        monkeypatch.setattr(measures, "_partition",
                            lambda *args: calls.append(args) or partition(*args))
        conv = L.convolve_measures(L.gaussian(1.0), L.gaussian(0.7))
        xs = np.linspace(-30.0, 30.0, 501).reshape(-1, 1)
        out = [None] * 4

        def read(i):
            out[i] = conv.log_pdf(xs)

        threads = [threading.Thread(target=read, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(calls) == 2 and all(np.array_equal(out[0], o) for o in out)

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
        # N(0, s1^2) * N(0, s2^2) = N(0, s1^2 + s2^2): ln rho within 1e-8 of
        # the closed form on the ball of radius 1.5 T, T the factors' radii
        # summed (115 to 144 below the peak at its edge in 1-D); rtol of the
        # peak in linear scale is the bound the FFT's reader met on its box
        first, second = L.gaussian(s1, dim), L.gaussian(s2, dim)
        conv = L.convolve_measures(first, second)
        v = s1**2 + s2**2
        T = first.truncation_radius + second.truncation_radius
        axis = np.linspace(-1.5 * T, 1.5 * T, 6001 if dim == 1 else 241)
        xs = L.quadrature.tensor_grid(axis, dim)
        xs = xs[np.linalg.norm(xs, axis=1) <= 1.5 * T]
        log_exact = -np.sum(xs * xs, axis=1) / (2.0 * v) - dim / 2.0 * math.log(2.0 * math.pi * v)
        peak = (2.0 * math.pi * v) ** (-dim / 2.0)
        assert np.max(np.abs(conv.log_pdf(xs) - log_exact)) <= 1e-8
        assert np.max(np.abs(conv.pdf(xs) - np.exp(log_exact))) <= rtol * peak

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_interpolation_against_scipy(self, dim, rng):
        # N(0, 1) * N(0, 0.7^2) = N(0, 1.49 I), whose log-density scipy gives:
        # the table's cubic reads it to 1e-8 at random points, at the table's
        # nodes (a Gaussian pair keeps the initial x = -2T + k h in 1-D, |x| =
        # k h in 2-D and 3-D), and on both sides of its edge 2T, past which ln
        # rho is summed directly
        first, second = L.gaussian(1.0, dim), L.gaussian(0.7, dim)
        conv = L.convolve_measures(first, second)
        T = first.truncation_radius + second.truncation_radius
        M = measures._CONV_TABLE_NODES[dim]
        u = rng.standard_normal((1000, dim))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        r = rng.uniform(0.0, 2.0 * T, 1000)
        if dim == 1:
            r[:200] = np.abs(4.0 * T / (M - 1) * rng.integers(0, M, 200) - 2.0 * T)
        else:
            r[:200] = 2.0 * T / (M - 1) * rng.integers(0, M, 200)
        r[200:210], r[210:220] = 2.0 * T - 1e-9, 2.0 * T + 1e-9
        pts = r[:, None] * u
        want = scipy.stats.multivariate_normal.logpdf(pts, np.zeros(dim), 1.49 * np.eye(dim))
        np.testing.assert_allclose(conv.log_pdf(pts), want, rtol=0, atol=1e-8)
        # past 1e-12 of the peak and past the table, out to 3T (e^-558 of the
        # peak in 1-D), where the factors' spans leave a gap between them,
        # ln rho keeps to the closed form and does not increase along a ray
        radii = np.linspace(math.sqrt(2.0 * 1.49 * math.log(1e12)), 3.0 * T, 120)
        pts = (radii[None, :, None] * u[:50, None, :]).reshape(-1, dim)
        rays = conv.log_pdf(pts)
        want = scipy.stats.multivariate_normal.logpdf(pts, np.zeros(dim), 1.49 * np.eye(dim))
        np.testing.assert_allclose(rays, want, rtol=0, atol=1e-8)
        assert np.all(np.diff(rays.reshape(50, -1), axis=1) <= 0.0)

    @pytest.mark.parametrize("first, second", [
        (L.gaussian(1.0), L.gaussian(0.5)),
        (L.poly_tail(3.0), L.gaussian(0.5)),
        (L.gaussian(1.0, 2), L.gaussian(0.7, 2)),
    ])
    def test_evaluated_density_has_mass_one(self, first, second):
        # rho is normalized as its factors are, with no mass of its own to
        # divide by: the table's cubic and the direct sums keep it at 1
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
        # measure; on poly_tail(1) * N(0, 1) about 3e-3 of the mass lies past
        # the table, |x| > 2T = 216, where ln rho is summed directly
        conv = L.convolve_measures(first, second)
        f = L.constant(1.5, conv.dim)
        for rep in (L.check_slsi(f, conv, 1.0), L.check_shc(f, conv, 1.0)):
            assert rep.passed and not rep.inconclusive

    def test_compact_factors_keep_their_support(self):
        # U[-1, 1] * U[-1, 1] has the density (2 - |x|) / 4 on [-2, 2].  The
        # panels are cut at the factors' jumps, y = +-1 and y = x -+ 1; near
        # the kinks at 0 and +-2 the cubic is not trusted and ln rho is summed
        # directly, and past +-2 it is -inf
        conv = L.convolve_measures(L.uniform_ball(1.0), L.uniform_ball(1.0))
        xs = np.linspace(-1.99, 1.99, 4001).reshape(-1, 1)
        assert np.max(np.abs(conv.pdf(xs) - (2.0 - np.abs(xs[:, 0])) / 4.0)) <= 1e-4
        assert np.all(conv.pdf(np.array([[-2.01], [2.01]])) <= 1e-9)
        assert conv.pdf(np.array([3.0])) == 0.0
        m, err = L.integrate(lambda pts: np.ones(pts.shape[0]), conv, L.default_spec(conv))
        assert abs(m - 1.0) <= err

    def test_shifted_factor_is_read_about_its_mode(self):
        # shift(N(0, 0.5^2), 8) * N(0, 0.5^2) = N(8, 0.5).  The table spans
        # [-2T, 2T] about 0, not about the mode; past it ln rho is summed
        conv = L.convolve_measures(L.shift(L.gaussian(0.5), [8.0]), L.gaussian(0.5))
        T = conv.truncation_radius
        xs = np.linspace(8.0 - 1.5 * T, 8.0 + 1.5 * T, 6001).reshape(-1, 1)
        log_exact = -(xs[:, 0] - 8.0) ** 2 - 0.5 * math.log(math.pi)
        got = conv.log_pdf(xs)
        near = log_exact >= math.log(1e-10 / math.sqrt(math.pi))
        assert np.max(np.abs(got[near] - log_exact[near])) <= 2e-6
        assert np.min(got - log_exact) >= -1e-4

    def test_separated_modes_keep_the_outer_tail(self):
        # (N(0, 0.1^2) + N(8, 0.1^2)) / 2 * N(0, 0.1^2), the mixture of N(0,
        # 0.02) and N(8, 0.02): each factor's panels resolve its own scale,
        # not its truncation radius (8.8), so ln rho is read to 1e-8 at the
        # modes and past them, 100 and 400 below the peak at x = -2 and 12
        mixed = L.mix(L.gaussian(0.1), L.shift(L.gaussian(0.1), [8.0]), 0.5)
        conv = L.convolve_measures(mixed, L.gaussian(0.1))
        xs = np.array([[0.0], [8.0], [9.0], [10.0], [12.0], [-2.0]])
        v = 0.02
        log_exact = (np.log(0.5 * np.exp(-xs[:, 0] ** 2 / (2 * v))
                            + 0.5 * np.exp(-(xs[:, 0] - 8.0) ** 2 / (2 * v)))
                     - 0.5 * math.log(2 * math.pi * v))
        np.testing.assert_allclose(conv.log_pdf(xs), log_exact, rtol=0, atol=1e-8)

    @pytest.mark.parametrize("first, second, lam", [
        (L.poly_tail(1.0), L.gaussian(1.0), 0.3),
        (L.poly_tail(1.0), L.gaussian(1.0), 0.05),
        (L.poly_tail(1.0), L.gaussian(1.0), 0.01),
        (L.poly_tail(3.0), L.gaussian(0.5), 0.05),
    ])
    def test_heavy_tail_tilt_stays_inconclusive(self, first, second, lam):
        # poly_tail(alpha) * N(0, s^2) decays like x^{-2 alpha}, so int e^{lam
        # x} dmu diverges for every lam > 0.  A linear tail model (slope -2
        # alpha / x, -0.06 at x = 100 for alpha = 3) would make small tilts
        # converge; the direct sums past the table decay as the heavy factor
        # does, so every tilt still diverges
        conv = L.convolve_measures(first, second)
        rep = L.check_slsi(L.log_linear([lam]), conv, 1.0)
        assert rep.inconclusive and not rep.passed

    def test_heavy_tail_keeps_its_power_law(self):
        # far out, poly_tail(alpha) * N(0, 1) is the poly_tail density; 30%
        # of the mass of poly_tail(0.6) * N(0, 1) lies past the table, |x| >
        # 2T = 216, where ln rho is summed directly
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
        # 2.62 (8.6e12), where the density is e^{-171} of its peak.  The
        # search stops at the truncation radius, the factors' 0.8 summed,
        # where ln rho(x) and ln rho(1.1 x + 0.5) are read to 1e-8 and the
        # ratio still increases: a violation at x = 1.6, not C0 = 2e8
        conv = L.convolve_measures(L.gaussian(0.1), L.gaussian(0.1))
        assert conv.truncation_radius == pytest.approx(1.6, abs=1e-15)
        xs = np.array([[1.6], [1.1 * 1.6 + 0.5]])
        np.testing.assert_allclose(conv.log_pdf(xs), -xs[:, 0] ** 2 / 0.04
                                   - 0.5 * math.log(0.04 * math.pi), rtol=0, atol=1e-8)
        rep = L.type_report(conv, 0.0, [1.1], [0.5])
        assert not rep.entries and len(rep.violations) == 1
        assert abs(rep.violations[0][2][0]) == pytest.approx(1.6, abs=1e-12)

    def test_heavy_tail_is_not_type_one(self):
        # poly_tail(3) * N(0, 0.5^2): |x| rho(2x + y) / rho(x) grows like |x|
        conv = L.convolve_measures(L.poly_tail(3.0), L.gaussian(0.5))
        rep = L.type_report(conv, 1.0, [2.0], [0.5])
        assert not rep.entries and len(rep.violations) == 1

    def test_tilted_gaussian_entropy_closed_form(self):
        # on N(0, v), v = 1 + 0.8^2, Ent(e^{lam x}) = (s^2 / 2) e^{s^2 / 2} with
        # s^2 = lam^2 v; the adaptive loop reads ln rho far past the table
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
        # the first read sums ln rho at 193 radii in blocks of 2^18 node pairs
        # (several MB each), but the Density keeps only its table of |x|
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            conv = L.convolve_measures(L.gaussian(1.0, 3), L.gen_exponential(1.0, 1.0, 3))
            conv.log_pdf(np.zeros(3))
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert conv.dim == 3 and retained < 2**20

    def test_dim_cap_names_dim_3(self):
        mu4 = L.product(L.gaussian(1.0, 2), L.gaussian(1.0, 2))
        with pytest.raises(InvalidParameter, match="dim <= 3, not dim 4"):
            L.convolve_measures(mu4, mu4)

    def test_dim_mismatch(self, gauss1, gauss2):
        with pytest.raises(InvalidParameter):
            L.convolve_measures(gauss1, gauss2)


class TestPerturbation:
    def test_normalizer_failure_carries_witness(self, gauss1):
        # the NaN weight beyond x = 1 fails the normalizing integral at a node
        # there, and the EvaluationFailure keeps that node as its witness
        with pytest.raises(EvaluationFailure) as err:
            L.perturb(gauss1, lambda pts: np.where(pts[:, 0] > 1.0, np.nan, 0.0))
        assert err.value.witness[0] > 1.0

    def test_adaptive_normalizer_failure_carries_witness(self):
        # the same NaN weight on the adaptive_1d path fails the first round
        # of its Gauss-Kronrod loop, at a node beyond x = 1
        mu = L.gen_exponential(0.5, 2.0, 1)
        assert L.default_spec(mu).scheme == "adaptive_1d"
        with pytest.raises(EvaluationFailure, match="non-finite integrand value") as err:
            L.perturb(mu, lambda pts: np.where(pts[:, 0] > 1.0, np.nan, 0.0))
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

    @pytest.mark.parametrize("base", [L.gen_exponential(0.5, 2.0, 1), L.gaussian(1.0, 1)],
                             ids=["adaptive_1d", "gauss_hermite"])
    def test_mass_beyond_the_double_range(self, base):
        # both bases are N(0, 1), whose own rules differ; the normalizer and
        # the perturbed measure are both integrated on the latter's adaptive
        # rule, and its mass is 1 within that integral's error and Z's
        w = lambda pts: np.where(np.abs(pts[:, 0]) > 3.0, 800.0, 0.0)
        mu = L.perturb(base, w)
        _, z_err = L.quadrature.integrate_log(w, base, L.default_spec(mu))
        log_mass, err = L.quadrature.integrate_log(
            lambda pts: np.zeros(pts.shape[0]), mu, L.default_spec(mu))
        assert abs(log_mass) <= err + z_err

    def test_four_dimensional_perturbation_rejected(self):
        def weight(pts):
            raise AssertionError("weight probed before the dimension check")

        with pytest.raises(InvalidParameter):
            L.perturb(L.gaussian(1.0, 4), weight)
