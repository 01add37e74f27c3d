import math

import numpy as np
import pytest
import scipy.integrate

import lshlab as L
from lshlab.errors import InvalidParameter, SubharmonicityError
from lshlab.fields import _bump, default_probes


def second_difference(fn, x, h=1e-4):
    return (fn(x + h) - 2.0 * fn(x) + fn(x - h)) / h**2


class TestLogLinear:
    def test_zero_coefficient_is_constant_one(self):
        f = L.log_linear([0.0])
        x = np.linspace(-2, 2, 7).reshape(-1, 1)
        assert f(x) == pytest.approx(np.ones(7))
        assert f.gradient(x) == pytest.approx(np.zeros((7, 1)))

    def test_point_value(self):
        f = L.log_linear([0.8])
        assert f(np.array([1.0])) == pytest.approx(math.exp(0.8), rel=1e-12)

    def test_log_is_harmonic(self):
        f = L.log_linear([0.7])
        lap = second_difference(lambda t: f.log_value(np.array([t])), 0.4)
        assert abs(lap) <= 1e-6

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidParameter):
            L.log_linear([math.nan])


class TestBuilders:
    def test_modulus_of_identity(self):
        f = L.modulus_holomorphic([0, 1])
        assert f(np.array([3.0, 4.0])) == pytest.approx(5.0, rel=1e-12)

    def test_power_of_log_linear_is_log_linear(self, rng):
        f = L.power(L.log_linear([0.6]), 2.5)
        g = L.log_linear([1.5])
        pts = rng.standard_normal((20, 1))
        assert f(pts) == pytest.approx(g(pts), rel=1e-10)

    def test_cosh_log_convexity(self):
        f = L.cosh_field(1.0)
        for x in (0.0, 0.7, -1.3):
            dd = second_difference(lambda t: f.log_value(np.array([t])), x)
            assert dd > 0  # sech^2 > 0

    def test_exp_subharmonic_rejects_concave_log(self):
        with pytest.raises(SubharmonicityError) as err:
            L.exp_subharmonic(lambda pts: -pts[:, 0] ** 2, dim=1)
        assert err.value.witness is not None

    def test_exp_subharmonic_accepts_convex_log(self):
        f = L.exp_subharmonic(lambda pts: pts[:, 0] ** 2, dim=1)
        assert f.certificate == "exp_subharmonic"

    def test_power_overflow_is_silent_inf(self):
        # e^{2 ln 1e300} overflows; an integral reports the inf with its point,
        # so the value map warns nothing (the suite turns lshlab warnings into errors)
        f = L.power(L.constant(1e300, 1), 2.0)
        assert f(np.array([0.0])) == math.inf

    def test_power_requires_positive_exponent(self):
        with pytest.raises(InvalidParameter):
            L.power(L.log_linear([0.5]), 0.0)

    def test_constant_requires_non_negative(self):
        with pytest.raises(InvalidParameter):
            L.constant(-1.0, 1)

    def test_scale_homogeneity(self, rng):
        f = L.cosh_field(0.8)
        g = L.scale(f, 2.5)
        pts = rng.standard_normal((10, 1))
        assert g(pts) == pytest.approx(2.5 * f(pts), rel=1e-12)


class TestGradients:
    @pytest.mark.parametrize(
        "field",
        [
            L.log_linear([0.8]),
            L.cosh_field(0.9),
            L.power(L.cosh_field(0.7), 1.5),
            L.product_field(L.log_linear([0.4]), L.cosh_field(0.5)),
            L.dilate(L.cosh_field(0.9), 0.7),
            L.exp_norm_sq(0.3, 2),
            L.modulus_holomorphic([1, 0, 1]),
        ],
        ids=lambda f: f.label,
    )
    def test_gradient_matches_central_differences(self, field, rng):
        pts = rng.standard_normal((12, field.dim))
        analytic = field.gradient(pts)
        fd = np.empty_like(analytic)
        for j in range(field.dim):
            h = 1e-6 * np.maximum(1.0, np.abs(pts[:, j]))
            up, dn = pts.copy(), pts.copy()
            up[:, j] += h
            dn[:, j] -= h
            fd[:, j] = (field(up) - field(dn)) / (2 * h)
        scale = np.maximum(1.0, np.abs(analytic))
        assert np.max(np.abs(analytic - fd) / scale) <= 1e-5


def _log_gradient_cases():
    f1, f2 = L.cosh_field(0.7), L.modulus_holomorphic([1, 0, 1])
    cases = [
        L.constant(2.0, 2),
        L.log_linear([0.8, -0.3]),
        L.cosh_field(0.9),
        L.exp_subharmonic(lambda pts: np.sum(pts**2, axis=1), 2, label="exp(|x|^2), fd"),
        L.exp_norm_sq(0.3, 2),
        f2,
        L.power(f1, 1.5),
        L.product_field(L.log_linear([0.4]), f1),
        L.dilate(f2, 0.7),
        L.convolve(f1, L.mollifier(1, 3)),
        L.convolve(L.log_linear([0.5, -0.3]), L.mollifier(2, 3)),
        L.dilated_convolve(f1, L.mollifier(1, 2), 0.8),
    ]
    return [pytest.param(f, id=f.label) for f in cases]


class TestLogMap:
    @pytest.mark.parametrize("field", _log_gradient_cases())
    def test_log_gradient_matches_central_differences(self, field, rng):
        pts = rng.standard_normal((12, field.dim))
        lv, dlv = field.log_value(pts, grad=True)
        np.testing.assert_allclose(lv, field.log_value(pts), rtol=1e-13, atol=1e-15)
        fd = np.empty_like(dlv)
        for j in range(field.dim):
            h = np.zeros(field.dim)
            h[j] = 1e-5
            fd[:, j] = (field.log_value(pts + h) - field.log_value(pts - h)) / 2e-5
        # the 2-D mollifier's 40-node rule integrates grad phi to about 1e-5
        tol = 1e-5 if field.certificate == "mollified" and field.dim == 2 else 1e-6
        assert np.max(np.abs(dlv - fd) / np.maximum(1.0, np.abs(dlv))) <= tol

    @pytest.mark.parametrize("compose", [
        lambda f: L.power(f, 2.0), lambda f: L.product_field(f, f),
        lambda f: L.dilate(f, 0.5), lambda f: L.convolve(f, L.mollifier(1, 2)),
    ], ids=["power", "product", "dilate", "convolve"])
    def test_compositions_refuse_unverified_fields(self, compose):
        # a signed field has no logarithm for a composition to read
        with pytest.raises(InvalidParameter, match="unverified"):
            compose(L.raw_field(lambda pts: pts[:, 0], 1, label="x"))

    def test_convolution_where_the_inner_field_overflows(self):
        # (e^{lam .} * phi)(x) = e^{lam x} M(lam s): at x = 1000, e^{lam x} and
        # every term of the linear sweep overflow, and the log-space rows give
        # ln(f * phi) = lam x + ln M(lam s) and grad ln(f * phi) = lam
        lam = 0.8
        phi = L.mollifier(1, 4)
        s = phi.support_radius
        bump = lambda u: math.exp(-1.0 / (1.0 - u * u))
        m = (scipy.integrate.quad(lambda u: math.exp(lam * s * u) * bump(u), -1, 1)[0]
             / scipy.integrate.quad(bump, -1, 1)[0])
        g = L.convolve(L.log_linear([lam]), phi)
        xs = np.array([[1000.0], [-1000.0], [0.5]])
        lv, dlv = g.log_value(xs, grad=True)
        # the 64-node Gauss-Legendre rule of the sweep gives M to about 1e-12
        np.testing.assert_allclose(lv[[0, 2]], lam * xs[[0, 2], 0] + math.log(m),
                                   rtol=0, atol=1e-10)
        # e^{-800} is below the floor, where a field counts as zero
        assert lv[1] == pytest.approx(L.fields.LOG_FLOOR, abs=1e-9)
        np.testing.assert_allclose(dlv[[0, 2], 0], lam, rtol=1e-9)
        assert g(xs[0]) == math.inf

    def test_convolution_reads_the_unfloored_inner_field(self):
        # at x = -1000 every node's ln f = 0.8 (x - y) is far below LOG_FLOOR;
        # a floored inner field would be flat there, with gradient 0
        g = L.convolve(L.log_linear([0.8]), L.mollifier(1, 4))
        lv, dlv = g.log_value(np.array([[-1000.0]]), grad=True)
        assert lv[0] == L.fields.LOG_FLOOR
        assert dlv[0, 0] == pytest.approx(0.8, rel=1e-9)

    @pytest.mark.parametrize("compose", [
        lambda f: L.power(f, 0.01),
        lambda f: L.product_field(f, L.log_linear([-0.99])),
        lambda f: L.power(L.dilate(f, 0.8), 0.0125),
    ], ids=["power", "product", "dilate"])
    def test_compositions_read_the_unfloored_inner_field(self, compose):
        # ln f(-1000) = -1000 and ln f(-800) are below LOG_FLOOR, while each
        # composition is 0.01 x = -10 there: only the outer value is floored
        lv, dlv = compose(L.log_linear([1.0])).log_value(np.array([[-1000.0]]), grad=True)
        assert lv[0] == pytest.approx(-10.0, rel=1e-12)
        assert dlv[0, 0] == pytest.approx(0.01, rel=1e-12)


class TestDilation:
    def test_identity_returns_same_object(self):
        f = L.cosh_field(0.6)
        assert L.dilate(f, 1.0) is f

    def test_semigroup_law(self, rng):
        f = L.cosh_field(0.8)
        pts = rng.standard_normal((15, 1))
        lhs = L.dilate(L.dilate(f, 0.8), 0.5)(pts)
        rhs = L.dilate(f, 0.4)(pts)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_dilate_log_linear(self, rng):
        pts = rng.standard_normal((15, 1))
        lhs = L.dilate(L.log_linear([0.9]), 0.6)(pts)
        rhs = L.log_linear([0.54])(pts)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    @pytest.mark.parametrize("r", [0.0, -0.3, 1.2])
    def test_range_validation(self, r):
        with pytest.raises(InvalidParameter):
            L.dilate(L.log_linear([0.5]), r)


class TestEuler:
    def test_constant_field(self, rng):
        f = L.constant(3.0, 2)
        pts = rng.standard_normal((8, 2))
        assert L.euler(f, pts) == pytest.approx(np.zeros(8), abs=1e-14)

    def test_log_linear_hand_value(self):
        # E f(x) = x lam exp(lam x); at lam = 1, x = 1 the value is e
        f = L.log_linear([1.0])
        assert L.euler(f, np.array([1.0])) == pytest.approx(math.e, rel=1e-12)

    def test_dilation_commutation(self, rng):
        # E(f_r)(x) = (E f)(r x): the dilation semigroup commutes with its generator
        f = L.product_field(L.log_linear([0.5]), L.cosh_field(0.8))
        pts = rng.standard_normal((20, 1))
        for r in (0.5, 0.8):
            lhs = L.euler(L.dilate(f, r), pts)
            rhs = L.euler(f, r * pts)
            assert np.max(np.abs(lhs - rhs)) <= 1e-8 * np.max(1.0 + np.abs(rhs))

    def test_finite_difference_fallback(self):
        f = L.raw_field(lambda pts: np.exp(0.5 * pts[:, 0]), 1, label="fd")
        assert L.euler(f, np.array([1.0])) == pytest.approx(0.5 * math.exp(0.5), rel=1e-7)

    def test_rejected_without_gradient_or_smoothness(self):
        f = L.raw_field(lambda pts: np.abs(pts[:, 0]), 1, smooth=False, label="kink")
        with pytest.raises(InvalidParameter):
            L.euler(f, np.array([0.5]))


class TestMollifier:
    def test_unit_mass_against_scipy(self):
        phi = L.mollifier(1, 3)
        s = phi.support_radius
        oracle, _ = scipy.integrate.quad(lambda y: phi(np.array([y])), -s, s)
        assert phi.mass() == pytest.approx(1.0, abs=1e-8)
        assert oracle == pytest.approx(1.0, abs=1e-8)

    def test_unit_mass_dim2(self):
        phi = L.mollifier(2, 2)
        assert phi.mass() == pytest.approx(1.0, abs=1e-8)

    def test_support_radius_decreasing_in_k(self):
        radii = [L.mollifier(1, k).support_radius for k in (1, 2, 3, 5, 8)]
        assert all(r2 < r1 for r1, r2 in zip(radii, radii[1:]))

    def test_scale_index_validation(self):
        with pytest.raises(InvalidParameter):
            L.mollifier(1, 0)

    def test_gradient_matches_differences(self, rng):
        phi = L.mollifier(1, 2)
        xs = 0.4 * phi.support_radius * rng.standard_normal((10, 1))
        h = 1e-7
        fd = (phi(xs + h) - phi(xs - h)) / (2 * h)
        assert phi.gradient(xs)[:, 0] == pytest.approx(fd, rel=1e-5, abs=1e-8)


class TestConvolve:
    def test_constant_preserved(self):
        c = L.constant(2.5, 1)
        g = L.convolve(c, L.mollifier(1, 2))
        xs = np.linspace(-1, 1, 5).reshape(-1, 1)
        assert g(xs) == pytest.approx(2.5 * np.ones(5), rel=1e-10)

    def test_log_linear_factor(self):
        lam = 0.8
        phi = L.mollifier(1, 4)
        g = L.convolve(L.log_linear([lam]), phi)
        s = phi.support_radius
        factor, _ = scipy.integrate.quad(
            lambda y: math.exp(-lam * y) * phi(np.array([y])), -s, s
        )
        assert factor >= 1.0  # symmetric mollifier, convex exponential
        xs = np.array([[0.0], [1.0], [-0.5]])
        assert g(xs) == pytest.approx(factor * np.exp(lam * xs[:, 0]), rel=1e-6)

    def test_mollified_modulus_is_lsh(self):
        g = L.convolve(L.modulus_holomorphic([0, 1]), L.mollifier(2, 2))
        rep = L.is_lsh(g, probes=default_probes(2, count=24, seed=5))
        assert rep.passed

    def test_dim_mismatch(self):
        with pytest.raises(InvalidParameter):
            L.convolve(L.log_linear([0.5]), L.mollifier(2, 2))

    def test_many_points_match_slices(self):
        # 70,000 points span many row blocks of the 64-node 1-D rule
        g = L.convolve(L.cosh_field(0.8), L.mollifier(1, 4))
        xs = np.linspace(-6.0, 6.0, 70_000).reshape(-1, 1)
        slices = [xs[i : i + 1000] for i in range(0, len(xs), 1000)]
        np.testing.assert_allclose(
            g(xs), np.concatenate([g(s) for s in slices]), rtol=1e-12, atol=0
        )
        np.testing.assert_allclose(
            g.gradient(xs), np.concatenate([g.gradient(s) for s in slices]),
            rtol=1e-12, atol=1e-300,
        )


    def test_sweep_over_budget_is_refused(self, monkeypatch):
        g = L.convolve(L.cosh_field(0.8), L.mollifier(1, 4))  # 64 nodes
        monkeypatch.setattr(L.fields, "CONV_MAX_PAIRS", 64 * 100)
        assert g(np.zeros((100, 1))) == pytest.approx(np.full(100, g(np.zeros(1))))
        with pytest.raises(InvalidParameter, match="101 points x 64 nodes"):
            g.value_and_gradient(np.zeros((101, 1)))

    def test_3d_check_is_refused_before_the_sweep(self):
        # 101^3 Gauss-Hermite points against 20^3 mollifier nodes: 8.2e9 pairs
        g = L.convolve(L.log_linear([0.8, 0.0, 0.0]), L.mollifier(3, 4))
        with pytest.raises(InvalidParameter, match="1030301 points x 8000 nodes"):
            L.check_slsi(g, L.gaussian(1.0, 3), 1.0)


def _joint_cases():
    # 4,000 1-D points span two row blocks of the 64-node rule and 300 2-D
    # points three of the 1,600-node rule
    xs1 = np.linspace(-3.0, 3.0, 4_000).reshape(-1, 1)
    xs2 = np.random.default_rng(3).standard_normal((300, 2))
    f1, f2 = L.cosh_field(0.8), L.log_linear([0.5, -0.3])
    phi1, phi2 = L.mollifier(1, 2), L.mollifier(2, 3)
    cases = {
        "convolve-1d": (L.convolve(f1, phi1), xs1),
        "convolve-2d": (L.convolve(f2, phi2), xs2),
        "dilate-convolve-1d": (L.dilate(L.convolve(f1, phi1), 0.9), xs1),
        "dilate-convolve-2d": (L.dilate(L.convolve(f2, phi2), 0.9), xs2),
        "dilated_convolve-1d": (L.dilated_convolve(f1, phi1, 0.95), xs1),
        "dilated_convolve-2d": (L.dilated_convolve(f2, phi2, 0.95), xs2),
        "cosh_field": (f1, xs1),
    }
    return [pytest.param(g, xs, id=name) for name, (g, xs) in cases.items()]


class TestValueAndGradient:
    @pytest.mark.parametrize("g, xs", _joint_cases())
    def test_matches_separate_maps(self, g, xs):
        v, grad = g.value_and_gradient(xs)
        np.testing.assert_allclose(v, g(xs), rtol=1e-13, atol=0)
        np.testing.assert_allclose(grad, g.gradient(xs), rtol=1e-12,
                                   atol=1e-14 * np.max(np.abs(grad)))
        v0, g0 = g.value_and_gradient(xs[5])
        assert isinstance(v0, float) and g0.shape == (g.dim,)
        np.testing.assert_allclose(v0, v[5], rtol=1e-13)


class TestDilatedConvolve:
    def test_identity_on_constants(self):
        g = L.dilated_convolve(L.constant(1.0, 1), L.mollifier(1, 3), 0.5)
        xs = np.linspace(-2, 2, 7).reshape(-1, 1)
        assert g(xs) == pytest.approx(np.ones(7), rel=1e-10)

    def test_change_of_variables_identity(self, rng):
        # (f * phi)_r = f_r * (r^n phi)_r; the rescaled bump is the family
        # member with support radius s / r
        f = L.cosh_field(0.9)
        phi = L.mollifier(1, 4)
        r = 0.8
        lhs = L.dilated_convolve(f, phi, r)
        rhs = L.convolve(L.dilate(f, r), _bump(1, phi.support_radius / r))
        pts = rng.standard_normal((15, 1))
        assert lhs(pts) == pytest.approx(rhs(pts), rel=1e-9)

    def test_closed_form_factor(self):
        lam, r = 0.6, 0.7
        phi = L.mollifier(1, 3)
        g = L.dilated_convolve(L.log_linear([lam]), phi, r)
        s = phi.support_radius
        factor, _ = scipy.integrate.quad(
            lambda y: math.exp(-lam * y) * phi(np.array([y])), -s, s
        )
        xs = np.array([[0.3], [1.1]])
        assert g(xs) == pytest.approx(factor * np.exp(lam * r * xs[:, 0]), rel=1e-6)

    def test_r_range(self):
        with pytest.raises(InvalidParameter):
            L.dilated_convolve(L.log_linear([0.5]), L.mollifier(1, 2), 1.0)


class TestSphericalAverage:
    def test_rotation_invariant_fixed_point(self, rng):
        f = L.exp_norm_sq(0.4, 2)
        favg = L.spherical_average(f)
        pts = rng.standard_normal((10, 2))
        assert favg(pts) == pytest.approx(f(pts), rel=1e-10)

    def test_odd_harmonic_cancels(self, rng):
        f = L.raw_field(lambda pts: pts[:, 0] ** 2 - pts[:, 1] ** 2, 2, label="x2-y2")
        favg = L.spherical_average(f)
        pts = rng.standard_normal((10, 2))
        assert np.max(np.abs(favg(pts))) <= 1e-10

    def test_exponential_averages_to_bessel(self):
        from scipy.special import i0

        favg = L.spherical_average(L.log_linear([1.0, 0.0]))
        for t in (0.5, 1.0, 2.0):
            assert favg(np.array([t, 0.0])) == pytest.approx(i0(t), abs=1e-5)

    def test_dim1_reflection(self):
        f = L.log_linear([1.0])
        favg = L.spherical_average(f)
        assert favg(np.array([0.7])) == pytest.approx(math.cosh(0.7), rel=1e-12)

    def test_high_dim_rejected(self):
        f = L.constant(1.0, 4)
        with pytest.raises(InvalidParameter):
            L.spherical_average(f)


class TestIsLsh:
    def test_log_linear_passes(self):
        rep = L.is_lsh(L.log_linear([0.8]))
        assert rep.passed and rep.checked > 0

    def test_gaussian_decay_fails_with_witness(self):
        f = L.raw_field(lambda pts: np.exp(-pts[:, 0] ** 2), 1, label="e^{-x^2}")
        rep = L.is_lsh(f)
        assert not rep.passed
        x, r, mean, center = rep.worst_violation()
        assert mean < center

    def test_modulus_with_zeros_skips_and_passes(self):
        f = L.modulus_holomorphic([1, 0, 1])  # zeros at (0, +-1)
        probes = np.vstack([default_probes(2, count=32, seed=3), [[0.0, 1.0]]])
        rep = L.is_lsh(f, probes=probes)
        assert rep.passed
        assert rep.skipped >= 1

    @pytest.mark.parametrize(
        "field",
        [
            L.power(L.modulus_holomorphic([1, 1]), 1.7),
            L.product_field(L.log_linear([0.5, 0.0]), L.modulus_holomorphic([1, 1])),
            L.dilate(L.modulus_holomorphic([1, 1]), 0.6),
            L.convolve(L.log_linear([0.7]), L.mollifier(1, 2)),
        ],
        ids=lambda f: f.certificate,
    )
    def test_closure_constructions_stay_lsh(self, field):
        rep = L.is_lsh(field, probes=default_probes(field.dim, count=32, seed=41))
        assert rep.passed


class TestSubharmonicityHelper:
    def test_squared_norm_subharmonic(self):
        assert L.is_subharmonic(L.squared_norm(2)).passed

    def test_concave_profile_fails(self):
        f = L.raw_field(lambda pts: -np.sum(pts**2, axis=1), 2, label="-|x|^2")
        assert not L.is_subharmonic(f).passed


class TestRotationCommutation:
    def test_euler_commutes_with_rotations(self, rng):
        # E(k o u)(y) = (E k)(u y) for sampled rotations u
        from lshlab.fields import _rotations

        k = L.modulus_holomorphic([1, 1])  # |z + 1|, not rotation-invariant
        pts = rng.standard_normal((12, 2))
        for u in _rotations(2)[::13]:
            composed = L.raw_field(
                lambda p, u=u: k(p @ u.T),
                2,
                grad=lambda p, u=u: k.gradient(p @ u.T) @ u,
                label="k_rotated",
            )
            lhs = L.euler(composed, pts)
            rhs = L.euler(k, pts @ u.T)
            assert np.max(np.abs(lhs - rhs)) <= 1e-10 * np.max(1 + np.abs(rhs))
