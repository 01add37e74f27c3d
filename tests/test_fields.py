import math
import os
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.integrate

import lshlab as L
from lshlab.errors import InvalidParameter, SubharmonicityError
from lshlab.fields import _ball_nodes, default_probes


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
        # no option skips the sub-mean test: a superharmonic u is refused
        # with the point it fails at
        for dim in (1, 2):
            with pytest.raises(SubharmonicityError, match="sphere-mean test") as err:
                L.exp_subharmonic(lambda pts: -np.sum(pts**2, axis=1), dim=dim)
            assert np.shape(err.value.witness) == (dim,)

    def test_exp_subharmonic_accepts_convex_log(self):
        f = L.exp_subharmonic(lambda pts: pts[:, 0] ** 2, dim=1)
        assert f.certified

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_exp_norm_sq_log_map_is_its_closed_form(self, dim):
        # certified by construction: ln f = lam |x|^2 and grad ln f = 2 lam x
        lam, pts = 0.3, default_probes(dim)
        log_f, grad_log_f = L.exp_norm_sq(lam, dim).log_value(pts, grad=True)
        assert np.array_equal(log_f, lam * np.sum(pts * pts, axis=1))
        assert np.array_equal(grad_log_f, 2.0 * lam * pts)

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

    @pytest.mark.parametrize("build, match", [
        # a dimension of 2.5 once built and failed only when evaluated
        (lambda: L.constant(1.5, 2.5), "dim must be a positive integer"),
        (lambda: L.exp_norm_sq(0.1, 2.5), "dim must be a positive integer"),
        (lambda: L.constant(1.5, True), "dim must be a positive integer"),
        (lambda: L.squared_norm(0), "dim must be a positive integer"),
        (lambda: L.exp_norm_sq(-0.1, 2), "lam >= 0"),
        (lambda: L.modulus_holomorphic([]), "non-empty"),
        (lambda: L.product_field(L.log_linear([0.5]), L.log_linear([0.5, 0.0])),
         "share a dimension"),
        (lambda: L.ScalarField(dim=1, label="both", _log=lambda pts, grad: (pts[:, 0], None),
                               _value=lambda pts: pts[:, 0]), "either its log map"),
        (lambda: L.ScalarField(dim=1, label="neither"), "either its log map"),
        (lambda: L.log_linear([0.5])(np.zeros((2, 3))), r"expected shape \(m, 1\) or \(1,\)"),
        (lambda: L.log_linear([0.5, 0.0])(np.zeros(3)), "point has 3 coordinates, expected 2"),
    ], ids=["constant-dim", "exp_norm_sq-dim", "bool-dim", "zero-dim", "exp_norm_sq-lam",
            "no-coefficients", "product-dims", "both-maps", "no-map", "batch-shape",
            "point-shape"])
    def test_malformed_field_refused(self, build, match):
        with pytest.raises(InvalidParameter, match=match):
            build()

    def test_numpy_integer_dim_accepted(self):
        f = L.constant(1.5, np.int64(2))
        assert f(np.zeros((3, 2))).tolist() == [1.5] * 3

    def test_scale_homogeneity(self, rng):
        f = L.cosh_field(0.8)
        g = L.product_field(L.constant(2.5), f)
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
        L.dilate(L.convolve(f1, L.mollifier(1, 2)), 0.8),
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
        assert np.max(np.abs(dlv - fd) / np.maximum(1.0, np.abs(dlv))) <= 1e-6

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

    def test_unverified_field_log_map_is_floored_log_of_its_values(self):
        # a field with no log map takes ln f from its values, floored at
        # VALUE_FLOOR = 1e-300, and grad ln f = grad f / f from differences
        f = L.raw_field(lambda pts: np.sum(pts * pts, axis=1), 1)
        np.testing.assert_allclose(f.log_value([[0.0], [2.0]]),
                                   [math.log(1e-300), math.log(4.0)], rtol=1e-15)
        lv, dlv = f.log_value([2.0], grad=True)
        assert lv == pytest.approx(math.log(4.0), rel=1e-15)
        assert dlv[0] == pytest.approx(1.0, rel=1e-6)


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

    @pytest.mark.parametrize("dim, k", [(2, 1e200), (3, 1e110), (2, 1e160), (2, 1e100),
                                        (1, 1e120), (1, 1e8), (3, math.inf)])
    def test_scale_index_past_the_double_range_refused(self, dim, k):
        # these k once raised ZeroDivisionError, built an infinite amplitude
        # or overflowed in the gradient weights; past MAX_SCALE_INDEX the
        # convolution's gradient sum cancels, so k is refused, without a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidParameter, match=r"k must be a number in \[1, 1e\+06\]"):
                L.mollifier(dim, k)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_largest_scale_index_builds(self, dim):
        # k = 1e6 keeps unit mass, and grad ln of the mollified e^{x_1 / 2}
        # its k = 1 accuracy
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            phi = L.mollifier(dim, L.fields.MAX_SCALE_INDEX)
            g = L.convolve(L.log_linear(0.5 * np.eye(dim)[0]), phi)
            _, dlv = g.log_value(np.zeros((2, dim)), grad=True)
        assert phi.mass() == pytest.approx(1.0, abs=1e-14)
        np.testing.assert_allclose(dlv, np.tile(0.5 * np.eye(dim)[0], (2, 1)), rtol=0, atol=1e-8)

    def test_four_dimensions_refused(self):
        with pytest.raises(InvalidParameter, match="dim <= 3"):
            L.mollifier(4, 1)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_radial_sums_match_the_polar_nodes(self, dim):
        # the bump is radial: Mollifier.mass and lebesgue_norm sum over radii
        # alone, and agree with the full sums over the convolution nodes
        phi = L.mollifier(dim, 2)
        y, c, _ = _ball_nodes(phi)
        assert len(c) == {1: 64, 2: 512, 3: 1600}[dim]
        assert phi.mass() == pytest.approx(1.0, abs=1e-14)
        assert np.sum(c) == pytest.approx(1.0, abs=1e-14)
        assert phi.lebesgue_norm(2.0) ** 2 == pytest.approx(c @ phi(y), rel=1e-12)

    @pytest.mark.parametrize("dim, k", [(1, 4), (2, 4), (3, 16)])
    def test_norm_rises_to_the_sup_at_large_exponents(self, dim, k):
        # a linear sum of phi^{p'} overflows from p' = 300 for (2, 4) and from
        # 100 for (3, 16); Vol(supp) < 1, so the norm increases with p'
        phi = L.mollifier(dim, k)
        norms = [phi.lebesgue_norm(p) for p in (2, 10, 100, 300, 1001, 1e4, 1e5)]
        assert all(math.isfinite(n) for n in norms)
        assert all(a < b for a, b in zip(norms, norms[1:]))
        assert norms[-1] < phi.sup_value
        assert norms[-1] == pytest.approx(phi.sup_value, rel=2e-3)

    def test_gradient_matches_differences(self, rng):
        phi = L.mollifier(1, 2)
        xs = 0.4 * phi.support_radius * rng.standard_normal((10, 1))
        h = 1e-7
        fd = (phi(xs + h) - phi(xs - h)) / (2 * h)
        assert phi.gradient(xs)[:, 0] == pytest.approx(fd, rel=1e-5, abs=1e-8)


def _subtract_sweep(f, phi, pts):
    """(ln, grad) of f * phi from a row-block sweep that writes x - y with one
    broadcast np.subtract per coordinate: the reference for the sweep's bits."""
    y, c, cg = _ball_nodes(phi)
    weights = np.column_stack([c, cg])
    block = max(1, L.fields._CONV_BLOCK_PAIRS // y.shape[0])
    m, nodes = pts.shape[0], y.shape[0]
    top, sums = np.empty(m), np.empty((m, weights.shape[1]))
    for lo in range(0, m, block):
        chunk = pts[lo : lo + block]
        rows = chunk.shape[0]
        shifted = np.empty((f.dim, rows, nodes))
        for j in range(f.dim):
            np.subtract(chunk[:, j, None], y[None, :, j], out=shifted[j])
        lf = f._log(shifted.reshape(f.dim, -1).T, False)[0].reshape(rows, nodes)
        top[lo : lo + rows] = t = lf.max(axis=1)
        lf -= np.where(t == -np.inf, 0.0, t)[:, None]
        np.matmul(np.exp(lf, out=lf), weights, out=sums[lo : lo + rows])
    lv = top + np.log(sums[:, 0])
    return lv, sums[:, 1:] / np.where(sums[:, :1] == 0, 1.0, sums[:, :1])


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

    def test_subnormal_rows_keep_full_precision(self):
        # f * phi = M e^x, so ln(f * phi)(x) - x and grad ln(f * phi) take the
        # same value at every x; at x = -740 every e^{x - y_i} is subnormal,
        # which a sum of linear values of f loses
        g = L.convolve(L.log_linear([1.0]), L.mollifier(1, 4))
        xs = np.array([[0.0], [-735.0], [-740.0]])
        lv, dlv = g.log_value(xs, grad=True)
        np.testing.assert_allclose(lv - xs[:, 0], np.full(3, lv[0]), rtol=0, atol=1e-12)
        np.testing.assert_allclose(dlv, np.full((3, 1), dlv[0, 0]), rtol=0, atol=1e-12)

    def test_zero_rows_read_minus_inf_without_warning(self):
        # f = 0 at every shifted node: ln(f * phi) = -inf, floored, and its
        # gradient 0, as at a zero of modulus_holomorphic; the sLSI check of
        # the mollified zero field is as conclusive as the zero field's
        zero = L.modulus_holomorphic([0.0])
        g = L.convolve(zero, L.mollifier(2, 4))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert g._log(np.zeros((2, 2)), False)[0].tolist() == [-np.inf, -np.inf]
            lv, dlv = g.log_value(np.zeros((2, 2)), grad=True)
            rep = L.check_slsi(g, L.gaussian(1.0, 2), 1.0)
        assert lv.tolist() == [L.fields.LOG_FLOOR] * 2 and dlv.tolist() == [[0.0, 0.0]] * 2
        assert not rep.inconclusive
        assert not L.check_slsi(zero, L.gaussian(1.0, 2), 1.0).inconclusive

    def test_infinite_rows_read_nan(self):
        # ln f = +inf at a node (1e306 x^2 overflows) gives NaN, not a value,
        # so that an integral over the point fails with its witness
        g = L.convolve(L.exp_norm_sq(1e306, 1), L.mollifier(1, 4))
        with np.errstate(all="ignore"):
            lv, dlv = g._log(np.array([[0.0], [20.0]]), True)
        assert np.isfinite(lv[0]) and np.isfinite(dlv[0, 0])
        assert np.isnan(lv[1]) and np.isnan(dlv[1, 0])

    def test_sweep_working_set_stays_in_cache(self):
        # one 2-D sweep with its gradient over the 1,700 Gauss-Hermite nodes
        # of the standard Gaussian: one reused block buffer, not a fresh
        # (rows, nodes, 2) array and ln f per block
        mu = L.gaussian(1.0, 2)
        pts = L.quadrature.measure_nodes(mu, L.default_spec(mu))[0]
        g = L.convolve(L.log_linear([0.5, -0.3]), L.mollifier(2, 4))
        g.log_value(pts[:10], grad=True)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            g.log_value(pts, grad=True)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert len(pts) == 1_700 and peak < 2**20

    def test_sweep_over_budget_is_refused(self, monkeypatch):
        g = L.convolve(L.cosh_field(0.8), L.mollifier(1, 4))  # 64 nodes
        monkeypatch.setattr(L.fields, "CONV_MAX_PAIRS", 64 * 100)
        assert g(np.zeros((100, 1))) == pytest.approx(np.full(100, g(np.zeros(1))))
        with pytest.raises(InvalidParameter, match="101 points x 64 nodes"):
            g.log_value(np.zeros((101, 1)), grad=True)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_shifted_points_are_exact(self, dim, rng):
        # the sweep's shifted points are the product [x_j, 1] @ [1; -y_j], each
        # entry rounded once: the inner map receives x - y (up to the sign of
        # a zero), also on rows of -0.0, +-1e308, +-inf and NaN, Fortran-
        # ordered, through a last block of one row; (ln, grad) keep the bits
        # of a sweep that writes x - y with np.subtract
        seen, inner = [], L.log_linear(np.linspace(0.5, -0.3, dim))

        def log(pts, grad):
            seen.append(pts.copy())
            return inner._log(pts, grad)

        phi = L.mollifier(dim, 3)
        y = _ball_nodes(phi)[0]
        g = L.convolve(L.fields.ScalarField(dim=dim, label="probe", _log=log), phi)
        x = rng.standard_normal((2 * (L.fields._CONV_BLOCK_PAIRS // len(y)) + 1, dim))
        x[0] = -0.0
        x[1:7, 0] = x[7:13, -1] = [1e308, -1e308, np.inf, -np.inf, np.nan, -0.0]
        x = np.asfortranarray(x)
        with np.errstate(all="ignore"):
            lv, dlv = g._log(x, True)
            want_lv, want_dlv = _subtract_sweep(inner, phi, x)
        got = np.concatenate(seen)
        assert np.array_equal(got, (x[:, None, :] - y[None, :, :]).reshape(-1, dim),
                              equal_nan=True)
        assert lv.tobytes() == want_lv.tobytes() and dlv.tobytes() == want_dlv.tobytes()
        assert np.isfinite(lv[13:]).all()

    @pytest.mark.parametrize("lam", [[0.5], [0.5, -0.3], [0.5, -0.3, 0.2]],
                             ids=["1d", "2d", "3d"])
    def test_log_linear_gradient_is_exact(self, lam, rng):
        # f * phi = M(lam) e^{lam . x}, so grad ln(f * phi) = lam everywhere
        g = L.convolve(L.log_linear(lam), L.mollifier(len(lam), 3))
        _, dlv = g.log_value(rng.standard_normal((20, len(lam))), grad=True)
        np.testing.assert_allclose(dlv, np.tile(lam, (20, 1)), rtol=1e-8, atol=0)

    def test_3d_check_is_refused_before_the_sweep(self):
        # the default 65^3 trapezoid points against 32 x 50 polar mollifier
        # nodes: 4.4e8 pairs
        g = L.convolve(L.log_linear([0.8, 0.0, 0.0]), L.mollifier(3, 4))
        with pytest.raises(InvalidParameter, match="274625 points x 1600 nodes"):
            L.check_slsi(g, L.gen_exponential(1.0, 4.0, 3), 1.0)

    def test_3d_gaussian_check_fits_the_budget(self):
        # 28,900 polar Gauss-Hermite points x 1,600 nodes = 4.6e7 pairs; sLSI
        # at c = 1 holds for every LSH field on the Gaussian
        rep = L.check_slsi(L.default_battery(3)[-1], L.gaussian(1.0, 3), 1.0)
        assert rep.spec["scheme"] == "gauss_hermite"
        assert rep.passed and not rep.inconclusive


class TestOneThreadSweep:
    # a sweep runs its row blocks one after another on the thread that calls it

    def test_blocks_sweep_on_the_calling_thread(self, rng):
        # 1,200 2-D points in row blocks of the 512-node rule: each block
        # reads the inner log map on this thread, and no thread outlives the
        # sweep
        threads, inner = [], L.log_linear([0.5, -0.3])

        def log(pts, grad):
            threads.append(threading.get_ident())
            return inner._log(pts, grad)

        g = L.convolve(L.fields.ScalarField(dim=2, label="probe", _log=log), L.mollifier(2, 3))
        xs = rng.standard_normal((1_200, 2))
        before = threading.active_count()
        _, dlv = g.log_value(xs, grad=True)
        blocks = -(-1_200 // (L.fields._CONV_BLOCK_PAIRS // 512))
        assert threads == [threading.get_ident()] * blocks
        assert threading.active_count() == before
        np.testing.assert_allclose(dlv, np.tile([0.5, -0.3], (1_200, 1)), rtol=1e-8, atol=0)

    def test_nested_convolution_finishes(self):
        # each of the outer sweep's 32 blocks (256 rows) sweeps 16,384 inner
        # points in 64 blocks.  A fresh interpreter with a timeout, so that a
        # sweep that never returns fails here instead of stalling the suite.
        # (f * phi) * phi = M^2 e^{lam x}, with M = (f * phi)(0)
        code = """
import numpy as np
import lshlab as L
lam, phi = 0.8, L.mollifier(1, 4)
inner = L.convolve(L.log_linear([lam]), phi)
xs = np.linspace(-3.0, 3.0, 8_000).reshape(-1, 1)
lv = L.convolve(inner, phi).log_value(xs)
print(np.max(np.abs(lv - lam * xs[:, 0] - 2.0 * inner.log_value(np.zeros(1)))))
"""
        src = str(Path(L.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert float(out.stdout) <= 1e-14

    def test_blocks_run_under_the_callers_error_state(self):
        # ln f = 1e306 x^2 overflows for |x| > 13.4: silenced by the caller in
        # each of the 16 blocks, and warned about without that
        g = L.convolve(L.exp_norm_sq(1e306, 1), L.mollifier(1, 4))
        xs = np.linspace(10.0, 20.0, 4_000).reshape(-1, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(all="ignore"):
                g.log_value(xs)
            with pytest.raises(RuntimeWarning, match="overflow"):
                g.log_value(xs)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_sweeps_bit_for_bit(self):
        # a child forked after a sweep sweeps the same 16 blocks to the same
        # bits as its parent
        g = L.convolve(L.cosh_field(0.8), L.mollifier(1, 4))
        xs = np.linspace(-3.0, 3.0, 4_000).reshape(-1, 1)
        want = g.log_value(xs)
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                code = 0 if np.array_equal(g.log_value(xs), want) else 3
            finally:
                os._exit(code)
        deadline = time.monotonic() + 120
        while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
            time.sleep(0.05)
        if done[0] == 0:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        assert done[0] == pid and os.waitstatus_to_exitcode(done[1]) == 0


def _joint_cases():
    # 4,000 1-D points span 16 row blocks of the 64-node rule (256 rows a
    # block) and 1,200 2-D points 38 of the 512-node rule (32 rows a block)
    xs1 = np.linspace(-3.0, 3.0, 4_000).reshape(-1, 1)
    xs2 = np.random.default_rng(3).standard_normal((1_200, 2))
    f1, f2 = L.cosh_field(0.8), L.log_linear([0.5, -0.3])
    phi1, phi2 = L.mollifier(1, 2), L.mollifier(2, 3)
    cases = {
        "convolve-1d": (L.convolve(f1, phi1), xs1),
        "convolve-2d": (L.convolve(f2, phi2), xs2),
        "dilate-convolve-1d": (L.dilate(L.convolve(f1, phi1), 0.9), xs1),
        "dilate-convolve-2d": (L.dilate(L.convolve(f2, phi2), 0.9), xs2),
        "dilated_convolve-1d": (L.dilate(L.convolve(f1, phi1), 0.95), xs1),
        "dilated_convolve-2d": (L.dilate(L.convolve(f2, phi2), 0.95), xs2),
        "cosh_field": (f1, xs1),
    }
    return [pytest.param(g, xs, id=name) for name, (g, xs) in cases.items()]


class TestValueAndGradient:
    # ln f and grad ln f from one evaluation of the log map agree with the
    # separate value and gradient maps
    @pytest.mark.parametrize("g, xs", _joint_cases())
    def test_matches_separate_maps(self, g, xs):
        lv, dlv = g.log_value(xs, grad=True)
        # an absolute bound on ln f is a relative bound on f
        np.testing.assert_allclose(lv, g.log_value(xs), rtol=0, atol=1e-13)
        grad = np.exp(lv)[:, None] * dlv
        np.testing.assert_allclose(grad, g.gradient(xs), rtol=1e-12,
                                   atol=1e-14 * np.max(np.abs(grad)))
        lv0, dlv0 = g.log_value(xs[5], grad=True)
        assert isinstance(lv0, float) and dlv0.shape == (g.dim,)
        np.testing.assert_allclose(lv0, lv[5], rtol=0, atol=1e-13)


class TestDilatedConvolve:
    def test_identity_on_constants(self):
        g = L.dilate(L.convolve(L.constant(1.0, 1), L.mollifier(1, 3)), 0.5)
        xs = np.linspace(-2, 2, 7).reshape(-1, 1)
        assert g(xs) == pytest.approx(np.ones(7), rel=1e-10)

    def test_change_of_variables_identity(self, rng):
        # (f * phi)_r = f_r * (r^n phi)_r; the rescaled bump is the family
        # member with support radius s / r
        f = L.cosh_field(0.9)
        phi = L.mollifier(1, 4)
        r = 0.8
        lhs = L.dilate(L.convolve(f, phi), r)
        rhs = L.convolve(L.dilate(f, r), L.mollifier(1, phi.scale_index * r))
        pts = rng.standard_normal((15, 1))
        assert lhs(pts) == pytest.approx(rhs(pts), rel=1e-9)

    def test_closed_form_factor(self):
        lam, r = 0.6, 0.7
        phi = L.mollifier(1, 3)
        g = L.dilate(L.convolve(L.log_linear([lam]), phi), r)
        s = phi.support_radius
        factor, _ = scipy.integrate.quad(
            lambda y: math.exp(-lam * y) * phi(np.array([y])), -s, s
        )
        xs = np.array([[0.3], [1.1]])
        assert g(xs) == pytest.approx(factor * np.exp(lam * r * xs[:, 0]), rel=1e-6)


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
        assert rep.worst_violation() is None

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

    def test_mollified_3d_field_is_scanned_one_probe_per_call(self, monkeypatch):
        # one probe's spheres are 4 x 512 nodes, each swept against the 1,600
        # mollifier nodes; the sweep refuses anything larger, so a scan that
        # handed it two probes at once would raise
        g = L.convolve(L.log_linear([0.3, 0.0, 0.0]), L.mollifier(3, 4))
        nodes = len(_ball_nodes(L.mollifier(3, 4))[0])
        monkeypatch.setattr(L.fields, "CONV_MAX_PAIRS", 4 * 512 * nodes)
        rep = L.is_lsh(g, probes=default_probes(3, count=3, seed=41))
        assert (rep.passed, rep.checked, rep.skipped, len(rep.violations)) == (True, 12, 0, 0)

    @pytest.mark.parametrize("c", [1000.0, -1000.0])
    def test_log_map_is_scanned_unfloored(self, c):
        # ln f = c - |x|^2 is superharmonic; e^{ln f} overflows (c = 1000) or
        # underflows below VALUE_FLOOR (c = -1000) at every probe, so only the
        # log map itself shows the violations
        f = L.fields._certified("superharmonic", 2, lambda pts, grad: (
            c - np.sum(pts**2, axis=1), -2.0 * pts if grad else None))
        rep = L.is_lsh(f)
        assert (rep.passed, rep.checked, rep.skipped, len(rep.violations)) == (False, 256, 0, 256)

    @pytest.mark.parametrize(
        "field, zero, expected",
        [
            pytest.param(L.power(L.modulus_holomorphic([1, 1]), 1.7), None,
                         (True, 128, 0, 0), id="power"),
            pytest.param(L.product_field(L.log_linear([0.5, 0.0]), L.modulus_holomorphic([1, 1])),
                         None, (True, 128, 0, 0), id="product"),
            pytest.param(L.dilate(L.modulus_holomorphic([1, 1]), 0.6), None,
                         (True, 128, 0, 0), id="dilation"),
            pytest.param(L.convolve(L.log_linear([0.7]), L.mollifier(1, 2)), None,
                         (True, 128, 0, 0), id="mollified"),
            # the probe on the zero (0, 1) of 1 + z^2 is skipped, once
            pytest.param(L.modulus_holomorphic([1, 0, 1]), [0.0, 1.0],
                         (True, 128, 1, 0), id="modulus_zero"),
            # ln f = 100 |x|^2 exceeds 709, where e^{ln f} overflows, near the
            # outer probes
            pytest.param(L.power(L.exp_norm_sq(0.05, 2), 2000), None,
                         (True, 128, 0, 0), id="power_overflow"),
            pytest.param(L.exp_norm_sq(0.2, 3), None, (True, 128, 0, 0), id="exp_norm_sq_3d"),
        ],
    )
    def test_closure_constructions_stay_lsh(self, field, zero, expected):
        probes = default_probes(field.dim, count=32, seed=41)
        if zero is not None:
            probes = np.vstack([probes, [zero]])
        rep = L.is_lsh(field, probes=probes)
        assert (rep.passed, rep.checked, rep.skipped, len(rep.violations)) == expected


class TestSubharmonicityHelper:
    def test_squared_norm_subharmonic(self):
        assert L.is_subharmonic(L.squared_norm(2)).passed

    def test_concave_profile_fails(self):
        f = L.raw_field(lambda pts: -np.sum(pts**2, axis=1), 2, label="-|x|^2")
        assert not L.is_subharmonic(f).passed


class TestRotationCommutation:
    def test_euler_commutes_with_rotations(self, rng):
        # E(k o u)(y) = (E k)(u y) for sampled rotations u
        k = L.modulus_holomorphic([1, 1])  # |z + 1|, not rotation-invariant
        pts = rng.standard_normal((12, 2))
        for a in 2.0 * math.pi * np.array([0, 13, 26, 39, 52]) / 64:
            u = np.array([[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]])
            composed = L.raw_field(
                lambda p, u=u: k(p @ u.T),
                2,
                grad=lambda p, u=u: k.gradient(p @ u.T) @ u,
                label="k_rotated",
            )
            lhs = L.euler(composed, pts)
            rhs = L.euler(k, pts @ u.T)
            assert np.max(np.abs(lhs - rhs)) <= 1e-10 * np.max(1 + np.abs(rhs))
