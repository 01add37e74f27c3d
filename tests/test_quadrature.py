import math
import tracemalloc
import warnings
from types import SimpleNamespace

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
        pts, logw = tensor_grid(axis, dim, np.log(w))
        idx = np.array(np.unravel_index(np.arange(3**dim), (3,) * dim)).T
        assert np.array_equal(pts, axis[idx])  # first coordinate slowest
        assert np.allclose(np.exp(logw), np.prod(w[idx], axis=1), rtol=1e-15)
        assert np.array_equal(tensor_grid(axis, dim), pts)


def _tensor_hermite(dim, n):
    # the reference: n-node Gauss-Hermite per axis for N(0, I), as points and log-weights
    from numpy.polynomial.hermite import hermgauss

    t, w = hermgauss(n)
    return tensor_grid(math.sqrt(2.0) * t, dim, np.log(w) - 0.5 * math.log(math.pi))


def _mass_ent_ee(f, pts, logw):
    # int f dmu, Ent(f) and int x . grad f dmu on one node set, in log space
    lf, grad = f.log_value(pts, grad=True)
    s = logw + lf
    log_mass = quadrature._logsumexp(s)
    p = np.exp(s - log_mass)
    mass = math.exp(log_mass)
    return np.array([mass, mass * (p @ lf - log_mass), mass * (p @ np.sum(pts * grad, axis=1))])


def _rule_field(name, dim):
    lam = lambda a: [a] + [0.0] * (dim - 1)
    return {
        "exp(1.2x1)": lambda: L.log_linear(lam(1.2)),
        "exp_norm_sq": lambda: L.exp_norm_sq(0.05, dim),
        "exp_norm_sq^1.5": lambda: L.power(L.exp_norm_sq(0.05, dim), 1.5),
        "mollified": lambda: L.convolve(L.log_linear(lam(0.8)), L.mollifier(dim, 4)),
    }[name]()


class TestPolarGaussRule:
    @pytest.mark.parametrize("m", [25, 50])
    @pytest.mark.parametrize("alpha", [-0.5, 0.0, 0.5])
    def test_laguerre_against_scipy_roots_genlaguerre(self, alpha, m):
        from scipy.special import roots_genlaguerre

        u, logw = quadrature._laguerre_rule(m, alpha)
        u_ref, w_ref = roots_genlaguerre(m, alpha)
        np.testing.assert_allclose(u, u_ref, rtol=1e-13, atol=0)
        # tail weights down to 1e-78 of the largest keep their relative accuracy
        np.testing.assert_allclose(np.exp(logw), w_ref / w_ref.sum(), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("n", [26, 51, 101])
    def test_1d_is_gauss_hermite(self, n):
        # n // 2 radii times the directions +-1 are the 2 (n // 2) Hermite nodes
        from numpy.polynomial.hermite import hermgauss

        pts, logw = measure_nodes(L.gaussian(1.0, 1),
                                  QuadratureSpec(scheme="gauss_hermite", nodes_per_axis=n))
        order = np.argsort(pts[:, 0])
        t, w = hermgauss(2 * (n // 2))
        # 1e-13 relative in u = t^2 is 5e-14 relative in t
        np.testing.assert_allclose(pts[order, 0], math.sqrt(2.0) * t, rtol=5e-14, atol=0)
        np.testing.assert_allclose(np.exp(logw[order]), w / math.sqrt(math.pi),
                                   rtol=1e-12, atol=0)

    @pytest.mark.parametrize("dim, full, half", [(1, 100, 50), (2, 1700, 450),
                                                 (3, 28900, 4050)])
    def test_node_counts_halve_radii_and_angles(self, dim, full, half):
        spec = L.default_spec(L.gaussian(1.0, dim))
        assert len(measure_nodes(L.gaussian(1.0, dim), spec)[0]) == full
        assert len(measure_nodes(L.gaussian(1.0, dim), spec.halved())[0]) == half

    @pytest.mark.parametrize("field", ["exp(1.2x1)", "exp_norm_sq", "exp_norm_sq^1.5",
                                       "mollified"])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_matches_tensor_gauss_hermite(self, dim, field):
        f = _rule_field(field, dim)
        # 25^3 reference nodes keep the 3-D mollified sweep at 2.5e7 pairs
        n = 101 if dim == 2 else 25 if field == "mollified" else 41
        mu = L.gaussian(1.0, dim)
        got = _mass_ent_ee(f, *measure_nodes(mu, L.default_spec(mu)))
        np.testing.assert_allclose(got, _mass_ent_ee(f, *_tensor_hermite(dim, n)),
                                   rtol=0, atol=1e-13)

    @staticmethod
    def _forbid_node_rules(monkeypatch):
        def no_nodes(*args):
            raise AssertionError("a node rule was built")

        monkeypatch.setattr(quadrature, "_laguerre_rule", no_nodes)
        monkeypatch.setattr(quadrature, "tensor_grid", no_nodes)

    def test_refused_above_dim_3_before_any_node(self, monkeypatch):
        self._forbid_node_rules(monkeypatch)
        with pytest.raises(InvalidParameter, match="not dim 4"):
            measure_nodes(L.gaussian(1.0, 4), QuadratureSpec(scheme="gauss_hermite"))

    def test_default_above_dim_3_refused_before_any_node_rule(self, monkeypatch):
        # every rule stops at dim 3: the default spec of a 4-D measure is
        # built, and its node set refused where it would be built
        self._forbid_node_rules(monkeypatch)
        mu = L.gaussian(1.0, 4)
        assert L.default_spec(mu) == QuadratureSpec(scheme="tensor_trapezoid")
        with pytest.raises(InvalidParameter, match="dim <= 3, not dim 4"):
            L.check_slsi(L.log_linear([0.8, 0.0, 0.0, 0.0]), mu, 1.0)


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
            QuadratureSpec(scheme="tensor_trapezoid", nodes_per_axis=2)

    @pytest.mark.parametrize("kwargs, match", [
        (dict(scheme="tensor_trapezoid", nodes_per_axis=101.5), "nodes_per_axis must be an"),
        (dict(scheme="gauss_hermite", nodes_per_axis=True), "nodes_per_axis must be an integer"),
    ])
    def test_non_integer_counts_refused(self, kwargs, match):
        # numpy would raise a TypeError or ValueError only when the nodes are built
        with pytest.raises(InvalidParameter, match=match):
            QuadratureSpec(**kwargs)

    def test_numpy_integers_accepted(self, gauss1):
        spec = QuadratureSpec(scheme="tensor_trapezoid", nodes_per_axis=np.int32(65))
        plain = QuadratureSpec(scheme="tensor_trapezoid", nodes_per_axis=65)
        assert L.integrate(ones, gauss1, spec) == L.integrate(ones, gauss1, plain)

    @pytest.mark.parametrize("scheme, n", [("gauss_hermite", 101), ("tensor_trapezoid", 2049)])
    def test_default_node_count_resolved_before_halving(self, gauss1, scheme, n):
        # an unset count is the scheme's default, and its error estimate is
        # that of the default count, not |value - value| = 0
        f = L.log_linear([3.0])
        unset = L.integrate(f, gauss1, QuadratureSpec(scheme=scheme))
        assert unset == L.integrate(f, gauss1, QuadratureSpec(scheme=scheme, nodes_per_axis=n))
        with pytest.raises(InvalidParameter, match="no node count"):
            QuadratureSpec(scheme=scheme).halved()

    @pytest.mark.parametrize("dim, scheme, match", [
        (1, "adaptive_1d", "adaptive_1d has no fixed node set"),
        (4, "tensor_trapezoid", "tensor_trapezoid caps at dim 3"),
    ])
    def test_no_node_set_outside_a_scheme_refused(self, dim, scheme, match):
        with pytest.raises(InvalidParameter, match=match):
            measure_nodes(L.gaussian(1.0, dim), QuadratureSpec(scheme=scheme))

    def test_adaptive_rule_needs_one_dimension(self, gauss2):
        with pytest.raises(InvalidParameter, match="one-dimensional measure"):
            L.integrate(ones, gauss2, QuadratureSpec(scheme="adaptive_1d"))

    def test_gauss_hermite_only_for_gaussians(self):
        mu = L.gen_exponential(1.0, 1.0, 1)
        with pytest.raises(InvalidParameter):
            L.integrate(ones, mu, QuadratureSpec(scheme="gauss_hermite"))

    @pytest.mark.parametrize("mu, spec, count", [
        (L.gen_exponential(1.0, 1.0, 3),
         QuadratureSpec(scheme="tensor_trapezoid", nodes_per_axis=801), "513,922,401"),
        (L.gaussian(1.0, 3), QuadratureSpec(scheme="gauss_hermite", nodes_per_axis=801),
         "14,364,800"),
        (L.gen_exponential(1.0, 1.0, 2),
         QuadratureSpec(scheme="tensor_trapezoid", nodes_per_axis=100_001), "10,000,200,001"),
    ])
    def test_oversized_node_set_refused_before_it_is_built(self, mu, spec, count):
        # a job too large for memory is a LabError naming its size, raised
        # before any array is allocated, not numpy's MemoryError
        tracemalloc.start()
        try:
            with pytest.raises(InvalidParameter, match=f"{count} nodes exceeds MAX_NODES"):
                measure_nodes(mu, spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100_000


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
        for scheme in ("gauss_hermite", "tensor_trapezoid"):
            spec = QuadratureSpec(scheme=scheme)
            value, err = L.integrate(lambda pts: pts[:, 0] ** 2, gauss1, spec)
            assert math.isfinite(err) and err >= 0

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

    def test_non_finite_integrand_reports_witness(self, gauss1, gh_spec):
        # the pole sits on a node of the rule (0 is not one: the node count is even)
        node = measure_nodes(gauss1, gh_spec)[0][7]
        with pytest.raises(QuadratureFailure) as err, np.errstate(divide="ignore"):
            L.integrate(lambda pts: 1.0 / (pts[:, 0] - node[0]), gauss1, gh_spec)
        assert err.value.witness is not None
        np.testing.assert_array_equal(err.value.witness, node)

    def test_one_integrand(self, gauss1, gh_spec):
        # one column is one integrand, returned as floats; two are refused
        value, err = L.integrate(lambda pts: pts[:, :1] ** 2, gauss1, gh_spec)
        assert type(value) is type(err) is float and value == pytest.approx(1.0, rel=1e-12)
        with pytest.raises(ValueError):
            L.integrate(lambda pts: np.ones((len(pts), 2)), gauss1, gh_spec)

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
        center, half = np.array([0.0, 1.0]), np.array([1.0, 1.0])
        t = center[:, None] + half[:, None] * quadrature._GK_X
        for k in (0, 1, 18, 19, 30, 31):
            res, err = quadrature._gk21(half[:, None] * t ** k)
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
        shift, values, errors, _ = quadrature.adaptive_weighted(
            mu, L.default_spec(mu), lambda pts: 0.3 * pts[:, 0])
        assert abs(math.exp(shift) * values[0] - want) <= math.exp(shift) * errors[0]

    def test_lost_peak_fails_with_its_node(self):
        # E e^{153.6x} on N(0, 1) is e^{11796}: the integrand peaks at x = 153.6,
        # about 4e-5 wide in theta; the first round's node at x = 146.6 sets the
        # shift, but neither half of its interval has a node near the peak and
        # every later sum underflows, so the loop fails rather than reading 0
        mu = L.gen_exponential(0.5, 2.0, 1)
        with pytest.raises(QuadratureFailure, match="its peak was lost") as err:
            quadrature.adaptive_weighted(mu, L.default_spec(mu), lambda pts: 153.6 * pts[:, 0])
        assert err.value.witness[0] == pytest.approx(146.588, abs=1e-3)

    def test_interval_cap_reports_a_large_error_without_warning(self):
        # sign(sin 40x) jumps about 130 times where N(0, 1) has mass; each jump
        # needs ~25 bisections for 1e-8, so the 300 intervals run out
        mu = L.shift(L.gaussian(1.0, 1), [0.1])
        spec = L.default_spec(mu)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            shift, values, errors, _ = quadrature.adaptive_weighted(
                mu, spec, lambda pts: np.column_stack(
                    [np.zeros(len(pts)), np.sign(np.sin(40.0 * pts[:, 0]))]))
        value, err = math.exp(shift) * values[1], math.exp(shift) * errors[1]
        assert math.isfinite(value)
        assert err > max(quadrature._ADAPTIVE_EPSABS, quadrature._ADAPTIVE_RTOL * abs(value))

    def test_weighted_moments_never_calls_quad(self, monkeypatch):
        class NoQuad:
            def quad(self, *args, **kwargs):
                raise AssertionError("quad reached from a closure or an integral")

        # the closures are built with quad unavailable, too
        monkeypatch.setattr(quadrature, "sp_integrate", NoQuad())
        lam = 0.5
        for dim in (1, 2):
            e1 = np.eye(dim)[0]
            f = L.log_linear(lam * e1)
            # int e^{lam x_1} dN(m e_1, s^2 I) = e^{lam m + lam^2 s^2 / 2}; the
            # tilt e^{0.3 x_1} moves N(0, I) to N(0.3 e_1, I)
            cases = [
                (L.mix(L.gaussian(0.8, dim), L.gaussian(1.25, dim), 0.7),
                 0.3 * math.exp(lam**2 * 0.64 / 2) + 0.7 * math.exp(lam**2 * 1.5625 / 2)),
                (L.shift(L.gaussian(1.0, dim), 0.4 * e1), math.exp(0.4 * lam + lam**2 / 2)),
                (L.perturb(L.gaussian(1.0, dim), lambda pts: 0.3 * pts[:, 0]),
                 math.exp(0.3 * lam + lam**2 / 2)),
            ]
            for mu, want in cases:
                spec = L.default_spec(mu)
                assert spec.scheme == ("adaptive_1d" if dim == 1 else "tensor_trapezoid")
                assert L.integrate(f, mu, spec)[0] == pytest.approx(want, rel=1e-8), mu.label
                # lp_norm squares f, so lam doubles
                assert L.lp_norm_with_error(f, mu, 2.0, spec)[0] ** 2 == pytest.approx(
                    L.integrate(L.log_linear(2.0 * lam * e1), mu, spec)[0], rel=1e-8)


def _same_outcome(got, want):
    """Bit-equal norms, or failures of the same type, message and witness."""
    if isinstance(want, QuadratureFailure):
        assert type(got) is type(want) and str(got) == str(want)
        assert np.array_equal(got.witness, want.witness)
    else:
        assert got == want


def _alone(f, mu, r, q, spec):
    try:
        return quadrature.lp_norm_with_error(L.dilate(f, r), mu, q, spec)
    except QuadratureFailure as exc:
        return exc


_BATCH_MEASURES = {
    "gen_gauss": lambda: L.gen_exponential(0.5, 2.0, 1),
    "laplace": lambda: L.gen_exponential(1.0, 1.0, 1),
    "mixture": lambda: L.mix(L.gaussian(0.8), L.gaussian(1.25), 0.7),
}


class TestAdaptiveBatch:
    def test_gk21_rows_do_not_depend_on_the_batch(self):
        # an interval's rule reads the same whatever else shares its round
        rng = np.random.default_rng(5)
        f = rng.standard_normal((3, 300, 21)) * np.exp(rng.uniform(-30.0, 30.0, (3, 300, 1)))
        res, err = quadrature._gk21(f)
        for _ in range(300):
            rows = np.sort(rng.choice(300, size=rng.integers(1, 300), replace=False))
            sub_res, sub_err = quadrature._gk21(np.ascontiguousarray(f[:, rows]))
            assert np.array_equal(sub_res, res[:, rows]) and np.array_equal(sub_err, err[:, rows])

    @pytest.mark.parametrize("measure", sorted(_BATCH_MEASURES))
    def test_batched_norms_equal_norms_integrated_alone(self, measure):
        # every alpha(r) and ||f_r||_1 key of the default r-grid in one batch,
        # failures included (e^{lam q r x} outgrows the Laplace density)
        mu = _BATCH_MEASURES[measure]()
        spec = L.default_spec(mu)
        assert spec.scheme == "adaptive_1d"
        fields = [L.log_linear([lam]) for lam in (0.4, 0.8, 1.2)] + [L.cosh_field(0.8)]
        for f in fields:
            for c in (0.25, 0.7, 1.0, 1.6):
                keys = [(r, L.q_of_r(r, c)) for r in L.functionals.DEFAULT_R_GRID]
                keys += [(r, 1.0) for r in L.functionals.DEFAULT_R_GRID]
                norms = L.functionals.DilationNorms([f], mu, spec)
                norms.fill([(0, r, q) for r, q in keys])
                for r, q in keys:
                    _same_outcome(norms._memo[(0, r, q)], _alone(f, mu, r, q, spec))

    def test_batched_convolved_norms_agree_with_norms_alone(self):
        # the mollified field's log map sums by matrix products, not point by
        # point, so a batch is held to 1e-15 rather than to the last bit
        f = L.convolve(L.log_linear([0.8]), L.mollifier(1, 4))
        mu = _BATCH_MEASURES["mixture"]()
        spec = L.default_spec(mu)
        keys = [(r, L.q_of_r(r, 0.7)) for r in L.functionals.DEFAULT_R_GRID]
        norms = L.functionals.DilationNorms([f], mu, spec)
        norms.fill([(0, r, q) for r, q in keys])
        for r, q in keys:  # norms(0, r, q) raises a failed norm
            norm, err = _alone(f, mu, r, q, spec)
            assert norms(0, r, q)[0] == pytest.approx(norm, rel=1e-15, abs=0)
            assert norms(0, r, q)[1] == pytest.approx(err, rel=1e-6, abs=0)

    def test_capped_integral_in_a_batch_equals_it_alone(self):
        # sign(sin 40x) runs out of its 300 intervals, and must split the same
        # worst ones in a batch as alone; x^2 and e^{0.5x} stop early
        mu = L.shift(L.gaussian(1.0, 1), [0.1])
        factors = [lambda x: np.sign(np.sin(40.0 * x)), lambda x: x * x, lambda x: np.exp(0.5 * x)]

        def columns(pts, k):
            x = pts[:, 0]
            picked = np.choose(k, [g(x) for g in factors])
            return np.column_stack([0.3 * x, picked])

        batch = quadrature._adaptive_batch(mu, columns, len(factors))
        for j, g in enumerate(factors):
            alone = quadrature.adaptive_weighted(
                mu, L.default_spec(mu), lambda pts, g=g: np.column_stack(
                    [0.3 * pts[:, 0], g(pts[:, 0])]))
            assert batch[j][0] == alone[0]
            for got, want in zip(batch[j][1:], alone[1:]):
                assert np.array_equal(got, want)

    def test_first_round_failures_fail_alone(self):
        # a NaN and a +inf ln g beyond x = 1 fail their integrals in the first
        # round, each with the message and witness it raises alone; the
        # integrals sharing that round are unmoved
        mu = L.gen_exponential(0.5, 2.0, 1)
        logs = [lambda x: 0.3 * x, lambda x: np.where(x > 1.0, np.nan, 0.0),
                lambda x: np.where(x > 1.0, np.inf, 0.0), lambda x: -x * x]

        def columns(pts, k):
            return np.choose(k, [g(pts[:, 0]) for g in logs])[:, None]

        batch = quadrature._adaptive_batch(mu, columns, len(logs))
        assert [isinstance(b, QuadratureFailure) for b in batch] == [False, True, True, False]
        for j, g in enumerate(logs):
            try:
                alone = quadrature.adaptive_weighted(mu, L.default_spec(mu),
                                                     lambda pts, g=g: g(pts[:, 0])[:, None])
            except QuadratureFailure as exc:
                _same_outcome(batch[j], exc)
                continue
            assert batch[j][0] == alone[0]
            for got, want in zip(batch[j][1:], alone[1:]):
                assert np.array_equal(got, want)

    def test_node_scheme_norms_equal_norms_integrated_alone(self, gauss1, gh_spec):
        f = L.log_linear([0.8])
        keys = [(0.5, 3.0), (0.8, 1.5), (1.0, 1.0)]
        norms = L.functionals.DilationNorms([f], gauss1, gh_spec)
        norms.fill([(0, r, q) for r, q in keys])
        for r, q in keys:  # norms(0, r, q) raises a failed norm
            assert norms(0, r, q) == _alone(f, gauss1, r, q, gh_spec)

    def test_peak_lost_row_fails_alone(self):
        # E e^{153.6x} loses its peak at r = 0.5 (q = 256); the other rows are live
        f, mu = L.log_linear([1.2]), L.gen_exponential(0.5, 2.0, 1)
        spec = L.default_spec(mu)
        rep = L.check_shc(f, mu, 0.25, spec=spec)
        rows = rep.quantities["rows"]
        assert [row["skipped"] for row in rows] == [True] + [False] * 6
        assert rows[0]["reason"] == "the weight integrates to 0 or its peak was lost"
        for row in rows[1:]:
            assert row["alpha"] == _alone(f, mu, row["r"], row["q_of_r"], spec)[0]
            assert row["norm1"] == _alone(f, mu, row["r"], 1.0, spec)[0]

    def test_overflowing_rows_fail_each_with_its_own_reason(self):
        # e^{0.8 q r x} outgrows the Laplace density at every r < 1: each row
        # overflows with its own exponent and log value, as it does alone
        f, mu = L.log_linear([0.8]), L.gen_exponential(1.0, 1.0, 1)
        spec = L.default_spec(mu)
        rows = L.check_shc(f, mu, 0.25, spec=spec).quantities["rows"]
        assert [row["skipped"] for row in rows] == [True] * 6 + [False]
        for row in rows[:6]:
            alone = _alone(f, mu, row["r"], row["q_of_r"], spec)
            assert row["reason"] == str(alone)
            assert row["reason"].startswith(f"L^{row['q_of_r']:g} norm overflows (log value ")
        assert rows[6]["alpha"] == _alone(f, mu, 1.0, 1.0, spec)[0]


@pytest.fixture
def built_node_sets(monkeypatch):
    """The spec of every node set that measure_nodes builds, in order."""
    built = []
    orig = quadrature.measure_nodes

    def counting(mu, spec):
        built.append(spec)
        return orig(mu, spec)

    monkeypatch.setattr(quadrature, "measure_nodes", counting)
    return built


_NODE_SPECS = {
    "gauss_hermite_1d": (lambda: L.gaussian(1.0, 1), QuadratureSpec(scheme="gauss_hermite")),
    "gauss_hermite_2d": (lambda: L.gaussian(0.9, 2), QuadratureSpec(scheme="gauss_hermite")),
    "tensor_trapezoid_2d": (lambda: L.gen_exponential(1.0, 4.0, 2),
                            QuadratureSpec(scheme="tensor_trapezoid", nodes_per_axis=129)),
}


class TestLpNorms:
    # ln f of each norm: a NaN beyond x_1 = 1 fails at its first bad node, a
    # norm e^{800} overflows once formed (witness: the node of largest weight),
    # and a weight that is 0 everywhere integrates to 0
    LOGS = [lambda pts: 0.8 * pts[:, 0],
            lambda pts: np.where(pts[:, 0] > 1.0, np.nan, 0.3 * pts[:, 0]),
            lambda pts: np.full(len(pts), 800.0) - pts[:, 0] ** 2,
            lambda pts: np.full(len(pts), -np.inf),
            lambda pts: np.log1p(np.sum(pts * pts, axis=1))]
    PS = [1.0, 2.0, 1.5, 1.0, 3.0]

    @pytest.mark.parametrize("name", sorted(_NODE_SPECS))
    def test_node_scheme_norms_equal_norms_alone(self, name):
        mk, spec = _NODE_SPECS[name]
        mu = mk()
        batch = quadrature.lp_norms(lambda pts, k: self.LOGS[k](pts), mu, self.PS, spec)
        assert [isinstance(b, QuadratureFailure) for b in batch] == [False, True, True, True, False]
        for got, log, p in zip(batch, self.LOGS, self.PS):
            try:
                want = quadrature.lp_norm_with_error(SimpleNamespace(log_value=log), mu, p, spec)
            except QuadratureFailure as exc:
                want = exc
            _same_outcome(got, want)
        assert batch[1].witness[0] > 1.0
        assert str(batch[2]).startswith("L^1.5 norm overflows")

    @pytest.mark.parametrize("name", sorted(_NODE_SPECS))
    def test_one_node_set_pair_per_call(self, name, built_node_sets):
        # the column map gets the norm's index as a plain int
        mk, spec = _NODE_SPECS[name]
        seen = []

        def log_f(pts, k):
            seen.append(k)
            return self.LOGS[k](pts)

        quadrature.lp_norms(log_f, mk(), self.PS, spec)
        assert len(built_node_sets) == 2
        assert all(type(k) is int for k in seen) and set(seen) == set(range(len(self.PS)))

    def test_shc_check_builds_two_node_sets(self, built_node_sets):
        # one fill, ||f||_1 with every alpha(r) and ||f_r||_1, on one node set
        # and its halved companion (26 sets, 2 per norm, before norms shared)
        rep = L.check_shc(L.log_linear([0.8, 0.0]), L.gen_exponential(1.0, 4.0, 2), 1.0)
        assert rep.spec["scheme"] == "tensor_trapezoid" and not rep.inconclusive
        assert len(built_node_sets) == 2

    def test_shc_check_runs_one_adaptive_loop(self, monkeypatch):
        loops = []
        orig = quadrature._adaptive_batch

        def counting(*args, **kwargs):
            loops.append(args)
            return orig(*args, **kwargs)

        monkeypatch.setattr(quadrature, "_adaptive_batch", counting)
        rep = L.check_shc(L.log_linear([0.8]), L.gen_exponential(0.5, 2.0, 1), 1.0)
        assert rep.spec["scheme"] == "adaptive_1d" and rep.passed
        assert len(loops) == 1

    def test_non_positive_exponent_refused(self, gauss1, gh_spec):
        with pytest.raises(InvalidParameter, match="p > 0"):
            quadrature.lp_norms(lambda pts, k: pts[:, 0], gauss1, [1.0, 0.0], gh_spec)


class TestWeightedMoments:
    # under g = e^{lam x} the Gaussian's mass is e^{lam^2 / 2} and x has mean lam
    @pytest.mark.parametrize("mu", [L.gaussian(1.0, 1), L.gen_exponential(0.5, 2.0, 1)],
                             ids=("gauss_hermite", "adaptive_1d"))
    def test_mass_and_means_of_a_tilted_gaussian(self, mu):
        lam = 0.7
        spec = L.default_spec(mu)
        value, err = weighted_moments(
            lambda pts: np.column_stack(
                [lam * pts[:, 0], lam * pts[:, 0], pts[:, 0], pts[:, 0] ** 2]),
            mu, spec, lambda log_mass, means: np.concatenate([[log_mass], means]))
        want = [lam * lam / 2, lam * lam, lam, 1 + lam * lam]
        assert value == pytest.approx(want, rel=1e-8)
        assert np.all(err < 1e-6)

    def test_unit_weight_means_are_integrals(self, gauss1, gh_spec):
        # ln g = 0: the polar rule's weights are normalised, so they sum to 1
        # up to round-off
        value, _ = weighted_moments(
            lambda pts: np.column_stack([np.zeros(len(pts)), pts[:, 0] ** 2]), gauss1, gh_spec,
            lambda log_mass, means: np.array([log_mass, means[0]]))
        assert abs(value[0]) <= 1e-15 and value[1] == pytest.approx(1.0, rel=1e-12)

    def test_witness_is_the_row_of_the_bad_column(self, gauss1, gh_spec):
        # a node is bad when any of its factors is: the second factor's NaN
        pts, _ = measure_nodes(gauss1, gh_spec)
        bad_row = 37

        def columns(x):
            out = np.zeros((x.shape[0], 3))
            out[:, 1] = 1.0
            out[np.all(x == pts[bad_row], axis=1), 2] = np.nan
            return out

        with pytest.raises(QuadratureFailure) as err:
            weighted_moments(columns, gauss1, gh_spec, lambda log_mass, means: means)
        np.testing.assert_array_equal(err.value.witness, pts[bad_row])

    @pytest.mark.parametrize("dim", [2, 3])
    def test_mass_on_the_trapezoid_box_edge_fails(self, dim):
        # gen_exponential(0.5, 2, n) is N(0, I_n): e^{lam x_1} carries 4.5e-9
        # of its mass to the 2-D box's outer shell of nodes at lam = 2, under
        # EDGE_MASS_SHARE, and 6.2e-7 at lam = 3, whose ln E e^{3 x_1} is
        # then off by 4.7e-6 with an estimate of 8.0e-8
        mu = L.gen_exponential(0.5, 2.0, dim)
        spec = L.default_spec(mu)
        log_mass = lambda lam: weighted_moments(
            lambda pts: lam * pts[:, 0], mu, spec, lambda log_mass, means: log_mass)
        assert spec.scheme == "tensor_trapezoid"
        assert log_mass(2.0)[0] == pytest.approx(2.0, rel=1e-7)
        with pytest.raises(QuadratureFailure, match="edge of the trapezoid's box") as err:
            log_mass(3.0)
        R = mu.truncation_radius
        np.testing.assert_array_equal(err.value.witness, [R] + [0.0] * (dim - 1))

    def test_box_edge_beyond_a_support_is_exempt_only_there(self):
        # the box of U[-1, 1] x N(0, 1) is [-R, R]^2 with R = 7.20: past the
        # uniform factor's support its shell carries no mass, and e^{6 x_1}
        # integrates within its estimate; the Gaussian axis reaches the box
        # edge, where e^{2 x_2} puts more than EDGE_MASS_SHARE of its mass
        mu = L.product(L.uniform_ball(1.0, 1), L.gen_exponential(0.5, 2.0, 1))
        spec = L.default_spec(mu)
        log_mass = lambda lam: weighted_moments(
            lambda pts: pts @ np.array(lam), mu, spec, lambda log_mass, means: log_mass)
        assert spec.scheme == "tensor_trapezoid" and not mu.strictly_positive
        value, err = log_mass([6.0, 0.0])
        assert abs(value - math.log(math.sinh(6.0) / 6.0)) <= err
        with pytest.raises(QuadratureFailure, match="edge of the trapezoid's box") as exc:
            log_mass([0.0, 2.0])
        assert exc.value.witness[1] == mu.truncation_radius

    def test_adaptive_error_is_first_order_change(self):
        # fn = means[0] * e^{log_mass} is int g x dmu; its error is that integral's own
        mu = L.gen_exponential(0.5, 2.0, 1)
        spec = L.default_spec(mu)
        lam = 0.7
        columns = lambda pts: np.column_stack([lam * pts[:, 0], pts[:, 0]])
        shift, values, errors, _ = quadrature.adaptive_weighted(mu, spec, columns)
        value, err = weighted_moments(columns, mu, spec,
                                      lambda log_mass, means: math.exp(log_mass) * means[0])
        assert value == pytest.approx(math.exp(shift) * values[1], rel=1e-14)
        # the mass's own error moves e^{log_mass} means[0] by round-off only
        assert err == pytest.approx(math.exp(shift) * errors[1], rel=1e-6)


    def test_adaptive_evaluates_only_its_loops_batches(self, monkeypatch):
        # every column-map call is the batch of one round of the loop: the 21
        # nodes of each of that round's new intervals, for every column
        mu = L.gen_exponential(0.5, 2.0, 1)
        rounds = []
        gk21 = quadrature._gk21

        def counting(f):
            assert f.shape[0] == 3
            rounds.append(f[0].size)
            return gk21(f)

        monkeypatch.setattr(quadrature, "_gk21", counting)
        batches = []

        def columns(pts):
            batches.append(pts.shape[0])
            return np.column_stack([0.7 * pts[:, 0], pts[:, 0], pts[:, 0] ** 2])

        weighted_moments(columns, mu, L.default_spec(mu), lambda log_mass, means: means)
        assert batches == rounds

    def test_column_map_runs_once_per_adaptive_round(self, monkeypatch):
        # one loop for the weight and both factors: it starts from one
        # interval, so only its first round has 21 nodes, and it evaluates the
        # map once per round
        mu = L.gen_exponential(0.5, 2.0, 1)
        rounds = []
        gk21 = quadrature._gk21

        def counting(f):
            rounds.append(f.shape[1])
            return gk21(f)

        monkeypatch.setattr(quadrature, "_gk21", counting)
        batches = []

        def columns(pts):
            batches.append(pts.shape[0])
            return np.column_stack([0.7 * pts[:, 0], pts[:, 0], pts[:, 0] ** 2])

        weighted_moments(columns, mu, L.default_spec(mu), lambda log_mass, means: means)
        assert len(batches) == len(rounds) > 1
        assert batches[0] == 21 and 21 not in batches[1:]


class TestLpNorm:
    def test_constant_has_unit_norms(self, gauss1, gh_spec):
        f = L.constant(1.0, 1)
        for p in (0.5, 1.0, 2.0, 7.0):
            assert L.lp_norm_with_error(f, gauss1, p, gh_spec)[0] == pytest.approx(1.0, rel=1e-10)

    @pytest.mark.parametrize("p", [0.5, 1.0, 2.0, 3.5])
    def test_log_linear_closed_form(self, gauss1, gh_spec, p):
        lam = 0.8
        f = L.log_linear([lam])
        # (int e^{p lam x} dmu)^{1/p} = e^{p lam^2 / 2}
        assert L.lp_norm_with_error(f, gauss1, p, gh_spec)[0] == pytest.approx(
            math.exp(p * lam**2 / 2.0), rel=1e-9
        )

    def test_sub_unit_exponent_accepted(self, gauss1, gh_spec):
        assert L.lp_norm_with_error(L.cosh_field(0.5), gauss1, 0.5, gh_spec)[0] > 0

    def test_p_must_be_positive(self, gauss1, gh_spec):
        with pytest.raises(InvalidParameter):
            L.lp_norm_with_error(L.constant(1.0, 1), gauss1, 0.0, gh_spec)

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

    def test_adaptive_norm_beyond_linear_range(self):
        # ||e^{3x}||_20 on N(0, 1) is (E e^{60x})^{1/20} = e^{90}; the
        # integrand e^{60x - x^2/2} peaks at e^{1800}, far beyond a double
        from lshlab.quadrature import lp_norm_with_error

        mu = L.gen_exponential(0.5, 2.0, 1)
        val, err = lp_norm_with_error(L.log_linear([3.0]), mu, 20.0, L.default_spec(mu))
        assert abs(val - math.exp(90.0)) <= err
        assert err <= 1e-8 * val

    def test_norm_just_below_the_overflow_limit_is_returned(self):
        # ln E e^{20x} = 200 on N(0, 1); p puts ln ||f||_p half its log-error
        # below LOG_MAX = ln(max double), so the mass moved by its error would
        # cross the limit: only the reported value is checked, and the norm
        # comes back finite
        from lshlab.quadrature import LOG_MAX, lp_norm_with_error

        mu = L.gen_exponential(0.5, 2.0, 1)
        spec = L.default_spec(mu)
        log_mass, log_err = weighted_moments(lambda pts: 20.0 * pts[:, 0], mu, spec,
                                             lambda log_mass, _: log_mass)
        p = log_mass / (LOG_MAX - 0.5 * log_err * LOG_MAX / log_mass)
        val, err = lp_norm_with_error(L.log_linear([20.0 / p]), mu, p, spec)
        assert math.log(val) < LOG_MAX < math.log(val) + log_err / p
        assert math.isfinite(err)

    def test_node_overflow_carries_the_node_of_largest_weight(self, gauss1, gh_spec):
        # ||e^{40x}||_30 on N(0, 1) is e^{24000}: the norm overflows, and the
        # failure names the node where logw + 1200 x is largest
        from lshlab.quadrature import lp_norm_with_error

        with pytest.raises(QuadratureFailure, match="norm overflows") as err:
            lp_norm_with_error(L.log_linear([40.0]), gauss1, 30.0, gh_spec)
        pts, logw = measure_nodes(gauss1, gh_spec)
        np.testing.assert_array_equal(err.value.witness, pts[np.argmax(logw + 1200.0 * pts[:, 0])])

    def test_large_power_accurate_in_check_regime(self, gauss1, gh_spec):
        # exponents the inequality checks actually reach (q(r) <= ~16)
        f = L.log_linear([0.5])
        val = L.lp_norm_with_error(f, gauss1, 16.0, gh_spec)[0]
        assert val == pytest.approx(math.exp(16.0 * 0.25 / 2.0), rel=1e-10)
