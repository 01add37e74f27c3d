import math
import warnings

import numpy as np
import pytest

import lshlab as L
from lshlab import functionals
from lshlab.errors import InvalidParameter, QuadratureFailure
from lshlab.functionals import (
    DilationNorms,
    alpha_prime_with_error,
    alpha_with_error,
    hc_bracket_with_error,
)


class TestExponentLaws:
    @pytest.mark.parametrize("r, c, match", [(0.0, 1.0, r"r must lie in \(0, 1\]"),
                                             (1.5, 1.0, r"r must lie in \(0, 1\]"),
                                             (0.5, 0.0, "c must be positive"),
                                             (0.5, -1.0, "c must be positive")])
    def test_q_of_r_out_of_range_refused(self, r, c, match):
        with pytest.raises(InvalidParameter, match=match):
            L.q_of_r(r, c)

    def test_q_of_r_decreasing_with_unit_endpoint(self):
        c = 1.3
        grid = [0.5, 0.6, 0.8, 0.95, 1.0]
        vals = [L.q_of_r(r, c) for r in grid]
        assert vals[-1] == pytest.approx(1.0, rel=1e-14)
        assert all(v1 > v2 for v1, v2 in zip(vals, vals[1:]))

    def test_contraction_time_in_unit_interval(self):
        for c, p, q in ((1.0, 1.0, 2.0), (0.5, 0.5, 1.0), (2.0, 2.0, 2.0)):
            r = L.r_of_pq(p, q, c)
            assert 0 < r <= 1

    def test_time_and_exponent_mutually_consistent(self):
        # q(r(p, q)) * p = q
        for c, p, q in ((1.0, 1.0, 2.0), (0.7, 0.5, 3.0), (2.3, 2.0, 5.0)):
            r = L.r_of_pq(p, q, c)
            assert L.q_of_r(r, c) * p == pytest.approx(q, rel=1e-12)


class TestEntropy:
    def test_constant_has_zero_entropy(self, gauss1, gh_spec):
        ent, _ = L.entropy_with_error(L.constant(2.0, 1), gauss1, gh_spec)
        assert ent == pytest.approx(0.0, abs=1e-12)

    def test_log_linear_closed_form(self, gauss1, gh_spec):
        # Ent(e^{lam x}) = (lam^2/2) e^{lam^2/2}
        lam = 0.8
        expected = (lam**2 / 2) * math.exp(lam**2 / 2)
        assert L.entropy_with_error(L.log_linear([lam]), gauss1, gh_spec)[0] == pytest.approx(
            expected, rel=1e-9
        )
        assert expected == pytest.approx(0.440681, abs=1e-6)

    def test_degree_one_homogeneity(self, gauss1, gh_spec):
        f = L.cosh_field(0.9)
        base = L.entropy_with_error(f, gauss1, gh_spec)[0]
        for t in (0.5, 3.0):
            assert L.entropy_with_error(L.scale(f, t), gauss1, gh_spec)[0] == pytest.approx(
                t * base, rel=1e-9
            )

    def test_non_negative_on_battery(self, gauss1, gh_spec):
        for f in L.default_battery(1):
            assert L.entropy_with_error(f, gauss1, gh_spec)[0] >= -1e-10

    def test_negative_beyond_tolerance_is_a_quadrature_failure(self, gauss1, gh_spec,
                                                               monkeypatch):
        # Ent(g) >= 0 on a probability measure: a rule that reads -0.1 has broken down
        monkeypatch.setattr(functionals, "weighted_moments",
                            lambda *args: (np.array([-0.1, 1.0]), np.array([1e-12, 1e-12])))
        with pytest.raises(QuadratureFailure, match="entropy -0.1 is negative beyond tolerance"):
            L.entropy_with_error(L.cosh_field(0.8), gauss1, gh_spec)

    def test_adaptive_scheme_path(self):
        mu = L.gen_exponential(1.0, 2.0, 1)  # gaussian-shaped, adaptive scheme
        spec = L.default_spec(mu)
        ent = L.entropy_with_error(L.cosh_field(0.5), mu, spec)[0]
        assert ent >= 0.0


class TestEulerEnergy:
    def test_constant_is_zero(self, gauss1, gh_spec):
        assert L.euler_energy_with_error(L.constant(5.0, 1), gauss1, gh_spec)[0] == pytest.approx(
            0.0, abs=1e-12
        )

    def test_log_linear_closed_form(self, gauss1, gh_spec):
        lam = 0.8
        expected = lam**2 * math.exp(lam**2 / 2)
        assert L.euler_energy_with_error(L.log_linear([lam]), gauss1, gh_spec)[0] == pytest.approx(
            expected, rel=1e-9
        )
        assert expected == pytest.approx(0.881362, abs=1e-6)

    def test_positive_on_lsh_battery_rotation_invariant(self, gauss1, gh_spec):
        for f in L.default_battery(1):
            assert L.euler_energy_with_error(f, gauss1, gh_spec)[0] >= -1e-10

    def test_positive_on_dim2_battery(self, gauss2):
        spec = L.default_spec(gauss2)
        for f in L.default_battery(2):
            assert L.euler_energy_with_error(f, gauss2, spec)[0] >= -1e-10


class TestAlpha:
    def test_r_one_is_l1_norm(self, gauss1, gh_spec):
        f = L.cosh_field(0.8)
        n1 = L.lp_norm_with_error(f, gauss1, 1.0, gh_spec)[0]
        assert L.alpha_with_error(f, gauss1, 1.0, 1.0, gh_spec)[0] == pytest.approx(n1, rel=1e-12)

    def test_equality_family_constant_in_r(self, gauss1, gh_spec):
        lam = 0.8
        f = L.log_linear([lam])
        expected = math.exp(lam**2 / 2)
        for r in (0.5, 0.7, 0.9, 1.0):
            a, _ = L.alpha_with_error(f, gauss1, 1.0, r, gh_spec)
            assert a == pytest.approx(expected, rel=1e-9)

    def test_constant_field(self, gauss1, gh_spec):
        f = L.constant(1.0, 1)
        for r in (0.5, 0.8, 1.0):
            a, _ = L.alpha_with_error(f, gauss1, 1.0, r, gh_spec)
            assert a == pytest.approx(1.0, rel=1e-12)

    def test_norm_homogeneity(self, gauss1, gh_spec):
        f = L.cosh_field(0.7)
        a = L.alpha_with_error(f, gauss1, 1.0, 0.8, gh_spec)[0]
        assert L.alpha_with_error(L.scale(f, 2.0), gauss1, 1.0, 0.8, gh_spec)[0] == pytest.approx(
            2.0 * a, rel=1e-10
        )

    def test_tiny_r_rejected_with_advice(self, gauss1, gh_spec):
        with pytest.raises(InvalidParameter, match="r-grid minimum"):
            L.alpha_with_error(L.log_linear([1.0]), gauss1, 0.1, 0.5, gh_spec)


class TestDilationNorms:
    def test_one_dilated_field_per_member_and_r(self, gauss1, gh_spec, monkeypatch):
        # a search step asks for new q over the same (member, r) pairs: f_r
        # is built once a pair, and each norm is the bits of a table filled
        # with its key alone
        fields, calls = [L.cosh_field(0.8), L.log_linear([0.5])], []

        def counting(f, r):
            calls.append(r)
            return L.dilate(f, r)

        monkeypatch.setattr(functionals, "dilate", counting)
        keys = [(i, r, q) for i in (0, 1) for r in (0.8, 0.9) for q in (1.5, 2.0)]
        table = DilationNorms(fields, gauss1, gh_spec)
        table.fill(keys[::2])
        table.fill(keys)
        assert sorted(calls) == [0.8, 0.8, 0.9, 0.9]
        with pytest.raises(InvalidParameter, match="dilation factor"):
            table.fill([(0, 1.5, 1.0)])
        for key in keys:
            assert table(*key) == DilationNorms(fields, gauss1, gh_spec)(*key)

    @pytest.mark.parametrize("mu, scheme", [
        (L.gaussian(1.0, 1), "gauss_hermite"),
        (L.gaussian(1.0, 2), "gauss_hermite"),
        (L.gaussian(1.0, 3), "gauss_hermite"),
        (L.gen_exponential(1.0, 4.0, 2), "tensor_trapezoid"),
        (L.gen_exponential(1.0, 4.0, 3), "tensor_trapezoid"),
        (L.gen_exponential(0.5, 2.0, 1), "adaptive_1d"),
        (L.gen_exponential(2.0, 1.0, 1), "adaptive_1d"),
    ], ids=["gh-1", "gh-2", "gh-3", "trap-2", "trap-3", "adaptive-gauss", "adaptive-laplace"])
    def test_l1_norm_at_most_alpha(self, mu, scheme):
        # Hoelder on a probability measure: ||f_r||_1 <= ||f_r||_{q(r)}, q(r) >= 1,
        # so an sHC row that bounds alpha(r) by ||f||_1 bounds ||f_r||_1 too
        n = mu.dim
        fields = [L.log_linear(0.8 * np.eye(n)[0]),
                  L.cosh_field(0.8) if n == 1 else L.exp_norm_sq(0.05, n)]
        if (scheme, n) == ("gauss_hermite", 2):
            fields.append(L.default_battery(2)[-1])  # the mollified member
        spec = L.default_spec(mu)
        assert spec.scheme == scheme
        rows = [(i, r, L.q_of_r(r, c)) for i in range(len(fields))
                for r in functionals.DEFAULT_R_GRID if r < 1.0 for c in (0.5, 1.0)]
        table = DilationNorms(fields, mu, spec)
        table.fill([(i, r, q) for i, r, q_r in rows for q in (1.0, q_r)])
        compared = 0
        for i, r, q in rows:
            try:
                norm1, alpha = table(i, r, 1.0)[0], table(i, r, q)[0]
            except QuadratureFailure:
                continue
            assert norm1 <= alpha, (fields[i].label, r, q)
            compared += 1
        assert compared >= len(rows) // 2


def fd_reference(f, mu, c, r, spec, step=1e-4):
    return L.alpha_prime_fd(f, mu, c, r, spec, step=step)


class TestAlphaPrime:
    def test_constant_field_zero(self, gauss1, gh_spec):
        for r in (0.6, 0.8, 1.0):
            assert L.alpha_prime_with_error(
                L.constant(2.0, 1), gauss1, 1.0, r, gh_spec
            )[0] == pytest.approx(0.0, abs=1e-12)

    def test_equality_family_zero(self, gauss1, gh_spec):
        f = L.log_linear([0.8])
        for r in (0.6, 0.8, 1.0):
            assert abs(L.alpha_prime_with_error(f, gauss1, 1.0, r, gh_spec)[0]) <= 1e-10

    @pytest.mark.parametrize("r", [0.6, 0.7, 0.8, 0.9, 1.0])
    @pytest.mark.parametrize(
        "field",
        [
            L.log_linear([0.8]),
            L.cosh_field(0.8),
            L.convolve(L.log_linear([0.8]), L.mollifier(1, 4)),
        ],
        ids=("log_linear", "cosh", "mollified"),
    )
    def test_matches_finite_differences(self, gauss1, gh_spec, field, r):
        analytic = L.alpha_prime_with_error(field, gauss1, 1.0, r, gh_spec)[0]
        fd = fd_reference(field, gauss1, 1.0, r, gh_spec)
        denom = max(abs(analytic), abs(fd))
        a_scale = L.alpha_with_error(field, gauss1, 1.0, r, gh_spec)[0]
        if denom < 1e-7 * max(1.0, a_scale):
            return  # both derivatives vanish to quadrature precision
        assert abs(analytic - fd) / denom <= 1e-3

    def test_adaptive_path_agrees_with_nodes_path(self):
        mu = L.gen_exponential(1.0, 2.0, 1)
        spec = L.default_spec(mu)
        f = L.cosh_field(0.8)
        analytic = L.alpha_prime_with_error(f, mu, 1.0, 0.8, spec)[0]
        fd = fd_reference(f, mu, 1.0, 0.8, spec)
        assert analytic == pytest.approx(fd, rel=1e-3)

    def test_large_lambda_fails_as_alpha_overflow(self, gauss1, gh_spec):
        # x . grad ln f = 60 x is finite at every node; what fails is the mass
        # of f = e^{60 x}, which is not a double
        with pytest.raises(QuadratureFailure, match=r"alpha\(r\) overflows"):
            alpha_prime_with_error(L.log_linear([60.0]), gauss1, 1.0, 1.0, gh_spec)

    def test_truncated_mass_carried_in_error(self, gauss1, gh_spec):
        # e^{40 x} dgamma peaks at x = 40, beyond the last Gauss-Hermite node
        # whose weight is a double (about 37): the value is finite, and the
        # half-resolution error estimate is as large as it
        val, err = alpha_prime_with_error(L.log_linear([40.0]), gauss1, 1.0, 1.0, gh_spec)
        assert math.isfinite(val) and err >= abs(val)

    def test_overflowing_alpha_fails(self, gauss1, gh_spec):
        # ln f = 1000 is finite and x . grad ln f = 0, but alpha = f is not a double
        f = L.power(L.constant(math.e, 1), 1000.0)
        with pytest.raises(QuadratureFailure, match="overflows"):
            alpha_prime_with_error(f, gauss1, 1.0, 1.0, gh_spec)


class TestShcSlopeIsSlsiDeficit:
    # at r = 1, q = 1 and alpha'(1) = (2/c) ((c/2) int E f dmu - Ent(f)): the
    # slope of the sHC curve is 2/c times the sLSI deficit, the equivalence
    # sHC(c) <=> sLSI(c) in infinitesimal form, here on a non-Gaussian measure
    @pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("field", [
        L.log_linear([0.8]),
        L.cosh_field(0.8),
        L.convolve(L.log_linear([0.8]), L.mollifier(1, 4)),
    ], ids=("log_linear", "cosh", "mollified"))
    def test_slope_at_one_is_two_over_c_deficit(self, field, c):
        mu = L.mix(L.gaussian(0.8), L.gaussian(1.25), 0.7)
        spec = L.default_spec(mu)
        assert spec.scheme == "adaptive_1d"
        deficit = L.check_slsi(field, mu, c, spec).quantities["deficit"]
        assert hc_bracket_with_error(field, mu, c, 1.0, spec)[0] == deficit
        slope, _ = alpha_prime_with_error(field, mu, c, 1.0, spec)
        assert slope * c / 2.0 == pytest.approx(deficit, rel=1e-12, abs=0)
        assert slope == pytest.approx(L.alpha_prime_fd(field, mu, c, 1.0, spec), rel=1e-6, abs=0)


class TestHcBracket:
    def test_r_one_is_slsi_deficit(self, gauss1, gh_spec):
        f = L.cosh_field(0.8)
        c = 1.0
        bracket = L.hc_bracket_with_error(f, gauss1, c, 1.0, gh_spec)[0]
        ee, _ = L.euler_energy_with_error(f, gauss1, gh_spec)
        deficit = (c / 2) * ee - L.entropy_with_error(f, gauss1, gh_spec)[0]
        assert bracket == pytest.approx(deficit, rel=1e-10)

    def test_equality_family_zero(self, gauss1, gh_spec):
        f = L.log_linear([0.8])
        for r in (0.6, 0.8, 1.0):
            assert abs(L.hc_bracket_with_error(f, gauss1, 1.0, r, gh_spec)[0]) <= 1e-9

    @pytest.mark.parametrize("r", [0.6, 0.8, 0.95])
    def test_bracket_derivative_identity(self, gauss1, gh_spec, r):
        # bracket(r) = (c r q / 2) ||f_r||^{q-1} alpha'(r), from the chain rule
        f = L.cosh_field(0.8)
        c = 1.0
        q = L.q_of_r(r, c)
        bracket = L.hc_bracket_with_error(f, gauss1, c, r, gh_spec)[0]
        a_r = L.alpha_with_error(f, gauss1, c, r, gh_spec)[0]
        a_prime = L.alpha_prime_with_error(f, gauss1, c, r, gh_spec)[0]
        rhs = (c * r * q / 2.0) * a_r ** (q - 1.0) * a_prime
        assert bracket == pytest.approx(rhs, rel=1e-6)

    def test_sign_scale_invariant(self, gauss1, gh_spec):
        f = L.cosh_field(0.8)
        b1 = L.hc_bracket_with_error(f, gauss1, 1.0, 0.8, gh_spec)[0]
        b2 = L.hc_bracket_with_error(L.scale(f, 4.0), gauss1, 1.0, 0.8, gh_spec)[0]
        assert math.copysign(1, b1) == math.copysign(1, b2)

    def test_zero_of_modulus_contributes_nothing(self, gauss2):
        f = L.modulus_holomorphic([0, 1])  # |z| vanishes at the origin grid node
        spec = L.QuadratureSpec(scheme="tensor_trapezoid", nodes_per_axis=31)
        lv, dlv = f.log_value(np.zeros(2), grad=True)
        assert lv == L.fields.LOG_FLOOR and np.all(dlv == 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # E|z| = |z|: the Euler energy is the plain integral, zero node and all
            ee = L.euler_energy_with_error(f, gauss2, spec)[0]
            assert ee == pytest.approx(L.integrate(f, gauss2, spec)[0], rel=1e-12)
            assert math.isfinite(L.alpha_prime_with_error(f, gauss2, 1.0, 1.0, spec)[0])
