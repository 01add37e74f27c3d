import dataclasses
import json
import math
import warnings

import numpy as np
import pytest

import lshlab as L
from lshlab import checks, functionals, quadrature
from lshlab.checks import SHC_NOTE
from lshlab.errors import InvalidParameter, QuadratureFailure
from lshlab.fields import _ball_nodes, default_probes
from lshlab.quadrature import measure_nodes


class TestSlsi:
    def test_equality_family_zero_deficit(self, gauss1, gh_spec):
        for lam in (0.4, 0.8, 1.2):
            rep = L.check_slsi(L.log_linear([lam]), gauss1, 1.0, gh_spec)
            assert rep.passed
            assert abs(rep.quantities["deficit"]) <= 1e-6

    def test_cosh_strictly_positive_deficit(self, gauss1, gh_spec):
        rep = L.check_slsi(L.cosh_field(0.8), gauss1, 1.0, gh_spec)
        assert rep.passed
        assert rep.quantities["deficit"] > 0

    def test_constant_field_exact_zero(self, gauss1, gh_spec):
        rep = L.check_slsi(L.constant(3.0, 1), gauss1, 1.0, gh_spec)
        assert rep.passed
        assert rep.quantities["deficit"] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("value", [1e300, 1e305, 1e307, 1.5e308])
    def test_huge_constant_passes(self, gauss1, value):
        # ||g||_1 = value is a finite double, and Ent = int E g dmu = 0: only a
        # norm beyond the largest double (log value 709.78) is an overflow, in
        # the sLSI and the sHC alike
        f = L.constant(value)
        rep = L.check_slsi(f, gauss1, 1.0)
        assert rep.passed and not rep.inconclusive
        shc = L.check_shc(f, gauss1, 1.0)
        assert shc.passed and not shc.inconclusive
        assert math.isfinite(rep.quantities["entropy"])
        assert abs(L.alpha_prime_analytic(f, gauss1, 1.0, 0.8, L.default_spec(gauss1))) \
            <= 1e-9 * value

    def test_below_sharp_constant_fails(self, gauss1, gh_spec):
        rep = L.check_slsi(L.log_linear([1.2]), gauss1, 0.9, gh_spec)
        assert not rep.passed
        assert rep.quantities["deficit"] < -10 * rep.tolerance

    def test_monotone_in_c(self, gauss1, gh_spec):
        f = L.cosh_field(0.9)
        outcomes = [L.check_slsi(f, gauss1, c, gh_spec).passed for c in (0.5, 1.0, 2.0)]
        for earlier, later in zip(outcomes, outcomes[1:]):
            assert later or not earlier

    def test_laplace_terms_match_closed_form(self):
        # on the Laplace measure, f = e^{lam x} with |lam| < 1 has ||f||_1 =
        # 1/(1-lam^2), int E f = 2 lam^2/(1-lam^2)^2 and Ent = int E f -
        # ||f||_1 ln ||f||_1, so sLSI at c = 1 fails; e^{lam x} overflows far
        # out on the line, while its Euler factor x . grad ln f = lam x does not
        lam = 0.8
        norm = 1.0 / (1.0 - lam * lam)
        ee = 2.0 * lam * lam * norm * norm
        rep = L.check_slsi(L.log_linear([lam]), L.gen_exponential(1, 1, 1), 1.0)
        assert not rep.inconclusive and not rep.passed
        assert rep.quantities["entropy"] == pytest.approx(ee - norm * math.log(norm), rel=1e-9)
        assert rep.quantities["euler_energy"] == pytest.approx(ee, rel=1e-9)
        assert ee == pytest.approx(9.876543209877, abs=1e-12)

    def test_mollified_member_is_an_equality_case(self):
        # the battery's mollified member is e^{0.8 x_1} * phi = M e^{0.8 x_1}, on
        # the equality family of the Gaussian sLSI: Ent = EE / 2
        mu = L.gaussian(1.0, 2)
        g = L.default_battery(2)[-1]
        assert g.certified and g.label.startswith("convolve(")
        ent, _, ee, _ = checks.slsi_terms(g, mu, L.default_spec(mu))
        assert ent == pytest.approx(ee / 2.0, rel=1e-8)

    def test_mollified_field_conclusive_on_adaptive_path(self):
        # the convolution sweep overflows far out on the line; its log-space
        # rows keep the sLSI terms finite, and sLSI at c = 1 holds on the Gaussian
        mu = L.gen_exponential(0.5, 2, 1)
        rep = L.check_slsi(L.convolve(L.log_linear([0.8]), L.mollifier(1, 4)), mu, 1.0)
        assert not rep.inconclusive and rep.passed

    def test_mollified_terms_cost_one_sweep_per_node_set(self, gauss1, gh_spec, monkeypatch):
        base = L.log_linear([0.8])
        sweeps = []

        def counting(pts, grad):
            sweeps.append((len(pts), grad))
            return base._log(pts, grad)

        g = L.convolve(dataclasses.replace(base, _log=counting), L.mollifier(1, 4))
        checks.slsi_terms(g, gauss1, gh_spec)
        # Ent and int E g from one sweep of the inner log map over the 100
        # Gauss-Hermite nodes times the 64 mollifier nodes, and one over the 50
        # nodes of the half-resolution estimate
        assert sweeps == [(100 * 64, False), (50 * 64, False)]

    def test_uncertified_field_rejected(self, gauss1, gh_spec):
        f = L.raw_field(lambda pts: np.exp(pts[:, 0]), 1, label="raw")
        with pytest.raises(InvalidParameter):
            L.check_slsi(f, gauss1, 1.0, gh_spec)

    def test_non_rotation_invariant_needs_override(self, gauss1, gh_spec):
        shifted = L.shift(gauss1, [0.4])
        f = L.cosh_field(0.5)
        with pytest.raises(InvalidParameter):
            L.check_slsi(f, shifted, 2.0)
        rep = L.check_slsi(f, shifted, 2.0, allow_non_rotation_invariant=True)
        assert rep.kind == "slsi"

    def test_scale_covariance_of_outcome(self, gauss1, gh_spec):
        f = L.cosh_field(0.8)
        for t in (0.25, 5.0):
            a = L.check_slsi(f, gauss1, 1.0, gh_spec).passed
            b = L.check_slsi(L.scale(f, t), gauss1, 1.0, gh_spec).passed
            assert a == b


class TestShc:
    def test_equality_family_at_sharp_constant(self, gauss1, gh_spec):
        lam = 0.8
        rep = L.check_shc(L.log_linear([lam]), gauss1, 1.0, spec=gh_spec)
        assert rep.passed
        expected = math.exp(lam**2 / 2)
        for row in rep.quantities["rows"]:
            assert row["alpha"] == pytest.approx(expected, rel=1e-6)
        assert SHC_NOTE in rep.notes

    def test_constant_field_all_equalities(self, gauss1, gh_spec):
        rep = L.check_shc(L.constant(1.0, 1), gauss1, 1.0, spec=gh_spec)
        assert rep.passed
        for row in rep.quantities["rows"]:
            assert row["alpha"] == pytest.approx(1.0, rel=1e-10)

    def test_half_constant_counterexample(self, gauss1, gh_spec):
        # with c = 1/2, q(r) = r^-4 and alpha(r) = e^{lam^2/(2 r^2)} > alpha(1)
        lam = 1.0
        rep = L.check_shc(L.log_linear([lam]), gauss1, 0.5, spec=gh_spec)
        assert not rep.passed
        assert not rep.quantities["alpha_monotone"]
        rows = {row["r"]: row for row in rep.quantities["rows"] if not row["skipped"]}
        for r, row in rows.items():
            assert row["alpha"] == pytest.approx(
                math.exp(lam**2 / (2 * r**2)), rel=1e-6
            )

    def test_empty_r_grid_rejected(self, gauss1, gh_spec):
        # an empty grid has no live row, which best_constant would read as
        # "fails at every c" and report the range maximum
        f = L.log_linear([0.8])
        with pytest.raises(InvalidParameter, match="r_grid"):
            L.check_shc(f, gauss1, 1.0, r_grid=[], spec=gh_spec)
        with pytest.raises(InvalidParameter, match="r_grid"):
            L.best_constant([f], gauss1, "shc", spec=gh_spec, r_grid=[])

    def test_row_skipped_on_overflowing_exponent(self, gauss1, gh_spec):
        rep = L.check_shc(
            L.log_linear([1.0]), gauss1, 0.05, r_grid=(0.5, 1.0), spec=gh_spec
        )
        assert rep.quantities["skipped_rows"] >= 1

    def test_steep_row_integrates_in_log_space(self):
        # at c = 0.25, q(0.6) = 0.6^-8 and alpha(0.6) = e^{0.72 * 0.6^-6}; the
        # integrand e^{42.9 x - x^2 / 2} peaks at e^{919}, beyond a double
        rep = L.check_shc(L.log_linear([1.2]), L.gen_exponential(0.5, 2, 1), 0.25)
        row = next(row for row in rep.quantities["rows"] if row["r"] == 0.6)
        assert not row["skipped"]
        assert row["alpha"] == pytest.approx(math.exp(0.72 * 0.6 ** -6), rel=1e-10)
        # at r = 0.5 the peak falls between the adaptive nodes: a skipped row
        # that says so, not a weight integrating to 0
        row = next(row for row in rep.quantities["rows"] if row["r"] == 0.5)
        assert row["skipped"] and "its peak was lost" in row["reason"]

    def test_monotone_in_c(self, gauss1, gh_spec):
        f = L.log_linear([1.0])
        outcomes = [
            L.check_shc(f, gauss1, c, spec=gh_spec).passed for c in (0.9, 1.0, 1.5)
        ]
        for earlier, later in zip(outcomes, outcomes[1:]):
            assert later or not earlier

    def test_scale_covariance_of_outcome(self, gauss1, gh_spec):
        for c in (0.9, 1.0):
            base = L.check_shc(L.log_linear([1.0]), gauss1, c, spec=gh_spec).passed
            scaled = L.check_shc(
                L.scale(L.log_linear([1.0]), 3.0), gauss1, c, spec=gh_spec
            ).passed
            assert base == scaled

    def test_passing_shc_implies_nonnegative_bracket(self, gauss1, gh_spec):
        # consistency at r = 1: the bracket reduces to the sLSI deficit
        for f in (L.log_linear([0.8]), L.cosh_field(0.8)):
            rep = L.check_shc(f, gauss1, 1.0, spec=gh_spec)
            if rep.passed:
                val, err = L.functionals.hc_bracket_with_error(f, gauss1, 1.0, 1.0, gh_spec)
                assert val >= -(1e-6 + 3 * err)


class TestGeneralShc:
    def test_p_equals_q_reduces_to_identity(self, gauss1, gh_spec):
        rep = L.check_general_shc(L.cosh_field(0.7), gauss1, 1.0, 2.0, 2.0, gh_spec)
        assert rep.quantities["r_star"] == 1.0
        assert rep.passed

    def test_gaussian_equality_case(self, gauss1, gh_spec):
        lam = 0.8
        rep = L.check_general_shc(L.log_linear([lam]), gauss1, 1.0, 1.0, 2.0, gh_spec)
        assert rep.passed
        assert rep.quantities["r_star"] == pytest.approx(math.sqrt(0.5), rel=1e-12)
        top = rep.quantities["rows"][0]
        assert top["lhs"] == pytest.approx(top["rhs"], rel=1e-9)

    def test_sub_unit_exponents_accepted(self, gauss1, gh_spec):
        rep = L.check_general_shc(L.cosh_field(0.5), gauss1, 1.0, 0.5, 1.0, gh_spec)
        assert rep.kind == "general_shc"
        assert rep.passed

    def test_skipped_r_star_row_is_no_pass(self):
        # ||f_r||_2 of e^{0.8x} on the Laplace measure diverges at r* and
        # 0.9 r*; the live row at 0.75 r* cannot stand in for the inequality
        # at r*
        rep = L.check_general_shc(L.log_linear([0.8]), L.gen_exponential(1.0, 1.0, 1),
                                  1.0, 1.0, 2.0)
        rows = rep.quantities["rows"]
        assert [row["skipped"] for row in rows] == [True, True, False]
        assert rows[2]["passed"]
        assert not rep.passed and not rep.inconclusive

    def test_invalid_exponent_order(self, gauss1, gh_spec):
        with pytest.raises(InvalidParameter):
            L.check_general_shc(L.cosh_field(0.5), gauss1, 1.0, 2.0, 1.0, gh_spec)

    def test_uncertified_field_rejected_before_any_norm(self, gauss1, gh_spec, norm_calls):
        f = L.raw_field(lambda pts: np.exp(pts[:, 0] / 2.0), 1, label="raw")
        with pytest.raises(InvalidParameter, match="certified"):
            L.check_general_shc(f, gauss1, 1.0, 1.0, 2.0, gh_spec)
        assert norm_calls == []

    def test_overflowing_base_norm_is_inconclusive_with_witness(self):
        # ||e^{40x}||_1 on N(0, 1) is e^{800}, beyond the largest double
        rep = L.check_general_shc(L.log_linear([40.0]), L.gen_exponential(0.5, 2.0, 1),
                                  1.0, 1.0, 2.0)
        assert rep.inconclusive and not rep.passed
        assert rep.notes[0] == "inconclusive: L^1 norm overflows (log value 800)"
        assert "witness" in rep.quantities


class TestDilationBound:
    @pytest.mark.parametrize("p", [1.0, 2.0])
    @pytest.mark.parametrize("r", [0.6, 0.8])
    def test_gaussian_battery(self, gauss1, gh_spec, p, r):
        for f in (L.log_linear([0.8]), L.cosh_field(0.8)):
            rep = L.check_dilation_bound(f, gauss1, p, r, gh_spec)
            assert rep.passed
            assert rep.quantities["lhs"] <= rep.quantities["rhs"] + rep.tolerance
            # gaussian ratio sup is 1, so the bound is r^{-n/p} ||f||_p
            assert rep.quantities["regularity_constant"] == pytest.approx(1.0, abs=1e-8)

    def test_r_equal_one_trivial(self, gauss1, gh_spec):
        rep = L.check_dilation_bound(L.cosh_field(0.6), gauss1, 2.0, 1.0, gh_spec)
        assert rep.passed
        assert rep.quantities["regularity_constant"] >= 1.0 - 1e-9

    def test_constant_field(self, gauss1, gh_spec):
        rep = L.check_dilation_bound(L.constant(1.0, 1), gauss1, 2.0, 0.8, gh_spec)
        assert rep.passed
        assert rep.quantities["lhs"] == pytest.approx(1.0, rel=1e-9)

    def test_compact_support_inconclusive(self, gh_spec):
        ball = L.uniform_ball(1.0, 1)
        for rep in (L.check_dilation_bound(L.cosh_field(0.5), ball, 2.0, 0.8),
                    L.check_dilated_convolution_bound(
                        L.cosh_field(0.5), ball, 2.0, L.mollifier(1, 4), 0.8)):
            assert rep.inconclusive and not rep.passed
            assert "regularity constant unavailable" in rep.notes[0]
            assert rep.tolerance is None
            json.dumps(rep.to_dict(), allow_nan=False)


    @pytest.mark.parametrize("mu", [L.gaussian(1.0, 1), L.gen_exponential(0.5, 2.0, 1)],
                             ids=["gauss_hermite", "adaptive"])
    def test_uncertified_field_integrated_only_undilated(self, mu):
        # r = 1 needs no composition, so the norms are integrated; r < 1 is
        # refused by dilate, in both bounds
        raw = L.raw_field(lambda pts: 1.0 + pts[:, 0] ** 2, 1, label="raw")
        rep = L.check_dilation_bound(raw, mu, 2.0, 1.0)
        assert rep.passed and not rep.inconclusive
        assert rep.quantities["lhs"] == rep.quantities["norm_p"] == L.lp_norm(
            raw, mu, 2.0, L.default_spec(mu))
        for check in (lambda: L.check_dilation_bound(raw, mu, 2.0, 0.8),
                      lambda: L.check_dilated_convolution_bound(
                          raw, mu, 2.0, L.mollifier(1, 4), 0.8)):
            with pytest.raises(InvalidParameter, match="compositions need a certified field"):
                check()


class TestDilatedConvolutionBound:
    def test_holds_with_measured_slack(self, gauss1, gh_spec):
        phi = L.mollifier(1, 4)
        rep = L.check_dilated_convolution_bound(
            L.log_linear([0.5]), gauss1, 2.0, phi, 0.8, gh_spec
        )
        assert rep.passed
        assert rep.quantities["slack"] > 0

    def test_p_one_uses_sup_norm(self, gauss1, gh_spec):
        phi = L.mollifier(1, 4)
        rep = L.check_dilated_convolution_bound(
            L.cosh_field(0.5), gauss1, 1.0, phi, 0.8, gh_spec
        )
        assert rep.passed
        assert rep.quantities["mollifier_norm"] == pytest.approx(phi.sup_value, rel=1e-12)

    @pytest.mark.parametrize("bound", ["dilation", "convolution"])
    def test_one_loop_of_the_two_norms_read(self, bound, monkeypatch):
        # ||(f * phi)_r||_p or ||f_r||_p, and ||f||_p: one adaptive loop of 2
        # integrals (the convolution bound's used to hold 4)
        counts = []
        orig = quadrature._adaptive_batch

        def counting(mu, columns, count):
            counts.append(count)
            return orig(mu, columns, count)

        mu, f = L.mix(L.gaussian(0.8), L.gaussian(1.25), 0.7), L.log_linear([0.8])
        monkeypatch.setattr(quadrature, "_adaptive_batch", counting)
        if bound == "dilation":
            rep = L.check_dilation_bound(f, mu, 1.0, 0.8)
        else:
            rep = L.check_dilated_convolution_bound(f, mu, 1.0, L.mollifier(1, 4), 0.8)
        assert rep.passed and not rep.inconclusive
        assert counts == [2]

    def test_p_below_one_rejected(self, gauss1, gh_spec):
        with pytest.raises(InvalidParameter):
            L.check_dilated_convolution_bound(
                L.cosh_field(0.5), gauss1, 0.5, L.mollifier(1, 2), 0.8, gh_spec
            )

    def test_p_near_one_has_a_finite_right_hand_side(self, gauss1):
        # p' = 1001: phi^{p'} overflows a linear sum, which would make rhs and
        # the tolerance inf; the report must hold finite numbers (strict JSON)
        rep = L.check_dilated_convolution_bound(
            L.log_linear([0.8]), gauss1, 1.001, L.mollifier(1, 4), 0.8)
        assert rep.passed and not rep.inconclusive
        assert rep.quantities["mollifier_norm"] == pytest.approx(3.3001, abs=1e-4)
        assert rep.quantities["rhs"] == pytest.approx(3.100, abs=1e-3)
        json.dumps(rep.to_dict(), allow_nan=False)

    def test_p_near_one_with_a_sup_below_one(self, gauss1):
        # sup phi = 0.829 for k = 1, so phi^{5001} underflows at every node of a
        # linear sum, which would make rhs 0 and fail a bound that holds
        rep = L.check_dilated_convolution_bound(
            L.log_linear([0.8]), gauss1, 1.0002, L.mollifier(1, 1), 0.8)
        assert rep.passed and not rep.inconclusive
        assert rep.quantities["mollifier_norm"] == pytest.approx(0.828, abs=1e-3)
        assert rep.quantities["rhs"] == pytest.approx(11.42, abs=1e-2)

    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_rescaling_quantity_constant_across_scales(self, p):
        # Vol(supp phi) * ||phi||_{p'}^p is scale-free for the bump family
        def quantity(phi):
            p_conj = math.inf if p == 1.0 else p / (p - 1.0)
            return phi.vol_support * phi.lebesgue_norm(p_conj) ** p

        q2, q8 = quantity(L.mollifier(1, 2)), quantity(L.mollifier(1, 8))
        assert abs(q2 - q8) / abs(q2) <= 1e-8


class TestDensityApproximation:
    def test_smooth_surrogate_reaches_target(self, gauss1, gh_spec):
        f = L.log_linear([0.25])
        for p in (1.0, 2.0):
            rep = L.check_density_approximation(f, gauss1, p, spec=gh_spec)
            assert rep.passed
            assert rep.quantities["best_error"] <= 0.01 * rep.quantities["norm_p"]
            assert rep.quantities["energies_finite"]

    def test_energy_norms_carry_the_halving_noise(self, gauss1, gh_spec):
        f = L.log_linear([0.8])
        rep = L.check_density_approximation(f, gauss1, 1.0, k_list=(1, 4), r_list=(0.9, 0.99),
                                            spec=gh_spec)
        for row in rep.quantities["energy_norms"]:
            g = L.dilate(L.convolve(f, L.mollifier(1, row["k"])), row["r"])
            full, half = (L.integrate(lambda pts: np.abs(L.euler(g, pts)), gauss1, s)[0]
                          for s in (gh_spec, gh_spec.halved()))
            assert row["value"] == pytest.approx(full, rel=1e-12)
            assert row["noise"] == pytest.approx(abs(full - half), rel=1e-9)

    def test_constant_field_zero_error(self, gauss1, gh_spec):
        rep = L.check_density_approximation(
            L.constant(1.0, 1), gauss1, 2.0, k_list=(1, 2), r_list=(0.9, 0.99),
            spec=gh_spec
        )
        assert rep.passed
        assert rep.quantities["best_error"] <= 1e-9

    def test_two_step_split_both_vanish(self, gauss1, gh_spec):
        # ||(f * phi_k)_r - f_r|| -> 0 in k and ||f_r - f|| -> 0 as r -> 1
        f = L.log_linear([0.25])
        split = L.check_density_approximation(f, gauss1, 2.0, spec=gh_spec).quantities[
            "split_errors_along_k"
        ]
        errs = [row["error"] for row in split]
        assert all(e2 < e1 for e1, e2 in zip(errs, errs[1:]))
        gaps = []
        for r in (0.9, 0.99):
            fr = L.dilate(f, r)
            val, _ = L.integrate(
                lambda pts: np.abs(fr(pts) - f(pts)) ** 2, gauss1, gh_spec
            )
            gaps.append(math.sqrt(val))
        assert gaps[1] < gaps[0]

    @pytest.mark.parametrize("lists", [{"k_list": []}, {"r_list": ()}])
    def test_empty_lists_rejected(self, gauss1, gh_spec, lists):
        with pytest.raises(InvalidParameter):
            L.check_density_approximation(L.log_linear([0.25]), gauss1, 1.0, spec=gh_spec,
                                          **lists)

    def test_overflowing_base_norm_is_inconclusive_with_witness(self):
        # ||e^{40x}||_1 on N(0, 1) is e^{800}, beyond the largest double
        rep = L.check_density_approximation(L.log_linear([40.0]),
                                            L.gen_exponential(0.5, 2.0, 1), 1.0)
        assert rep.inconclusive and not rep.passed
        assert rep.notes[0] == "inconclusive: L^1 norm overflows (log value 800)"
        assert "witness" in rep.quantities


def _reference_density_cells(f, mu, p, k_list, r_list, spec):
    """Cells of check_density_approximation as three separate integrals each:
    ||g - f||_p, ||E g||_p and, at the largest r, ||g - f_r||_p."""
    def diff_norm(g, h):
        val, err = L.integrate(lambda pts: np.abs(g(pts) - h(pts)) ** p, mu, spec)
        val = max(val, 0.0)
        norm = val ** (1.0 / p)
        return norm, (err * norm / (p * val) if val > 0 else err ** (1.0 / p))

    r_max = max(r_list)
    cells, energies, split = {}, {}, {}
    for k in k_list:
        smoothed = L.convolve(f, L.mollifier(mu.dim, k))
        for r in r_list:
            g = L.dilate(smoothed, r)
            cells[(k, r)] = diff_norm(g, f)
            en, _ = L.integrate(lambda pts: np.abs(L.euler(g, pts)) ** p, mu, spec)
            energies[(k, r)] = en ** (1.0 / p)
            if r == r_max:
                split[k] = diff_norm(g, L.dilate(f, r_max))[0]
    return cells, energies, split


def _one_loop_cell_noise(f, mu, k, r, r_max):
    """At p = 1, the noise of a cell's ||g - f||_1 from one adaptive loop over
    the weight g and the factors |g - f| / g, |E g| / g and, at r_max,
    |g - f_r| / g: the error of the integral of |g - f|."""
    g = L.dilate(L.convolve(f, L.mollifier(mu.dim, k)), r)
    f_r = L.dilate(f, r_max)

    def columns(pts):
        lg, dlg = g.log_value(pts, grad=True)
        factors = [1.0 - np.exp(f.log_value(pts) - lg), pts[:, 0] * dlg[:, 0]]
        if r == r_max:
            factors.append(1.0 - np.exp(f_r.log_value(pts) - lg))
        return np.column_stack([lg, np.abs(np.column_stack(factors))])

    shift, _, errors, _ = quadrature.adaptive_weighted(mu, L.default_spec(mu), columns)
    return math.exp(shift) * errors[1]


class TestDensityApproximationWork:
    def test_one_convolution_sweep_per_cell_and_node_set(self, gauss1, gh_spec):
        batches = []

        def u(pts):
            batches.append(pts.shape[0])
            return 0.25 * pts[:, 0]

        f = L.exp_subharmonic(u, 1, grad_u=lambda pts: np.full_like(pts, 0.25),
                              verify=False)
        rep = L.check_density_approximation(f, gauss1, 2.0, k_list=(1, 2),
                                            r_list=(0.9, 0.99), spec=gh_spec)
        assert rep.passed
        n = len(measure_nodes(gauss1, gh_spec)[0])
        n_half = len(measure_nodes(gauss1, gh_spec.halved())[0])
        inner = len(_ball_nodes(L.mollifier(1, 1))[0])
        # direct evaluations of f come in batches of at most n points; every
        # larger batch is the inner field of a convolution sweep
        swept = sum(m for m in batches if m > n)
        assert swept == 4 * (n + n_half) * inner

    def test_adaptive_path_matches_separate_integrals(self):
        mu = L.gen_exponential(0.5, 2, 1)
        f = L.log_linear([0.25])
        k_list, r_list = (1, 2), (0.9, 0.99)
        spec = L.default_spec(mu)
        assert spec.scheme == "adaptive_1d"
        rep = L.check_density_approximation(f, mu, 1.0, k_list=k_list, r_list=r_list)
        cells, energies, split = _reference_density_cells(f, mu, 1.0, k_list, r_list, spec)
        q = rep.quantities
        for cell in q["cells"]:
            e, _ = cells[(cell["k"], cell["r"])]
            assert not cell["skipped"]
            assert cell["error"] == pytest.approx(e, rel=1e-9)
            noise = _one_loop_cell_noise(f, mu, cell["k"], cell["r"], max(r_list))
            assert cell["noise"] == pytest.approx(noise, rel=1e-6, abs=1e-14)
        for row in q["energy_norms"]:
            assert row["value"] == pytest.approx(energies[(row["k"], row["r"])], rel=1e-9)
        assert [row["error"] for row in q["split_errors_along_k"]] == pytest.approx(
            [split[k] for k in k_list], rel=1e-9)
        # the reference reaches the target and decreases strictly along r (at
        # the largest k) and along k (split term): a PASS, as reported
        assert min(e for e, _ in cells.values()) <= 0.01 * q["norm_p"]
        assert cells[(2, 0.99)][0] < cells[(2, 0.9)][0] and split[2] < split[1]
        assert rep.passed

    def test_adaptive_square_skips_tail_where_density_vanishes(self):
        # |g - f|^2 overflows beyond x ~ 1420, where the N(0, 1) density is
        # exactly 0; those points contribute 0 instead of a non-finite value
        mu = L.gen_exponential(0.5, 2, 1)
        rep = L.check_density_approximation(L.log_linear([0.25]), mu, 2.0,
                                            k_list=(1, 2), r_list=(0.9, 0.99))
        assert not rep.inconclusive and rep.passed
        # ||e^{x/4}||_2 = (E e^{x/2})^{1/2} = e^{1/16}
        assert rep.quantities["norm_p"] == pytest.approx(math.exp(0.0625), rel=1e-12)
        assert not any(cell["skipped"] for cell in rep.quantities["cells"])

    def test_steep_power_integrates_in_log_space(self):
        # ||e^{3x}||_10 on N(0, 1) is (E e^{30x})^{1/10} = e^{45}; the cells'
        # |g - f|^10 reach e^{450} near x = 30, beyond what linear space holds
        rep = L.check_density_approximation(L.log_linear([3.0]), L.gen_exponential(0.5, 2, 1),
                                            10.0, k_list=(1, 4), r_list=(0.99, 0.999))
        assert not rep.inconclusive
        assert rep.quantities["norm_p"] == pytest.approx(math.exp(45.0), rel=1e-12)
        cells = rep.quantities["cells"]
        assert len(cells) == 4 and not any(cell["skipped"] for cell in cells)

    def test_slsi_column_map_runs_once_per_node_set(self, gauss1, gh_spec, monkeypatch):
        # one Gauss-Hermite sLSI is one weighted_moments call: its column map
        # is evaluated on the 100 nodes and on the 50 of the halved spec
        calls = []
        weighted_moments = functionals.weighted_moments

        def counting(columns, mu, spec, fn):
            def counted(pts):
                calls.append(pts.shape[0])
                return columns(pts)

            return weighted_moments(counted, mu, spec, fn)

        monkeypatch.setattr(functionals, "weighted_moments", counting)
        assert L.check_slsi(L.log_linear([0.8]), gauss1, 1.0, spec=gh_spec).passed
        assert calls == [100, 50]


class TestMonotonicityChecks:
    def test_squared_norm_euler_scaling(self):
        for dim in (1, 2, 3):
            rep = L.check_radial_euler_scaling(L.squared_norm(dim))
            assert rep.passed

    def test_exponential_bessel_monotone(self):
        rep = L.check_spherical_monotonicity(L.log_linear([1.0, 0.0]))
        assert rep.passed

    def test_radial_convex_profiles(self):
        for f in (L.exp_norm_sq(0.3, 2), L.exp_norm_sq(0.2, 3)):
            assert L.check_spherical_monotonicity(f).passed
            assert L.check_radial_euler_scaling(f).passed

    def test_overflowed_values_pass(self):
        # e^{200 |x|^2} is +inf wherever |x|^2 > 3.55, at many probes: an
        # overflowed center or grid value is not a violation, as a NaN is
        f = L.exp_norm_sq(200.0, 2)
        rep = L.is_subharmonic(f)
        assert (rep.passed, rep.checked, rep.skipped, len(rep.violations)) == (True, 256, 0, 0)
        assert L.check_spherical_monotonicity(f).passed

    def test_mollified_field_is_averaged_one_probe_per_call(self, monkeypatch):
        # one probe's r grid is 10 orbits of 64 points, each swept against the
        # 512 mollifier nodes; the sweep refuses anything larger
        f = L.convolve(L.log_linear([0.5, 0.0]), L.mollifier(2, 4))
        nodes = len(_ball_nodes(L.mollifier(2, 4))[0])
        monkeypatch.setattr(L.fields, "CONV_MAX_PAIRS", 10 * 64 * nodes)
        rep = L.check_spherical_monotonicity(f)
        assert rep.passed and not rep.inconclusive

    def test_non_subharmonic_is_inconclusive(self):
        bump = L.raw_field(lambda pts: np.exp(-np.sum(pts**2, axis=1)), 2, label="bump")
        # NaN on half the plane: the sub-mean gate counts a NaN as a violation
        half = L.raw_field(lambda pts: np.where(pts[:, 0] < 0, np.nan, np.sum(pts**2, axis=1)),
                           2, label="|x|^2 on x > 0")
        for f in (bump, half):
            rep = L.check_spherical_monotonicity(f)
            assert rep.inconclusive and not rep.passed

    def test_non_invariant_is_inconclusive(self):
        # x^4 + y^4 has the symmetry of the square, so quarter turns alone
        # would not expose it
        quartic = L.raw_field(lambda pts: np.sum(pts**4, axis=1), 2,
                              grad=lambda pts: 4 * pts**3, label="x^4 + y^4")
        # undefined (NaN) on half the plane: no comparison can show invariance
        half = L.raw_field(lambda pts: np.where(pts[:, 0] < 0, np.nan, np.sum(pts**2, axis=1)),
                           2, grad=lambda pts: 2 * pts, label="|x|^2 on x > 0")
        for f in (L.log_linear([1.0, 0.0]), quartic, half):
            rep = L.check_radial_euler_scaling(f)
            assert rep.inconclusive

    def test_overflowed_invariant_field_passes_gate(self):
        # exp(200 |x|^2) overflows to +inf at the four gate probes with
        # |x| > 1.88; an orbit value equal to its +inf center has no spread
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = L.check_radial_euler_scaling(L.exp_norm_sq(200, 2))
        assert not rep.inconclusive and rep.passed

    def test_gate_bound_is_per_probe(self):
        # x^4 + y^4, +inf beyond |x| = 2.3: the orbits of the two gate probes
        # out there are all +inf, and their bound does not lift the others'
        quartic = L.raw_field(
            lambda pts: np.where(np.linalg.norm(pts, axis=1) > 2.3, np.inf,
                                 np.sum(pts**4, axis=1)), 2, label="x^4 + y^4, inf outside")
        rep = L.check_radial_euler_scaling(quartic)
        assert rep.inconclusive and "rotation-invariant" in rep.notes[0]

    def test_nan_fails_radial_lemma(self):
        # rotation-invariant, and NaN only beyond the largest of the eight gate
        # probes (|x| = 2.342), so the gate passes; E k is NaN at the 10 probes
        # beyond it, so is r^(2-n) E k(x) at every r: 10 x 10 violations
        k = L.raw_field(lambda pts: np.where(np.linalg.norm(pts, axis=1) > 2.343, np.nan,
                                             np.sum(pts**2, axis=1)), 2, label="|x|^2 inside")
        rep = L.check_radial_euler_scaling(k)
        assert not rep.inconclusive and not rep.passed
        assert rep.quantities["violation_count"] == 100
        # E k = -inf there instead (an overflowed bound) is not a violation
        k = L.raw_field(lambda pts: np.sum(pts**2, axis=1), 2, label="|x|^2",
                        grad=lambda pts: np.where(np.linalg.norm(pts, axis=1) > 2.343,
                                                  -np.inf, 2.0)[:, None] * pts)
        assert L.check_radial_euler_scaling(k).passed

    def test_averaged_field_satisfies_euler_scaling(self):
        favg = L.spherical_average(L.log_linear([0.8, 0.0]))
        rep = L.check_radial_euler_scaling(favg)
        assert rep.passed


class TestBestConstant:
    def test_gaussian_slsi_sharp_value(self, gauss1, gh_spec):
        battery = [L.log_linear([lam]) for lam in (0.4, 0.8, 1.2)]
        c_star = L.best_constant(battery, gauss1, "slsi", spec=gh_spec)
        assert c_star == pytest.approx(1.0, abs=1e-3)

    def test_gaussian_shc_sharp_value(self, gauss1, gh_spec):
        battery = [L.log_linear([lam]) for lam in (0.4, 0.8, 1.2)]
        c_star = L.best_constant(battery, gauss1, "shc", spec=gh_spec)
        assert c_star == pytest.approx(1.0, abs=1e-3)

    def test_shc_needs_a_live_row_below_r1(self):
        # on the Laplace measure at c = 0.25, ||f_r||_q(r) of e^{0.8x} diverges
        # at every r < 1; the r = 1 row, alpha(1) = ||f||_1, is met at every c
        # and is no evidence, so c_min fails.  sHC implies the sLSI with the
        # same constant, so c*(sHC) >= c*(sLSI)
        battery, lap = [L.log_linear([0.8])], L.gen_exponential(1.0, 1.0, 1)
        rep = L.check_shc(battery[0], lap, 0.25)
        assert all(row["skipped"] for row in rep.quantities["rows"] if row["r"] < 1.0)
        assert not rep.passed and not rep.inconclusive
        c_shc = L.best_constant(battery, lap, "shc")
        c_slsi = L.best_constant(battery, lap, "slsi")
        assert c_shc == pytest.approx(1.642, abs=1e-9)
        assert c_slsi == pytest.approx(1.425, abs=1e-9)
        assert c_shc >= c_slsi

    def test_snapped_constant_is_the_grid_value(self):
        # the bisection's midpoint snaps to the double nearest k / 1000, which
        # reaches report.json as written: 1.642, not 1.6420000000000001
        c = L.best_constant([L.log_linear([0.8])], L.gen_exponential(1.0, 1.0, 1), mode="shc")
        assert repr(c) == "1.642"

    def test_constants_battery_vacuous(self, gauss1, gh_spec):
        c_star = L.best_constant([L.constant(2.0, 1)], gauss1, "slsi", spec=gh_spec)
        assert c_star == 0.25

    def test_no_passing_c_reports_range_max(self, gauss1, gh_spec):
        battery = [L.log_linear([0.8])]
        c_star = L.best_constant(battery, gauss1, "slsi", c_range=(0.25, 0.5),
                                 spec=gh_spec)
        assert c_star == 0.5

    def test_empty_battery_rejected(self, gauss1):
        with pytest.raises(InvalidParameter):
            L.best_constant([], gauss1, "slsi")

    @pytest.mark.parametrize("c_range", [(3.0, 1.0), (2.0, 2.0), (0.0, 1.0), (-1.0, 2.0)])
    def test_bad_c_range_rejected(self, gauss1, c_range):
        # (3, 1) would otherwise come back as 3.0, as if it were the constant
        with pytest.raises(InvalidParameter):
            L.best_constant([L.log_linear([0.5])], gauss1, c_range=c_range)

    @pytest.mark.parametrize("mode", ["slsi", "shc"])
    @pytest.mark.parametrize("c_range", [(0.25, math.inf), (math.inf, math.inf),
                                         (0.25, math.nan), (math.nan, 4.0)],
                             ids=["inf-max", "inf-both", "nan-max", "nan-min"])
    def test_non_finite_c_range_rejected(self, gauss1, mode, c_range):
        # an infinite c_max would bisect forever in sLSI mode (the midpoint
        # stays inf) and come back as c* in sHC mode (the constant's deficit
        # is inf * 0 = NaN)
        with pytest.raises(InvalidParameter, match="c_range must satisfy"):
            L.best_constant([L.log_linear([0.5])], gauss1, mode, c_range=c_range)

    def test_default_battery_composition(self):
        battery = L.default_battery(1)
        assert all(f.certified for f in battery)
        builders = {f.label.split("(")[0] for f in battery}
        assert {"constant", "log_linear", "cosh_field", "power", "product", "convolve"} <= builders


def _raise_inconclusive(f, rep):
    """The QuadratureFailure best_constant raises for a member whose check is
    inconclusive: the report's reason, after the member's label."""
    if rep.inconclusive:
        raise QuadratureFailure(f"{f.label}: {rep.notes[0].removeprefix('inconclusive: ')}",
                                witness=rep.quantities.get("witness"))


def _outcome(search, *args, **kwargs):
    """c* of a best-constant search, or the message and witness it raises."""
    try:
        return search(*args, **kwargs)
    except QuadratureFailure as exc:
        return str(exc), np.atleast_1d(exc.witness).tolist()


def _reference_slsi_best_constant(battery, mu, c_range, spec, resolution=1e-3):
    """Bisection that re-runs check_slsi on every member at every step."""
    def passes(c):
        for f in battery:
            rep = L.check_slsi(f, mu, c, spec)
            _raise_inconclusive(f, rep)
            if not rep.passed:
                return False
        return True

    lo, hi = float(c_range[0]), float(c_range[1])
    if passes(lo):
        return lo
    if not passes(hi):
        return hi
    while hi - lo > resolution:
        mid = 0.5 * (lo + hi)
        if passes(mid):
            hi = mid
        else:
            lo = mid
    return round(0.5 * (lo + hi) / resolution) / round(1.0 / resolution)


def _inconclusive_member():
    # e^{40 x} has mass e^800 under the standard Gaussian, which is not a
    # double, so every integral of it fails and every check on it is inconclusive
    return L.log_linear([40.0])


@pytest.fixture
def entropy_calls(monkeypatch):
    """Labels of the fields entropy_energy_with_error integrates, in call order."""
    calls = []
    orig = checks.entropy_energy_with_error

    def counting(g, mu, spec):
        calls.append(g.label)
        return orig(g, mu, spec)

    monkeypatch.setattr(checks, "entropy_energy_with_error", counting)
    return calls


class TestBestConstantSlsiCache:
    @pytest.mark.parametrize("battery, mu, c_range", [
        ([L.log_linear([lam]) for lam in (0.4, 0.8, 1.2)], L.gaussian(1.0, 1),
         checks.DEFAULT_C_RANGE),
        (L.default_battery(1), L.gaussian(1.0, 1), checks.DEFAULT_C_RANGE),
        ([L.log_linear([0.8])], L.gaussian(1.0, 1), (0.25, 0.5)),
        ([L.constant(2.0, 1), L.constant(0.5, 1)], L.gaussian(1.0, 1),
         checks.DEFAULT_C_RANGE),
        ([L.log_linear([0.4]), _inconclusive_member(), L.cosh_field(0.8)],
         L.gen_exponential(0.5, 2, 1), checks.DEFAULT_C_RANGE),
    ], ids=["log_linear", "default_battery", "narrow_range", "constants", "inconclusive"])
    def test_matches_reference_bisection(self, battery, mu, c_range):
        spec = L.default_spec(mu)
        expected = _outcome(_reference_slsi_best_constant, battery, mu, c_range, spec)
        assert _outcome(L.best_constant, battery, mu, "slsi", c_range=c_range,
                        spec=spec) == expected

    def test_each_member_integrated_once(self, gauss1, gh_spec, entropy_calls):
        battery = L.default_battery(1)
        c_star = L.best_constant(battery, gauss1, "slsi", spec=gh_spec)
        assert c_star == pytest.approx(1.0, abs=1e-3)
        # passes(c_max) reaches every member, each integrated exactly once
        assert entropy_calls == [f.label for f in battery]

    @pytest.mark.parametrize("always_fails", ["below_range", "inconclusive"])
    def test_member_after_always_failing_one_never_integrated(
        self, always_fails, entropy_calls
    ):
        if always_fails == "below_range":
            mu, first, c_range = L.gaussian(1.0, 1), L.log_linear([0.8]), (0.25, 0.5)
        else:
            mu, first, c_range = L.gen_exponential(0.5, 2, 1), _inconclusive_member(), (0.25, 4.0)
        battery = [first, L.cosh_field(0.8)]
        if always_fails == "below_range":
            assert L.best_constant(battery, mu, "slsi", c_range=c_range) == c_range[1]
        else:
            # an inconclusive member makes the search inconclusive, not c_max
            with pytest.raises(QuadratureFailure, match=r"^log_linear\(\[40\.\]\): ") as err:
                L.best_constant(battery, mu, "slsi", c_range=c_range)
            assert err.value.witness is not None
        assert entropy_calls == [first.label]

    def test_uncertified_member_rejected(self, gauss1, gh_spec):
        raw = L.raw_field(lambda pts: np.exp(pts[:, 0]), 1, label="raw")
        with pytest.raises(InvalidParameter):
            L.best_constant([L.cosh_field(0.8), raw], gauss1, "slsi", spec=gh_spec)

    def test_non_rotation_invariant_measure_rejected(self, gauss1):
        with pytest.raises(InvalidParameter):
            L.best_constant([L.cosh_field(0.5)], L.shift(gauss1, [0.4]), "slsi")

    def test_check_slsi_is_terms_then_verdict(self, gauss1, gh_spec):
        f = L.cosh_field(0.8)
        terms = checks.slsi_terms(f, gauss1, gh_spec)
        for c in (0.5, 1.0, 2.0):
            rep = L.check_slsi(f, gauss1, c, gh_spec)
            deficit, tol, passed = checks.slsi_verdict(terms, c)
            assert (rep.quantities["deficit"], rep.tolerance, rep.passed) == (
                deficit, tol, passed)


def _reference_shc_best_constant(battery, mu, c_range, spec, resolution=1e-3):
    """Bisection that re-runs check_shc on every member at every step."""
    def passes(c):
        for f in battery:
            rep = L.check_shc(f, mu, c, spec=spec)
            _raise_inconclusive(f, rep)
            if not rep.passed:
                return False
        return True

    lo, hi = float(c_range[0]), float(c_range[1])
    if passes(lo):
        return lo
    if not passes(hi):
        return hi
    while hi - lo > resolution:
        mid = 0.5 * (lo + hi)
        if passes(mid):
            hi = mid
        else:
            lo = mid
    return round(0.5 * (lo + hi) / resolution) / round(1.0 / resolution)


def _reference_shc(f, mu, c, spec):
    """check_shc's (quantities, passed) with alpha and ||f_r||_1 integrated
    afresh on every row of the default r-grid, r = 1 included."""
    base, e_base = quadrature.lp_norm_with_error(f, mu, 1.0, spec)
    rows = []
    for r in functionals.DEFAULT_R_GRID:
        row = {"r": float(r), "q_of_r": L.q_of_r(r, c)}
        try:
            a, e_a = functionals.alpha_with_error(f, mu, c, r, spec)
            n1, _ = quadrature.lp_norm_with_error(L.dilate(f, r), mu, 1.0, spec)
        except (QuadratureFailure, InvalidParameter) as exc:
            row.update({"skipped": True, "reason": str(exc)})
            rows.append(row)
            continue
        tol_rel = checks.INEQ_ABS + checks.NOISE_FACTOR * (e_a + e_base) / max(base, 1e-300)
        row.update({"skipped": False, "alpha": a, "norm1": n1, "deficit": base - a,
                    "row_passed": bool(a <= base * (1.0 + tol_rel))
                    and bool(n1 <= base * (1.0 + tol_rel)),
                    "tol_rel": tol_rel})
        rows.append(row)
    live = [row for row in rows if not row["skipped"]]
    monotone, worst_drop = True, 0.0
    for prev, nxt in zip(live, live[1:]):
        slack = prev["alpha"] - nxt["alpha"] * (1.0 + prev["tol_rel"])
        worst_drop = max(worst_drop, slack)
        monotone = monotone and not slack > 0
    quantities = {"norm1": base, "rows": rows, "alpha_monotone": monotone,
                  "worst_monotonicity_drop": worst_drop,
                  "skipped_rows": len(rows) - len(live)}
    below_1 = any(row["r"] < 1.0 for row in live)
    return quantities, below_1 and all(row["row_passed"] for row in live) and monotone


@pytest.fixture
def norm_calls(monkeypatch):
    """(field label, p) of every norm integrated, in call order: each
    lp_norm_with_error call outside DilationNorms, and each (label of
    dilate(f, r), q) that a DilationNorms.fill call integrates and memoises
    for any member of its table."""
    calls = []
    orig = quadrature.lp_norm_with_error

    def counting(f, mu, p, spec):
        calls.append((f.label, p))
        return orig(f, mu, p, spec)

    fill = functionals.DilationNorms.fill

    def counting_fill(norms, *args):
        before = len(norms._memo)
        try:
            return fill(norms, *args)
        finally:
            calls.extend((L.dilate(norms.fields[i], r).label, q)
                         for i, r, q in list(norms._memo)[before:])

    for mod in (quadrature, checks):
        monkeypatch.setattr(mod, "lp_norm_with_error", counting, raising=False)
    monkeypatch.setattr(functionals.DilationNorms, "fill", counting_fill)
    return calls


class TestBestConstantShcNorms:
    @pytest.mark.parametrize("battery, mu, c_range", [
        (L.default_battery(1), L.gaussian(1.0, 1), checks.DEFAULT_C_RANGE),
        ([L.log_linear([0.4]), L.log_linear([0.8])], L.gen_exponential(0.5, 2, 1),
         checks.DEFAULT_C_RANGE),
        ([L.log_linear([0.8]), L.cosh_field(0.5)], L.gaussian(1.0, 1), (0.1, 4.0)),
        ([L.log_linear([0.4]), _inconclusive_member(), L.cosh_field(0.8)],
         L.gen_exponential(0.5, 2, 1), checks.DEFAULT_C_RANGE),
        ([L.log_linear([0.8])], L.gen_exponential(1.0, 1.0, 1), checks.DEFAULT_C_RANGE),
    ], ids=["default_battery", "adaptive", "q_guard_rows", "inconclusive", "r1_row_alone"])
    def test_matches_reference_bisection(self, battery, mu, c_range):
        spec = L.default_spec(mu)
        expected = _outcome(_reference_shc_best_constant, battery, mu, c_range, spec)
        assert _outcome(L.best_constant, battery, mu, "shc", c_range=c_range,
                        spec=spec) == expected

    @pytest.mark.parametrize("battery, mu", [
        (L.default_battery(1), L.gaussian(1.0, 1)),
        ([L.log_linear([0.4]), L.log_linear([0.8])], L.gen_exponential(0.5, 2, 1)),
    ], ids=["gauss_hermite", "adaptive"])
    def test_each_norm_integrated_at_most_once(self, battery, mu, norm_calls):
        c_star = L.best_constant(battery, mu, "shc")
        assert c_star == pytest.approx(1.0, abs=1e-3)
        assert len(set(norm_calls)) == len(norm_calls)
        # passes(c_max) reaches every member: ||f||_1 of each is among them
        assert {f.label for f in battery} <= {label for label, _ in norm_calls}

    @pytest.mark.parametrize("f, mu, c", [
        (L.log_linear([0.8]), L.gaussian(1.0, 1), 1.0),
        (L.log_linear([0.8]), L.gaussian(1.0, 1), 0.5),
        (L.cosh_field(0.8), L.gaussian(1.0, 1), 0.1),
        (L.log_linear([0.4]), L.gen_exponential(0.5, 2, 1), 1.0),
        (L.log_linear([0.8]), L.gen_exponential(1.0, 1.0, 1), 0.25),
    ], ids=["pass", "fail", "q_guard_rows", "adaptive", "r1_row_alone"])
    def test_check_shc_report_unchanged_without_r1_integrals(self, f, mu, c, norm_calls):
        spec = L.default_spec(mu)
        expected = _reference_shc(f, mu, c, spec)
        reference_calls = len(norm_calls)
        del norm_calls[:]
        rep = L.check_shc(f, mu, c, spec=spec)
        assert (rep.quantities, rep.passed) == expected
        # the r = 1 row is alpha(1) = ||f_1||_1 = ||f||_1, already integrated;
        # ||f_r||_1 is integrated also where alpha(r) failed, in the one fill
        failed = sum(row["skipped"] and row["q_of_r"] <= checks.Q_GUARD
                     for row in rep.quantities["rows"])
        assert len(norm_calls) == reference_calls - 2 + failed

    def test_failure_memoised_and_raised_again(self, norm_calls):
        mu = L.gen_exponential(0.5, 2, 1)
        norms = functionals.DilationNorms([_inconclusive_member()], mu, L.default_spec(mu))
        for _ in range(2):
            with pytest.raises(QuadratureFailure):
                norms(0, 1.0, 1.0)
        assert len(norm_calls) == 1

    def test_uncertified_member_rejected(self, gauss1, gh_spec):
        raw = L.raw_field(lambda pts: np.exp(pts[:, 0]), 1, label="raw")
        with pytest.raises(InvalidParameter):
            L.best_constant([L.cosh_field(0.8), raw], gauss1, "shc", spec=gh_spec)

    def test_unreachable_uncertified_member_never_raises(self):
        # log_linear([0.8]) fails the sHC at every c below 1, so no step
        # reaches the uncertified member, and the search returns c_max; a
        # step's batch integrates only the members it can build
        raw = L.raw_field(lambda pts: np.exp(pts[:, 0]), 1, label="raw")
        assert L.best_constant([L.log_linear([0.8]), raw], L.gen_exponential(0.5, 2, 1),
                               "shc", c_range=(0.1, 0.5)) == 0.5

    @pytest.mark.parametrize("mu", [L.gaussian(1.0, 1), L.gen_exponential(0.5, 2, 1)],
                             ids=["gauss_hermite", "adaptive"])
    def test_failing_step_reads_no_later_member(self, mu, norm_calls):
        # log_linear([0.8]) fails the sHC at every c below 1, so no verdict
        # reaches cosh_field(0.8); each step's one fill integrates its norms
        # all the same, on every scheme
        battery = [L.log_linear([0.8]), L.cosh_field(0.8)]
        assert L.best_constant(battery, mu, "shc", c_range=(0.25, 0.5)) == 0.5
        assert any(battery[1].label in label for label, _ in norm_calls)

    @pytest.mark.parametrize("mu", [L.gaussian(1.0, 1), L.gen_exponential(0.5, 2, 1)],
                             ids=["gauss_hermite", "adaptive"])
    def test_one_moments_call_per_bisection_step(self, mu, monkeypatch, norm_calls):
        calls = []
        orig = quadrature._moments

        def counting(*args, **kwargs):
            calls.append(args)
            return orig(*args, **kwargs)

        monkeypatch.setattr(quadrature, "_moments", counting)
        battery = [L.log_linear([0.4]), L.cosh_field(0.8),
                   L.convolve(L.log_linear([0.8]), L.mollifier(1, 4))]
        assert L.best_constant(battery, mu, "shc") == pytest.approx(1.0, abs=1e-3)
        # c_min fails and c_max passes, then 12 halvings: 14 steps, of which
        # passes(c_max) finds its norms filled by passes(c_min, c_max)
        lo, hi = checks.DEFAULT_C_RANGE
        steps = 2 + math.ceil(math.log2((hi - lo) / checks.BISECTION_RESOLUTION))
        assert len(calls) == steps - 1
        # the uncertified member is left out of every fill, and raises only
        # when the verdict at c_max reaches it
        del calls[:], norm_calls[:]
        raw = L.raw_field(lambda pts: np.exp(pts[:, 0]), 1, label="raw")
        with pytest.raises(InvalidParameter, match="requires a certified field"):
            L.best_constant([L.log_linear([0.4]), raw, L.cosh_field(0.8)], mu, "shc")
        assert len(calls) == 1
        assert {label for label, _ in norm_calls if "raw" in label} == set()
        assert any("cosh" in label for label, _ in norm_calls)

    @pytest.mark.parametrize("mu", [L.gaussian(1.0, 1), L.gen_exponential(0.5, 2, 1)],
                             ids=["gauss_hermite", "adaptive"])
    def test_uncertified_member_raises_when_a_verdict_reaches_it(self, mu):
        raw = L.raw_field(lambda pts: np.exp(pts[:, 0]), 1, label="raw")
        with pytest.raises(InvalidParameter, match="requires a certified field"):
            L.best_constant([L.cosh_field(0.8), raw], mu, "shc")
        assert L.best_constant([L.log_linear([0.8]), raw], mu, "shc", c_range=(0.1, 0.5)) == 0.5
        # check_shc refuses the field before it reads the r-grid
        with pytest.raises(InvalidParameter, match="requires a certified field"):
            L.check_shc(raw, mu, 1.0, r_grid=(0.5, 1.5))

    def test_one_adaptive_loop_per_bisection_step(self, monkeypatch):
        loops = []
        orig = quadrature._adaptive_batch

        def counting(*args, **kwargs):
            loops.append(args)
            return orig(*args, **kwargs)

        monkeypatch.setattr(quadrature, "_adaptive_batch", counting)
        battery = [L.log_linear([lam]) for lam in (0.45, 0.75, 1.05)]
        assert L.best_constant(battery, L.gen_exponential(0.5, 2, 1), "shc") == 1.0
        # c_min fails and c_max passes, then 12 halvings take the bracket
        # (0.25, 4) below the resolution: 14 steps, each reaching every member
        lo, hi = checks.DEFAULT_C_RANGE
        steps = 2 + math.ceil(math.log2((hi - lo) / checks.BISECTION_RESOLUTION))
        assert 0 < len(loops) <= steps


@pytest.fixture
def tables(monkeypatch):
    """Every DilationNorms table that ``checks`` builds, in order."""
    built = []

    class Recorded(functionals.DilationNorms):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(checks, "DilationNorms", Recorded)
    return built


class TestNodeSetLogs:
    def test_2d_search_sweeps_the_mollified_member_once_per_r_and_node_set(self):
        battery = L.default_battery(2)
        sweeps = []
        log = battery[-1]._log

        def counting(pts, grad):
            if len(pts) >= 450:  # a node set: 1,700 nodes, or 450 halved
                sweeps.append(len(pts))
            return log(pts, grad)

        battery[-1] = dataclasses.replace(battery[-1], _log=counting)
        assert L.best_constant(battery, L.gaussian(1.0, 2), "shc") == pytest.approx(1.0, abs=1e-3)
        # each radius of the r-grid on both node sets; 98 when every
        # (r, q) key swept its node set afresh
        assert len(sweeps) == 2 * len(functionals.DEFAULT_R_GRID) == 14

    def test_kept_logs_change_no_bit(self, monkeypatch, tables):
        def run():
            c_star = L.best_constant(L.default_battery(1), L.gaussian(1.0, 1), "shc")
            reps = [L.check_shc(L.default_battery(2)[-1], L.gaussian(1.0, 2), 0.9),
                    L.check_shc(L.log_linear([0.8, 0.0]), L.gen_exponential(1.0, 4.0, 2), 1.0)]
            return c_star, [json.dumps(rep.to_dict()) for rep in reps]

        kept = run()
        assert len(tables) == 3 and all(table._logs for table in tables)
        del tables[:]
        monkeypatch.setattr(functionals, "LOG_MEMO_BYTES", 0)
        assert run() == kept
        assert len(tables) == 3 and all(table._logs == {} for table in tables)

    def test_at_most_two_logs_per_member_and_r_on_gauss_hermite(self, tables):
        L.best_constant(L.default_battery(2), L.gaussian(1.0, 2), "shc")
        (table,) = tables
        per_pair = {}
        for i, r, _ in table._logs:
            per_pair[(i, r)] = per_pair.get((i, r), 0) + 1
        assert len(per_pair) == 8 * len(functionals.DEFAULT_R_GRID)
        assert max(per_pair.values()) == 2
        assert {count for _, _, count in table._logs} == {1700, 450}


class TestShcSlsiSandwich:
    # sHC(c) and sLSI(c) are equivalent on the LSH cone, so a finite battery's
    # constants satisfy c_sLSI(B) <~ c_sHC(B): each c* is within one bisection
    # step of its own threshold, so they may cross by two steps at most
    @pytest.mark.parametrize("mu", [
        L.mix(L.gaussian(0.8), L.gaussian(1.25), 0.7),  # 1.037 against 1.058
        L.gen_exponential(1.0, 4.0, 1),  # 0.997 against 0.996
    ], ids=["mixture", "gen_exponential_a4"])
    def test_slsi_constant_at_most_shc_constant(self, mu):
        battery = L.default_battery(1)
        c_slsi = L.best_constant(battery, mu, "slsi")
        c_shc = L.best_constant(battery, mu, "shc")
        assert c_slsi <= c_shc + 2 * checks.BISECTION_RESOLUTION


class TestWitness:
    # e^{1.2x} outgrows the Laplace density e^{-|x|}, so the integral
    # diverges: the adaptive loop bisects towards theta = pi/2, where its last
    # node rounds to pi/2 itself, at x = tan(pi/2) = 1.633e16 in double
    # precision; there the weight is largest, and ||g||_1 (or the L^1 norm)
    # overflows
    def test_laplace_overflow_carries_witness(self):
        rep = L.check_slsi(L.log_linear([1.2]), L.gen_exponential(1, 1, 1), 1.0)
        assert rep.inconclusive and not rep.passed
        assert "overflows" in rep.notes[0]
        witness = rep.to_dict()["quantities"]["witness"]
        assert witness == [math.tan(math.pi / 2)] and math.isfinite(witness[0])

    def test_laplace_overflow_warns_nothing(self):
        # the overflow becomes the witness, not a RuntimeWarning, in the sLSI
        # and in both operator bounds
        f, mu = L.log_linear([1.2]), L.gen_exponential(1, 1, 1)
        for check in (lambda: L.check_slsi(f, mu, 1.0),
                      lambda: L.check_dilation_bound(f, mu, 1.0, 0.8),
                      lambda: L.check_dilated_convolution_bound(
                          f, mu, 1.0, L.mollifier(1, 4), 0.8)):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                rep = check()
            assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
            assert rep.inconclusive
            assert rep.quantities["witness"][0] == math.tan(math.pi / 2)

    def test_laplace_cosh_overflow_warns_nothing(self):
        # cosh overflows where e^{1.2|x|} does; the exponents at x = +-tan(pi/2)
        # tie, and the first node found with the largest one is the witness
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rep = L.check_slsi(L.cosh_field(1.2), L.gen_exponential(1, 1, 1), 1.0)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert rep.inconclusive
        assert rep.quantities["witness"][0] == -math.tan(math.pi / 2)

    def test_type_condition_witness_reaches_the_report(self):
        # the mixture's density ratio overflows its guard between the two
        # components, at x = 2.4998 on the regularity grid
        mu = L.mix(L.gaussian(0.1), L.shift(L.gaussian(0.1), [5.0]), 0.5)
        rep = L.check_dilation_bound(L.log_linear([0.5]), mu, 1.0, 0.5)
        assert rep.inconclusive
        assert "regularity constant unavailable" in rep.notes[0]
        assert rep.quantities["witness"] == pytest.approx([2.4998], abs=1e-9)

    def test_lemma_gates_carry_witness(self):
        quartic = L.raw_field(lambda pts: np.sum(pts**4, axis=1), 2, label="x^4 + y^4")
        rep = L.check_radial_euler_scaling(quartic)
        assert rep.inconclusive
        # the first gate probe is off its orbit
        np.testing.assert_array_equal(rep.quantities["witness"],
                                      default_probes(2, count=64, seed=17)[0])
        concave = L.raw_field(lambda pts: -np.sum(pts**2, axis=1), 2, label="-|x|^2")
        rep = L.check_spherical_monotonicity(concave)
        assert rep.inconclusive
        assert rep.quantities["witness"].shape == (2,)
        assert "subharmonic" in rep.notes[0]

    @pytest.mark.parametrize("cls", [L.LabError, InvalidParameter, QuadratureFailure,
                                     L.EvaluationFailure, L.SubharmonicityError,
                                     L.TypeConditionViolation, L.ConfigError])
    def test_every_error_takes_a_witness(self, cls):
        assert cls("message").witness is None
        assert str(cls("message", witness=[1.0])) == "message"
        assert cls("message", witness=[1.0]).witness == [1.0]

    def test_conclusive_report_has_no_witness(self, gauss1, gh_spec):
        rep = L.check_slsi(L.cosh_field(0.8), gauss1, 1.0, gh_spec)
        assert "witness" not in rep.quantities


class TestReportShape:
    def test_report_round_trips_to_json(self, gauss1, gh_spec):
        import json

        rep = L.check_shc(L.log_linear([0.8]), gauss1, 1.0, spec=gh_spec)
        blob = json.dumps(rep.to_dict(), sort_keys=True)
        parsed = json.loads(blob)
        assert parsed["check_id"] == rep.check_id
        assert parsed["spec"]["scheme"] == "gauss_hermite"
        assert parsed["inputs"]["measure"] == gauss1.label

    def test_pass_iff_deficit_above_negative_tolerance(self, gauss1, gh_spec):
        rep = L.check_slsi(L.cosh_field(0.8), gauss1, 1.0, gh_spec)
        assert rep.passed == (rep.quantities["deficit"] >= -rep.tolerance)
