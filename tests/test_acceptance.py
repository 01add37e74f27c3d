"""Acceptance suite: one test per shipped criterion, each printing a
PASS/FAIL line with its runtime and asserting the stated tolerance and
desk-scale runtime budget."""

import json
import math
import re
import time
from contextlib import contextmanager

import numpy as np
import pytest

import lshlab as L

LAMBDAS = (0.4, 0.8, 1.2)
R_GRID = (0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 1.0)


@contextmanager
def budget(name, seconds):
    start = time.monotonic()
    failed = True
    try:
        yield
        failed = False
    finally:
        elapsed = time.monotonic() - start
        status = "FAIL" if failed else "PASS"
        print(f"ACCEPTANCE {name}: {status} ({elapsed:.2f} s, budget {seconds:.0f} s)")
        if not failed:
            assert elapsed < seconds, f"{name} exceeded the runtime budget"


def test_01_gaussian_equality_case(gauss1, gh_spec):
    with budget("1 gaussian sharp equality", 5):
        for lam in LAMBDAS:
            f = L.log_linear([lam])
            target = math.exp(lam**2 / 2)
            for r in R_GRID:
                a = L.alpha_with_error(f, gauss1, 1.0, r, gh_spec)[0]
                assert abs(a - target) / target <= 1e-5
            rep = L.check_slsi(f, gauss1, 1.0, gh_spec)
            assert rep.passed
            assert abs(rep.quantities["deficit"]) <= 1e-6


def test_02_sharpness_falsification(gauss1, gh_spec):
    with budget("2 sharpness falsification at c=0.9", 5):
        detected = False
        for lam in LAMBDAS:
            f = L.log_linear([lam])
            rep = L.check_shc(f, gauss1, 0.9, R_GRID, gh_spec)
            assert not rep.passed
            assert not rep.quantities["alpha_monotone"]
            rows = [row for row in rep.quantities["rows"] if not row["skipped"]]
            base = rep.quantities["norm1"]
            worst = max(row["alpha"] - base for row in rows)
            tol = max(row["tol_rel"] for row in rows) * base
            if worst > 10.0 * tol:
                detected = True
        assert detected


def test_03_derivative_formula(gauss1, gh_spec):
    with budget("3 derivative formula vs finite differences", 30):
        battery = (
            L.log_linear([0.8]),
            L.cosh_field(0.8),
            L.convolve(L.log_linear([0.8]), L.mollifier(1, 4)),
        )
        for f in battery:
            for r in (0.6, 0.7, 0.8, 0.9, 1.0):
                analytic = L.alpha_prime_with_error(f, gauss1, 1.0, r, gh_spec)[0]
                fd = L.alpha_prime_fd(f, gauss1, 1.0, r, gh_spec)
                denom = max(abs(analytic), abs(fd))
                if denom < 1e-7 * max(1.0, L.alpha_with_error(f, gauss1, 1.0, r, gh_spec)[0]):
                    continue  # both vanish to quadrature precision
                assert abs(analytic - fd) / denom <= 1e-3


def test_04_regularity_constants(gauss1):
    with budget("4 regularity constants", 10):
        for a in (1.1, 1.5, 2.0):
            assert L.regularity_constant(gauss1, 0, a, 0.0) == pytest.approx(1.0, abs=1e-6)
        assert L.regularity_constant(gauss1, 2, 2.0, 0.0) == pytest.approx(
            (2.0 / 3.0) * math.exp(-1.0), abs=1e-4
        )
        rep = L.type_report(L.poly_tail(1.0), 1.0, [2.0], [0.0])
        assert not rep.numerically_type_p
        assert rep.violations[0][2] is not None  # witness point recorded


def test_05_closure_bounds(gauss1):
    with budget("5 closure bounds (mixture, product, convolution)", 60):
        # mixture of two recentered unit gaussians: C0 <= max of components
        left, right = L.shift(gauss1, [-0.5]), L.shift(gauss1, [0.5])
        mixed = L.mix(left, right, 0.5)
        for a in (1.3, 2.0):
            c_mix = L.regularity_constant(mixed, 0, a, 0.0)
            c_max = max(
                L.regularity_constant(left, 0, a, 0.0),
                L.regularity_constant(right, 0, a, 0.0),
            )
            assert c_max - c_mix >= 0.0

        # product on R^2: C_p <= 2^{p-1} [C_p C_0 + C_0 C_p] at shared (a, s)
        prod = L.product(gauss1, gauss1)
        p, a = 2.0, 2.0
        for s in (0.0, 0.5):
            lhs = L.regularity_constant(prod, p, a, s)
            cp = L.regularity_constant(gauss1, p, a, s)
            c0 = L.regularity_constant(gauss1, 0, a, s)
            assert 2 ** (p - 1) * (cp * c0 + c0 * cp) - lhs >= 0.0

        # convolution: near-one bound (1+eps)^n sup C0 sup C0 and the
        # exponential-type bound 2^{p-1} a^n [C_p(a,s) C_0(a,0) + C_0(a,s) C_p(a,0)]
        conv = L.convolve_measures(gauss1, gauss1)
        eps = 0.25
        near_conv = L.type_report(conv, 0.0, [1.1], [0.0], eps=eps).uniform_near_one
        near_base = L.type_report(gauss1, 0.0, [1.1], [0.0], eps=eps).uniform_near_one
        assert (1.0 + eps) ** 1 * near_base**2 - near_conv >= 0.0
        lhs = L.regularity_constant(conv, p, a, 0.0)
        cp0 = L.regularity_constant(gauss1, p, a, 0.0)
        c00 = L.regularity_constant(gauss1, 0, a, 0.0)
        assert 2 ** (p - 1) * a**1 * (cp0 * c00 + c00 * cp0) - lhs >= 0.0


def test_06_operator_bounds(gauss1, gh_spec):
    with budget("6 operator bounds on the battery", 60):
        battery = L.default_battery(1)
        phi = L.mollifier(1, 4)
        for f in battery:
            for r in (0.6, 0.8):
                for p in (1.0, 2.0):
                    rep = L.check_dilation_bound(f, gauss1, p, r, gh_spec)
                    assert rep.passed and not rep.inconclusive
                    assert rep.quantities["lhs"] <= rep.quantities["rhs"] + rep.tolerance
                    rep = L.check_dilated_convolution_bound(
                        f, gauss1, p, phi, r, gh_spec
                    )
                    assert rep.passed and not rep.inconclusive
                    assert rep.quantities["lhs"] <= rep.quantities["rhs"] + rep.tolerance
        # scale-invariant mollifier quantity across two scales
        for p in (1.0, 2.0):
            p_conj = math.inf if p == 1.0 else p / (p - 1.0)
            q2 = L.mollifier(1, 2).vol_support * L.mollifier(1, 2).lebesgue_norm(p_conj) ** p
            q8 = L.mollifier(1, 8).vol_support * L.mollifier(1, 8).lebesgue_norm(p_conj) ** p
            assert abs(q2 - q8) / abs(q2) <= 1e-8


def test_07_monotonicity_lemmas():
    with budget("7 monotonicity lemmas", 10):
        spherical_battery = (
            L.squared_norm(2),
            L.log_linear([1.0, 0.0]),
            L.exp_norm_sq(0.3, 2),
            L.exp_norm_sq(0.2, 3),
        )
        for f in spherical_battery:
            rep = L.check_spherical_monotonicity(f)
            assert rep.passed and not rep.inconclusive
            assert rep.quantities["probes"] == 64
            assert rep.quantities["grid_points"] == 10
        radial_battery = (
            L.squared_norm(2),
            L.squared_norm(3),
            L.exp_norm_sq(0.3, 2),
            L.exp_norm_sq(0.2, 3),
        )
        for k in radial_battery:
            rep = L.check_radial_euler_scaling(k)
            assert rep.passed and not rep.inconclusive


def test_08_density_theorem_experiment(gauss1, gh_spec):
    with budget("8 density approximation experiment", 120):
        f = L.log_linear([0.25])
        for p in (1.0, 2.0):
            rep = L.check_density_approximation(
                f, gauss1, p, k_list=(1, 2, 4, 8, 16), r_list=(0.9, 0.95, 0.99),
                spec=gh_spec,
            )
            assert rep.passed and not rep.inconclusive
            base = rep.quantities["norm_p"]
            cell = {
                (c["k"], c["r"]): c for c in rep.quantities["cells"] if not c["skipped"]
            }
            assert cell[(16, 0.99)]["error"] <= 0.01 * base
            assert rep.quantities["decreasing"]
            assert rep.quantities["energies_finite"]


def test_09_structural_suites(gauss1, gauss2, gh_spec, rng):
    with budget("9 structural suites", 30):
        battery = L.default_battery(1)
        for f in battery:
            assert L.entropy_with_error(f, gauss1, gh_spec)[0] >= -1e-7
            assert L.euler_energy_with_error(f, gauss1, gh_spec)[0] >= -1e-7
        spec2 = L.default_spec(gauss2)
        for f in L.default_battery(2):
            assert L.euler_energy_with_error(f, gauss2, spec2)[0] >= -1e-7

        pts = rng.standard_normal((32, 1))
        for f in (L.cosh_field(0.8), L.log_linear([0.7])):
            lhs = L.dilate(L.dilate(f, 0.8), 0.5)(pts)
            assert np.max(np.abs(lhs - L.dilate(f, 0.4)(pts))) <= 1e-12
            for r in (0.5, 0.9):
                chain = L.euler(L.dilate(f, r), pts) - L.euler(f, r * pts)
                assert np.max(np.abs(chain)) <= 1e-8

        fresh = L.fields.default_probes(1, count=48, seed=999)
        closures = (
            L.power(L.cosh_field(0.8), 2.5),
            L.product_field(L.log_linear([0.4]), L.cosh_field(0.6)),
            L.convolve(L.cosh_field(0.7), L.mollifier(1, 3)),
        )
        for f in closures:
            assert L.is_lsh(f, probes=fresh).passed
        fresh2 = L.fields.default_probes(2, count=32, seed=998)
        assert L.is_lsh(
            L.power(L.modulus_holomorphic([1, 1]), 1.5), probes=fresh2
        ).passed


def test_10_determinism(tmp_path):
    with budget("10 campaign determinism", 10):
        d1, d2 = tmp_path / "one", tmp_path / "two"
        assert L.run("gaussian-sharp", output_dir=d1) == 0
        assert L.run("gaussian-sharp", output_dir=d2) == 0
        strip = lambda p: re.sub(
            r'"generated_at": "[^"]*"', '"generated_at": "X"',
            (p / "report.json").read_text(),
        )
        assert strip(d1) == strip(d2)
        report = json.loads((d1 / "report.json").read_text())
        assert report["summary"]["failed"] == 0
