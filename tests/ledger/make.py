"""The verdict ledger: a fixed list of checks and best-constant searches, and
what each one gives.

Every case is run and its outcome written to ``ledger.json`` beside this
file: the full report of a check (kind, inputs, resolved spec, quantities,
tolerance, flags and notes), c* of a search, or the type and message of a
raised ``LabError``.  ``tests/test_ledger.py`` reruns the list and compares
flags, strings, integers and c* exactly, and every other float within
``REL_TOL``.  The ledger records today's verdicts, the wrong ones included:
a change that moves a verdict regenerates the file, and the entries that
moved are what it reports.

Cases cover every integral check kind on each scheme (``gauss_hermite``,
``tensor_trapezoid``, ``adaptive_1d``), each inconclusive path (a failed
integral with its witness, an unavailable regularity constant, every
density cell failing), the two monotonicity lemmas, and the best-constant
searches pinned in CI.

Rewrite the file with ``PYTHONPATH=src python tests/ledger/make.py``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from unittest import mock

import lshlab as L
from lshlab import checks
from lshlab.errors import LabError, QuadratureFailure

LEDGER = Path(__file__).with_name("ledger.json")
#: relative tolerance of a float that is not c*, for BLAS and platform rounding
REL_TOL = 1e-9

# the measures of the cases: each default scheme in 1-D and 2-D
GAUSS1 = L.gaussian(1.0, 1)
GAUSS2 = L.gaussian(1.0, 2)
NORMAL1 = L.gen_exponential(0.5, 2, 1)  # N(0, 1) on adaptive_1d
LAPLACE1 = L.gen_exponential(1.0, 1.0, 1)
TRAP2 = L.gen_exponential(1.0, 4.0, 2)
NORMAL2_TRAP = L.gen_exponential(0.5, 2, 2)  # N(0, I_2) on tensor_trapezoid
BALL1 = L.uniform_ball(1.0, 1)
TWO_BUMPS = L.mix(L.gaussian(0.1), L.shift(L.gaussian(0.1), [5.0]), 0.5)
MIXTURE = L.mix(L.gaussian(0.8), L.gaussian(1.25), 0.3)

#: the small density tables of the 2-D cases
K_SMALL, R_SMALL = (1, 4), (0.9, 0.99)


def _every_kind(tag, mu, lam):
    """Each integral check kind on ``mu`` with e^{lam x_1}."""
    n = mu.dim
    f = L.log_linear([lam] + [0.0] * (n - 1))
    small = {} if n == 1 else {"k_list": K_SMALL, "r_list": R_SMALL}
    return {
        f"{tag}/slsi/c1": lambda: L.check_slsi(f, mu, 1.0),
        f"{tag}/slsi/c0.5": lambda: L.check_slsi(f, mu, 0.5),
        f"{tag}/shc/c1": lambda: L.check_shc(f, mu, 1.0),
        f"{tag}/shc/c0.5": lambda: L.check_shc(f, mu, 0.5),
        f"{tag}/general_shc": lambda: L.check_general_shc(f, mu, 1.0, 1.5, 3.0),
        f"{tag}/dilation_bound": lambda: L.check_dilation_bound(f, mu, 2.0, 0.8),
        f"{tag}/dilated_convolution_bound": lambda: L.check_dilated_convolution_bound(
            f, mu, 1.0, L.mollifier(n, 4), 0.8),
        f"{tag}/density_approx": lambda: L.check_density_approximation(f, mu, 1.0, **small),
    }


def _every_cell_fails():
    def fails(columns, mu, spec, fn):
        raise QuadratureFailure("cell diverges")

    with mock.patch.object(checks, "weighted_moments", fails):
        return L.check_density_approximation(L.log_linear([0.8]), GAUSS1, 1.0,
                                             k_list=(1, 4), r_list=(0.9, 0.99))


def _search(battery, mu, mode, **kwargs):
    return lambda: L.best_constant(battery, mu, mode, **kwargs)


CASES = {
    **_every_kind("gauss_hermite-1d", GAUSS1, 0.8),
    **_every_kind("gauss_hermite-2d", GAUSS2, 0.8),
    **_every_kind("adaptive_1d", NORMAL1, 0.8),
    **_every_kind("tensor_trapezoid-2d", TRAP2, 0.8),
    "gauss_hermite-1d/slsi/cosh": lambda: L.check_slsi(L.cosh_field(0.8), GAUSS1, 1.0),
    "gauss_hermite-1d/shc/mollified": lambda: L.check_shc(
        L.convolve(L.log_linear([0.8]), L.mollifier(1, 4)), GAUSS1, 1.0),
    "gauss_hermite-1d/general_shc/c0.5": lambda: L.check_general_shc(
        L.log_linear([0.8]), GAUSS1, 0.5, 1.5, 3.0),
    "gauss_hermite-1d/shc/q_guard_rows": lambda: L.check_shc(L.cosh_field(0.8), GAUSS1, 0.1),
    "adaptive_1d/shc/laplace_r1_row_alone": lambda: L.check_shc(
        L.log_linear([0.8]), LAPLACE1, 0.25),
    # a failed integral: inconclusive, with its witness
    "inconclusive/slsi/divergent": lambda: L.check_slsi(L.log_linear([1.2]), LAPLACE1, 1.0),
    "inconclusive/shc/divergent": lambda: L.check_shc(L.log_linear([1.2]), LAPLACE1, 1.0),
    "inconclusive/general_shc/divergent": lambda: L.check_general_shc(
        L.log_linear([1.2]), LAPLACE1, 1.0, 1.5, 3.0),
    "inconclusive/dilation_bound/divergent": lambda: L.check_dilation_bound(
        L.log_linear([1.2]), LAPLACE1, 1.0, 0.8),
    "inconclusive/density_approx/divergent": lambda: L.check_density_approximation(
        L.log_linear([1.2]), LAPLACE1, 1.0),
    "inconclusive/slsi/box_edge": lambda: L.check_slsi(
        L.log_linear([6.0, 0.0]), NORMAL2_TRAP, 0.99),
    "inconclusive/shc/box_edge": lambda: L.check_shc(
        L.log_linear([6.0, 0.0]), NORMAL2_TRAP, 0.99),
    # a row fails to integrate and every live row passes
    "inconclusive/shc/failed_row": lambda: L.check_shc(
        L.log_linear([0.8, 0.0]), L.gen_exponential(2.0, 1.0, 2), 1.0),
    # an unavailable regularity constant
    "inconclusive/dilation_bound/compact_support": lambda: L.check_dilation_bound(
        L.cosh_field(0.5), BALL1, 2.0, 0.8),
    "inconclusive/dilated_convolution_bound/compact_support":
        lambda: L.check_dilated_convolution_bound(
            L.cosh_field(0.5), BALL1, 2.0, L.mollifier(1, 4), 0.8),
    "inconclusive/dilation_bound/type_condition_witness": lambda: L.check_dilation_bound(
        L.log_linear([0.5]), TWO_BUMPS, 1.0, 0.5),
    "inconclusive/density_approx/every_cell_fails": _every_cell_fails,
    # known wrong (item 5): every r < 1 row is skipped at the box edge, and
    # the report reads FAIL where it should be inconclusive
    "known_wrong/shc/no_live_row_at_box_edge": lambda: L.check_shc(
        L.log_linear([2.0, 0.0]), NORMAL2_TRAP, 0.5),
    # refusals raised before any integral
    "raises/slsi/uncertified": lambda: L.check_slsi(
        L.raw_field(lambda pts: 1.0 + pts[:, 0] ** 2, 1, label="raw"), GAUSS1, 1.0),
    "raises/shc/empty_r_grid": lambda: L.check_shc(L.log_linear([0.8]), GAUSS1, 1.0, ()),
    "raises/general_shc/bad_pq": lambda: L.check_general_shc(
        L.log_linear([0.8]), GAUSS1, 1.0, 3.0, 1.5),
    # the monotonicity lemmas, which integrate nothing
    "lemma/spherical_monotone": lambda: L.check_spherical_monotonicity(
        L.exp_norm_sq(0.05, 2)),
    "lemma/radial_euler_scaling": lambda: L.check_radial_euler_scaling(
        L.exp_norm_sq(0.05, 2)),
    "lemma/radial_euler_scaling/not_invariant": lambda: L.check_radial_euler_scaling(
        L.log_linear([0.8, 0.0])),
    # best-constant searches: the sharp Gaussian constant on each path, the
    # sHC constants that differ from the sLSI ones (gen_exponential(2, 1)
    # and the mixture), and a member that fails to integrate
    "best_constant/slsi/gauss_hermite-1d": _search(L.default_battery(1), GAUSS1, "slsi"),
    "best_constant/slsi/gauss_hermite-2d": _search(L.default_battery(2), GAUSS2, "slsi"),
    "best_constant/shc/gauss_hermite-1d": _search(L.default_battery(1), GAUSS1, "shc"),
    "best_constant/shc/adaptive_1d": _search(L.default_battery(1), NORMAL1, "shc"),
    "best_constant/shc/gauss_hermite-2d": _search(L.default_battery(2), GAUSS2, "shc"),
    "best_constant/shc/gen_exponential_2_1": _search(
        L.default_battery(1), L.gen_exponential(2.0, 1.0, 1), "shc"),
    "best_constant/shc/mixture": _search(L.default_battery(1), MIXTURE, "shc"),
    "best_constant/slsi/laplace_raises": _search(L.default_battery(1), LAPLACE1, "slsi"),
    "best_constant/shc/laplace_raises": _search(L.default_battery(1), LAPLACE1, "shc"),
}


def outcome(run) -> dict:
    """A case's ledger entry, as JSON reads it back."""
    try:
        out = run()
    except LabError as exc:
        entry = {"raises": type(exc).__name__, "message": str(exc)}
    else:
        entry = {"c_star": out} if isinstance(out, float) else out.to_dict()
    return json.loads(json.dumps(entry))


def moved(old, new, path="") -> list[str]:
    """The paths at which ``new`` differs from ``old``: c*, flags, strings and
    integers exactly, other floats beyond REL_TOL relative."""
    if isinstance(old, dict) and isinstance(new, dict):
        out = [f"{path}/{key}" for key in sorted(set(old) ^ set(new))]
        for key in sorted(set(old) & set(new)):
            out += moved(old[key], new[key], f"{path}/{key}")
        return out
    if isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            return [f"{path} (length {len(old)} -> {len(new)})"]
        return [p for i, (a, b) in enumerate(zip(old, new)) for p in moved(a, b, f"{path}/{i}")]
    if (type(old) is float and type(new) is float and not path.endswith("c_star")
            and (old == new or (math.isnan(old) and math.isnan(new))
                 or abs(old - new) <= REL_TOL * max(abs(old), abs(new)))):
        return []
    return [] if type(old) is type(new) and old == new else [f"{path}: {old!r} -> {new!r}"]


def main():
    ledger = {case: outcome(run) for case, run in CASES.items()}
    LEDGER.write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(ledger)} entries to {LEDGER}")


if __name__ == "__main__":
    main()
