"""Workloads of the lshlab benchmark.

Each workload draws its inputs from the workload seed, builds its measures,
fields and config (set-up), runs its timed operations, and then checks every
output against an expectation that comes from a closed form or a theorem,
never from an earlier run.

Closed forms used (f = e^{lam.x}, s2 = |lam|^2 sigma^2):

* On any Gaussian N(0, sigma^2 I) -- ``gaussian``, ``gen_exponential(1/(2
  sigma^2), 2)`` and ``convolve_measures`` of Gaussians, variances summed --
  ||f||_p = e^{p s2/2}, int Ef dmu = s2 ||f||_1 and Ent(f) = int Ef dmu / 2.
  So sLSI passes iff c >= 1, alpha(r) = e^{s2 r^(2-2/c)/2} (constant at
  c = 1), sHC fails for c < 1, and ``best_constant`` returns 1.000.
* On the Laplace measure ``gen_exponential(1, 1)`` with |lam| < 1:
  ||f||_1 = 1/(1-lam^2), int Ef dmu = 2 lam^2/(1-lam^2)^2 and
  Ent = int Ef dmu - ||f||_1 ln ||f||_1, so sLSI at c = 1 FAILS.
* Operator bounds are theorems: their verdict is PASS.  For the
  dilated-convolution bound with the 1-D bump phi of support radius s,
  (f * phi)(x) = e^{lam x} M(lam s) with M(a) = int e^{a u} b(u) du /
  int b(u) du, b(u) = e^{-1/(1-u^2)} on (-1, 1), so its lhs
  ||(f * phi)_r||_1 is M(lam s) ||e^{lam r x}||_1.
* The mollified field has no closed form; sLSI at c = 1 holds for every
  log-subharmonic field on a Gaussian, so its verdict is PASS.

This module imports only the standard library at load time, so that a pass
process can time ``import lshlab`` as part of its set-up.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def gauss_norm(s2: float, p: float = 1.0) -> float:
    """||e^{lam.x}||_p on N(0, sigma^2 I), with s2 = |lam|^2 sigma^2."""
    return math.exp(p * s2 / 2.0)


def gauss_slsi(s2: float, c: float) -> dict:
    ee = s2 * gauss_norm(s2)
    ent = ee / 2.0
    return {"entropy": ent, "euler_energy": ee, "deficit": c / 2.0 * ee - ent}


def gauss_alpha(s2: float, c: float, r: float) -> float:
    """alpha(r) = ||f_r||_{q(r)} with q(r) = r^(-2/c)."""
    return math.exp(s2 * r ** (2.0 - 2.0 / c) / 2.0)


def laplace_slsi(lam: float, c: float) -> dict:
    norm = 1.0 / (1.0 - lam * lam)
    ee = 2.0 * lam * lam / (1.0 - lam * lam) ** 2
    ent = ee - norm * math.log(norm)
    return {"entropy": ent, "euler_energy": ee, "deficit": c / 2.0 * ee - ent}


def bump_mgf(a: float, n: int = 4000) -> float:
    """M(a) = int e^{a u} b(u) du / int b(u) du for the bump b(u) = e^{-1/(1-u^2)}.

    The trapezoid rule on (-1, 1): b and all its derivatives vanish at the
    ends, so it converges faster than any power of 1/n.
    """
    h = 2.0 / n
    num = den = 0.0
    for i in range(1, n):
        u = -1.0 + i * h
        b = math.exp(-1.0 / (1.0 - u * u))
        num += b * math.exp(a * u)
        den += b
    return num / den


def mixture_norm(lam: float, sigmas: tuple, t: float, p: float = 1.0) -> float:
    """||e^{lam x}||_p on (1 - t) N(0, sa^2) + t N(0, sb^2)."""
    sa, sb = sigmas
    mass = (1.0 - t) * gauss_norm(lam * lam * sa * sa, p * p) + t * gauss_norm(
        lam * lam * sb * sb, p * p
    )
    return mass ** (1.0 / p)


# ---------------------------------------------------------------------------
# expectations and their verification
# ---------------------------------------------------------------------------

@dataclass
class Expect:
    """Expected outcome of one check report.

    ``verdict`` is "PASS" or "FAIL"; every operation here has a closed form
    or a theorem behind it, so none is left at "any conclusive verdict".
    ``values`` maps a path into ``report.quantities`` -- a key, or
    ("rows", index, key) -- to its closed-form value.  ``defect`` names the
    known defect an operation exercises; such operations run outside the
    timed region.
    """

    verdict: str
    values: dict = field(default_factory=dict)
    defect: Optional[str] = None


def _tolerance(rep, path, want) -> float:
    """The check's own reported tolerance for one quantity, as an absolute error."""
    q = rep.quantities
    if rep.kind == "shc":
        rows = [q["rows"][path[1]]] if path[0] == "rows" else [
            row for row in q["rows"] if not row["skipped"]
        ]
        return min(row["tol_rel"] for row in rows) * q["norm1"]
    if rep.kind == "general_shc":
        return rep.tolerance * abs(want)
    return rep.tolerance


def verify_report(rep, expect: Expect) -> Optional[str]:
    """None if ``rep`` matches ``expect``, else what is wrong with it."""
    if rep.inconclusive:
        return "; ".join(rep.notes) or "inconclusive"
    got_verdict = "PASS" if rep.passed else "FAIL"
    if got_verdict != expect.verdict:
        return f"verdict {got_verdict}, expected {expect.verdict}"
    for path, want in expect.values.items():
        path = path if isinstance(path, tuple) else (path,)
        try:
            got = rep.quantities[path[0]]
            for key in path[1:]:
                got = got[key]
            got = float(got)
        except (KeyError, IndexError, TypeError, ValueError):
            return f"quantity {'.'.join(map(str, path))} missing"
        tol = _tolerance(rep, path, want)
        if not abs(got - want) <= tol:
            return (f"{'.'.join(map(str, path))} = {got!r}, closed form {want!r}, "
                    f"tolerance {tol:.3g}")
    return None


def op_result(name: str, problem: Optional[str], defect: Optional[str] = None,
              inconclusive: bool = False) -> dict:
    return {"name": name, "ok": problem is None, "detail": problem or "", "defect": defect,
            "inconclusive": bool(inconclusive)}


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Workload:
    name = ""
    jobs = 1

    def inputs(self, seed: int) -> dict:
        raise NotImplementedError

    def setup(self, L, inputs: dict, workdir: Path) -> dict:
        raise NotImplementedError

    def run(self, L, state: dict, jobs: int):
        raise NotImplementedError

    def verify(self, L, inputs: dict, state: dict, out) -> list:
        raise NotImplementedError

    def defects(self, L, inputs: dict, state: dict) -> list:
        return []


class BestcGauss2d(Workload):
    name = "bestc-gauss2d"

    def inputs(self, seed):
        rng = random.Random(seed)
        return {"lams": sorted(rng.uniform(0.3, 1.2) for _ in range(3))}

    def setup(self, L, inputs, workdir):
        return {
            "mu": L.gaussian(1.0, 2),
            "battery": L.default_battery(2, lam_values=inputs["lams"]),
        }

    def run(self, L, state, jobs):
        return L.best_constant(state["battery"], state["mu"], mode="slsi")

    def verify(self, L, inputs, state, out):
        rep = L.CheckReport(
            check_id="best_constant", kind="best_constant", inputs={},
            quantities={"c_star": out}, tolerance=L.checks.BISECTION_RESOLUTION,
            passed=True,
        )
        problem = verify_report(rep, Expect("PASS", {"c_star": 1.0}))
        return [op_result("best_constant(default_battery(2), gaussian(1, 2), slsi)", problem)]


class ApproxGauss2d(Workload):
    """Density approximation on a 3 x 2 subgrid of the default (k, r) grid:
    mollifier scales k = 1, 4, 16 (the default's ends and middle) and
    dilations r = 0.9, 0.99.  That is six distinct mollified, dilated fields
    instead of fifteen, so that three fresh-process passes fit in one run."""

    name = "approx-gauss2d"
    k_list = (1, 4, 16)
    r_list = (0.9, 0.99)

    def inputs(self, seed):
        # PASS holds across this range (measured from 0.1 to 0.5)
        return {"lam": random.Random(seed).uniform(0.15, 0.45)}

    def setup(self, L, inputs, workdir):
        return {"mu": L.gaussian(1.0, 2), "f": L.log_linear([inputs["lam"], 0.0])}

    def run(self, L, state, jobs):
        return L.check_density_approximation(state["f"], state["mu"], p=1, k_list=self.k_list,
                                            r_list=self.r_list)

    def verify(self, L, inputs, state, out):
        lam = inputs["lam"]
        problem = verify_report(out, Expect("PASS", {"norm_p": gauss_norm(lam * lam)}))
        name = (f"check_density_approximation(log_linear([lam, 0]), gaussian(1, 2), "
                f"k_list={list(self.k_list)}, r_list={list(self.r_list)})")
        return [op_result(name, problem, inconclusive=out.inconclusive)]


DEFECT_2A = "linear-space Euler integrand overflows (inf/inf) on the adaptive path"
DEFECT_2B = "mollified field overflows exp on the adaptive path"
DEFECT_FLOOR = ("convolve_measures log-density floored at -750 outside its grid, "
                "so e^{lam x} diverges on the adaptive path")


class Campaign1d(Workload):
    """A 1-D campaign run as ``lshlab run`` runs it.

    The campaign is one declaration of measures, fields and checks.  Its
    known-defect checks are split off into a second config that runs after
    the timed region, so fixing a defect lowers the failure count without
    showing up as a slower pass.
    """

    name = "campaign-1d"
    jobs = 2

    def inputs(self, seed):
        rng = random.Random(seed)
        u = lambda lo, hi: rng.uniform(lo, hi)
        # one lam from each third of (0.3, 1.2), in random order: adaptive
        # quadrature work grows with lam sigma, so stratifying lam and keeping
        # sigma near 1 keeps the work of a pass nearly the same across seeds
        lams = [u(0.3, 0.6), u(0.6, 0.9), u(0.9, 1.2)]
        rng.shuffle(lams)
        return {
            "sigma": u(0.95, 1.05),
            "lams": lams,
            "mix_sigmas": [u(0.8, 1.25), u(0.8, 1.25)],
            "mix_t": u(0.2, 0.5),
            "r": u(0.6, 0.9),
            "conv_sigmas": [u(0.8, 1.25), u(0.8, 1.25)],
            # around 0.8; above about 0.51, e^{lam x} overflows at points where the
            # Laplace density has not yet cut the integrand off
            "laplace_lam": u(0.7, 0.9),
            # the field of the mollifier and convolve_measures defects; below
            # about 0.4 some of those operations come out right at this commit
            "defect_lam": u(0.6, 1.2),
            "seed": seed,
        }

    def campaign(self, inputs):
        """(declaration, [(check entry, {field: Expect})]) of the whole campaign."""
        sigma, lams, r = inputs["sigma"], inputs["lams"], inputs["r"]
        sa, sb = inputs["mix_sigmas"]
        t = inputs["mix_t"]
        s1, s2 = inputs["conv_sigmas"]
        lam_l, lam_d = inputs["laplace_lam"], inputs["defect_lam"]
        gauss = lambda s: {"family": "gaussian", "sigma": s, "dim": 1}
        decl = {
            "seed": inputs["seed"],
            "quadrature": {"scheme": "auto"},
            "measures": {
                "gen_gauss": {"family": "gen_exponential", "c": 1.0 / (2.0 * sigma * sigma),
                              "a": 2.0, "dim": 1},
                "gauss": gauss(sigma),
                "mixture": {"op": "mix", "first": gauss(sa), "second": gauss(sb), "t": t},
                "conv": {"op": "convolve", "first": gauss(s1), "second": gauss(s2)},
                "laplace": {"family": "gen_exponential", "c": 1.0, "a": 1.0, "dim": 1},
            },
            "fields": {
                **{f"f{i}": {"builder": "log_linear", "lam": [lam]} for i, lam in enumerate(lams)},
                "fd": {"builder": "log_linear", "lam": [lam_d]},
                "moll": {"builder": "mollified",
                         "base": {"builder": "log_linear", "lam": [lam_d]}, "k": 4},
                "lap": {"builder": "log_linear", "lam": [lam_l]},
            },
        }
        fs = [f"f{i}" for i in range(len(lams))]
        s2_of = {f: lams[i] ** 2 * sigma ** 2 for i, f in enumerate(fs)}
        conv_s2 = lam_d ** 2 * (s1 * s1 + s2 * s2)
        shc_rows = lambda f, c: {("rows", i, "alpha"): gauss_alpha(s2_of[f], c, rr)
                                 for i, rr in enumerate((0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 1.0))}
        r_star = math.sqrt(0.5)
        gshc_rows = lambda f: {("rows", i, "lhs"): gauss_norm(s2_of[f] * rr * rr, 2.0)
                               for i, rr in enumerate((r_star, 0.9 * r_star, 0.75 * r_star))}
        mix_norm = lambda lam, rr: mixture_norm(lam * rr, (sa, sb), t)
        # the campaign's mollifier is fields.mollifier(1, k): support radius 1/k
        k = 4
        smooth = bump_mgf(lam_d / k)
        checks = [
            ({"check": "slsi", "measure": "gen_gauss", "fields": fs, "c": 1.0},
             {f: Expect("PASS", gauss_slsi(s2_of[f], 1.0)) for f in fs}),
            ({"check": "shc", "measure": "gen_gauss", "fields": fs, "c": 1.0},
             {f: Expect("PASS", {"norm1": gauss_norm(s2_of[f]), **shc_rows(f, 1.0)}) for f in fs}),
            ({"check": "general_shc", "measure": "gen_gauss", "fields": fs, "c": 1.0,
              "p": 1.0, "q": 2.0},
             {f: Expect("PASS", {"norm_p": gauss_norm(s2_of[f]), **gshc_rows(f)}) for f in fs}),
            ({"check": "slsi", "measure": "gauss", "fields": fs, "c": 1.0},
             {f: Expect("PASS", gauss_slsi(s2_of[f], 1.0)) for f in fs}),
            ({"check": "shc", "measure": "gauss", "fields": fs, "c": 1.0},
             {f: Expect("PASS", {"norm1": gauss_norm(s2_of[f]), **shc_rows(f, 1.0)}) for f in fs}),
            ({"check": "shc", "measure": "gauss", "fields": ["f0"], "c": 0.9},
             {"f0": Expect("FAIL", {"norm1": gauss_norm(s2_of["f0"]), **shc_rows("f0", 0.9)})}),
            ({"check": "dilation_bound", "measure": "mixture", "fields": fs, "p": 1.0, "r": r},
             {f: Expect("PASS", {"norm_p": mix_norm(lams[i], 1.0), "lhs": mix_norm(lams[i], r)})
              for i, f in enumerate(fs)}),
            ({"check": "best_constant", "measure": "gen_gauss", "fields": fs, "mode": "shc"},
             {None: Expect("PASS", {"c_star": 1.0})}),
            # known defects
            ({"check": "slsi", "measure": "laplace", "fields": ["lap"], "c": 1.0},
             {"lap": Expect("FAIL", laplace_slsi(lam_l, 1.0), DEFECT_2A)}),
            ({"check": "slsi", "measure": "gen_gauss", "fields": ["moll"], "c": 1.0},
             {"moll": Expect("PASS", {}, DEFECT_2B)}),
            ({"check": "dilated_convolution_bound", "measure": "mixture", "fields": ["fd"],
              "p": 1.0, "r": r, "k": k},
             {"fd": Expect("PASS", {"lhs": smooth * mix_norm(lam_d, r)}, DEFECT_2B)}),
            ({"check": "slsi", "measure": "conv", "fields": ["fd"], "c": 1.0},
             {"fd": Expect("PASS", gauss_slsi(conv_s2, 1.0), DEFECT_FLOOR)}),
            ({"check": "dilation_bound", "measure": "conv", "fields": ["fd"], "p": 1.0, "r": r},
             {"fd": Expect("PASS", {"norm_p": gauss_norm(conv_s2),
                                    "lhs": gauss_norm(conv_s2 * r * r)}, DEFECT_FLOOR)}),
            ({"check": "dilated_convolution_bound", "measure": "conv", "fields": ["fd"],
              "p": 1.0, "r": r, "k": k},
             {"fd": Expect("PASS", {"lhs": smooth * gauss_norm(conv_s2 * r * r)},
                           DEFECT_FLOOR)}),
        ]
        return decl, checks

    def _split(self, inputs):
        """The timed config, the known-defect config and their expectations by check id."""
        decl, checks = self.campaign(inputs)
        out = []
        for defect in (False, True):
            entries = [(e, x) for e, x in checks
                       if any(ex.defect for ex in x.values()) == defect]
            expects = {}
            for idx, (entry, per_field) in enumerate(entries):
                for fname, ex in per_field.items():
                    # check ids as campaign.run_campaign writes them
                    if fname is None:
                        cid = f"{idx:03d}-{entry['check']}-{entry['measure']}"
                    else:
                        cid = f"{idx:03d}-{entry['check']}-{entry['measure']}-{fname}"
                    expects[cid] = ex
            out.append(({**decl, "checks": [e for e, _ in entries]}, expects))
        return out

    def setup(self, L, inputs, workdir):
        (timed, expects), (defects, defect_expects) = self._split(inputs)
        path = workdir / "campaign-1d.json"
        path.write_text(json.dumps(timed, indent=2) + "\n")
        config = L.campaign.load_config(path)
        # what a campaign builds before its first check: densities (normalisation,
        # FFT convolution cache) and fields.  run_campaign takes the config, not
        # built objects, and builds them again inside the timed pass, so set-up
        # times a build of its own and wall_s holds a second one.
        for decl in config.measures.values():
            L.campaign.build_measure(decl)
        for decl in config.fields.values():
            L.campaign.build_field(decl)
        return {"config": config, "expects": expects,
                "defects": defects, "defect_expects": defect_expects,
                "out_dir": workdir / "out"}

    def run(self, L, state, jobs):
        config = state["config"]
        reports, summary, code = L.campaign.run_campaign(config, jobs=jobs)
        L.campaign.write_outputs(config, reports, summary, state["out_dir"])
        return reports, summary, code

    def _check_reports(self, reports, expects):
        ops = []
        seen = set()
        for rep in reports:
            ex = expects.get(rep.check_id)
            if ex is None:
                ops.append(op_result(rep.check_id, "no expectation for this check id"))
                continue
            seen.add(rep.check_id)
            ops.append(op_result(rep.check_id, verify_report(rep, ex), ex.defect,
                                 rep.inconclusive))
        for cid in sorted(set(expects) - seen):
            ops.append(op_result(cid, "check missing from the campaign output",
                                 expects[cid].defect))
        return ops

    def verify(self, L, inputs, state, out):
        reports, summary, code = out
        ops = self._check_reports(reports, state["expects"])
        # the sHC check at c = 0.9 fails, so the campaign exits 1
        problems = []
        if code != 1:
            problems.append(f"exit status {code}, expected 1")
        out_dir = state["out_dir"]
        try:
            payload = json.loads((out_dir / "report.json").read_text())
            if payload["summary"] != summary or len(payload["checks"]) != len(reports):
                problems.append("report.json disagrees with the returned reports")
            lines = (out_dir / "summary.txt").read_text().splitlines()
            if len(lines) != len(reports) + 2:
                problems.append(f"summary.txt has {len(lines)} lines")
            for rep in reports:
                if rep.kind == "shc" and not (out_dir / f"{rep.check_id}.csv").is_file():
                    problems.append(f"{rep.check_id}.csv missing")
        except (OSError, ValueError, KeyError) as exc:
            problems.append(f"outputs unreadable: {exc}")
        ops.append(op_result("write_outputs", "; ".join(problems) or None))
        return ops

    def defects(self, L, inputs, state):
        config = L.campaign.CampaignConfig.from_dict(state["defects"])
        reports, _, _ = L.campaign.run_campaign(config, jobs=1)
        return self._check_reports(reports, state["defect_expects"])


WORKLOADS = {w.name: w for w in (BestcGauss2d(), ApproxGauss2d(), Campaign1d())}
