"""Declarative campaign runner.

A campaign is a single JSON document declaring measures, fields, a quadrature
block, and a list of checks referencing the declarations by name:

    {
      "seed": 7,
      "output_dir": "out",
      "quadrature": {"scheme": "auto", "nodes_per_axis": 101},
      "measures": {"g": {"family": "gaussian", "sigma": 1.0, "dim": 1}},
      "fields":   {"f": {"builder": "log_linear", "lam": [0.8]}},
      "checks":   [{"check": "slsi", "measure": "g", "fields": ["f"], "c": 1.0}]
    }

Composite measures nest ({"op": "mix", "first": {...}, "second": {...},
"t": 0.5}; ops: mix, product, convolve, shift) and fields compose the same
way ({"builder": "power", "base": {...}, "exponent": 2}).  ``scheme: "auto"``
resolves per target measure; the resolved spec is echoed in every report.

Outputs: report.json (all check reports; deterministic apart from the
``generated_at`` field), summary.txt, and one CSV of (r, alpha) rows per
strong-hypercontractivity check.  Exit status 0 iff every non-inconclusive
check passed.
"""

from __future__ import annotations

import csv
import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field as dc_field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import checks as checks_mod
from . import fields as fields_mod
from . import measures as measures_mod
from .errors import ConfigError, InvalidParameter, LabError
from .quadrature import SCHEMES, QuadratureSpec, default_spec

CHECK_KINDS = (
    "best_constant",
    "density_approx",
    "dilated_convolution_bound",
    "dilation_bound",
    "general_shc",
    "radial_euler_scaling",
    "shc",
    "slsi",
    "spherical_monotone",
)

MEASURE_OPS = ("mix", "product", "convolve", "shift")

FIELD_BUILDERS = (
    "constant",
    "cosh",
    "dilate",
    "exp_norm_sq",
    "log_linear",
    "modulus_holomorphic",
    "mollified",
    "power",
    "product",
    "squared_norm",
)

PRESETS = ("gaussian-sharp",)

ENV_OUTPUT_DIR = "LSHLAB_OUTPUT_DIR"


@dataclass
class CampaignConfig:
    seed: int = 0
    output_dir: str = ""
    quadrature: dict = dc_field(default_factory=lambda: {"scheme": "auto"})
    measures: dict = dc_field(default_factory=dict)
    fields: dict = dc_field(default_factory=dict)
    checks: list = dc_field(default_factory=list)

    @classmethod
    def from_dict(cls, raw: dict) -> "CampaignConfig":
        if not isinstance(raw, dict):
            raise ConfigError("campaign config must be a JSON object")
        unknown = set(raw) - {"seed", "output_dir", "quadrature", "measures", "fields", "checks"}
        if unknown:
            raise ConfigError(f"unknown top-level config keys: {sorted(unknown)}")
        cfg = cls(
            seed=int(raw.get("seed", 0)),
            output_dir=str(raw.get("output_dir", "")),
            quadrature=dict(raw.get("quadrature", {"scheme": "auto"})),
            measures=dict(raw.get("measures", {})),
            fields=dict(raw.get("fields", {})),
            checks=list(raw.get("checks", [])),
        )
        cfg.validate()
        return cfg

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "output_dir": self.output_dir,
            "quadrature": self.quadrature,
            "measures": self.measures,
            "fields": self.fields,
            "checks": self.checks,
        }

    def validate(self):
        scheme = self.quadrature.get("scheme", "auto")
        if scheme != "auto" and scheme not in SCHEMES:
            raise ConfigError(f"quadrature.scheme {scheme!r} is not one of {SCHEMES + ('auto',)}")
        for name, decl in self.measures.items():
            if not isinstance(decl, dict):
                raise ConfigError(f"measure {name!r} must be an object")
        for name, decl in self.fields.items():
            if not isinstance(decl, dict):
                raise ConfigError(f"field {name!r} must be an object")
        for idx, entry in enumerate(self.checks):
            kind = entry.get("check")
            if kind not in CHECK_KINDS:
                raise ConfigError(
                    f"checks[{idx}]: unknown check {kind!r}; choose from {CHECK_KINDS}"
                )
            measure = entry.get("measure")
            if kind not in ("spherical_monotone", "radial_euler_scaling"):
                if measure is None:
                    raise ConfigError(f"checks[{idx}] ({kind}): missing 'measure'")
                if measure not in self.measures:
                    raise ConfigError(
                        f"checks[{idx}] ({kind}): references undeclared measure {measure!r}"
                    )
            elif measure is not None and measure not in self.measures:
                raise ConfigError(
                    f"checks[{idx}] ({kind}): references undeclared measure {measure!r}"
                )
            for fname in entry.get("fields", []):
                if fname not in self.fields:
                    raise ConfigError(
                        f"checks[{idx}] ({kind}): references undeclared field {fname!r}"
                    )


def load_config(path) -> CampaignConfig:
    try:
        raw = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    return CampaignConfig.from_dict(raw)


def dump_config(config: CampaignConfig) -> str:
    return json.dumps(config.to_dict(), indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# declaration builders
# ---------------------------------------------------------------------------

def build_measure(decl: dict) -> measures_mod.Density:
    if "family" in decl:
        params = {k: v for k, v in decl.items() if k not in ("family", "dim")}
        return measures_mod.make_builtin(decl["family"], params, int(decl.get("dim", 1)))
    op = decl.get("op")
    if op == "mix":
        return measures_mod.mix(
            build_measure(decl["first"]), build_measure(decl["second"]), float(decl["t"])
        )
    if op == "product":
        return measures_mod.product(build_measure(decl["first"]), build_measure(decl["second"]))
    if op == "convolve":
        return measures_mod.convolve_measures(
            build_measure(decl["first"]), build_measure(decl["second"])
        )
    if op == "shift":
        return measures_mod.shift(build_measure(decl["base"]), decl["offset"])
    raise ConfigError(f"measure declaration needs 'family' or 'op' in {MEASURE_OPS}: {decl}")


def build_field(decl: dict) -> fields_mod.ScalarField:
    builder = decl.get("builder")
    if builder == "log_linear":
        return fields_mod.log_linear(decl["lam"])
    if builder == "constant":
        return fields_mod.constant(float(decl["value"]), int(decl.get("dim", 1)))
    if builder == "cosh":
        return fields_mod.cosh_field(float(decl["lam"]))
    if builder == "power":
        return fields_mod.power(build_field(decl["base"]), float(decl["exponent"]))
    if builder == "product":
        return fields_mod.product_field(build_field(decl["first"]), build_field(decl["second"]))
    if builder == "dilate":
        return fields_mod.dilate(build_field(decl["base"]), float(decl["r"]))
    if builder == "mollified":
        base = build_field(decl["base"])
        return fields_mod.convolve(base, fields_mod.mollifier(base.dim, int(decl.get("k", 4))))
    if builder == "modulus_holomorphic":
        coeffs = [complex(re, im) for re, im in decl["coeffs"]]
        return fields_mod.modulus_holomorphic(coeffs)
    if builder == "exp_norm_sq":
        return fields_mod.exp_norm_sq(float(decl["lam"]), int(decl.get("dim", 1)))
    if builder == "squared_norm":
        return fields_mod.squared_norm(int(decl.get("dim", 1)))
    raise ConfigError(f"unknown field builder {builder!r}; choose from {FIELD_BUILDERS}")


def resolve_spec(block: dict, mu, seed: int) -> QuadratureSpec:
    kwargs = {k: v for k, v in block.items() if k != "scheme"}
    kwargs.setdefault("seed", seed)
    scheme = block.get("scheme", "auto")
    if scheme == "auto":
        if mu is None:
            raise ConfigError("auto quadrature needs a target measure")
        return default_spec(mu, **kwargs)
    return QuadratureSpec(scheme=scheme, **kwargs)


# ---------------------------------------------------------------------------
# campaign execution
# ---------------------------------------------------------------------------

def _check_jobs(config: CampaignConfig):
    """Materialize one thunk per (check entry, field) pair."""
    measures = {name: build_measure(decl) for name, decl in config.measures.items()}
    fields = {name: build_field(decl) for name, decl in config.fields.items()}
    jobs = []
    for idx, entry in enumerate(config.checks):
        kind = entry["check"]
        mu = measures.get(entry.get("measure"))
        spec = resolve_spec(config.quadrature, mu, config.seed) if mu is not None else None
        fnames = entry.get("fields", [])

        if kind == "best_constant":
            check_id = f"{idx:03d}-best_constant-{entry.get('measure')}"
            battery = [fields[n] for n in fnames] or checks_mod.default_battery(mu.dim)

            def job(mu=mu, battery=battery, entry=entry, spec=spec, check_id=check_id):
                c_star = checks_mod.best_constant(
                    battery, mu,
                    mode=entry.get("mode", "slsi"),
                    c_range=(entry.get("c_min", 0.25), entry.get("c_max", 4.0)),
                    spec=spec,
                    r_grid=entry.get("r_grid", list(checks_mod.DEFAULT_R_GRID)),
                )
                return checks_mod.CheckReport(
                    check_id=check_id, kind="best_constant",
                    inputs={"measure": mu.label, "mode": entry.get("mode", "slsi"),
                            "battery": [f.label for f in battery]},
                    quantities={"c_star": c_star},
                    tolerance=checks_mod.BISECTION_RESOLUTION,
                    passed=True, spec=spec.to_dict(),
                )

            jobs.append((check_id, job))
            continue

        for fname in fnames:
            f = fields[fname]
            check_id = f"{idx:03d}-{kind}-{entry.get('measure', 'nomeasure')}-{fname}"

            def job(kind=kind, f=f, mu=mu, entry=entry, spec=spec, check_id=check_id):
                if kind == "slsi":
                    return checks_mod.check_slsi(f, mu, float(entry["c"]), spec, check_id)
                if kind == "shc":
                    r_grid = entry.get("r_grid", list(checks_mod.DEFAULT_R_GRID))
                    return checks_mod.check_shc(f, mu, float(entry["c"]), r_grid, spec, check_id)
                if kind == "general_shc":
                    return checks_mod.check_general_shc(
                        f, mu, float(entry["c"]), float(entry["p"]), float(entry["q"]),
                        spec, check_id)
                if kind == "dilation_bound":
                    return checks_mod.check_dilation_bound(
                        f, mu, float(entry["p"]), float(entry["r"]), spec, check_id)
                if kind == "dilated_convolution_bound":
                    phi = fields_mod.mollifier(mu.dim, int(entry.get("k", 4)))
                    return checks_mod.check_dilated_convolution_bound(
                        f, mu, float(entry["p"]), phi, float(entry["r"]), spec, check_id)
                if kind == "density_approx":
                    return checks_mod.check_density_approximation(
                        f, mu, float(entry.get("p", 1.0)),
                        entry.get("k_list", [1, 2, 4, 8, 16]),
                        entry.get("r_list", [0.9, 0.95, 0.99]),
                        spec, entry.get("eps_target"), check_id)
                if kind == "spherical_monotone":
                    return checks_mod.check_spherical_monotonicity(
                        f, tol=float(entry.get("tol", 1e-7)), check_id=check_id)
                if kind == "radial_euler_scaling":
                    return checks_mod.check_radial_euler_scaling(
                        f, tol=float(entry.get("tol", 1e-7)), check_id=check_id)
                raise ConfigError(f"unhandled check kind {kind!r}")

            jobs.append((check_id, job))
    return jobs


def run_campaign(config: CampaignConfig, jobs: int = 1):
    """Run every declared check; returns (reports, summary dict, exit code)."""
    thunks = _check_jobs(config)

    def _run(item):
        check_id, thunk = item
        try:
            return thunk()
        except LabError as exc:
            return checks_mod.CheckReport(
                check_id=check_id, kind="error", inputs={}, quantities={},
                tolerance=float("nan"), passed=False, inconclusive=True,
                notes=[f"inconclusive: {exc}"],
            )

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            reports = list(pool.map(_run, thunks))
    else:
        reports = [_run(item) for item in thunks]
    reports.sort(key=lambda rep: rep.check_id)

    summary = {
        "total": len(reports),
        "passed": sum(1 for r in reports if r.passed and not r.inconclusive),
        "failed": sum(1 for r in reports if not r.passed and not r.inconclusive),
        "inconclusive": sum(1 for r in reports if r.inconclusive),
    }
    exit_code = 0 if summary["failed"] == 0 else 1
    return reports, summary, exit_code


def _headline(rep: checks_mod.CheckReport) -> str:
    q = rep.quantities
    for key in ("deficit", "slack", "best_error", "c_star", "violation_count"):
        if key in q:
            val = q[key]
            return f"{key}={val:.6g}" if isinstance(val, float) else f"{key}={val}"
    return ""


def write_outputs(config: CampaignConfig, reports, summary, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    payload = {
        "campaign": config.to_dict(),
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "checks": [rep.to_dict() for rep in reports],
        "summary": summary,
    }
    (out_dir / "report.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    lines = [f"{'check_id':40s} {'kind':28s} {'status':13s} headline"]
    for rep in reports:
        status = "INCONCLUSIVE" if rep.inconclusive else ("PASS" if rep.passed else "FAIL")
        lines.append(f"{rep.check_id:40s} {rep.kind:28s} {status:13s} {_headline(rep)}")
    lines.append(
        f"total={summary['total']} passed={summary['passed']} "
        f"failed={summary['failed']} inconclusive={summary['inconclusive']}"
    )
    (out_dir / "summary.txt").write_text("\n".join(lines) + "\n")

    for rep in reports:
        if rep.kind != "shc" or rep.inconclusive:
            continue
        with open(out_dir / f"{rep.check_id}.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["check_id", "r", "alpha", "q_of_r", "deficit"])
            for row in rep.quantities.get("rows", []):
                if row.get("skipped"):
                    continue
                writer.writerow(
                    [rep.check_id, row["r"], row["alpha"], row["q_of_r"], row["deficit"]]
                )


def default_output_dir(config: CampaignConfig) -> Path:
    if config.output_dir:
        return Path(config.output_dir)
    return Path(os.environ.get(ENV_OUTPUT_DIR, "campaign_out"))


def run(config_or_path, output_dir=None, jobs: int = 1) -> int:
    """Load, execute, and write a campaign; returns the process exit status."""
    if isinstance(config_or_path, CampaignConfig):
        config = config_or_path
    elif str(config_or_path) in PRESETS:
        config = preset(str(config_or_path))
    else:
        config = load_config(config_or_path)
    reports, summary, exit_code = run_campaign(config, jobs=jobs)
    out_dir = Path(output_dir) if output_dir else default_output_dir(config)
    write_outputs(config, reports, summary, out_dir)
    return exit_code


def preset(name: str) -> CampaignConfig:
    """Shipped campaigns; "gaussian-sharp" reproduces the sharp-constant
    equality battery on the standard Gaussian."""
    if name == "gaussian-sharp":
        lam_fields = {
            f"exp{int(10 * lam):02d}": {"builder": "log_linear", "lam": [lam]}
            for lam in (0.4, 0.8, 1.2)
        }
        names = sorted(lam_fields)
        return CampaignConfig.from_dict(
            {
                "seed": 7,
                "output_dir": "",
                "quadrature": {"scheme": "gauss_hermite", "nodes_per_axis": 101},
                "measures": {"gauss1": {"family": "gaussian", "sigma": 1.0, "dim": 1}},
                "fields": lam_fields,
                "checks": [
                    {"check": "slsi", "measure": "gauss1", "fields": names, "c": 1.0},
                    {"check": "shc", "measure": "gauss1", "fields": names, "c": 1.0},
                ],
            }
        )
    raise ConfigError(f"unknown preset {name!r}; presets: {PRESETS}")
