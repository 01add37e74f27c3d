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
Check kinds live in one table, ``CHECKS``: validation, the run, ``lshlab
check`` and ``lshlab list`` all read each kind's call and entry keys from it.
Every config object refuses a key it does not read; no key sets a tolerance.

Outputs: report.json (all check reports; deterministic apart from the
``generated_at`` field), summary.txt, and one CSV of (r, alpha) rows per
strong-hypercontractivity check.  Exit status 0 iff every non-inconclusive
check passed.
"""

from __future__ import annotations

import csv
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field as dc_field, fields as dc_fields
from datetime import datetime, timezone
from functools import partial
from pathlib import Path
from typing import Callable

from . import checks as checks_mod
from . import fields as fields_mod
from . import measures as measures_mod
from .errors import ConfigError, InvalidParameter, LabError
from .quadrature import SCHEMES, QuadratureSpec, default_spec, is_count

# ---------------------------------------------------------------------------
# check kinds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckKind:
    """How a check entry runs, and which entry keys it reads.

    ``row(target, mu, spec, entry, check_id)`` fills the entry's missing
    ``defaults`` and calls ``run`` with it.  ``target`` is one field, or the
    entry's list of fields for an ``over_battery`` kind, which runs once per
    entry; ``best_constant`` builds the default battery for an empty list when
    it runs, so a battery that cannot be built fails that entry alone.
    """

    run: Callable
    required: tuple = ()
    defaults: dict = dc_field(default_factory=dict)
    needs_measure: bool = True
    over_battery: bool = False

    def __call__(self, target, mu, spec, entry: dict, check_id: str):
        return self.run(target, mu, spec, {**self.defaults, **entry}, check_id)


def _best_constant(battery, mu, spec, e, check_id):
    battery = battery or checks_mod.default_battery(mu.dim)

    def body(spec):
        c_star = checks_mod.best_constant(
            battery, mu, mode=e["mode"], c_range=(e["c_min"], e["c_max"]), spec=spec,
            r_grid=e["r_grid"],
        )
        return {"c_star": c_star}, checks_mod.BISECTION_RESOLUTION, True

    inputs = {"measure": mu.label, "mode": e["mode"], "battery": [f.label for f in battery]}
    return checks_mod._report(check_id, "best_constant", inputs, mu, spec, body)


#: every campaign check kind; ``lshlab check`` runs the same rows
CHECKS = {
    "best_constant": CheckKind(
        _best_constant, over_battery=True,
        defaults={"mode": "slsi", "c_min": checks_mod.DEFAULT_C_RANGE[0],
                  "c_max": checks_mod.DEFAULT_C_RANGE[1],
                  "r_grid": list(checks_mod.DEFAULT_R_GRID)}),
    "density_approx": CheckKind(
        lambda f, mu, spec, e, cid: checks_mod.check_density_approximation(
            f, mu, float(e["p"]), e["k_list"], e["r_list"], spec, cid),
        defaults={"p": 1.0, "k_list": list(checks_mod.APPROX_K_LIST),
                  "r_list": list(checks_mod.APPROX_R_LIST)}),
    "dilated_convolution_bound": CheckKind(
        lambda f, mu, spec, e, cid: checks_mod.check_dilated_convolution_bound(
            f, mu, float(e["p"]), fields_mod.mollifier(mu.dim, e["k"]), float(e["r"]),
            spec, cid),
        required=("p", "r"), defaults={"k": checks_mod.DEFAULT_MOLLIFIER_SCALE}),
    "dilation_bound": CheckKind(
        lambda f, mu, spec, e, cid: checks_mod.check_dilation_bound(
            f, mu, float(e["p"]), float(e["r"]), spec, cid),
        required=("p", "r")),
    "general_shc": CheckKind(
        lambda f, mu, spec, e, cid: checks_mod.check_general_shc(
            f, mu, float(e["c"]), float(e["p"]), float(e["q"]), spec, cid),
        required=("c", "p", "q")),
    "radial_euler_scaling": CheckKind(
        lambda f, mu, spec, e, cid: checks_mod.check_radial_euler_scaling(f, cid),
        needs_measure=False),
    "shc": CheckKind(
        lambda f, mu, spec, e, cid: checks_mod.check_shc(
            f, mu, float(e["c"]), e["r_grid"], spec, cid),
        required=("c",), defaults={"r_grid": list(checks_mod.DEFAULT_R_GRID)}),
    "slsi": CheckKind(
        lambda f, mu, spec, e, cid: checks_mod.check_slsi(f, mu, float(e["c"]), spec, cid),
        required=("c",)),
    "spherical_monotone": CheckKind(
        lambda f, mu, spec, e, cid: checks_mod.check_spherical_monotonicity(f, cid),
        needs_measure=False),
}
CHECK_KINDS = tuple(sorted(CHECKS))


PRESETS = ("gaussian-sharp",)

ENV_OUTPUT_DIR = "LSHLAB_OUTPUT_DIR"

#: the top-level sections of a config and the JSON type of each
_SECTIONS = {"quadrature": dict, "measures": dict, "fields": dict, "checks": list}


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
        unknown = set(raw) - {f.name for f in dc_fields(cls)}
        if unknown:
            raise ConfigError(f"unknown top-level config keys: {sorted(unknown)}")
        for key, kind in _SECTIONS.items():
            if key in raw and not isinstance(raw[key], kind):
                what = "an object" if kind is dict else "a list"
                raise ConfigError(f"{key!r} must be {what}, got {raw[key]!r}")
        # no integral reads the seed, every rule being deterministic; it is
        # recorded in report.json's campaign block
        seed = raw.get("seed", 0)
        # JSON's true is an int to Python; neither it, 1.5 nor "7" is a seed
        if not is_count(seed, 0):
            raise ConfigError(f"seed must be an integer >= 0, got {seed!r}")
        # null, like "", means the default output directory
        output_dir = raw.get("output_dir") or ""
        if not isinstance(output_dir, str):
            raise ConfigError(f"'output_dir' must be a string, got {output_dir!r}")
        cfg = cls(seed=int(seed), output_dir=output_dir,
                  **{key: kind(raw[key]) for key, kind in _SECTIONS.items() if key in raw})
        cfg.validate()
        return cfg

    def to_dict(self) -> dict:
        return dict(vars(self))

    def validate(self):
        scheme = self.quadrature.get("scheme", "auto")
        if scheme != "auto" and scheme not in SCHEMES:
            raise ConfigError(f"quadrature.scheme {scheme!r} is not one of {SCHEMES + ('auto',)}")
        for section, decls in (("measure", self.measures), ("field", self.fields)):
            for name, decl in decls.items():
                # a name is part of output file names, so it may not leave the directory
                if any(sep in str(name) for sep in ("/", "\\", "\0")):
                    raise ConfigError(f"{section} name {name!r} contains '/', '\\' or NUL")
                if not isinstance(decl, dict):
                    raise ConfigError(f"{section} {name!r} must be an object")
        for idx, entry in enumerate(self.checks):
            if not isinstance(entry, dict):
                raise ConfigError(f"checks[{idx}] must be an object, got {entry!r}")
            kind = entry.get("check")
            if kind not in CHECK_KINDS:
                raise ConfigError(
                    f"checks[{idx}]: unknown check {kind!r}; choose from {CHECK_KINDS}"
                )
            row = CHECKS[kind]
            where = f"checks[{idx}] ({kind})"
            _require(entry, (("measure",) if row.needs_measure else ()) + row.required,
                     ("check", "measure", "fields", *row.defaults), where)
            _check_types(entry, row, where)
            if kind == "best_constant":
                e = {**row.defaults, **entry}
                if e["mode"] not in ("slsi", "shc"):
                    raise ConfigError(f"{where}: 'mode' must be 'slsi' or 'shc', got {e['mode']!r}")
                if not 0 < e["c_min"] < e["c_max"]:
                    raise ConfigError(f"{where}: need 0 < c_min < c_max, got "
                                      f"c_min {e['c_min']!r}, c_max {e['c_max']!r}")
            measure = entry.get("measure")
            if measure is not None and not (isinstance(measure, str) and measure in self.measures):
                raise ConfigError(f"{where}: references undeclared measure {measure!r}")
            fnames = entry.get("fields", [])
            if not isinstance(fnames, list):
                raise ConfigError(f"{where}: 'fields' must be a list of names, got {fnames!r}")
            if not (fnames or row.over_battery):  # it would run no check at all
                raise ConfigError(f"{where}: 'fields' must name at least one field")
            for fname in fnames:
                if not (isinstance(fname, str) and fname in self.fields):
                    raise ConfigError(f"{where}: references undeclared field {fname!r}")


@contextmanager
def config_errors(where: str):
    """Turn the TypeError or ValueError of a malformed value into a ConfigError
    naming ``where``."""
    try:
        yield
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _require(decl: dict, required, optional, where: str):
    """ConfigError naming ``where`` and the first of ``required`` that ``decl``
    lacks or sets to null, else its first key in neither that nor ``optional``."""
    for key in required:
        if decl.get(key) is None:
            raise ConfigError(f"{where}: missing {key!r}")
    for key in decl:
        if key not in required and key not in optional:
            raise ConfigError(f"{where}: {key!r} is not one of its keys")


def _is_number(value) -> bool:
    """A finite int or float, not a bool: json and argparse read NaN and inf."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) < math.inf


def _check_types(entry: dict, row: CheckKind, where: str):
    """ConfigError naming ``where`` and the first key of ``entry`` of the wrong
    type: required keys and keys with numeric defaults take a finite number,
    keys with list defaults a non-empty list of finite numbers; others any value."""
    for key, value in entry.items():
        default = row.defaults.get(key, "unchecked")
        if key in row.required or _is_number(default):
            want, ok = "a finite number", _is_number(value)
        elif isinstance(default, list):
            want = "a non-empty list of finite numbers"
            ok = isinstance(value, list) and bool(value) and all(map(_is_number, value))
        else:
            continue
        if not ok:
            raise ConfigError(f"{where}: {key!r} must be {want}, got {value!r}")


def load_config(path) -> CampaignConfig:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except (OSError, UnicodeDecodeError) as exc:  # missing, a directory, not UTF-8
        reason = getattr(exc, "strerror", None) or exc
        raise ConfigError(f"cannot read config {path}: {reason}") from exc
    return CampaignConfig.from_dict(raw)


# ---------------------------------------------------------------------------
# declaration builders
# ---------------------------------------------------------------------------

#: measure op -> (required keys, build from the declaration)
_MEASURE_OPS = {
    "mix": (("first", "second", "t"), lambda d: measures_mod.mix(
        build_measure(d["first"]), build_measure(d["second"]), float(d["t"]))),
    "product": (("first", "second"), lambda d: measures_mod.product(
        build_measure(d["first"]), build_measure(d["second"]))),
    "convolve": (("first", "second"), lambda d: measures_mod.convolve_measures(
        build_measure(d["first"]), build_measure(d["second"]))),
    "shift": (("base", "offset"), lambda d: measures_mod.shift(
        build_measure(d["base"]), d["offset"])),
}
MEASURE_OPS = tuple(_MEASURE_OPS)


def _dim(decl: dict) -> int:
    """A declaration's dim, 1 when unset; JSON's true, 1.5 and "2" are not one."""
    dim = decl.get("dim", 1)
    if not is_count(dim):
        raise ValueError(f"'dim' must be an integer >= 1, got {dim!r}")
    return int(dim)


def _mollified(decl: dict) -> fields_mod.ScalarField:
    base = build_field(decl["base"])
    return fields_mod.convolve(base, fields_mod.mollifier(
        base.dim, decl.get("k", checks_mod.DEFAULT_MOLLIFIER_SCALE)))


#: field builder -> (required keys, optional keys, build from the declaration)
_FIELD_BUILDERS = {
    "constant": (("value",), ("dim",), lambda d: fields_mod.constant(
        float(d["value"]), _dim(d))),
    "cosh": (("lam",), (), lambda d: fields_mod.cosh_field(float(d["lam"]))),
    "dilate": (("base", "r"), (), lambda d: fields_mod.dilate(
        build_field(d["base"]), float(d["r"]))),
    "exp_norm_sq": (("lam",), ("dim",), lambda d: fields_mod.exp_norm_sq(
        float(d["lam"]), _dim(d))),
    "log_linear": (("lam",), (), lambda d: fields_mod.log_linear(d["lam"])),
    "modulus_holomorphic": (("coeffs",), (), lambda d: fields_mod.modulus_holomorphic(
        [complex(re, im) for re, im in d["coeffs"]])),
    "mollified": (("base",), ("k",), _mollified),
    "power": (("base", "exponent"), (), lambda d: fields_mod.power(
        build_field(d["base"]), float(d["exponent"]))),
    "product": (("first", "second"), (), lambda d: fields_mod.product_field(
        build_field(d["first"]), build_field(d["second"]))),
    "squared_norm": ((), ("dim",), lambda d: fields_mod.squared_norm(_dim(d))),
}
FIELD_BUILDERS = tuple(sorted(_FIELD_BUILDERS))


def build_measure(decl: dict) -> measures_mod.Density:
    where = f"measure declaration {decl}"
    if "family" in decl:
        params = {k: v for k, v in decl.items() if k not in ("family", "dim")}
        with config_errors(where):
            return measures_mod.make_builtin(decl["family"], params, _dim(decl))
    op = decl.get("op")
    if op not in MEASURE_OPS:
        raise ConfigError(f"measure declaration needs 'family' or 'op' in {MEASURE_OPS}: {decl}")
    required, build = _MEASURE_OPS[op]
    _require(decl, required, ("op",), where)
    with config_errors(where):
        return build(decl)


def build_field(decl: dict) -> fields_mod.ScalarField:
    builder = decl.get("builder")
    if builder not in FIELD_BUILDERS:
        raise ConfigError(f"unknown field builder {builder!r}; choose from {FIELD_BUILDERS}")
    required, optional, build = _FIELD_BUILDERS[builder]
    where = f"field declaration {decl}"
    _require(decl, required, ("builder", *optional), where)
    with config_errors(where):
        return build(decl)


def resolve_spec(block: dict, mu) -> QuadratureSpec:
    kwargs = {k: v for k, v in block.items() if k != "scheme"}
    scheme = block.get("scheme", "auto")
    if scheme == "auto" and mu is None:
        raise ConfigError("auto quadrature needs a target measure")
    with config_errors(f"quadrature block {block}"):
        return default_spec(mu, **kwargs) if scheme == "auto" else \
            QuadratureSpec(scheme=scheme, **kwargs).resolved(mu.dim)


# ---------------------------------------------------------------------------
# campaign execution
# ---------------------------------------------------------------------------

def _check_jobs(config: CampaignConfig):
    """Materialize one (check id, dimension, thunk) per (check entry, field)
    pair, or per entry for a kind that runs over its battery; the dimension
    is the measure's, or the field's for a check with no measure."""
    measures = {name: build_measure(decl) for name, decl in config.measures.items()}
    fields = {name: build_field(decl) for name, decl in config.fields.items()}
    jobs = []
    for idx, entry in enumerate(config.checks):
        kind = entry["check"]
        row = CHECKS[kind]
        mu = measures.get(entry.get("measure"))
        spec = resolve_spec(config.quadrature, mu) if mu is not None else None
        fnames = entry.get("fields", [])
        if row.over_battery:
            targets = [(f"{idx:03d}-{kind}-{entry.get('measure')}", [fields[n] for n in fnames])]
        else:
            targets = [(f"{idx:03d}-{kind}-{entry.get('measure', 'nomeasure')}-{n}", fields[n])
                       for n in fnames]
        jobs += [(check_id, mu.dim if mu is not None else target.dim,
                  partial(row, target, mu, spec, entry, check_id))
                 for check_id, target in targets]
    return jobs


def run_campaign(config: CampaignConfig, jobs: int = 1):
    """Run every declared check; returns (reports, summary dict, exit code).

    With ``jobs`` > 1 the checks run on a pool of ``jobs`` threads: every
    1-D check in config order inside one job, submitted first, and each
    check of dimension >= 2 as a job of its own.  A 1-D check spends its
    time in small-array NumPy calls that hold the GIL, so two of them on two
    threads mostly wait for each other and run slower than one after the
    other; a check of dimension >= 2 releases the GIL inside large node-set
    calls, and those overlap.  Reports are the same at every ``jobs``.
    """
    if jobs < 1:
        raise InvalidParameter(f"jobs must be at least 1, got {jobs}")
    thunks = _check_jobs(config)

    def _run(item):
        check_id, _, thunk = item
        try:
            return thunk()
        except LabError as exc:
            return checks_mod._inconclusive(check_id, "error", {}, None, exc)

    if jobs > 1:
        one_d = [item for item in thunks if item[1] == 1]
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            line = pool.submit(lambda: [_run(item) for item in one_d])  # in config order
            rest = pool.map(_run, [item for item in thunks if item[1] != 1])
            reports = line.result() + list(rest)
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
    out_dir = Path(output_dir) if output_dir else default_output_dir(config)
    # refused before any check runs, and without making a directory
    found = next(path for path in (out_dir, *out_dir.parents) if path.exists())
    if not found.is_dir():
        raise ConfigError(f"cannot write outputs to {out_dir}: {found} is not a directory")
    reports, summary, exit_code = run_campaign(config, jobs=jobs)
    try:
        write_outputs(config, reports, summary, out_dir)
    except OSError as exc:
        raise ConfigError(f"cannot write outputs to {out_dir}: {exc.strerror or exc}") from exc
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
