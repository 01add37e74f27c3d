"""Command-line front end.

Subcommands
-----------
run        execute a campaign config (path or preset name)
check      run one check ad hoc from flags
constants  print a regularity-constant estimate for a measure
best-c     bisection search for the smallest passing constant; in shc mode
           seeded with the verdicts at both ends of the sLSI bracket, which
           a monotone memo extends to every step they settle (unseeded
           where the sLSI terms cannot be computed)
list       enumerate builders, measure families, checks, and presets
"""

from __future__ import annotations

import argparse
import json
import sys

from . import campaign as campaign_mod
from . import checks as checks_mod
from . import measures as measures_mod
from .errors import ConfigError, LabError, TypeConditionViolation

#: parameters a bare family name takes beyond its builder's defaults
_MEASURE_DEFAULTS = {"poly_tail": {"alpha": 1.0}}


def _json_decl(text: str, what: str) -> dict:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{what} {text!r}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc


def _measure_decl(text: str, dim: int) -> dict:
    """A measure argument: either a JSON object or a bare family name."""
    if text.strip().startswith("{"):
        return _json_decl(text, "--measure")
    if text in measures_mod._FAMILIES:
        return {"family": text, "dim": dim, **_MEASURE_DEFAULTS.get(text, {})}
    raise LabError(
        f"cannot parse measure {text!r}: use a family name "
        f"({', '.join(sorted(measures_mod._FAMILIES))}) or a JSON object"
    )


def _field_decl(text: str) -> dict:
    """A field argument: JSON object, or shorthand builder:value."""
    if text.strip().startswith("{"):
        return _json_decl(text, "--field")
    if ":" in text:
        builder, arg = text.split(":", 1)
        with campaign_mod.config_errors(f"--field {text!r}"):
            if builder == "log_linear":
                return {"builder": "log_linear", "lam": [float(arg)]}
            if builder == "cosh":
                return {"builder": "cosh", "lam": float(arg)}
            if builder == "constant":
                return {"builder": "constant", "value": float(arg)}
    raise LabError(
        f"cannot parse field {text!r}: use JSON or shorthand "
        "log_linear:LAM | cosh:LAM | constant:VALUE"
    )


def _cmd_run(args) -> int:
    return campaign_mod.run(args.config, output_dir=args.output_dir, jobs=args.jobs)


def _cmd_check(args) -> int:
    row = campaign_mod.CHECKS[args.check]
    config = campaign_mod.CampaignConfig.from_dict(
        {
            "quadrature": {"scheme": "auto"},
            "measures": {"m": _measure_decl(args.measure, args.dim)},
            "fields": {"f": _field_decl(args.field)},
            "checks": [{"check": args.check, "measure": "m", "fields": ["f"],
                        **{key: getattr(args, key) for key in "cpqrk"
                           if key in row.required or key in row.defaults}}],
        }
    )
    mu = campaign_mod.build_measure(config.measures["m"])
    f = campaign_mod.build_field(config.fields["f"])
    spec = campaign_mod.resolve_spec(config.quadrature, mu)
    rep = row(f, mu, spec, config.checks[0], args.check)
    print(json.dumps(rep.to_dict(), indent=2, sort_keys=True))
    if rep.inconclusive:
        print("status: INCONCLUSIVE", file=sys.stderr)
        return 0
    return 0 if rep.passed else 1


def _cmd_constants(args) -> int:
    mu = campaign_mod.build_measure(_measure_decl(args.measure, args.dim))
    try:
        est = measures_mod.regularity_constant(mu, args.p, args.a, args.s)
    except TypeConditionViolation as exc:
        print(f"type-{args.p:g} condition violated: {exc}", file=sys.stderr)
        return 1
    print(float(est))
    return 0


def _cmd_best_c(args) -> int:
    mu = campaign_mod.build_measure(_measure_decl(args.measure, args.dim))
    battery = checks_mod.default_battery(mu.dim)
    c_star = checks_mod.best_constant(
        battery, mu, mode=args.mode, c_range=(args.c_min, args.c_max)
    )
    print(f"{c_star:.3f}")
    return 0


def _cmd_list(args) -> int:
    for title, names in (("measure families", measures_mod._FAMILIES),
                         ("measure ops", campaign_mod.MEASURE_OPS),
                         ("field builders", campaign_mod.FIELD_BUILDERS)):
        print(f"{title}:")
        for name in sorted(names):
            print(f"  {name}")
    print("checks:")
    for name in campaign_mod.CHECK_KINDS:
        row = campaign_mod.CHECKS[name]
        keys = list(row.required) + [f"[{k}={json.dumps(v)}]" for k, v in row.defaults.items()]
        if not row.needs_measure:
            keys.append("(no measure)")
        print(f"  {name:26s} {' '.join(keys)}")
    print("presets:")
    for name in sorted(campaign_mod.PRESETS):
        print(f"  {name}")
    return 0


def _positive_int(text: str) -> int:
    """The argparse type of ``--jobs``: an integer >= 1."""
    if not (text.isdigit() and int(text) >= 1):
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lshlab",
        description="Numerical checks for strong log-Sobolev inequalities and "
        "strong hypercontractivity on log-subharmonic fields.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_run = sub.add_parser("run", help="run a campaign config (path or preset name)")
    p_run.add_argument("config", help="path to a campaign JSON, or a preset name")
    p_run.add_argument("--output-dir", default=None, help="where to write reports")
    p_run.add_argument(
        "--jobs", type=_positive_int, default=1,
        help="check-level parallelism: threads that run the checks; every 1-D "
             "check runs on one of them, in config order, and each check of "
             "dimension >= 2 on any (default 1)")
    p_run.set_defaults(func=_cmd_run)

    p_check = sub.add_parser("check", help="run one check ad hoc from flags")
    p_check.add_argument(
        "--check", required=True,
        choices=[k for k in campaign_mod.CHECK_KINDS if not campaign_mod.CHECKS[k].over_battery],
        help="check kind; for the best constant use the best-c subcommand",
    )
    p_check.add_argument("--measure", default="gaussian")
    p_check.add_argument("--field", default="log_linear:0.8")
    p_check.add_argument("--dim", type=int, default=1)
    p_check.add_argument("--c", type=float, default=1.0)
    p_check.add_argument("--p", type=float, default=1.0)
    p_check.add_argument("--q", type=float, default=2.0)
    p_check.add_argument("--r", type=float, default=0.8)
    p_check.add_argument("--k", type=float, default=checks_mod.DEFAULT_MOLLIFIER_SCALE)
    p_check.set_defaults(func=_cmd_check)

    p_const = sub.add_parser("constants", help="regularity constant estimate")
    p_const.add_argument("--measure", required=True)
    p_const.add_argument("--dim", type=int, default=1)
    p_const.add_argument("--p", type=float, default=0.0)
    p_const.add_argument("--a", type=float, required=True)
    p_const.add_argument("--s", type=float, default=0.0)
    p_const.set_defaults(func=_cmd_constants)

    p_best = sub.add_parser("best-c", help="bisection for the smallest passing constant")
    p_best.add_argument("--measure", required=True)
    p_best.add_argument("--dim", type=int, default=1)
    p_best.add_argument("--mode", choices=("slsi", "shc"), default="slsi")
    p_best.add_argument("--c-min", type=float, default=checks_mod.DEFAULT_C_RANGE[0])
    p_best.add_argument("--c-max", type=float, default=checks_mod.DEFAULT_C_RANGE[1])
    p_best.set_defaults(func=_cmd_best_c)

    p_list = sub.add_parser("list", help="enumerate builders and checks")
    p_list.set_defaults(func=_cmd_list)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except LabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
