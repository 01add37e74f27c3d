import argparse
import csv
import dataclasses
import json
import math
import re
import threading
from pathlib import Path

import numpy as np
import pytest

import lshlab as L
from lshlab import campaign
from lshlab.campaign import (
    CHECK_KINDS,
    CHECKS,
    CampaignConfig,
    build_field,
    build_measure,
    dump_config,
    preset,
    resolve_spec,
)
from lshlab.cli import build_parser, main
from lshlab.errors import ConfigError, InvalidParameter


#: the entry keys each check kind cannot run without
REQUIRED_KEYS = {
    "dilated_convolution_bound": ("p", "r"),
    "dilation_bound": ("p", "r"),
    "general_shc": ("c", "p", "q"),
    "shc": ("c",),
    "slsi": ("c",),
}
MEASURELESS = {"radial_euler_scaling", "spherical_monotone"}
#: a value for each entry key that ``lshlab check`` has a flag for
FLAG_VALUES = {"c": 1.0, "p": 1.0, "q": 2.0, "r": 0.8, "k": 4}


def flag_keys(kind):
    """The FLAG_VALUES that an entry of ``kind`` reads."""
    row = CHECKS[kind]
    return {key: value for key, value in FLAG_VALUES.items()
            if key in row.required or key in row.defaults}


def check_choices():
    """The kinds ``lshlab check --check`` offers."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return next(a.choices for a in sub.choices["check"]._actions if a.dest == "check")


def minimal_config(**overrides):
    raw = {
        "seed": 3,
        "output_dir": "",
        "quadrature": {"scheme": "auto"},
        "measures": {"g": {"family": "gaussian", "sigma": 1.0, "dim": 1}},
        "fields": {"f": {"builder": "log_linear", "lam": [0.8]}},
        "checks": [{"check": "slsi", "measure": "g", "fields": ["f"], "c": 1.0}],
    }
    raw.update(overrides)
    return raw


def mixed_dims_config():
    """1-D and 2-D checks, with and without a measure, in one campaign."""
    return minimal_config(
        measures={"g1": {"family": "gaussian", "dim": 1},
                  "gen": {"family": "gen_exponential", "c": 0.5, "a": 2.0, "dim": 1},
                  "g2": {"family": "gaussian", "dim": 2}},
        fields={"a": {"builder": "log_linear", "lam": [0.4]},
                "b": {"builder": "log_linear", "lam": [0.8]},
                "c": {"builder": "cosh", "lam": 0.8},
                "p": {"builder": "log_linear", "lam": [0.8, 0.0]},
                "q": {"builder": "exp_norm_sq", "lam": 0.05, "dim": 2}},
        checks=[{"check": "slsi", "measure": "g1", "fields": ["a", "b"], "c": 1.0},
                {"check": "slsi", "measure": "g2", "fields": ["p", "q"], "c": 1.0},
                {"check": "shc", "measure": "gen", "fields": ["a", "b"], "c": 1.0},
                {"check": "shc", "measure": "g2", "fields": ["p"], "c": 1.0},
                {"check": "radial_euler_scaling", "fields": ["c"]},
                {"check": "spherical_monotone", "fields": ["q"]}])


#: the check ids of mixed_dims_config, by dimension, in config order
MIXED_1D = ["000-slsi-g1-a", "000-slsi-g1-b", "002-shc-gen-a", "002-shc-gen-b",
            "004-radial_euler_scaling-nomeasure-c"]
MIXED_2D = ["001-slsi-g2-p", "001-slsi-g2-q", "003-shc-g2-p",
            "005-spherical_monotone-nomeasure-q"]


def adaptive_1d_config():
    """A 1-D campaign on adaptive_1d: an sLSI entry, an sHC best_constant
    search, and e^{1.2x} on the Laplace measure, which is inconclusive."""
    return minimal_config(
        measures={"gen": {"family": "gen_exponential", "c": 0.5, "a": 2.0, "dim": 1},
                  "lap": {"family": "gen_exponential", "c": 1.0, "a": 1.0, "dim": 1}},
        fields={"a": {"builder": "log_linear", "lam": [0.4]},
                "b": {"builder": "log_linear", "lam": [0.8]},
                "e": {"builder": "log_linear", "lam": [1.2]}},
        checks=[{"check": "slsi", "measure": "gen", "fields": ["a", "b"], "c": 1.0},
                {"check": "best_constant", "measure": "gen", "fields": ["a", "b"],
                 "mode": "shc"},
                {"check": "slsi", "measure": "lap", "fields": ["e"], "c": 1.0}])


class TestConfig:
    def test_round_trip(self):
        config = CampaignConfig.from_dict(minimal_config())
        again = CampaignConfig.from_dict(json.loads(dump_config(config)))
        assert again == config

    def test_preset_round_trips(self):
        config = preset("gaussian-sharp")
        again = CampaignConfig.from_dict(json.loads(dump_config(config)))
        assert again == config

    @pytest.mark.parametrize("seed", [1.5, True, "7", -1, None, 1.0])
    def test_non_integer_seed_refused(self, seed):
        # int() would run 1.5 and true as seed 1 and "7" as seed 7
        with pytest.raises(ConfigError, match=re.escape(
                f"seed must be an integer >= 0, got {seed!r}")):
            CampaignConfig.from_dict(minimal_config(seed=seed))

    @pytest.mark.parametrize("seed", [0, 7, np.int64(3)])
    def test_integer_seed_accepted(self, seed):
        config = CampaignConfig.from_dict(minimal_config(seed=seed))
        assert config.seed == seed and type(config.seed) is int

    @pytest.mark.parametrize("dim", [1.5, 2.0, True, "2", 0])
    @pytest.mark.parametrize("build, decl", [
        (build_measure, {"family": "gaussian"}),
        (build_field, {"builder": "constant", "value": 1.5}),
        (build_field, {"builder": "exp_norm_sq", "lam": 0.1}),
        (build_field, {"builder": "squared_norm"}),
    ], ids=["measure", "constant", "exp_norm_sq", "squared_norm"])
    def test_non_integer_dim_refused(self, build, decl, dim):
        # int() would build 1.5 and true as dimension 1 and "2" as dimension 2
        decl = {**decl, "dim": dim}
        with pytest.raises(ConfigError, match=re.escape(
                f"declaration {decl}: 'dim' must be an integer >= 1, got {dim!r}")):
            build(decl)

    def test_undeclared_field_reference_named(self):
        raw = minimal_config()
        raw["checks"] = [{"check": "slsi", "measure": "g", "fields": ["ghost"], "c": 1}]
        with pytest.raises(ConfigError, match="ghost"):
            CampaignConfig.from_dict(raw)

    def test_undeclared_measure_reference_named(self):
        raw = minimal_config()
        raw["checks"] = [{"check": "slsi", "measure": "nope", "fields": ["f"], "c": 1}]
        with pytest.raises(ConfigError, match="nope"):
            CampaignConfig.from_dict(raw)

    @pytest.mark.parametrize("name", ["a/b", "../../escaped", "a\\b", "a\0b"])
    def test_field_name_with_path_separator_refused(self, name):
        raw = minimal_config(fields={name: {"builder": "log_linear", "lam": [0.8]}})
        raw["checks"][0]["fields"] = [name]
        with pytest.raises(ConfigError, match="field name .* contains"):
            CampaignConfig.from_dict(raw)

    def test_measure_name_with_path_separator_refused(self):
        raw = minimal_config(measures={"a/b": {"family": "gaussian", "dim": 1}})
        raw["checks"][0]["measure"] = "a/b"
        with pytest.raises(ConfigError, match=r"measure name 'a/b' contains"):
            CampaignConfig.from_dict(raw)

    def test_names_without_separators_accepted(self):
        names = ("f.v2", "f-1", "fé")
        raw = minimal_config(
            measures={"g.1-é": {"family": "gaussian", "dim": 1}},
            fields={n: {"builder": "log_linear", "lam": [0.8]} for n in names},
            checks=[{"check": "slsi", "measure": "g.1-é", "fields": list(names), "c": 1.0}])
        CampaignConfig.from_dict(raw)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("entry", [
        {"check": "slsi", "measure": "g", "fields": ["f"], "c": "VALUE"},
        {"check": "shc", "measure": "g", "fields": ["f"], "c": 1.0, "r_grid": [0.5, "VALUE"]},
        {"check": "dilation_bound", "measure": "g", "fields": ["f"], "p": 1.0, "r": "VALUE"},
    ], ids=["required", "list", "required_r"])
    def test_non_finite_check_parameter_refused(self, entry, value):
        # json and argparse both read NaN and +-inf; no check takes them
        entry = json.loads(json.dumps(entry).replace('"VALUE"', json.dumps(value)))
        with pytest.raises(ConfigError, match="finite number"):
            CampaignConfig.from_dict(minimal_config(checks=[entry]))

    def test_unknown_check_kind(self):
        raw = minimal_config()
        raw["checks"] = [{"check": "frobnicate", "measure": "g", "fields": ["f"]}]
        with pytest.raises(ConfigError, match="frobnicate"):
            CampaignConfig.from_dict(raw)

    def test_parse_error_carries_location(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"seed": 3,,}')
        with pytest.raises(ConfigError, match=r"line \d+"):
            L.load_config(bad)

    @pytest.mark.parametrize("kind, key", [(kind, key) for kind, keys in REQUIRED_KEYS.items()
                                           for key in keys])
    def test_missing_required_key_named(self, kind, key):
        entry = {"check": kind, "measure": "g", "fields": ["f"],
                 "c": 1.0, "p": 1.0, "q": 2.0, "r": 0.8}
        del entry[key]
        raw = minimal_config(checks=[{"check": "slsi", "measure": "g", "fields": ["f"], "c": 1.0},
                                     entry])
        with pytest.raises(ConfigError, match=rf"checks\[1\] \({kind}\): missing '{key}'"):
            CampaignConfig.from_dict(raw)

    @pytest.mark.parametrize("fields", [None, []], ids=["absent", "empty"])
    @pytest.mark.parametrize("kind", [k for k in CHECK_KINDS if not CHECKS[k].over_battery])
    def test_per_field_check_without_fields_refused(self, kind, fields):
        # such an entry would run no check, so a failing one would vanish
        entry = {"check": kind, "measure": "g", **flag_keys(kind)}
        if fields is not None:
            entry["fields"] = fields
        raw = minimal_config(checks=[{"check": "slsi", "measure": "g", "fields": ["f"], "c": 1.0},
                                     entry])
        with pytest.raises(ConfigError, match=rf"checks\[1\] \({kind}\): 'fields'"):
            CampaignConfig.from_dict(raw)

    def test_validation_agrees_with_table(self):
        assert CHECK_KINDS == tuple(sorted(CHECKS))
        assert {k: CHECKS[k].required for k in CHECK_KINDS if CHECKS[k].required} == REQUIRED_KEYS
        for kind in CHECK_KINDS:
            raw = minimal_config(checks=[{"check": kind, "fields": ["f"], **flag_keys(kind)}])
            if kind in MEASURELESS:
                assert not CHECKS[kind].needs_measure
                CampaignConfig.from_dict(raw)
            else:
                with pytest.raises(ConfigError, match=rf"\({kind}\): missing 'measure'"):
                    CampaignConfig.from_dict(raw)

    @pytest.mark.parametrize("decl, key", [
        ({"builder": "log_linear"}, "lam"),
        ({"builder": "power", "base": {"builder": "cosh"}, "exponent": 2}, "lam"),
        ({"builder": "dilate", "base": {"builder": "squared_norm"}}, "r"),
    ])
    def test_field_declaration_missing_key(self, decl, key):
        with pytest.raises(ConfigError, match=rf"field declaration .*: missing '{key}'"):
            build_field(decl)

    def test_measure_declaration_missing_key(self):
        decl = {"op": "mix", "first": {"family": "gaussian", "dim": 1},
                "second": {"family": "gaussian", "dim": 1}}
        with pytest.raises(ConfigError, match="measure declaration .*: missing 't'"):
            build_measure(decl)

    def test_nested_measure_declarations(self):
        decl = {
            "op": "mix",
            "first": {"family": "gaussian", "sigma": 1.0, "dim": 1},
            "second": {"op": "shift", "base": {"family": "gaussian", "dim": 1},
                        "offset": [0.5]},
            "t": 0.25,
        }
        mu = build_measure(decl)
        assert mu.label.startswith("mix(")

    def test_nested_field_declarations(self):
        decl = {
            "builder": "power",
            "base": {"builder": "dilate", "base": {"builder": "log_linear", "lam": [0.5]},
                      "r": 0.7},
            "exponent": 2,
        }
        f = build_field(decl)
        assert f.dim == 1 and f.certified and f.label.startswith("power(")

    @pytest.mark.parametrize("bad", [{"c_min": 3, "c_max": 1}, {"c_min": 2, "c_max": 2},
                                     {"c_min": 0}, {"c_min": -1}, {"mode": "foo"}])
    def test_best_constant_range_and_mode_checked(self, bad):
        entry = {"check": "best_constant", "measure": "g", "fields": ["f"], **bad}
        raw = minimal_config(checks=[{"check": "slsi", "measure": "g", "fields": ["f"], "c": 1.0},
                                     entry])
        with pytest.raises(ConfigError, match=r"checks\[1\] \(best_constant\)"):
            CampaignConfig.from_dict(raw)

    @pytest.mark.parametrize("call, match", [
        (lambda: CampaignConfig.from_dict([minimal_config()]), "must be a JSON object"),
        (lambda: resolve_spec({"scheme": "auto"}, None), "auto quadrature needs"),
        (lambda: preset("gaussian-blunt"), "unknown preset 'gaussian-blunt'"),
    ], ids=["config-list", "auto-without-measure", "preset"])
    def test_refused(self, call, match):
        with pytest.raises(ConfigError, match=match):
            call()

    def test_auto_scheme_resolution(self, gauss1):
        assert resolve_spec({"scheme": "auto"}, gauss1).scheme == "gauss_hermite"

    @pytest.mark.parametrize("block", [
        {"scheme": "tensor_trapezoid", "truncation_radius": 6.0},
        {"scheme": "auto", "target_rel_tol": 1e-6},
    ], ids=["truncation_radius", "target_rel_tol"])
    def test_removed_quadrature_keys_are_config_errors(self, block, gauss1):
        # the trapezoid box is the measure's truncation radius and the
        # adaptive tolerance is fixed, so neither key is a spec field
        key = next(k for k in block if k != "scheme")
        with pytest.raises(ConfigError, match=rf"quadrature block .*{key}"):
            resolve_spec(block, gauss1)


class TestRun:
    def test_empty_check_list_exits_zero(self, tmp_path):
        config = CampaignConfig.from_dict(minimal_config(checks=[]))
        code = L.run(config, output_dir=tmp_path)
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["checks"] == [] and report["summary"]["total"] == 0

    def test_gaussian_sharp_preset(self, tmp_path):
        code = L.run("gaussian-sharp", output_dir=tmp_path)
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        slsi_rows = [c for c in report["checks"] if c["kind"] == "slsi"]
        assert slsi_rows and all(
            abs(c["quantities"]["deficit"]) < 1e-6 for c in slsi_rows
        )

    def test_failing_check_exits_one(self, tmp_path):
        raw = minimal_config()
        raw["checks"] = [{"check": "slsi", "measure": "g", "fields": ["f"], "c": 0.8}]
        code = L.run(CampaignConfig.from_dict(raw), output_dir=tmp_path)
        assert code == 1
        summary = (tmp_path / "summary.txt").read_text()
        assert "FAIL" in summary

    def test_inconclusive_counted_but_not_failing(self, tmp_path):
        # an inconclusive check, and a check that raises (sLSI on a shifted
        # measure): both are inconclusive, and report.json is strict JSON
        raw = minimal_config(
            measures={"ball": {"family": "uniform_ball", "radius": 1.0, "dim": 1},
                      "moved": {"op": "shift", "offset": [0.5], "base": {
                          "family": "gaussian", "sigma": 1.0, "dim": 1}}},
            fields={"f": {"builder": "cosh", "lam": 0.5}},
            checks=[{"check": "dilation_bound", "measure": "ball", "fields": ["f"],
                      "p": 2.0, "r": 0.8},
                    {"check": "slsi", "measure": "moved", "fields": ["f"], "c": 1.0}],
        )
        code = L.run(CampaignConfig.from_dict(raw), output_dir=tmp_path)
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["summary"]["inconclusive"] == 2
        assert [rep["kind"] for rep in report["checks"]] == ["dilation_bound", "error"]
        assert [rep["tolerance"] for rep in report["checks"]] == [None, None]
        error = report["checks"][1]
        assert (error["inputs"], error["quantities"], error["spec"]) == ({}, {}, {})
        assert error["notes"][0].startswith("inconclusive: ")
        json.dumps(report, allow_nan=False)

    def test_oversized_node_set_is_an_inconclusive_error(self, tmp_path):
        # 801^3 trapezoid nodes would take 3.8 GiB per coordinate: refused
        # before any array is built, and reported, not a MemoryError
        raw = minimal_config(
            quadrature={"scheme": "tensor_trapezoid", "nodes_per_axis": 801},
            measures={"e3": {"family": "gen_exponential", "c": 1.0, "a": 1.0, "dim": 3}},
            fields={"f": {"builder": "log_linear", "lam": [0.3, 0.0, 0.0]}},
            checks=[{"check": "slsi", "measure": "e3", "fields": ["f"], "c": 1.0}])
        assert L.run(CampaignConfig.from_dict(raw), output_dir=tmp_path) == 0
        (rep,) = json.loads((tmp_path / "report.json").read_text())["checks"]
        assert rep["inconclusive"] and rep["kind"] == "error"
        assert "513,922,401 nodes exceeds MAX_NODES" in rep["notes"][0]

    def test_unbuildable_default_battery_fails_its_own_entry(self, tmp_path):
        # mollifiers stop at dim 3, so the 4-D default battery cannot be
        # built, and every node rule stops there too: each 4-D entry is an
        # inconclusive error, and the 1-D sLSI entry beside them still runs
        # and is written out
        raw = minimal_config(
            measures={"g1": {"family": "gaussian", "dim": 1},
                      "g4": {"family": "gaussian", "dim": 4}},
            fields={"f": {"builder": "log_linear", "lam": [0.8]},
                    "f4": {"builder": "log_linear", "lam": [0.8, 0.0, 0.0, 0.0]}},
            checks=[{"check": "slsi", "measure": "g1", "fields": ["f"], "c": 1.0},
                    {"check": "best_constant", "measure": "g4"},
                    {"check": "slsi", "measure": "g4", "fields": ["f4"], "c": 1.0}])
        cfg = tmp_path / "campaign.json"
        cfg.write_text(json.dumps(raw))
        assert main(["run", str(cfg), "--output-dir", str(tmp_path / "out")]) == 0
        checks = json.loads((tmp_path / "out" / "report.json").read_text())["checks"]
        assert [(c["check_id"], c["kind"], c["passed"], c["inconclusive"]) for c in checks] == [
            ("000-slsi-g1-f", "slsi", True, False),
            ("001-best_constant-g4", "error", False, True),
            ("002-slsi-g4-f4", "error", False, True)]
        assert "dim <= 3" in checks[1]["notes"][0]
        assert "tensor_trapezoid caps at dim 3" in checks[2]["notes"][0]

    def test_non_invariant_convolution_exits_two(self, tmp_path, capsys):
        # in 2-D a convolution is read at |x|, so a shifted factor is refused
        # when the campaign builds its measures
        gauss2 = {"family": "gaussian", "dim": 2}
        measures = {"g": {"op": "convolve", "second": gauss2,
                          "first": {"op": "shift", "offset": [1.0, 0.0], "base": gauss2}}}
        fields = {"f": {"builder": "log_linear", "lam": [0.8, 0.0]}}
        cfg = tmp_path / "campaign.json"
        cfg.write_text(json.dumps(minimal_config(measures=measures, fields=fields)))
        assert main(["run", str(cfg), "--output-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "rotation-invariant" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("overrides, named", [
        ({"quadrature": {"scheme": "tensor_trapezoid", "nodes_per_axis": 101.5}},
         "nodes_per_axis must be an integer"),
        ({"quadrature": {"scheme": "auto", "mc_samples": 1000}}, "'mc_samples'"),
        ({"quadrature": {"scheme": "auto", "seed": 1}}, "'seed'"),
        ({"quadrature": {"scheme": "monte_carlo"}}, "quadrature.scheme 'monte_carlo'"),
        ({"seed": -1}, "seed must be an integer >= 0, got -1"),
        ({"seed": 1.5}, "seed must be an integer >= 0, got 1.5"),
        ({"seed": True}, "seed must be an integer >= 0, got True"),
        ({"seed": "7"}, "seed must be an integer >= 0, got '7'"),
        ({"checks": [{"check": "slsi", "measure": "g", "fields": ["f"], "c": math.nan}]},
         "'c' must be a finite number, got nan"),
    ], ids=["nodes_per_axis", "mc_samples", "block_seed", "monte_carlo", "top_level_seed",
            "float_seed", "bool_seed", "string_seed", "nan_c"])
    def test_malformed_config_exits_two(self, overrides, named, tmp_path, capsys):
        # refused before any check runs: no traceback, no report
        cfg = tmp_path / "campaign.json"
        cfg.write_text(json.dumps(minimal_config(**overrides)))
        assert main(["run", str(cfg), "--output-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and named in err
        assert not (tmp_path / "out").exists()

    def test_shc_csv_columns(self, tmp_path):
        L.run("gaussian-sharp", output_dir=tmp_path)
        csv_files = sorted(tmp_path.glob("*.csv"))
        assert csv_files
        with open(csv_files[0]) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["check_id", "r", "alpha", "q_of_r", "deficit"]
        assert len(rows) > 1

    def test_determinism_modulo_timestamp(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        L.run("gaussian-sharp", output_dir=d1)
        L.run("gaussian-sharp", output_dir=d2)
        strip = lambda p: re.sub(
            r'"generated_at": "[^"]*"', '"generated_at": "X"',
            (p / "report.json").read_text(),
        )
        assert strip(d1) == strip(d2)

    def test_best_constant_honours_r_grid(self, tmp_path):
        # with only r = 1, alpha(1) = ||f||_1 meets its row at every c, which
        # is no evidence: no c passes and the search returns c_max, where the
        # default grid gives the sharp constant 1
        raw = minimal_config(checks=[{"check": "best_constant", "measure": "g",
                                      "fields": ["f"], "mode": "shc", "r_grid": [1.0]}])
        L.run(CampaignConfig.from_dict(raw), output_dir=tmp_path)
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["checks"][0]["quantities"]["c_star"] == 4.0

    def test_best_constant_with_inconclusive_member_is_inconclusive(self, tmp_path):
        # e^{1.2x} diverges against the Laplace measure: an inconclusive
        # report with the member's witness, never a PASS at c_max
        raw = minimal_config(
            measures={"lap": {"family": "gen_exponential", "c": 1.0, "a": 1.0, "dim": 1}},
            checks=[{"check": "best_constant", "measure": "lap", "fields": []}])
        L.run(CampaignConfig.from_dict(raw), output_dir=tmp_path)
        (rep,) = json.loads((tmp_path / "report.json").read_text())["checks"]
        assert rep["inconclusive"] and not rep["passed"] and rep["kind"] == "error"
        assert rep["notes"][0].startswith("inconclusive: log_linear([1.2]): ")
        assert "witness" in rep["quantities"]

    @pytest.mark.parametrize("config, jobs", [
        ("gaussian-sharp", 4),
        (adaptive_1d_config(), 3),
        (mixed_dims_config(), 3),
    ], ids=["gaussian-sharp", "adaptive-1d", "mixed-dims"])
    def test_parallel_jobs_match_serial(self, config, jobs, tmp_path):
        if isinstance(config, dict):
            config = CampaignConfig.from_dict(config)
        d1, d2 = tmp_path / "serial", tmp_path / "par"
        L.run(config, output_dir=d1, jobs=1)
        L.run(config, output_dir=d2, jobs=jobs)
        strip = lambda p: re.sub(
            r'"generated_at": "[^"]*"', '"generated_at": "X"',
            (p / "report.json").read_text(),
        )
        assert strip(d1) == strip(d2)

    def test_one_dimensional_checks_share_one_pool_thread(self, monkeypatch):
        config = CampaignConfig.from_dict(mixed_dims_config())
        ran = []  # (check id, thread) in the order the checks start
        for kind in ("slsi", "shc", "radial_euler_scaling", "spherical_monotone"):
            def recording(target, mu, spec, e, check_id, run=CHECKS[kind].run):
                ran.append((check_id, threading.current_thread()))
                return run(target, mu, spec, e, check_id)

            monkeypatch.setitem(CHECKS, kind, dataclasses.replace(CHECKS[kind], run=recording))
        reports, _, _ = L.run_campaign(config, jobs=2)
        assert [rep.check_id for rep in reports] == sorted(MIXED_1D + MIXED_2D)
        thread_of = dict(ran)
        assert [cid for cid, _ in ran if cid in MIXED_1D] == MIXED_1D
        assert len({thread_of[cid] for cid in MIXED_1D}) == 1
        assert threading.main_thread() not in thread_of.values()

    @pytest.mark.parametrize("jobs", [0, -2])
    def test_jobs_below_one_refused(self, jobs):
        with pytest.raises(InvalidParameter, match="jobs"):
            L.run_campaign(CampaignConfig.from_dict(minimal_config()), jobs=jobs)

    def test_mollifier_scale_not_truncated(self, tmp_path):
        # k = 2.7 runs as 2.7, in the check row and in the mollified builder
        raw = minimal_config(
            fields={"f": {"builder": "log_linear", "lam": [0.5]},
                    "m": {"builder": "mollified", "base": {"builder": "log_linear",
                                                           "lam": [0.5]}, "k": 2.7}},
            checks=[{"check": "dilated_convolution_bound", "measure": "g", "fields": ["f"],
                     "p": 1.0, "r": 0.8, "k": 2.7},
                    {"check": "slsi", "measure": "g", "fields": ["m"], "c": 1.0}])
        L.run(CampaignConfig.from_dict(raw), output_dir=tmp_path)
        bound, slsi = json.loads((tmp_path / "report.json").read_text())["checks"]
        assert bound["inputs"]["mollifier_scale"] == 2.7
        assert slsi["inputs"]["field"].endswith("k=2.7)")

    def test_shc_csv_leaves_out_skipped_rows(self, tmp_path):
        # at c = 0.25, q(0.3) = 0.3^-8 is beyond Q_GUARD: that row is skipped
        # in the report and has no alpha to write
        entry = {"check": "shc", "measure": "g", "fields": ["f"], "c": 0.25,
                 "r_grid": [0.3, 0.6, 1.0]}
        L.run(CampaignConfig.from_dict(minimal_config(checks=[entry])), output_dir=tmp_path)
        rep, = json.loads((tmp_path / "report.json").read_text())["checks"]
        assert [row["skipped"] for row in rep["quantities"]["rows"]] == [True, False, False]
        with open(tmp_path / "000-shc-g-f.csv") as fh:
            rows = list(csv.reader(fh))
        assert [float(row[1]) for row in rows[1:]] == [0.6, 1.0]

    def test_config_output_dir_without_flag(self, tmp_path, monkeypatch):
        # with no --output-dir the config's output_dir wins over LSHLAB_OUTPUT_DIR
        monkeypatch.setenv("LSHLAB_OUTPUT_DIR", str(tmp_path / "env"))
        cfg = tmp_path / "campaign.json"
        cfg.write_text(json.dumps(minimal_config(checks=[], output_dir=str(tmp_path / "declared"))))
        assert main(["run", str(cfg)]) == 0
        assert (tmp_path / "declared" / "report.json").is_file()
        assert not (tmp_path / "env").exists()

    def test_output_dir_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("LSHLAB_OUTPUT_DIR", str(tmp_path / "envout"))
        config = CampaignConfig.from_dict(minimal_config(checks=[]))
        L.run(config)
        assert (tmp_path / "envout" / "report.json").exists()


class TestCli:
    def test_list_alphabetized(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        checks = [line.strip() for line in
                  out.split("checks:")[1].split("presets:")[0].strip().splitlines()]
        assert checks == sorted(checks)

    def test_constants_gaussian(self, capsys):
        code = main(["constants", "--measure", "gaussian", "--p", "0", "--a", "2",
                     "--s", "0"])
        assert code == 0
        assert float(capsys.readouterr().out.strip()) == pytest.approx(1.0, abs=1e-8)

    def test_constants_violation_exit_code(self, capsys):
        code = main(["constants", "--measure", "poly_tail", "--p", "1", "--a", "2",
                     "--s", "0"])
        assert code == 1
        assert "violated" in capsys.readouterr().err

    def test_best_c_prints_sharp_constant(self, capsys):
        code = main(["best-c", "--measure", "gaussian", "--mode", "slsi"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "1.000"

    def test_best_c_rejects_bad_range(self, capsys):
        assert main(["best-c", "--measure", "gaussian", "--c-min", "3", "--c-max", "1"]) == 2
        assert "c_range" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["slsi", "shc"])
    def test_best_c_infinite_c_max_exits_two(self, mode, capsys):
        assert main(["best-c", "--measure", "gaussian", "--mode", mode, "--c-max", "inf"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: c_range") and err.count("\n") == 1

    @pytest.mark.parametrize("flags", [
        ["--p", "nan", "--a", "2"], ["--a", "nan"], ["--a", "inf"],
        ["--a", "1.1", "--s", "inf"], ["--a", "1.1", "--s", "nan"],
    ], ids=["p-nan", "a-nan", "a-inf", "s-inf", "s-nan"])
    def test_constants_non_finite_parameter_exits_two(self, flags, capsys):
        assert main(["constants", "--measure", "gaussian", *flags]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: regularity constants need a finite ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("mode", ["slsi", "shc"])
    def test_best_c_inconclusive_battery_exits_two(self, mode, capsys):
        # e^{1.2x} is not integrable against the Laplace measure e^{-|x|}: the
        # search is inconclusive, not the range maximum 4.000
        code = main(["best-c", "--measure", '{"family":"gen_exponential","c":1,"a":1}',
                     "--mode", mode])
        assert code == 2
        out, err = capsys.readouterr()
        assert out == "" and "log_linear([1.2]): " in err

    def test_check_subcommand(self, capsys):
        code = main(["check", "--check", "slsi", "--measure", "gaussian",
                     "--field", "log_linear:0.8", "--c", "1.0"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is True

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_check_non_finite_constant_exits_two(self, value, capsys):
        # refused before the check runs, so no report carries a NaN or Infinity token
        assert main(["check", "--check", "slsi", f"--c={value}"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        assert "'c' must be a finite number" in err

    def test_check_offers_only_handled_kinds(self, capsys):
        # best_constant is a campaign check kind but has its own subcommand
        assert set(check_choices()) == set(CHECK_KINDS) - {"best_constant"}
        with pytest.raises(SystemExit) as exc:
            main(["check", "--check", "best_constant"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            main(["check", "--help"])
        assert "best-c" in capsys.readouterr().out

    def test_list_and_check_choices_read_the_table(self, capsys):
        assert main(["list"]) == 0
        block = capsys.readouterr().out.split("checks:")[1].split("presets:")[0]
        lines = {line.split()[0]: line.split()[1:] for line in block.strip().splitlines()}
        assert tuple(lines) == CHECK_KINDS
        for kind, words in lines.items():
            assert words[:len(REQUIRED_KEYS.get(kind, ()))] == list(REQUIRED_KEYS.get(kind, ()))
            assert (words[-2:] == ["(no", "measure)"]) == (kind in MEASURELESS)
        assert list(check_choices()) == [k for k in CHECK_KINDS if not CHECKS[k].over_battery]

    @pytest.mark.parametrize("kind", [k for k in CHECK_KINDS if k != "best_constant"])
    def test_check_report_is_the_campaign_report(self, kind, capsys):
        # default flags: gaussian, log_linear:0.8, dim 1, c 1, p 1, q 2, r 0.8, k 4
        main(["check", "--check", kind])
        out = json.loads(capsys.readouterr().out)
        raw = minimal_config(
            seed=0, fields={"f": {"builder": "log_linear", "lam": [0.8]}},
            measures={"g": {"family": "gaussian", "dim": 1}},
            checks=[{"check": kind, "measure": "g", "fields": ["f"], **flag_keys(kind)}])
        reports, _, _ = L.run_campaign(CampaignConfig.from_dict(raw))
        want = json.loads(json.dumps(reports[0].to_dict()))
        assert out.pop("check_id") == kind and want.pop("check_id") == f"000-{kind}-g-f"
        assert json.dumps(out, sort_keys=True) == json.dumps(want, sort_keys=True)

    @pytest.mark.parametrize("entry", [
        {"check": "slsi", "measure": "g", "fields": ["f"]},
        {"check": "dilation_bound", "measure": "g", "fields": ["f"], "p": 1.0},
    ])
    def test_run_missing_check_key_exits_two(self, entry, tmp_path, capsys):
        cfg = tmp_path / "campaign.json"
        cfg.write_text(json.dumps(minimal_config(checks=[entry])))
        assert main(["run", str(cfg), "--output-dir", str(tmp_path / "out")]) == 2
        assert "missing" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", [{"c_min": 3, "c_max": 1}, {"mode": "foo"}])
    def test_run_bad_best_constant_entry_exits_two(self, bad, tmp_path, capsys):
        entry = {"check": "best_constant", "measure": "g", "fields": ["f"], **bad}
        cfg = tmp_path / "campaign.json"
        cfg.write_text(json.dumps(minimal_config(checks=[entry])))
        assert main(["run", str(cfg), "--output-dir", str(tmp_path / "out")]) == 2
        assert "checks[0] (best_constant)" in capsys.readouterr().err

    def test_check_takes_a_real_mollifier_scale(self, capsys):
        assert main(["check", "--check", "dilated_convolution_bound", "--k", "2.7"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["inputs"]["mollifier_scale"] == 2.7 and out["passed"]

    def test_run_four_dimensional_mollified_field_exits_two(self, tmp_path, capsys):
        fields = {"f": {"builder": "mollified",
                        "base": {"builder": "log_linear", "lam": [0.8, 0.0, 0.0, 0.0]}}}
        measures = {"g": {"family": "gaussian", "sigma": 1.0, "dim": 4}}
        cfg = tmp_path / "campaign.json"
        cfg.write_text(json.dumps(minimal_config(fields=fields, measures=measures)))
        assert main(["run", str(cfg), "--output-dir", str(tmp_path / "out")]) == 2
        assert "dim <= 3" in capsys.readouterr().err

    @pytest.mark.parametrize("section, decl, key", [
        ("fields", {"f": {"builder": "log_linear"}}, "lam"),
        ("measures", {"g": {"family": "poly_tail", "dim": 1}}, "alpha"),
    ])
    def test_run_missing_declaration_key_exits_two(self, section, decl, key, tmp_path, capsys):
        cfg = tmp_path / "campaign.json"
        cfg.write_text(json.dumps(minimal_config(**{section: decl})))
        assert main(["run", str(cfg), "--output-dir", str(tmp_path / "out")]) == 2
        assert f"'{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize("entry, key", [
        ({"check": "slsi", "c": "x"}, "c"),
        ({"check": "slsi", "c": True}, "c"),
        ({"check": "dilated_convolution_bound", "p": 1.0, "r": 0.8, "k": "4"}, "k"),
        ({"check": "shc", "c": 1.0, "r_grid": [0.5, "1"]}, "r_grid"),
        ({"check": "density_approx", "k_list": 4}, "k_list"),
        ({"check": "density_approx", "p": "1"}, "p"),
        ({"check": "best_constant", "c_max": "4"}, "c_max"),
        ({"check": "density_approx", "k_list": []}, "k_list"),
        ({"check": "density_approx", "r_list": []}, "r_list"),
        ({"check": "shc", "c": 1.0, "r_grid": []}, "r_grid"),
        ({"check": "best_constant", "mode": "shc", "r_grid": []}, "r_grid"),
    ])
    def test_run_wrong_key_type_exits_two(self, entry, key, tmp_path, capsys):
        cfg = tmp_path / "campaign.json"
        cfg.write_text(json.dumps(minimal_config(
            checks=[{"measure": "g", "fields": ["f"], **entry}])))
        assert main(["run", str(cfg), "--output-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"checks[0] ({entry['check']}): '{key}'" in err

    @pytest.mark.parametrize("overrides, where, key", [
        ({"checks": [{"check": "shc", "measure": "g", "fields": ["f"], "c": 1.0,
                      "r_gird": [0.5, 1.0]}]}, "checks[0] (shc)", "r_gird"),
        ({"checks": [{"check": "spherical_monotone", "fields": ["f"], "tol": None}]},
         "checks[0] (spherical_monotone)", "tol"),
        ({"checks": [{"check": "radial_euler_scaling", "fields": ["f"], "tol": 1e-7}]},
         "checks[0] (radial_euler_scaling)", "tol"),
        ({"checks": [{"check": "density_approx", "measure": "g", "fields": ["f"],
                      "eps_target": "x"}]}, "checks[0] (density_approx)", "eps_target"),
        ({"fields": {"f": {"builder": "mollified", "base": {"builder": "log_linear",
                                                            "lam": [0.8]}, "kk": 8}}},
         "field declaration", "kk"),
        ({"fields": {"f": {"builder": "log_linear", "lam": [0.8], "dim": 1}}},
         "field declaration", "dim"),
        ({"measures": {"g": {"op": "shift", "base": {"family": "gaussian"}, "offset": [0.5],
                             "scale": 2.0}}}, "measure declaration", "scale"),
        ({"fields": {"f": {"builder": "mollified", "base": {"builder": "log_linear",
                                                            "lam": [0.8]}, "kk": 8}},
          "checks": [{"check": "shc", "measure": "g", "fields": ["f"], "c": 1.0,
                      "r_gird": [0.5, 1.0]},
                     {"check": "spherical_monotone", "fields": ["f"], "tol": 0.5}]},
         "checks[0] (shc)", "r_gird"),
    ], ids=["check-entry", "tol", "radial-tol", "eps_target", "mollified-k", "log_linear-dim",
            "shift", "three-typos"])
    def test_run_unknown_key_exits_two(self, overrides, where, key, tmp_path, capsys):
        # a key nothing reads is refused before any check runs, with no output directory
        cfg = tmp_path / "campaign.json"
        cfg.write_text(json.dumps(minimal_config(**overrides)))
        assert main(["run", str(cfg), "--output-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert re.fullmatch(rf"error: {re.escape(where)}.*: '{key}' is not one of its keys\n", err)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv, where", [
        (["run", {"quadrature": {"scheme": "auto", "nodes": 5}}], "quadrature block"),
        (["run", {"seed": "abc"}], "seed"),
        (["run", {"fields": {"f": {"builder": "cosh", "lam": "x"}}}], "field declaration"),
        (["run", {"fields": {"f": {"builder": "log_linear", "lam": ["x"]}}}],
         "field declaration"),
        (["run", {"measures": {"g": {"family": "gaussian", "sigma": "x", "dim": 1}}}],
         "measure declaration"),
        (["check", "--check", "slsi", "--field", "log_linear:abc"], "--field"),
        (["run", {"measures": {"g": {"family": "gaussian", "dim": 1.5}}}],
         "measure declaration"),
        (["run", {"measures": {"g": {"dim": 1}}}], "measure declaration needs 'family' or 'op'"),
        (["run", {"fields": {"f": {"builder": "log_cubic"}}}], "unknown field builder"),
        (["check", "--check", "slsi", "--measure", "gauss"], "cannot parse measure 'gauss'"),
        (["check", "--check", "slsi", "--field", "log_linear"], "cannot parse field"),
    ], ids=["quadrature-key", "seed", "cosh-lam", "log_linear-lam", "sigma", "field-shorthand",
            "dim", "measure-no-family", "field-builder", "measure-name", "field-name"])
    def test_malformed_value_exits_two(self, argv, where, tmp_path, capsys):
        if argv[0] == "run":
            cfg = tmp_path / "campaign.json"
            cfg.write_text(json.dumps(minimal_config(**argv[1])))
            argv = ["run", str(cfg), "--output-dir", str(tmp_path / "out")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"error: {where}")

    @pytest.mark.parametrize("overrides, where", [
        ({"quadrature": None}, "'quadrature'"),
        ({"quadrature": ["auto"]}, "'quadrature'"),
        ({"measures": [1, 2]}, "'measures'"),
        ({"fields": None}, "'fields'"),
        ({"checks": {"a": 1}}, "'checks'"),
        ({"checks": None}, "'checks'"),
        ({"checks": [5]}, "checks[0]"),
        ({"checks": [{"check": "slsi", "measure": ["g"], "fields": ["f"], "c": 1.0}]},
         "checks[0] (slsi)"),
        ({"checks": [{"check": "slsi", "measure": "g", "fields": 5, "c": 1.0}]},
         "checks[0] (slsi)"),
        ({"output_dir": 5}, "'output_dir'"),
        ({"output_dir": None}, None),
        ({"sed": 3}, "unknown top-level config keys: ['sed']"),
        ({"quadrature": {"scheme": "simpson"}}, "quadrature.scheme 'simpson'"),
        ({"fields": {"f": [0.8]}}, "field 'f' must be an object"),
        ({"measures": {"g": "gaussian"}}, "measure 'g' must be an object"),
    ], ids=["quadrature-null", "quadrature-list", "measures-list", "fields-null",
            "checks-object", "checks-null", "check-entry-number", "measure-list",
            "fields-number", "output_dir-number", "output_dir-null", "unknown-key",
            "scheme", "field-declaration", "measure-declaration"])
    def test_top_level_types(self, overrides, where, tmp_path, monkeypatch, capsys):
        # a malformed section is a ConfigError (exit 2); a null output_dir is the default
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("LSHLAB_OUTPUT_DIR", str(tmp_path / "default"))
        cfg = tmp_path / "campaign.json"
        cfg.write_text(json.dumps(minimal_config(**overrides)))
        code = main(["run", str(cfg)])
        err = capsys.readouterr().err
        if where is None:
            assert code == 0 and (tmp_path / "default" / "report.json").is_file()
            assert not (tmp_path / "None").exists()
        else:
            assert code == 2 and err.count("\n") == 1 and err.startswith(f"error: {where}")

    @pytest.mark.parametrize("flag, text", [
        ("--measure", '{"family": gaussian}'),
        ("--field", '{"builder": "log_linear", "lam": [0.4]'),
    ])
    def test_check_bad_json_exits_two(self, flag, text, capsys):
        assert main(["check", "--check", "slsi", flag, text]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "line 1, column" in err

    def test_check_failure_exit_code(self, capsys):
        code = main(["check", "--check", "slsi", "--measure", "gaussian",
                     "--field", "log_linear:1.2", "--c", "0.9"])
        assert code == 1

    def test_run_subcommand(self, tmp_path):
        code = main(["run", "gaussian-sharp", "--output-dir", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "report.json").exists()
        assert (tmp_path / "summary.txt").exists()

    @pytest.mark.parametrize("jobs", ["0", "-2", "1.5", "two"])
    def test_run_jobs_below_one_exits_two(self, jobs, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "gaussian-sharp", "--output-dir", str(tmp_path / "out"),
                  "--jobs", jobs])
        assert exc.value.code == 2
        assert "--jobs: must be an integer >= 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("fields", [None, []], ids=["absent", "empty"])
    def test_run_per_field_check_without_fields_exits_two(self, fields, tmp_path, capsys):
        entry = {"check": "shc", "measure": "g", "c": 0.5}
        if fields is not None:
            entry["fields"] = fields
        cfg = tmp_path / "campaign.json"
        cfg.write_text(json.dumps(minimal_config(checks=[entry])))
        assert main(["run", str(cfg), "--output-dir", str(tmp_path / "out")]) == 2
        assert "checks[0] (shc): 'fields'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_run_field_name_with_path_separator_exits_two(self, tmp_path, capsys):
        raw = minimal_config(fields={"a/b": {"builder": "log_linear", "lam": [0.8]}})
        raw["checks"] = [{"check": "shc", "measure": "g", "fields": ["a/b"], "c": 1.0}]
        cfg = tmp_path / "campaign.json"
        cfg.write_text(json.dumps(raw))
        assert main(["run", str(cfg), "--output-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "field name 'a/b' contains" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("case", ["missing", "directory", "not_utf8"])
    def test_unreadable_config_exits_two(self, case, tmp_path, capsys):
        # one line naming the path: no traceback, no report
        cfg = tmp_path / "campaign.json"
        if case == "directory":
            cfg.mkdir()
        elif case == "not_utf8":
            cfg.write_bytes(json.dumps(minimal_config(output_dir="\xe9"), ensure_ascii=False)
                            .encode("latin-1"))
        assert main(["run", str(cfg), "--output-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read config {cfg}: ") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @staticmethod
    def no_check_runs(monkeypatch):
        def run_campaign(*args, **kwargs):
            raise AssertionError("a check ran before the output directory was refused")
        monkeypatch.setattr(campaign, "run_campaign", run_campaign)

    def test_output_dir_naming_a_file_exits_two(self, tmp_path, monkeypatch, capsys):
        self.no_check_runs(monkeypatch)
        taken = tmp_path / "taken"
        taken.write_text("")
        cfg = tmp_path / "campaign.json"
        cfg.write_text(json.dumps(minimal_config()))
        assert main(["run", str(cfg), "--output-dir", str(taken)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write outputs to {taken}: ")
        assert err.count("\n") == 1 and taken.read_text() == ""

    def test_output_dir_under_a_file_exits_two(self, tmp_path, monkeypatch, capsys):
        self.no_check_runs(monkeypatch)
        taken = tmp_path / "taken"
        taken.write_text("")
        out = taken / "sub" / "out"
        assert main(["run", "gaussian-sharp", "--output-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: cannot write outputs to {out}: {taken} is not a directory\n"
        assert taken.read_text() == ""

    @pytest.mark.parametrize("text, label", [("cosh:0.8", "cosh_field(0.8)"),
                                             ("constant:1.5", "constant(1.5)")])
    def test_check_field_shorthand(self, text, label, capsys):
        assert main(["check", "--check", "slsi", "--field", text]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["inputs"]["field"] == label and out["passed"] and not out["inconclusive"]

    def test_run_preset_with_jobs(self, tmp_path):
        assert main(["run", "gaussian-sharp", "--output-dir", str(tmp_path),
                     "--jobs", "3"]) == 0

    def test_config_file_run(self, tmp_path, capsys):
        cfg = tmp_path / "campaign.json"
        cfg.write_text(json.dumps(minimal_config()))
        assert main(["run", str(cfg), "--output-dir", str(tmp_path / "out")]) == 0

    def test_bad_config_diagnostics(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text('{"checks": [{"check": "slsi", "measure": "missing"}]}')
        code = main(["run", str(cfg)])
        assert code == 2
        assert "missing" in capsys.readouterr().err
