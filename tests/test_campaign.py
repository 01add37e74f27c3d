import csv
import json
import re
from pathlib import Path

import pytest

import lshlab as L
from lshlab.campaign import (
    CHECK_KINDS,
    CampaignConfig,
    build_field,
    build_measure,
    dump_config,
    preset,
    resolve_spec,
)
from lshlab.cli import _CHECKS, main
from lshlab.errors import ConfigError


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


class TestConfig:
    def test_round_trip(self):
        config = CampaignConfig.from_dict(minimal_config())
        again = CampaignConfig.from_dict(json.loads(dump_config(config)))
        assert again == config

    def test_preset_round_trips(self):
        config = preset("gaussian-sharp")
        again = CampaignConfig.from_dict(json.loads(dump_config(config)))
        assert again == config

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

    def test_nested_measure_declarations(self):
        decl = {
            "op": "mix",
            "first": {"family": "gaussian", "sigma": 1.0, "dim": 1},
            "second": {"op": "shift", "base": {"family": "gaussian", "dim": 1},
                        "offset": [0.5]},
            "t": 0.25,
        }
        mu = build_measure(decl)
        assert mu.provenance == "mixture"

    def test_nested_field_declarations(self):
        decl = {
            "builder": "power",
            "base": {"builder": "dilate", "base": {"builder": "log_linear", "lam": [0.5]},
                      "r": 0.7},
            "exponent": 2,
        }
        f = build_field(decl)
        assert f.dim == 1 and f.certificate == "power"

    def test_auto_scheme_resolution(self, gauss1):
        spec = resolve_spec({"scheme": "auto"}, gauss1, seed=5)
        assert spec.scheme == "gauss_hermite" and spec.seed == 5


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
        raw = minimal_config(
            measures={"ball": {"family": "uniform_ball", "radius": 1.0, "dim": 1}},
            fields={"f": {"builder": "cosh", "lam": 0.5}},
            checks=[{"check": "dilation_bound", "measure": "ball", "fields": ["f"],
                      "p": 2.0, "r": 0.8}],
        )
        code = L.run(CampaignConfig.from_dict(raw), output_dir=tmp_path)
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["summary"]["inconclusive"] == 1

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
        # with only r = 1, alpha(1) = ||f||_1 and every row is met: c_min
        raw = minimal_config(checks=[{"check": "best_constant", "measure": "g",
                                      "fields": ["f"], "mode": "shc", "r_grid": [1.0]}])
        L.run(CampaignConfig.from_dict(raw), output_dir=tmp_path)
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["checks"][0]["quantities"]["c_star"] == 0.25

    def test_parallel_jobs_match_serial(self, tmp_path):
        d1, d2 = tmp_path / "serial", tmp_path / "par"
        L.run("gaussian-sharp", output_dir=d1, jobs=1)
        L.run("gaussian-sharp", output_dir=d2, jobs=4)
        strip = lambda p: re.sub(
            r'"generated_at": "[^"]*"', '"generated_at": "X"',
            (p / "report.json").read_text(),
        )
        assert strip(d1) == strip(d2)

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

    def test_check_subcommand(self, capsys):
        code = main(["check", "--check", "slsi", "--measure", "gaussian",
                     "--field", "log_linear:0.8", "--c", "1.0"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is True

    def test_check_offers_only_handled_kinds(self, capsys):
        # best_constant is a campaign check kind but has its own subcommand
        assert set(_CHECKS) == set(CHECK_KINDS) - {"best_constant"}
        with pytest.raises(SystemExit) as exc:
            main(["check", "--check", "best_constant"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            main(["check", "--help"])
        assert "best-c" in capsys.readouterr().out

    def test_check_failure_exit_code(self, capsys):
        code = main(["check", "--check", "slsi", "--measure", "gaussian",
                     "--field", "log_linear:1.2", "--c", "0.9"])
        assert code == 1

    def test_run_subcommand(self, tmp_path):
        code = main(["run", "gaussian-sharp", "--output-dir", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "report.json").exists()
        assert (tmp_path / "summary.txt").exists()

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
