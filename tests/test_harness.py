import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fracrd import cli, harness
from fracrd.errors import ConfigError
from fracrd.harness import (
    CAMPAIGN_SCHEMA,
    Campaign,
    Report,
    default_campaigns,
    parse_config,
    run_campaign,
    run_campaigns,
    write_outputs,
)
from fracrd.solver import BlowupFinding

ROOT = Path(__file__).resolve().parents[1]

MINIMAL_DECAY = """
[decay-small]
kind = decay
alpha = 0.5
s = 0.4
n = 32
dt = 0.5
t_end = 100
l1_check = false
"""


def _write(tmp_path, text, name="campaigns.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestParseConfig:
    def test_minimal_decay(self, tmp_path):
        campaigns = parse_config(_write(tmp_path, MINIMAL_DECAY))
        assert len(campaigns) == 1
        assert campaigns[0].kind == "decay"
        assert campaigns[0].params["alpha"] == 0.5

    def test_alpha_out_of_range_names_key(self, tmp_path):
        bad = MINIMAL_DECAY.replace("alpha = 0.5", "alpha = 1.5")
        with pytest.raises(ConfigError) as err:
            parse_config(_write(tmp_path, bad))
        assert err.value.key == "alpha"

    def test_missing_s_names_key(self, tmp_path):
        bad = MINIMAL_DECAY.replace("s = 0.4\n", "")
        with pytest.raises(ConfigError) as err:
            parse_config(_write(tmp_path, bad))
        assert err.value.key == "s"

    def test_slope_band_two_rejected(self, tmp_path):
        # From slope_band = 2 the slope interval reaches 0 and would accept growth.
        bad = MINIMAL_DECAY.replace("t_end = 100", "t_end = 100\nslope_band = 2")
        with pytest.raises(ConfigError) as err:
            parse_config(_write(tmp_path, bad))
        assert err.value.key == "slope_band"
        assert err.value.section == "decay-small"

    def test_unknown_kind(self, tmp_path):
        bad = MINIMAL_DECAY.replace("kind = decay", "kind = frobnicate")
        with pytest.raises(ConfigError) as err:
            parse_config(_write(tmp_path, bad))
        assert err.value.key == "kind"

    def test_other_kinds_required_keys(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            parse_config(_write(tmp_path, "[b]\nkind = blowup\ns = 0.4\n"))
        assert err.value.key == "alphas"
        with pytest.raises(ConfigError) as err:
            parse_config(_write(tmp_path, "[i]\nkind = invariant_region\nalphas = 0.5\n"))
        assert err.value.key == "s_values"

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(tmp_path / "nope.ini")

    @pytest.mark.parametrize("word,value", [
        ("1", True), ("yes", True), ("true", True), ("On", True),
        ("0", False), ("no", False), ("false", False), ("OFF", False),
    ])
    def test_bool_words(self, tmp_path, word, value):
        text = MINIMAL_DECAY.replace("l1_check = false", f"l1_check = {word}")
        assert parse_config(_write(tmp_path, text))[0].params["l1_check"] is value

    def test_bad_bool_rejected(self, tmp_path):
        bad = "[b]\nkind = blowup\nalphas = 1.0\ns = 0.4\nlogistic_check = maybe\n"
        with pytest.raises(ConfigError) as err:
            parse_config(_write(tmp_path, bad))
        assert err.value.key == "logistic_check"
        assert err.value.section == "b"

    def test_unknown_key_rejected(self, tmp_path):
        bad = MINIMAL_DECAY.replace("t_end = 100", "t_end = 100\nslope_bnd = 1e-9")
        with pytest.raises(ConfigError) as err:
            parse_config(_write(tmp_path, bad))
        assert err.value.key == "slope_bnd"
        assert err.value.section == "decay-small"

    def test_unknown_profile_rejected(self, tmp_path):
        bad = MINIMAL_DECAY.replace("t_end = 100", "t_end = 100\nprofile = nope")
        with pytest.raises(ConfigError) as err:
            parse_config(_write(tmp_path, bad))
        assert err.value.key == "profile"
        assert err.value.section == "decay-small"

    @pytest.mark.parametrize("line,key", [
        ("t_end = nan", "t_end"), ("t_end = inf", "t_end"), ("t_end = 100\ndomain = 0, inf", "domain"),
    ])
    def test_non_finite_rejected(self, tmp_path, line, key):
        bad = MINIMAL_DECAY.replace("t_end = 100", line)
        with pytest.raises(ConfigError) as err:
            parse_config(_write(tmp_path, bad))
        assert err.value.key == key

    def test_default_suite_covers_all_kinds(self):
        kinds = {c.kind for c in default_campaigns()}
        assert kinds == {
            "ml_table",
            "eigen_convergence",
            "decay",
            "blowup",
            "invariant_region",
        }


class TestConfigDocs:
    def test_example_config_parses(self):
        campaigns = parse_config(ROOT / "configs" / "example.ini")
        assert [(c.name, c.kind) for c in campaigns] == [
            ("ml-accuracy", "ml_table"),
            ("operator-checks", "eigen_convergence"),
            ("decay-quick", "decay"),
            ("bounds-quick", "invariant_region"),
            ("blowup-quick", "blowup"),
        ]

    def test_readme_lists_every_key_with_default(self):
        # Each kind's README entry names every key, with its default written
        # as the INI line that sets it.
        readme = (ROOT / "README.md").read_text()

        def ini(value):
            if isinstance(value, bool):
                return "true" if value else "false"
            if isinstance(value, (list, tuple)):
                return ", ".join(ini(v) for v in value)
            if isinstance(value, float):
                return f"{value:g}".replace("e-0", "e-")
            return str(value)

        for kind, keys in CAMPAIGN_SCHEMA.items():
            match = re.search(rf"^\* `{kind}` - (.*?)(?=^\* |^$)", readme, re.M | re.S)
            assert match, f"README has no entry for {kind}"
            entry = " ".join(match.group(1).split())
            for key, (_, default, _) in keys.items():
                expected = f"`{key}`" if default is None else f"`{key} = {ini(default)}`"
                assert expected in entry, f"{kind}: README lacks {expected}"


class TestReportAndOutputs:
    def test_empty_report_is_vacuous_pass(self, tmp_path):
        report = Report()
        assert report.overall
        paths = write_outputs(report, {}, tmp_path)
        text = (tmp_path / "report.txt").read_text()
        assert "overall=pass checks=0" in text
        assert paths[-1].name == "report.txt"

    def test_trace_csv_contract(self, tmp_path):
        campaign = Campaign(
            name="inv",
            kind="invariant_region",
            params={
                "alphas": [0.5],
                "s_values": [0.5],
                "domain": (0.0, 1.0),
                "n": 32,
                "dt": 0.1,
                "t_end": 2.0,
                "bound_tol": 1e-8,
                "comparison_pairs": 0,
            },
        )
        report, traces = run_campaigns([campaign])
        write_outputs(report, traces, tmp_path)
        csvs = sorted(tmp_path.glob("*.csv"))
        assert csvs, "expected at least one trace CSV"
        lines = csvs[0].read_text().splitlines()
        assert lines[0] == "t,E,H,umin,umax"
        t = np.array([float(line.split(",")[0]) for line in lines[1:]])
        assert np.all(np.diff(t) > 0)

    def test_campaign_error_becomes_failed_record(self):
        bad = Campaign(
            name="inv",
            kind="invariant_region",
            params={
                "alphas": [0.5],
                "s_values": [0.5],
                "domain": (0.0, 1.0),
                # n below the grid minimum triggers a module DomainError
                "n": 1,
                "dt": 0.1,
                "t_end": 1.0,
                "bound_tol": 1e-8,
                "comparison_pairs": 0,
            },
        )
        frag, _ = run_campaign(bad)
        assert len(frag) == 1
        assert not frag[0].passed
        assert frag[0].name == "campaign_error"


class TestCli:
    def test_ml_eval_prints_value(self, capsys):
        code = cli.main(["ml-eval", "--alpha", "1.0", "--z", "-1.0"])
        assert code == 0
        out = capsys.readouterr().out.strip()
        assert out == "0.367879441171442"

    def test_eig_writes_csv(self, tmp_path, capsys):
        code = cli.main(
            ["eig", "--s", "0.5", "--n", "32", "--domain", "0,1", "--out", str(tmp_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        lam = float(out.splitlines()[0])
        assert lam > 0
        csv = tmp_path / "e1_s0.5_n32.csv"
        assert csv.exists()
        assert csv.read_text().splitlines()[0] == "x,e1"

    @pytest.mark.parametrize("domain", ["0", "0,abc", "1,0", "0,inf"])
    def test_eig_bad_domain_exit_two(self, tmp_path, capsys, domain):
        code = cli.main(
            ["eig", "--s", "0.5", "--n", "32", "--domain", domain, "--out", str(tmp_path)]
        )
        assert code == 2
        assert "key 'domain'" in capsys.readouterr().err

    @pytest.mark.parametrize("domain", ["0,1e300", "0,1e-300"])
    def test_eig_extreme_domain_exit_two(self, tmp_path, capsys, domain):
        code = cli.main(
            ["eig", "--s", "0.9", "--n", "8", "--domain", domain, "--out", str(tmp_path)]
        )
        assert code == 2
        assert "cell width" in capsys.readouterr().err

    @pytest.mark.parametrize("domain", ["0,1e300", "0,1e-300"])
    def test_eig_extreme_domain_stderr_is_one_line(self, tmp_path, domain):
        # a fresh interpreter with default warning filters: numpy warnings
        # must not precede the typed error
        argv = ["eig", "--s", "0.9", "--n", "8", "--domain", domain, "--out", str(tmp_path)]
        path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "fracrd.cli", *argv],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 2
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith("error: ")

    def test_run_config_exit_zero_and_outputs(self, tmp_path, capsys):
        cfg = _write(tmp_path, MINIMAL_DECAY.replace("t_end = 100", "t_end = 100\nslope_band = 0.5"))
        out_dir = tmp_path / "out"
        code = cli.main(["run", str(cfg), "--out", str(out_dir)])
        captured = capsys.readouterr().out
        assert (out_dir / "report.txt").exists()
        assert "overall=" in captured
        assert code == 0

    def test_run_failure_exit_nonzero(self, tmp_path, capsys):
        # a slope band no fit can meet makes the slope record fail; exit must be 1
        strict = MINIMAL_DECAY.replace("t_end = 100", "t_end = 100\nslope_band = 1e-9")
        cfg = _write(tmp_path, strict)
        out_dir = tmp_path / "out"
        code = cli.main(["run", str(cfg), "--out", str(out_dir)])
        capsys.readouterr()
        report = (out_dir / "report.txt").read_text()
        slope_line = next(
            line for line in report.splitlines() if line.startswith("check=decay-small/slope ")
        )
        assert "pass=false" in slope_line
        assert code == 1

    def test_run_repeat_bit_identical_canonical(self, tmp_path):
        campaigns = parse_config(_write(tmp_path, MINIMAL_DECAY))
        rep1, _ = run_campaigns(campaigns)
        rep2, _ = run_campaigns(campaigns)
        assert rep1.canonical_text() == rep2.canonical_text()

    def test_run_campaign_filter(self, tmp_path, capsys):
        two = MINIMAL_DECAY + "\n[ml-check]\nkind = ml_table\n"
        cfg = _write(tmp_path, two)
        out_dir = tmp_path / "out"
        code = cli.main(["run", str(cfg), "--campaign", "ml-check", "--out", str(out_dir)])
        report = (out_dir / "report.txt").read_text()
        capsys.readouterr()
        assert code == 0
        assert "ml-check/" in report
        assert "decay-small/" not in report

    def test_run_unknown_campaign_filter(self, tmp_path, capsys):
        cfg = _write(tmp_path, MINIMAL_DECAY)
        code = cli.main(["run", str(cfg), "--campaign", "nope", "--out", str(tmp_path / "o")])
        capsys.readouterr()
        assert code == 2


class TestBlowupRecords:
    @staticmethod
    def _campaign(alpha):
        params = {key: spec[1] for key, spec in CAMPAIGN_SCHEMA["blowup"].items()}
        params.update(alphas=(alpha,), s=0.4, n=8, h0_factors=(1.2,), logistic_check=False)
        return Campaign(name="bu", kind="blowup", params=params)

    def test_containment_names_inconclusive_finding(self):
        # at alpha = 0.5 the step reaches the floor before max u reaches 1e8
        frag, _ = run_campaign(self._campaign(0.5))
        (record,) = frag
        assert record.name == "containment_a0.5_f1.2" and not record.passed
        assert record.expected.endswith(";finding:inconclusive")

    def test_stability_names_each_non_blowup_arm(self, monkeypatch):
        findings = iter([
            BlowupFinding(status="blowup", t_star=0.1, estimates=(0.1, 0.1)),
            BlowupFinding(status="inconclusive", t_star=None, estimates=()),
            BlowupFinding(status="none", t_star=None, estimates=()),
        ])
        monkeypatch.setattr(harness, "detect_blowup", lambda cfg: next(findings))
        frag, _ = run_campaign(self._campaign(1.0))
        stability = frag[-1]
        assert stability.name == "stability_a1_f1.2" and not stability.passed
        assert stability.expected == "<=0.05;dt:inconclusive;n:none"
