import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fracrd import cli, harness, solver
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

    @pytest.mark.parametrize("kind,required,line,message", [
        ("ml_table", "", "tol = 1e-10", "unknown key"),
        ("decay", "alpha = 0.5\ns = 0.4\n", "slope_band = 0.15", "unknown key"),
        ("decay", "alpha = 0.5\ns = 0.4\n", "envelope_slack = 1.05", "unknown key"),
        ("decay", "alpha = 0.5\ns = 0.4\n", "l1_check = true", "unknown key"),
        ("blowup", "alphas = 1.0\ns = 0.4\n", "logistic_check = true", "unknown key"),
        ("blowup", "alphas = 1.0\ns = 0.4\n", "stability_tol = 0.05", "unknown key"),
        ("invariant_region", "alphas = 0.5\ns_values = 0.4\n", "bound_tol = 1e-8", "unknown key"),
        ("invariant_region", "alphas = 0.5\ns_values = 0.4\n", "comparison_pairs = 0",
         "violates lower bound [1"),
    ])
    def test_gate_keys_rejected(self, tmp_path, kind, required, line, message):
        # Gates are fixed and every record runs: no key widens a gate or drops a record.
        text = f"[c]\nkind = {kind}\n{required}{line}\n"
        with pytest.raises(ConfigError, match=re.escape(message)) as err:
            parse_config(_write(tmp_path, text))
        assert err.value.key == line.split(" =")[0]
        assert err.value.section == "c"

    def test_blowup_n_capped_at_half_the_operator_limit(self, tmp_path):
        # the stability arm runs at 2 n, and the operator stops at n = 4096
        text = "[bu]\nkind = blowup\nalphas = 1\ns = 0.4\nn = {}\n"
        (campaign,) = parse_config(_write(tmp_path, text.format(2048)))
        assert campaign.params["n"] == 2048
        bound = re.escape("value 2049 violates upper bound 2048]")
        with pytest.raises(ConfigError, match=bound) as err:
            parse_config(_write(tmp_path, text.format(2049)))
        assert (err.value.key, err.value.section) == ("n", "bu")

    def test_unknown_key_rejected(self, tmp_path):
        bad = MINIMAL_DECAY.replace("t_end = 100", "t_end = 100\nslope_bnd = 1e-9")
        with pytest.raises(ConfigError) as err:
            parse_config(_write(tmp_path, bad))
        assert err.value.key == "slope_bnd"
        assert err.value.section == "decay-small"

    def test_keyless_kind_says_it_takes_no_keys(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            parse_config(_write(tmp_path, "[x]\nkind = ml_table\ntol = 1e-10\n"))
        assert "'ml_table' (it takes no keys)" in str(err.value)
        assert "choose from []" not in str(err.value)
        assert (err.value.key, err.value.section) == ("tol", "x")

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


class TestGates:
    @pytest.mark.parametrize("gate,expected,tol,inside,outside", [
        (harness.at_most(1e-9), "<=1e-09", 1e-9, 1e-9, 1.0000001e-9),
        (harness.at_least(-1e-10), ">=-1e-10", 1e-10, -1e-10, -1.0000001e-10),
        (harness.equals(1), "==1", 0.0, 1.0, 0.0),
        (harness.within(-1.075, -0.925, 0.075), "in[-1.075,-0.925]", 0.075, -0.925, -0.9),
        # 0.1 + 0.2 is 0.30000000000000004; the text carries 15 digits
        (harness.within(0.1 + 0.2, 1.7, 1.4), "in[0.3,1.7]", 1.4, 1.7, 0.29),
    ])
    def test_gate_text_tol_and_decision(self, gate, expected, tol, inside, outside):
        assert (gate.expected, gate.tol) == (expected, tol)
        assert gate.passes(inside) and not gate.passes(outside)
        assert not gate.passes(math.nan)


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

    def test_long_horizon_config_parses(self):
        campaigns = parse_config(ROOT / "configs" / "long_horizon.ini")
        assert [(c.name, c.kind) for c in campaigns] == [
            ("decay-long-a05", "decay"),
            ("decay-long-a08", "decay"),
        ]
        for campaign, alpha in zip(campaigns, (0.5, 0.8)):
            p = campaign.params
            assert (p["alpha"], p["dt"], p["t_end"]) == (alpha, 0.5, 8000.0)
            assert round(p["t_end"] / p["dt"]) == 16_000

    def test_readme_lists_every_key_with_default(self):
        # Each kind's README entry names every key, with its default written
        # as the INI line that sets it.
        readme = (ROOT / "README.md").read_text()

        def ini(value):
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
                "comparison_pairs": 1,
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
                "comparison_pairs": 1,
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

    @pytest.mark.parametrize("domain", ["0,1e300", "0,1e-300", "0,5e-324"])
    def test_eig_extreme_domain_exit_two(self, tmp_path, capsys, domain):
        code = cli.main(
            ["eig", "--s", "0.9", "--n", "8", "--domain", domain, "--out", str(tmp_path)]
        )
        assert code == 2
        assert "cell width" in capsys.readouterr().err

    @pytest.mark.parametrize("domain,cause", [
        ("0,1e-100", "underflowed to 0"), ("0,1e100", "overflowed"),
    ])
    def test_eig_iterate_norm_out_of_range_exit_two(self, tmp_path, capsys, domain, cause):
        # the matrix is finite, but its inverse iterate's norm leaves the double range
        code = cli.main(
            ["eig", "--s", "0.9", "--n", "8", "--domain", domain, "--out", str(tmp_path)]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert len(err.splitlines()) == 1
        assert f"norm {cause}" in err and "on the domain (0, 1e" in err

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
        # at n = 32 and dt = 0.25 to t = 200 every record meets its fixed gate
        passing = MINIMAL_DECAY.replace("dt = 0.5\nt_end = 100", "dt = 0.25\nt_end = 200")
        cfg = _write(tmp_path, passing)
        out_dir = tmp_path / "out"
        code = cli.main(["run", str(cfg), "--out", str(out_dir)])
        captured = capsys.readouterr().out
        assert (out_dir / "report.txt").exists()
        assert "overall=" in captured
        assert code == 0

    def test_run_failure_exit_nonzero(self, tmp_path, capsys):
        # at dt = 2 the fit window starts before the first recorded time, so
        # the slope is nan and its record fails; exit must be 1
        coarse = MINIMAL_DECAY.replace("dt = 0.5", "dt = 2")
        cfg = _write(tmp_path, coarse)
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

    def test_run_non_utf8_config_exit_two(self, tmp_path, capsys):
        cfg = tmp_path / "bad.ini"
        cfg.write_bytes(MINIMAL_DECAY.encode() + b"# \xff\n")
        code = cli.main(["run", str(cfg), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        offset = len(MINIMAL_DECAY) + 2
        assert err.splitlines() == [f"error: {cfg} is not UTF-8: byte 0xff at offset {offset}"]

    def test_run_bom_prefixed_config(self, tmp_path, capsys):
        # Windows editors start UTF-8 files with a byte-order mark
        cfg = tmp_path / "example.ini"
        cfg.write_bytes(b"\xef\xbb\xbf" + (ROOT / "configs" / "example.ini").read_bytes())
        code = cli.main(["run", str(cfg), "--out", str(tmp_path / "o")])
        capsys.readouterr()
        assert code == 0

    @pytest.mark.parametrize("text,cause", [
        ("kind = decay\n", "File contains no section headers. file: "),
        ("[a]\nkind = decay\nfoo\n", "Source contains parsing errors: "),
    ])
    def test_run_malformed_config_one_error_line(self, tmp_path, capsys, text, cause):
        cfg = _write(tmp_path, text)
        code = cli.main(["run", str(cfg), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: cannot parse configuration: {cause}")

    def test_run_unknown_campaign_filter(self, tmp_path, capsys):
        cfg = _write(tmp_path, MINIMAL_DECAY)
        code = cli.main(["run", str(cfg), "--campaign", "nope", "--out", str(tmp_path / "o")])
        capsys.readouterr()
        assert code == 2


class TestBlowupRecords:
    @staticmethod
    def _campaign(alpha):
        params = {key: spec[1] for key, spec in CAMPAIGN_SCHEMA["blowup"].items()}
        params.update(alphas=(alpha,), s=0.4, n=8, h0_factors=(1.2,))
        return Campaign(name="bu", kind="blowup", params=params)

    def test_containment_names_inconclusive_finding(self):
        # at alpha = 0.5 the step reaches the floor before max u reaches 1e8
        frag, _ = run_campaign(self._campaign(0.5))
        (record,) = [r for r in frag if not r.name.startswith("logistic_T_")]
        assert record.name == "containment_a0.5_f1.2" and not record.passed
        assert record.expected.endswith(";finding:inconclusive")

    def test_ladder_out_of_step_budget_keeps_the_other_records(self, monkeypatch):
        # the ladder's third rung would pass the step budget: one inconclusive
        # containment record, not one campaign_error for the whole campaign
        monkeypatch.setattr(solver, "_MAX_STEPS", 2 * 416)
        campaign = self._campaign(1.0)
        campaign.params.update(n=32, h0_factors=(1.6,))
        frag, _ = run_campaign(campaign)
        assert [r.name for r in frag] == [
            "logistic_T_y0_0.5", "logistic_T_y0_1", "logistic_T_y0_2", "containment_a1_f1.6",
        ]
        assert all(r.passed for r in frag[:3])
        assert frag[3].expected.endswith(";finding:inconclusive") and not frag[3].passed

    def test_stability_names_each_non_blowup_arm(self, monkeypatch):
        findings = iter([
            BlowupFinding(status="blowup", t_star=0.1, estimates=(0.1, 0.1)),
            BlowupFinding(status="inconclusive", t_star=None, estimates=()),
            BlowupFinding(status="none", t_star=None, estimates=()),
        ])
        monkeypatch.setattr(harness, "detect_blowup", lambda cfg: next(findings))
        frag, _ = run_campaign(self._campaign(1.0))
        stability = next(r for r in frag if r.name.startswith("stability_"))
        assert stability.name == "stability_a1_f1.2" and not stability.passed
        assert stability.expected == "<=0.05;dt:inconclusive;n:none"


# Every other key small, so each case of the sweep costs at most about 0.2 s.
_SWEEP_SMALL = {
    "invariant_region": {"alphas": "1", "s_values": "0.5", "n": "8", "dt": "0.5", "t_end": "1",
                         "comparison_pairs": "1"},
    "decay": {"alpha": "0.5", "s": "0.5", "n": "8", "dt": "0.5", "t_end": "20"},
    "blowup": {"alphas": "1", "s": "0.5", "n": "8", "h0_factors": "1.6"},
    "eigen_convergence": {"s_values": "0.5", "oracle_n": "8", "probes": "1"},
}

# Accepted values whose run alone costs seconds to minutes are checked at parse
# only: n = 4096 (invariant_region, decay) and oracle_n = 4096 build a 4096-node
# basis or run dense eigh there, which the `large-grid` workload of bench/ and
# test_operator's largest-grid tests exercise; blowup's n = 2048 also runs its
# stability arm at n = 4096; 10000 comparison pairs take about 2 minutes.
_PARSE_ONLY = {
    ("invariant_region", "n", "4096"), ("decay", "n", "4096"), ("blowup", "n", "2048"),
    ("eigen_convergence", "oracle_n", "4096"), ("invariant_region", "comparison_pairs", "10000"),
}


def _sweep_cases():
    """(kind, key, raw, inside): each numeric key at the ends of its bounds,
    just past them and at 1e+-300; ``inside`` says whether the schema accepts it."""
    cases = []
    for kind in _SWEEP_SMALL:
        for key, (value_type, _, bounds) in CAMPAIGN_SCHEMA[kind].items():
            if bounds is None:  # profile: test_unknown_profile_rejected
                continue
            lo_text, hi_text = (part.strip() for part in bounds.split(","))
            ends = ((float(lo_text[1:]), lo_text[0] == "[", -1.0),
                    (float(hi_text[:-1]), hi_text[-1] == "]", 1.0))
            values = [1e300, 1e-300]
            for end, closed, sign in ends:
                if value_type == "int":
                    values += [int(end), int(end + sign)]
                    continue
                values.append(math.nextafter(end, sign * math.inf) if closed else end)
                if math.isfinite(end):
                    values.append(end if closed else math.nextafter(end, -sign * math.inf))
            for v in values:
                raw = repr(v)
                if value_type == "domain":
                    raw = f"0, {raw}" if v > 0 else f"{raw}, 0"
                # an int key does not parse 1e+-300, so that is a ConfigError too
                inside = (value_type != "int" or isinstance(v, int)) and all(
                    v * sign < end * sign or (closed and v == end) for end, closed, sign in ends)
                cases.append((kind, key, raw, inside))
    return cases


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind,key,raw,inside", _sweep_cases())
def test_config_sweep_runs_or_fails_typed(tmp_path, kind, key, raw, inside):
    # The contract: every value the schema accepts runs, or fails with a typed
    # FracRDError that names its cause; every other value is a ConfigError
    # naming the key.  A numpy warning on the way is an error.
    options = {**_SWEEP_SMALL[kind], key: raw}
    text = f"[c]\nkind = {kind}\n" + "".join(f"{k} = {v}\n" for k, v in options.items())
    if not inside:
        with pytest.raises(ConfigError) as err:
            parse_config(_write(tmp_path, text))
        assert (err.value.key, err.value.section) == (key, "c")
        return
    (campaign,) = parse_config(_write(tmp_path, text))
    if (kind, key, raw) in _PARSE_ONLY:
        return
    frag, _ = run_campaign(campaign)
    assert frag and all(isinstance(r.passed, bool) for r in frag)
    if frag[0].name == "campaign_error":
        assert len(frag) == 1 and "\n" not in frag[0].expected
