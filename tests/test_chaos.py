"""The chaos harness (``repro.chaos``) — unit checks plus a short live
campaign.

The long campaign (200+ faults) runs in CI's ``chaos-smoke`` job and by
hand via ``repro chaos``; here we keep the fault count small so the
tier-1 suite stays fast while still covering every layer: op menu
dispatch, report bookkeeping, and a real daemon surviving a seeded
mixed-fault barrage with the post-campaign identity intact.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.chaos import (
    CampaignReport,
    ChaosCampaign,
    OP_WEIGHTS,
    _subprocess_env,
    default_source,
    main,
    one_shot_result,
)
from repro.serve import TERMINAL_STATUSES


class TestReport:
    def test_counts_and_json_shape(self):
        report = CampaignReport(seed=7, faults=3)
        report.count("malformed_json", "protocol_error")
        report.count("analyze_ok", "ok")
        report.count("analyze_ok", "ok")
        report.violate("something broke")
        payload = report.to_json()
        assert payload["ops"] == {"analyze_ok": 2, "malformed_json": 1}
        assert payload["statuses"] == {"ok": 2, "protocol_error": 1}
        assert payload["violations"] == ["something broke"]
        assert json.dumps(payload)  # serializable as-is

    def test_every_menu_op_has_a_handler(self):
        campaign = ChaosCampaign.__new__(ChaosCampaign)
        for op, weight in OP_WEIGHTS:
            assert weight > 0
            assert callable(getattr(campaign, f"_op_{op}")), op

    def test_expect_status_flags_non_terminal_and_unexpected(self):
        campaign = ChaosCampaign.__new__(ChaosCampaign)
        campaign.report = CampaignReport()
        campaign._expect_status("x", {"status": "weird"})
        campaign._expect_status("x", {"status": "error"}, "ok")
        campaign._expect_status("x", None)
        assert len(campaign.report.violations) == 3
        campaign._expect_status("x", {"status": "error"})  # any terminal ok
        assert len(campaign.report.violations) == 3


class TestOneShotBaseline:
    def test_mixy_baseline_is_the_one_shot_stdout_verbatim(self, tmp_path):
        source = default_source()
        path = tmp_path / "baseline.c"
        path.write_text(source)
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "mixy", str(path), "--jobs", "1"],
            capture_output=True, text=True, env=_subprocess_env(),
            cwd=tmp_path, timeout=300,
        )
        result = one_shot_result("mixy", source)
        assert result == {"exit": proc.returncode, "lines": proc.stdout.splitlines()}
        assert result["exit"] == 1
        assert result["lines"][-1].endswith(" warning(s)")
        # The perf summary (timings) is on stderr, never in the result.
        assert "solver call" in proc.stderr
        assert not any("solver call" in line for line in result["lines"])

    def test_parse_error_keeps_stderr_and_exit_2(self):
        result = one_shot_result("mixy", "int main( {")
        assert result["exit"] == 2
        assert result["lines"][0].startswith("error:")


@pytest.mark.skipif(not hasattr(os, "fork"), reason="campaign expects fork")
class TestLiveCampaign:
    def test_short_campaign_has_no_violations(self):
        campaign = ChaosCampaign(faults=12, seed=5, quiet=True)
        report = campaign.run()
        assert report.violations == []
        assert report.final_match is True
        assert sum(report.ops.values()) >= 12
        assert set(report.statuses) <= set(TERMINAL_STATUSES) | {"no_reply"}

    def test_cli_entry_point_json_report(self, tmp_path):
        env = dict(os.environ)
        src = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
        )
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [
                sys.executable, "-m", "repro.cli", "chaos", "--",
                "--faults", "6", "--seed", "2", "--json",
            ],
            capture_output=True, text=True, env=env, cwd=tmp_path,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["violations"] == []
        assert payload["faults"] == 6


class TestMainArgs:
    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as info:
            main(["--no-such-flag"])
        assert info.value.code == 2
