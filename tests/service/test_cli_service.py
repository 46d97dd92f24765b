"""The ``loadgen`` CLI verb (the ``serve`` verb is covered at the
library level by the TCP tests in test_server.py)."""

import json

import pytest

from repro.cli import main


class TestLoadgen:
    def test_closed_loop_reports_the_headline_metrics(self, capsys):
        rc = main([
            "loadgen", "--mode", "closed", "--requests", "20",
            "--clients", "3", "--sizes", "24", "32", "--seed-pool", "3",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "closed-loop: 20 requests" in out
        assert "p50" in out and "p99" in out
        assert "throughput" in out
        assert "cache hit rate" in out

    def test_json_report_is_written_and_valid(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        rc = main([
            "loadgen", "--requests", "12", "--sizes", "24",
            "--seed-pool", "2", "--json", str(path),
        ])
        assert rc == 0
        doc = json.loads(path.read_text())
        assert doc["workload"]["requests"] == 12
        assert doc["metrics"]["counts"]["completed"] == 12
        assert doc["metrics"]["counts"]["computed"] <= 2  # tiny catalog

    def test_policy_and_seed_flags_flow_through(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        rc = main([
            "loadgen", "--requests", "10", "--policy", "least-loaded",
            "--seed", "5", "--sizes", "24", "--seed-pool", "2",
            "--json", str(path),
        ])
        assert rc == 0
        doc = json.loads(path.read_text())
        assert doc["service"]["policy"] == "least-loaded"
        assert doc["workload"]["seed"] == 5

    def test_cache_dir_makes_a_second_run_all_hits(self, capsys, tmp_path):
        args = [
            "loadgen", "--requests", "10", "--sizes", "24",
            "--seed-pool", "2", "--cache-dir", str(tmp_path / "cache"),
        ]
        assert main(args) == 0
        capsys.readouterr()
        rc = main(args + ["--json", str(tmp_path / "r2.json")])
        assert rc == 0
        doc = json.loads((tmp_path / "r2.json").read_text())
        # warm persistent cache: nothing computes the second time
        assert doc["metrics"]["counts"]["computed"] == 0

    def test_unknown_mode_rejected_by_argparse(self):
        with pytest.raises(SystemExit):
            main(["loadgen", "--mode", "burst"])
