"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestFactorCommand:
    def test_conflux_default(self, capsys):
        rc = main(["factor", "--n", "32", "--p", "4"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "conflux" in out
        assert "residual" in out

    def test_verbose_phase_breakdown(self, capsys):
        rc = main(["factor", "--n", "32", "--p", "4", "--verbose"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "panel_a10" in out
        assert "msgs" in out

    def test_scalapack_with_block(self, capsys):
        rc = main(
            ["factor", "--algo", "scalapack2d", "--n", "32", "--p", "4",
             "--nb", "8"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "scalapack2d" in out

    def test_cholesky_builds_spd_input(self, capsys):
        rc = main(
            ["factor", "--algo", "cholesky25d", "--n", "32", "--p", "4"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "cholesky25d" in out

    def test_conflux_explicit_v(self, capsys):
        rc = main(["factor", "--n", "32", "--p", "4", "--v", "8"])
        assert rc == 0
        assert "block=8" in capsys.readouterr().out

    def test_caqr_reports_orthogonality(self, capsys):
        rc = main(
            ["factor", "--algo", "caqr25d", "--n", "32", "--p", "4",
             "--v", "4"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "caqr25d" in out
        assert "orthogonality" in out

    def test_qr2d_verbose_phases(self, capsys):
        rc = main(
            ["factor", "--algo", "qr2d", "--n", "32", "--p", "4",
             "--nb", "8", "--verbose"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "panel_bcast" in out
        assert "update_reduce" in out

    def test_unknown_impl_rejected(self):
        with pytest.raises(SystemExit):
            main(["factor", "--algo", "mkl"])

    def test_algo_flag_is_canonical(self, capsys):
        rc = main(["factor", "--algo", "slate2d", "--n", "32",
                   "--p", "4"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "slate2d" in out

    def test_list_shows_capabilities(self, capsys):
        rc = main(["factor", "--list"])
        out = capsys.readouterr().out
        assert rc == 0
        for name in ("conflux", "scalapack2d", "slate2d", "candmc25d",
                     "cholesky25d", "caqr25d", "qr2d", "mmm25d"):
            assert name in out
        assert "chol" in out
        assert "25d" in out and "2d" in out
        assert "float64" in out

    def test_mmm_rejected_with_pointer(self, capsys):
        with pytest.raises(SystemExit):
            main(["factor", "--algo", "mmm25d", "--n", "16",
                  "--p", "4"])
        assert "mmm25d()" in capsys.readouterr().err


class TestBoundsCommand:
    def test_lu_bounds(self, capsys):
        rc = main(["bounds", "--kernel", "lu", "--n", "512",
                   "--m", "1024"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "LU I/O lower bound" in out
        assert "S1" in out and "S2" in out

    def test_parallel_bound_printed(self, capsys):
        rc = main(["bounds", "--kernel", "mmm", "--n", "256",
                   "--m", "1024", "--p", "16"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "P=16" in out

    def test_cholesky_bounds(self, capsys):
        rc = main(["bounds", "--kernel", "cholesky", "--n", "256",
                   "--m", "256"])
        assert rc == 0
        assert "S3" in capsys.readouterr().out


class TestPlanCommand:
    def test_piz_daint_plan(self, capsys):
        rc = main(["plan", "--machine", "piz_daint", "--n", "16384",
                   "--p", "1024"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "Piz Daint" in out
        assert "best: conflux" in out

    def test_summit_full_machine_default_p(self, capsys):
        rc = main(["plan", "--machine", "summit", "--n", "16384"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "P=4,608" in out


class TestModelsCommand:
    def test_exact_models(self, capsys):
        rc = main(["models", "--n", "4096", "--p", "1024"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "conflux" in out and "GB total" in out

    def test_leading_flag(self, capsys):
        rc = main(["models", "--n", "4096", "--p", "1024", "--leading"])
        assert rc == 0
        assert "leading factors" in capsys.readouterr().out


class TestSweepCommand:
    def test_list_names_every_spec(self, capsys):
        rc = main(["sweep", "--list"])
        out = capsys.readouterr().out
        assert rc == 0
        for name in ("table2", "fig6a", "fig7", "lower-bound-gap",
                     "qr-strong", "qr-weak", "qr-lower-bound-gap"):
            assert name in out

    def test_qr_gap_sweep_runs(self, capsys, tmp_path):
        rc = main(["sweep", "--run", "qr-lower-bound-gap",
                   "--max-points", "1", "--workers", "1",
                   "--cache-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "1 computed" in out
        assert "gap" in out

    def test_run_then_resume_hits_cache(self, capsys, tmp_path):
        args = ["sweep", "--run", "table2", "--max-points", "2",
                "--workers", "1", "--cache-dir", str(tmp_path)]
        rc = main(args)
        out = capsys.readouterr().out
        assert rc == 0
        assert "2 computed, 0 cached" in out
        assert "scalapack2d" in out

        # a rerun resumes from the cache
        rc = main(args)
        out = capsys.readouterr().out
        assert rc == 0
        assert "0 computed, 2 cached" in out

    def test_show_and_clear_cache(self, capsys, tmp_path):
        main(["sweep", "--run", "table2", "--max-points", "1",
              "--workers", "1", "--cache-dir", str(tmp_path)])
        capsys.readouterr()
        rc = main(["sweep", "--show-cache", "--cache-dir",
                   str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "entries: 1" in out
        rc = main(["sweep", "--clear-cache", "--cache-dir",
                   str(tmp_path)])
        assert rc == 0
        assert "removed 1 entries" in capsys.readouterr().out

    def test_unknown_sweep_name(self, capsys):
        rc = main(["sweep", "--run", "not-a-sweep"])
        assert rc == 2
        assert "unknown sweep" in capsys.readouterr().err

    def test_no_action_is_an_error(self, capsys):
        rc = main(["sweep"])
        assert rc == 2
        assert "nothing to do" in capsys.readouterr().err

    def test_no_cache_flag_recomputes(self, capsys, tmp_path):
        args = ["sweep", "--run", "lower-bound-gap", "--max-points",
                "1", "--workers", "1", "--no-cache",
                "--cache-dir", str(tmp_path)]
        assert main(args) == 0
        assert "1 computed" in capsys.readouterr().out
        assert main(args) == 0
        assert "1 computed" in capsys.readouterr().out


class TestParser:
    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_module_entry_point_importable(self):
        import importlib.util

        spec = importlib.util.find_spec("repro.__main__")
        assert spec is not None
