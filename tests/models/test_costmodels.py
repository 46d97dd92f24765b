"""Tests for the Table 2 cost models."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models import get_model, predict
from repro.models.costmodels import (
    MODEL_NAMES,
    candmc_sim_total_bytes,
    candmc_total_bytes,
    conflux_leading_total_bytes,
    conflux_step_breakdown,
    conflux_total_bytes,
    derive_c_from_memory,
    scalapack2d_total_bytes,
    slate_total_bytes,
)


class TestScalapack2DModel:
    def test_formula(self):
        n, p = 1000, 16
        assert scalapack2d_total_bytes(n, p) == pytest.approx(
            (n**2 * 4 + n**2) * 8
        )

    def test_memory_independent(self):
        assert scalapack2d_total_bytes(512, 16, 1e3) == (
            scalapack2d_total_bytes(512, 16, 1e9)
        )

    def test_slate_coincides(self):
        assert slate_total_bytes(777, 9) == scalapack2d_total_bytes(777, 9)

    def test_validation(self):
        with pytest.raises(ValueError):
            scalapack2d_total_bytes(0, 4)
        with pytest.raises(ValueError):
            scalapack2d_total_bytes(10, 0)


class TestCandmcModel:
    def test_five_x_leading(self):
        n, p, m = 8192, 256, 1e6
        expected = (5 * n**3 / (p * math.sqrt(m)) + n**2 / (p * math.sqrt(m))) * p * 8
        assert candmc_total_bytes(n, p, m) == pytest.approx(expected)

    def test_more_memory_less_traffic(self):
        assert candmc_total_bytes(4096, 64, 4e6) < candmc_total_bytes(
            4096, 64, 1e6
        )


class TestConfluxModel:
    def test_step_breakdown_terms(self):
        bd = conflux_step_breakdown(n=64, p=16, grid_rows=2, layers=4,
                                    v=8, t=0)
        assert bd["reduce_column"] == 3 * 64 * 8
        assert bd["bcast_a00"] == 15 * (64 + 8)
        assert bd["tournament"] == 2 * 1 * (64 + 8)
        assert bd["reduce_pivot_rows"] == 3 * 8 * 56
        assert bd["scatter_a10"] == 56 * 8
        assert bd["scatter_a01"] == 8 * 56
        assert bd["panel_a10"] == 2 * 56 * 8
        assert bd["panel_a01"] == 2 * 8 * 56

    def test_exhausted_steps_empty(self):
        assert conflux_step_breakdown(64, 16, 2, 4, 8, t=8) == {}

    def test_total_is_step_sum(self):
        n, p, c, v, g = 64, 16, 4, 8, 2
        total = conflux_total_bytes(n, p, c=c, v=v, grid_rows=g)
        manual = 8 * sum(
            sum(conflux_step_breakdown(n, p, g, c, v, t).values())
            for t in range(n // v)
        )
        assert total == pytest.approx(manual)

    def test_c_derived_from_memory(self):
        n, p = 4096, 64
        m = 4 * n * n / p
        assert derive_c_from_memory(n, p, m) == 4

    def test_needs_m_or_c(self):
        with pytest.raises(ValueError, match="either m or c"):
            conflux_total_bytes(128, 16)

    def test_v_below_c_rejected(self):
        with pytest.raises(ValueError, match="must be >= c"):
            conflux_total_bytes(128, 16, c=8, v=4)

    def test_leading_form(self):
        n, p = 16384, 1024
        c = 16
        m = c * n * n / p
        lead = conflux_leading_total_bytes(n, p, m)
        assert lead == pytest.approx(
            n**2 * (math.sqrt(p / c) + c) * 8
        )


class TestTable2Regression:
    """Our models must land on the paper's modeled GB values."""

    @pytest.mark.parametrize(
        "n,p,paper_gb",
        [
            (4096, 64, 1.21),
            (4096, 1024, 4.43),
            (16384, 64, 19.33),
            (16384, 1024, 70.87),
        ],
    )
    def test_2d_model_matches_paper_exactly(self, n, p, paper_gb):
        assert scalapack2d_total_bytes(n, p) / 1e9 == pytest.approx(
            paper_gb, abs=0.005
        )

    @pytest.mark.parametrize(
        "n,p,paper_gb",
        [
            (4096, 64, 1.08),
            (4096, 1024, 3.07),
            (16384, 64, 17.19),
            (16384, 1024, 44.77),
        ],
    )
    def test_conflux_model_within_2pct_of_paper(self, n, p, paper_gb):
        from repro.models.prediction import sweep_models

        ours = sweep_models(n, p)["conflux"] / 1e9
        assert ours == pytest.approx(paper_gb, rel=0.02)


class TestCandmcSimModel:
    def test_panel_terms_scaled_by_c(self):
        from repro.models.costmodels import candmc_sim_step_breakdown

        base = conflux_step_breakdown(64, 16, 2, 4, 8, 0)
        sim = candmc_sim_step_breakdown(64, 16, 2, 4, 8, 0)
        assert sim["panel_a10"] == pytest.approx(4 * base["panel_a10"])
        assert sim["panel_a01"] == pytest.approx(4 * base["panel_a01"])
        assert "row_swap" in sim

    def test_swap_term_zero_for_g1(self):
        from repro.models.costmodels import candmc_sim_step_breakdown

        sim = candmc_sim_step_breakdown(64, 4, 1, 4, 8, 0)
        assert sim["row_swap"] == 0.0

    def test_total_exceeds_conflux(self):
        n, p, c, v, g = 256, 16, 4, 8, 2
        assert candmc_sim_total_bytes(n, p, c=c, v=v, grid_rows=g) > (
            conflux_total_bytes(n, p, c=c, v=v, grid_rows=g)
        )


class TestRegistry:
    def test_all_names_resolve(self):
        for name in MODEL_NAMES:
            assert get_model(name).name == name

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            get_model("mkl")

    def test_per_rank_and_gb_helpers(self):
        pred = predict("scalapack2d", 100, 4, m=1.0)
        total = scalapack2d_total_bytes(100, 4, 1.0)
        assert pred.total_bytes == total
        assert pred.per_rank_bytes == pytest.approx(total / 4)
        assert pred.total_gb == pytest.approx(total / 1e9)


class TestModelShapeProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=256, max_value=32768),
        p=st.sampled_from([16, 64, 256, 1024]),
    )
    def test_conflux_beats_2d_at_scale(self, n, p):
        """With the Processor-Grid-Optimized layout, COnfLUX's per-rank
        model never meaningfully exceeds the 2D model in the realistic
        regime N^2 >> P.  (A naive floor(sqrt(P/c)) grid *can* lose on
        awkward P — the outliers the paper's grid optimizer exists to
        remove.)"""
        from repro.algorithms.gridopt import optimize_grid_25d

        if n * n < 256 * p:
            return
        choice = optimize_grid_25d(p, n)
        two_d_per_rank = scalapack2d_total_bytes(n, p) / p
        assert choice.modeled_per_rank_bytes <= two_d_per_rank * 1.10

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=128, max_value=8192),
        p=st.sampled_from([4, 16, 64]),
        c=st.integers(min_value=1, max_value=4),
    )
    def test_conflux_model_positive_and_increasing_in_n(self, n, p, c):
        if p // c < 1:
            return
        v = max(c, 2)
        q1 = conflux_total_bytes(n, p, c=c, v=v)
        q2 = conflux_total_bytes(2 * n, p, c=c, v=v)
        assert 0 < q1 < q2
