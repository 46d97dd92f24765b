"""Tests for tournament-pivoting (TSLU) kernels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels import (
    growth_factor,
    local_candidates,
    lu_partial_pivot,
    merge_candidates,
    split_lu,
    tournament_pivot_rows,
)
from repro.kernels.tournament import PivotCandidates, a00_from_ordered_rows


def _panel(rows: int, v: int, seed: int = 0) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal((rows, v))


class TestLocalCandidates:
    def test_selects_at_most_v(self):
        c = local_candidates(_panel(10, 4), np.arange(10), v=4)
        assert c.count == 4

    def test_fewer_rows_than_v_keeps_all(self):
        c = local_candidates(_panel(2, 4), np.arange(2), v=4)
        assert c.count == 2

    def test_first_candidate_is_largest_in_column(self):
        panel = np.array([[1.0, 0], [5.0, 1], [-9.0, 2], [2.0, 3]])
        c = local_candidates(panel, np.arange(4), v=2)
        assert c.row_ids[0] == 2  # |-9| wins column 0

    def test_carries_original_values(self):
        panel = _panel(6, 3, seed=1)
        c = local_candidates(panel, np.arange(6), v=3)
        for i, rid in enumerate(c.row_ids):
            np.testing.assert_array_equal(c.values[i], panel[rid])

    def test_empty_panel(self):
        c = local_candidates(np.empty((0, 3)), np.array([]), v=2)
        assert c.count == 0

    def test_row_id_mismatch_rejected(self):
        with pytest.raises(ValueError, match="row ids"):
            local_candidates(_panel(4, 2), np.arange(3), v=2)

    def test_bad_v_rejected(self):
        with pytest.raises(ValueError, match="v must"):
            local_candidates(_panel(4, 2), np.arange(4), v=0)

    def test_global_row_ids_preserved(self):
        ids = np.array([100, 205, 3, 77])
        c = local_candidates(_panel(4, 2, seed=5), ids, v=2)
        assert set(c.row_ids) <= set(ids)


class TestMergeCandidates:
    def test_merge_keeps_v_best(self):
        a = local_candidates(_panel(5, 3, seed=1), np.arange(5), v=3)
        b = local_candidates(_panel(5, 3, seed=2), np.arange(5) + 10, v=3)
        m = merge_candidates(a, b, v=3)
        assert m.count == 3
        assert set(m.row_ids) <= set(a.row_ids) | set(b.row_ids)

    def test_merge_with_empty(self):
        a = local_candidates(_panel(4, 2, seed=3), np.arange(4), v=2)
        empty = PivotCandidates(np.empty((0, 2)), np.array([]))
        m = merge_candidates(a, empty, v=2)
        np.testing.assert_array_equal(m.row_ids, a.row_ids)
        m2 = merge_candidates(empty, a, v=2)
        np.testing.assert_array_equal(m2.row_ids, a.row_ids)

    def test_merge_is_order_insensitive_for_selection(self):
        """The *set* of winners is stable under argument swap (order may
        differ only among equal-magnitude ties)."""
        a = local_candidates(_panel(6, 3, seed=4), np.arange(6), v=3)
        b = local_candidates(_panel(6, 3, seed=5), np.arange(6) + 20, v=3)
        m1 = merge_candidates(a, b, v=3)
        m2 = merge_candidates(b, a, v=3)
        assert set(m1.row_ids) == set(m2.row_ids)

    def test_width_mismatch_rejected(self):
        a = local_candidates(_panel(4, 2), np.arange(4), v=2)
        b = local_candidates(_panel(4, 3), np.arange(4), v=2)
        with pytest.raises(ValueError, match="widths"):
            merge_candidates(a, b, v=2)


class TestTournament:
    @pytest.mark.parametrize("nchunks", [1, 2, 3, 4, 8])
    def test_pivot_block_factorizes(self, nchunks):
        v = 4
        panel = _panel(32, v, seed=7)
        ids, a00_lu, values = tournament_pivot_rows(
            panel, np.arange(32), v, nchunks=nchunks
        )
        assert len(ids) == v
        lower, upper = split_lu(a00_lu)
        np.testing.assert_allclose(lower @ upper, panel[ids], atol=1e-10)

    def test_single_chunk_matches_gepp_choice(self):
        """With one chunk the tournament reduces to GEPP row selection."""
        v = 3
        panel = _panel(12, v, seed=9)
        ids, _, _ = tournament_pivot_rows(panel, np.arange(12), v, nchunks=1)
        _, piv = lu_partial_pivot(panel[:, :v].copy()) if panel.shape[0] == v \
            else (None, None)
        # generic check: the selected rows must contain the column-0 max
        assert int(np.argmax(np.abs(panel[:, 0]))) == ids[0]

    def test_too_few_rows_rejected(self):
        with pytest.raises(ValueError, match="at least"):
            tournament_pivot_rows(_panel(2, 4), np.arange(2), v=4)

    def test_bad_nchunks_rejected(self):
        with pytest.raises(ValueError, match="nchunks"):
            tournament_pivot_rows(_panel(8, 2), np.arange(8), 2, nchunks=0)

    def test_a00_from_ordered_rows_matches(self):
        v = 4
        panel = _panel(16, v, seed=11)
        ids, a00_lu, values = tournament_pivot_rows(
            panel, np.arange(16), v, nchunks=2
        )
        rebuilt = a00_from_ordered_rows(values, v)
        np.testing.assert_allclose(rebuilt, a00_lu, atol=1e-10)

    def test_growth_factor_comparable_to_gepp(self):
        """Tournament pivoting should not blow up growth vs GEPP
        (Grigori et al. stability claim, tested statistically)."""
        rng = np.random.default_rng(42)
        worst_ratio = 0.0
        for trial in range(10):
            n, v = 64, 8
            a = rng.standard_normal((n, n))
            # full GEPP growth
            lu_pp, _ = lu_partial_pivot(a)
            g_pp = growth_factor(a, np.triu(lu_pp))
            # one tournament panel growth (first panel only, v columns)
            ids, a00_lu, _ = tournament_pivot_rows(
                a[:, :v], np.arange(n), v, nchunks=8
            )
            g_t = growth_factor(a[:, :v], np.triu(a00_lu))
            worst_ratio = max(worst_ratio, g_t / max(g_pp, 1e-300))
        assert worst_ratio < 50.0  # generous, catches instability only


class TestAdversarialGrowth:
    """Element-growth checks on the shared adversarial fixtures
    (tests/conftest.py) — the Grigori et al. stability claim probed on
    the classic worst case, not just random panels."""

    def test_gepp_explodes_on_wilkinson(self, wilkinson_growth):
        n = 24
        a = wilkinson_growth(n)
        lu, _ = lu_partial_pivot(a)
        assert growth_factor(a, np.triu(lu)) == pytest.approx(
            2.0 ** (n - 1)
        )

    def test_tournament_lu_bounds_growth_where_gepp_explodes(
        self, wilkinson_growth
    ):
        """On the Wilkinson matrix, GEPP's no-swap tie-breaking feeds
        the 2^(n-1) cascade; the chunked tournament selects the same
        pivot *rows* in a different order, which breaks the doubling.
        Measured via the full tournament-pivoted LU (conflux)."""
        from repro.algorithms import factor

        n = 16
        a = wilkinson_growth(n)
        lu, _ = lu_partial_pivot(a)
        g_pp = growth_factor(a, np.triu(lu))
        res = factor("conflux", a, 4, grid=(2, 2, 1), v=4)
        g_t = growth_factor(a, res.upper)
        assert g_pp == pytest.approx(2.0 ** (n - 1))  # GEPP explodes
        assert g_t <= 8.0  # tournament stays bounded
        assert res.residual <= 1e-10

    def test_tournament_growth_small_on_kahan(self, kahan_matrix):
        from repro.algorithms import factor

        a = kahan_matrix(16)
        res = factor("conflux", a, 4, grid=(2, 2, 1), v=4)
        assert growth_factor(a, res.upper) <= 4.0
        assert res.residual <= 1e-10

    def test_tournament_growth_small_on_ill_conditioned(
        self, ill_conditioned
    ):
        from repro.algorithms import factor

        a = ill_conditioned(16, cond=1e6, seed=2)
        res = factor("conflux", a, 4, grid=(2, 2, 1), v=4)
        assert growth_factor(a, res.upper) <= 16.0
        assert res.residual <= 1e-10

    def test_panel_tournament_growth_bounded_on_wilkinson(
        self, wilkinson_growth
    ):
        """Kernel-level: the first-panel tournament block factors with
        no growth at any chunking (the cascade needs the last column,
        which no early panel contains)."""
        n, v = 32, 4
        a = wilkinson_growth(n)
        for nchunks in (1, 2, 4, 8):
            _, a00_lu, _ = tournament_pivot_rows(
                a[:, :v], np.arange(n), v, nchunks=nchunks
            )
            assert growth_factor(a[:, :v], np.triu(a00_lu)) <= 1.0


class TestPropertyBased:
    @settings(max_examples=25, deadline=None)
    @given(
        rows=st.integers(min_value=4, max_value=40),
        v=st.integers(min_value=1, max_value=4),
        nchunks=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_tournament_invariants(self, rows, v, nchunks, seed):
        panel = _panel(rows, v, seed)
        ids, a00_lu, values = tournament_pivot_rows(
            panel, np.arange(rows), v, nchunks=nchunks
        )
        # selected ids are distinct, in range, values match the panel
        assert len(set(ids.tolist())) == v
        assert np.all((0 <= ids) & (ids < rows))
        np.testing.assert_array_equal(values, panel[ids])
        # the factored block reconstructs the selected rows
        lower, upper = split_lu(a00_lu)
        np.testing.assert_allclose(lower @ upper, panel[ids], atol=1e-8)

    @settings(max_examples=25, deadline=None)
    @given(
        rows=st.integers(min_value=8, max_value=32),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_winner_contains_column_max(self, rows, seed):
        """The global column-0 maximum can never lose the tournament."""
        v = 2
        panel = _panel(rows, v, seed)
        ids, _, _ = tournament_pivot_rows(
            panel, np.arange(rows), v, nchunks=4
        )
        assert int(np.argmax(np.abs(panel[:, 0]))) in ids
