"""The registry-driven ``predict()`` API."""

import pytest

from repro.models import (
    MODEL_NAMES,
    get_model,
    list_models,
    predict,
)
from repro.models.api import MODEL_KINDS, MODEL_REGISTRY, register_model
from repro.models.costmodels import QR_MODEL_NAMES
from repro.models.prediction import (
    algorithmic_memory,
    choose_c_max_replication,
    sweep_models,
)


class TestRegistry:
    def test_every_lu_and_qr_model_registered(self):
        for name in MODEL_NAMES + QR_MODEL_NAMES:
            assert get_model(name).name == name

    def test_unknown_model(self):
        with pytest.raises(KeyError, match="unknown model"):
            get_model("mkl")

    def test_list_models_filters_by_kind(self):
        qr = [i.name for i in list_models(kind="qr")]
        assert sorted(qr) == sorted(QR_MODEL_NAMES)
        lu = [i.name for i in list_models(kind="lu")]
        assert sorted(lu) == sorted(MODEL_NAMES)

    def test_entries_well_formed(self):
        for name, info in MODEL_REGISTRY.items():
            assert info.name == name
            assert info.kind in MODEL_KINDS
            assert info.grid_family in ("25d", "2d")
            assert callable(info.total_bytes)
            assert info.description
            assert name in info.describe()

    def test_register_rejects_bad_kind(self):
        with pytest.raises(ValueError, match="kind"):
            register_model(
                "bogus",
                lambda n, p, m: 0.0,
                kind="fft",
                grid_family="2d",
                description="x",
            )
        assert "bogus" not in MODEL_REGISTRY


class TestPredict:
    def test_matches_sweep_models_at_same_memory(self):
        n, p = 4096, 256
        c = choose_c_max_replication(p, n)
        m = algorithmic_memory(n, p, c)
        expected = sweep_models(n, p, m)
        for name in MODEL_NAMES:
            assert predict(name, n, p).total_bytes == pytest.approx(
                expected[name]
            )

    def test_per_rank_and_gb(self):
        pred = predict("scalapack2d", 1024, 64)
        assert pred.per_rank_bytes == pytest.approx(
            pred.total_bytes / 64
        )
        assert pred.total_gb == pytest.approx(pred.total_bytes / 1e9)

    def test_needs_p_or_machine(self):
        with pytest.raises(ValueError, match="needs p= or machine="):
            predict("conflux", 1024)

    def test_p_defaults_to_machine_ranks(self):
        pred = predict("conflux", 16384, machine="summit")
        assert pred.p == 4608

    def test_no_machine_means_no_time(self):
        pred = predict("conflux", 1024, 64)
        assert pred.machine is None
        assert pred.comm_seconds is None
        assert pred.predicted_seconds is None
        assert "s" not in pred.describe().split("B/rank")[-1]

    def test_machine_adds_time_estimates(self):
        pred = predict("conflux", 4096, 256, machine="daint-xc50")
        assert pred.machine == "daint-xc50"
        assert pred.comm_seconds > 0
        assert pred.compute_seconds > 0
        assert pred.predicted_seconds == pytest.approx(
            pred.comm_seconds + pred.compute_seconds
        )

    def test_ideal_machine_predicts_zero_seconds(self):
        pred = predict("conflux", 4096, 256, machine="ideal")
        assert pred.predicted_seconds == 0.0

    def test_faster_network_predicts_less_comm_time(self):
        slow = predict("conflux", 4096, 256, machine="daint-xc50")
        fast = predict("conflux", 4096, 256, machine="summit")
        assert fast.comm_seconds < slow.comm_seconds

    def test_qr_kind_charges_more_flops_than_lu(self):
        lu = predict("scalapack2d", 4096, 256, machine="summit")
        qr = predict("qr2d", 4096, 256, machine="summit")
        assert qr.compute_seconds == pytest.approx(
            2 * lu.compute_seconds
        )

    def test_explicit_c_controls_memory(self):
        deep = predict("conflux", 4096, 256, c=4)
        shallow = predict("conflux", 4096, 256, c=1)
        assert deep.m > shallow.m
        assert deep.total_bytes != shallow.total_bytes

    def test_opts_forward_to_model(self):
        base = predict("conflux", 256, 16, c=2)
        tuned = predict("conflux", 256, 16, c=2, v=16)
        assert tuned.total_bytes != base.total_bytes

    def test_invalid_n_rejected(self):
        with pytest.raises(ValueError):
            predict("conflux", 0, 16)

