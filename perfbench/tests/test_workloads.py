"""Seeded inputs, output checks and the runner's small helpers."""

from types import SimpleNamespace

import numpy as np

from perfbench.run import count_mismatches, tail
from perfbench.workloads import (
    SERVICE_PASS,
    Batch,
    ChaosCrash,
    ServiceZipf,
    check_lu,
    check_qr,
    matrix,
)


def test_same_seed_gives_identical_matrices():
    assert np.array_equal(matrix(7, 32), matrix(7, 32))
    assert np.array_equal(matrix((7, 3), 32), matrix((7, 3), 32))
    assert not np.array_equal(matrix(7, 32), matrix(8, 32))
    assert not np.array_equal(matrix((7, 3), 32), matrix((7, 4), 32))


def test_same_seed_gives_identical_request_streams(tmp_path):
    a = ServiceZipf(5, tmp_path).requests()
    assert a == ServiceZipf(5, tmp_path).requests()
    assert len(a) == SERVICE_PASS
    # Another seed draws other matrices into the same popularity stream.
    b = ServiceZipf(6, tmp_path).requests()
    assert [r.n for r in a] == [r.n for r in b]
    assert {r.seed for r in a}.isdisjoint({r.seed for r in b})


def _lu_result(a):
    import scipy.linalg

    p, lower, upper = scipy.linalg.lu(a)
    perm = np.argmax(p, axis=0)
    return SimpleNamespace(name="ref", lower=lower, upper=upper, perm=perm)


def test_check_lu_accepts_valid_and_rejects_broken_factors():
    a = matrix(1, 24)
    res = _lu_result(a)
    assert check_lu(a, res) == ""
    swapped = res.perm.copy()
    swapped[[0, 1]] = swapped[[1, 0]]
    assert "||A[perm]-LU||" in check_lu(
        a, SimpleNamespace(**{**vars(res), "perm": swapped})
    )
    upper = res.upper.copy()
    upper[5, 2] = 1.0
    assert "below the diagonal" in check_lu(
        a, SimpleNamespace(**{**vars(res), "upper": upper})
    )


def test_check_qr_rejects_a_non_orthogonal_q():
    a = matrix(2, 24)
    q, r = np.linalg.qr(a)
    good = SimpleNamespace(name="ref", lower=q, upper=r)
    assert check_qr(a, good) == ""
    bad = SimpleNamespace(name="ref", lower=q * 2.0, upper=r / 2.0)
    assert "Q^T Q" in check_qr(a, bad)


def test_tail_needs_ten_samples_beyond_it():
    assert tail(list(range(10))) is None
    q, value = tail([float(x) for x in range(100)])
    assert value == 89.0 and q == 90.0
    assert sum(x > value for x in range(100)) == 10


def test_count_mismatches_flags_a_traced_difference():
    wl = SimpleNamespace(same_input=False)
    u = SimpleNamespace(batches=[Batch([], {"bytes": 1})])
    t = SimpleNamespace(batches=[Batch([], {"bytes": 2})])
    assert count_mismatches(wl, None, [u]) == []
    assert len(count_mismatches(wl, None, [u, t])) == 1


def test_chaos_op_detects_the_crash(tmp_path):
    wl = ChaosCrash(3, tmp_path)
    wl.timeout_s = 0.5
    wl.n = 16
    wl.setup()
    batch = wl.batch(0, None)
    (op,) = batch.ops
    assert op.ok, op.error
    assert batch.counts == {"raised": "RankFailure", "crashes_fired": 1}
