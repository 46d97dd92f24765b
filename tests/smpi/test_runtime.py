"""Unit tests for the thread-based SPMD runtime (point-to-point layer)."""

import threading

import numpy as np
import pytest

from repro.smpi import (
    ANY_SOURCE,
    ANY_TAG,
    DeadlockError,
    RankFailure,
    run_spmd,
)
from repro.smpi.runtime import payload_nbytes


class TestRunSpmd:
    def test_single_rank_returns_result(self):
        results, report = run_spmd(1, lambda comm: comm.rank * 10 + 7)
        assert results == [7]
        assert report.total_bytes == 0

    def test_results_ordered_by_rank(self):
        results, _ = run_spmd(8, lambda comm: comm.rank**2)
        assert results == [r**2 for r in range(8)]

    def test_size_and_rank_visible(self):
        results, _ = run_spmd(5, lambda comm: (comm.rank, comm.size))
        assert results == [(r, 5) for r in range(5)]

    def test_zero_ranks_rejected(self):
        with pytest.raises(ValueError):
            run_spmd(0, lambda comm: None)

    def test_rank_exception_propagates_as_rank_failure(self):
        def fn(comm):
            if comm.rank == 2:
                raise ValueError("boom on 2")
            return comm.rank

        with pytest.raises(RankFailure) as exc_info:
            run_spmd(4, fn)
        assert exc_info.value.failures[0][0] == 2
        assert "boom on 2" in str(exc_info.value)

    def test_multiple_rank_failures_all_collected(self):
        def fn(comm):
            if comm.rank % 2 == 0:
                raise RuntimeError(f"fail {comm.rank}")

        with pytest.raises(RankFailure) as exc_info:
            run_spmd(6, fn)
        failed_ranks = sorted(r for r, _ in exc_info.value.failures)
        assert failed_ranks == [0, 2, 4]


class TestPointToPoint:
    def test_send_recv_scalar(self):
        def fn(comm):
            if comm.rank == 0:
                comm.send(42, dest=1)
                return None
            return comm.recv(source=0)

        results, _ = run_spmd(2, fn)
        assert results[1] == 42

    def test_send_recv_numpy_roundtrip(self):
        def fn(comm):
            if comm.rank == 0:
                comm.send(np.arange(12.0).reshape(3, 4), dest=1)
                return None
            return comm.recv(source=0)

        results, _ = run_spmd(2, fn)
        np.testing.assert_array_equal(
            results[1], np.arange(12.0).reshape(3, 4)
        )

    def test_send_copies_payload(self):
        """Mutating the array after send must not affect the receiver —
        distributed-memory semantics."""

        def fn(comm):
            if comm.rank == 0:
                arr = np.ones(4)
                comm.send(arr, dest=1)
                arr[:] = -1.0
                comm.send(0, dest=1, tag=9)  # unblock ordering
                return None
            first = comm.recv(source=0, tag=ANY_TAG)
            # first message could match tag 0 or 9; take the array one
            if not isinstance(first, np.ndarray):
                first = comm.recv(source=0)
            else:
                comm.recv(source=0, tag=9)
            return first

        results, _ = run_spmd(2, fn)
        np.testing.assert_array_equal(results[1], np.ones(4))

    def test_tag_matching_out_of_order(self):
        def fn(comm):
            if comm.rank == 0:
                comm.send("a", dest=1, tag=1)
                comm.send("b", dest=1, tag=2)
                return None
            b = comm.recv(source=0, tag=2)
            a = comm.recv(source=0, tag=1)
            return (a, b)

        results, _ = run_spmd(2, fn)
        assert results[1] == ("a", "b")

    def test_fifo_within_same_tag(self):
        def fn(comm):
            if comm.rank == 0:
                for i in range(5):
                    comm.send(i, dest=1, tag=3)
                return None
            return [comm.recv(source=0, tag=3) for _ in range(5)]

        results, _ = run_spmd(2, fn)
        assert results[1] == [0, 1, 2, 3, 4]

    def test_any_source(self):
        def fn(comm):
            if comm.rank == 0:
                got = set()
                for _ in range(comm.size - 1):
                    payload, src, _ = comm.recv_status(source=ANY_SOURCE)
                    assert payload == src * 100
                    got.add(src)
                return got
            comm.send(comm.rank * 100, dest=0)
            return None

        results, _ = run_spmd(4, fn)
        assert results[0] == {1, 2, 3}

    def test_recv_status_reports_source_and_tag(self):
        def fn(comm):
            if comm.rank == 1:
                comm.send("payload", dest=0, tag=77)
                return None
            if comm.rank == 0:
                return comm.recv_status(source=ANY_SOURCE, tag=ANY_TAG)
            return None

        results, _ = run_spmd(2, fn)
        assert results[0] == ("payload", 1, 77)

    def test_sendrecv_exchange(self):
        def fn(comm):
            partner = comm.rank ^ 1
            return comm.sendrecv(comm.rank, dest=partner)

        results, _ = run_spmd(4, fn)
        assert results == [1, 0, 3, 2]

    def test_buffer_send_recv_in_place(self):
        def fn(comm):
            if comm.rank == 0:
                comm.Send(np.full(6, 3.5), dest=1)
                return None
            buf = np.empty(6)
            src, tag = comm.Recv(buf, source=0)
            return (buf.copy(), src, tag)

        results, _ = run_spmd(2, fn)
        arr, src, tag = results[1]
        np.testing.assert_array_equal(arr, np.full(6, 3.5))
        assert src == 0 and tag == 0

    def test_recv_shape_mismatch_raises(self):
        def fn(comm):
            if comm.rank == 0:
                comm.Send(np.zeros(3), dest=1)
                return None
            buf = np.empty(5)
            comm.Recv(buf, source=0)

        with pytest.raises(RankFailure) as exc_info:
            run_spmd(2, fn)
        assert isinstance(exc_info.value.failures[0][1], ValueError)

    def test_send_out_of_range_dest(self):
        def fn(comm):
            comm.send(1, dest=99)

        with pytest.raises(RankFailure) as exc_info:
            run_spmd(2, fn)
        assert isinstance(exc_info.value.failures[0][1], ValueError)

    def test_recv_without_sender_times_out(self):
        def fn(comm):
            if comm.rank == 0:
                comm.recv(source=1)

        with pytest.raises(RankFailure) as exc_info:
            run_spmd(2, fn, timeout=0.5)
        assert isinstance(exc_info.value.failures[0][1], DeadlockError)

    def test_all_ranks_blocked_census_does_not_deadlock(self):
        # Regression: every rank hits the shared run-wide deadline at
        # the same instant, and each builds the mailbox census for its
        # DeadlockError.  Taking the census while still holding the
        # caller's own mailbox condition cross-acquired other timed-out
        # ranks' held locks (ABBA) and hung run_spmd forever.  Run in a
        # helper thread so a regression fails the test instead of
        # freezing the suite.
        def fn(comm):
            comm.recv(source=(comm.rank + 1) % comm.size, tag=9)

        outcome = {}

        def run():
            try:
                run_spmd(12, fn, timeout=0.3)
            except BaseException as exc:  # noqa: BLE001
                outcome["exc"] = exc

        t = threading.Thread(target=run, daemon=True)
        t.start()
        t.join(timeout=30.0)
        assert not t.is_alive(), "run_spmd hung in the watchdog path"
        exc = outcome["exc"]
        assert isinstance(exc, RankFailure)
        assert len(exc.failures) == 12
        for _, rank_exc in exc.failures:
            assert isinstance(rank_exc, DeadlockError)
            assert "blocked ranks:" in str(rank_exc)


class TestVolumeAccounting:
    def test_numpy_message_counts_nbytes(self):
        def fn(comm):
            if comm.rank == 0:
                comm.send(np.zeros((10, 10)), dest=1)
            else:
                comm.recv(source=0)

        _, report = run_spmd(2, fn)
        assert report.sent_bytes[0] == 800
        assert report.sent_bytes[1] == 0
        assert report.recv_bytes[1] == 800
        assert report.total_bytes == 800
        assert report.total_messages == 1

    def test_sent_equals_received_globally(self):
        def fn(comm):
            right = (comm.rank + 1) % comm.size
            left = (comm.rank - 1) % comm.size
            comm.send(np.zeros(comm.rank + 1), dest=right)
            comm.recv(source=left)

        _, report = run_spmd(5, fn)
        assert sum(report.sent_bytes) == sum(report.recv_bytes)

    def test_phase_attribution(self):
        def fn(comm):
            if comm.rank == 0:
                with comm.phase("alpha"):
                    comm.send(np.zeros(4), dest=1)
                with comm.phase("beta"):
                    comm.send(np.zeros(8), dest=1)
                comm.send(np.zeros(2), dest=1)  # unattributed
            else:
                for _ in range(3):
                    comm.recv(source=0)

        _, report = run_spmd(2, fn)
        assert report.phase_bytes["alpha"] == 32
        assert report.phase_bytes["beta"] == 64
        assert report.total_bytes == 32 + 64 + 16

    def test_nested_phase_restores_outer(self):
        def fn(comm):
            if comm.rank == 0:
                with comm.phase("outer"):
                    with comm.phase("inner"):
                        comm.send(np.zeros(1), dest=1)
                    comm.send(np.zeros(1), dest=1)
            else:
                comm.recv(source=0)
                comm.recv(source=0)

        _, report = run_spmd(2, fn)
        # Nested scopes report exclusive totals under their full path:
        # the inner send is *not* double-counted into "outer".
        assert report.phase_bytes == {"outer": 8, "outer/inner": 8}


class TestPayloadNbytes:
    @pytest.mark.parametrize(
        "obj,expected",
        [
            (None, 0),
            (True, 1),
            (7, 8),
            (3.14, 8),
            (1 + 2j, 16),
            ("abcd", 4),
            (b"xyz", 3),
            (np.zeros(5, dtype=np.float64), 40),
            (np.zeros(5, dtype=np.int32), 20),
            (np.float64(1.0), 8),
            ([1, 2.0, "ab"], 8 + 8 + 2),
            ((np.zeros(2), np.zeros(3)), 40),
            ({"k": np.zeros(4)}, 1 + 32),
        ],
    )
    def test_sizes(self, obj, expected):
        assert payload_nbytes(obj) == expected

    def test_negative_size_rejected_by_ledger(self):
        from repro.smpi.volume import VolumeLedger

        ledger = VolumeLedger(1)
        with pytest.raises(ValueError):
            ledger.record_send(0, -1)


class TestSplitAndDup:
    def test_split_into_two_halves(self):
        def fn(comm):
            half = comm.rank // 2
            sub = comm.split(color=half)
            return (sub.rank, sub.size, sub.group)

        results, _ = run_spmd(4, fn)
        assert results[0] == (0, 2, (0, 1))
        assert results[1] == (1, 2, (0, 1))
        assert results[2] == (0, 2, (2, 3))
        assert results[3] == (1, 2, (2, 3))

    def test_split_key_reorders_ranks(self):
        def fn(comm):
            sub = comm.split(color=0, key=-comm.rank)
            return sub.rank

        results, _ = run_spmd(3, fn)
        # key = -rank reverses the order
        assert results == [2, 1, 0]

    def test_split_none_color_returns_none(self):
        def fn(comm):
            sub = comm.split(color=None if comm.rank == 0 else 1)
            return None if sub is None else sub.size

        results, _ = run_spmd(3, fn)
        assert results == [None, 2, 2]

    def test_messages_in_subcomm_do_not_cross(self):
        def fn(comm):
            sub = comm.split(color=comm.rank % 2)
            if sub.rank == 0:
                sub.send(f"color{comm.rank % 2}", dest=1)
                return None
            return sub.recv(source=0)

        results, _ = run_spmd(4, fn)
        assert results[2] == "color0"
        assert results[3] == "color1"

    def test_dup_isolates_traffic(self):
        def fn(comm):
            dup = comm.dup()
            if comm.rank == 0:
                comm.send("orig", dest=1, tag=5)
                dup.send("dup", dest=1, tag=5)
                return None
            from_dup = dup.recv(source=0, tag=5)
            from_orig = comm.recv(source=0, tag=5)
            return (from_orig, from_dup)

        results, _ = run_spmd(2, fn)
        assert results[1] == ("orig", "dup")

    def test_barrier_completes(self):
        def fn(comm):
            for _ in range(3):
                comm.barrier()
            return True

        results, _ = run_spmd(6, fn)
        assert all(results)

    def test_split_groups_sorted_by_world_rank_in_group(self):
        def fn(comm):
            sub = comm.split(color=0)
            return sub.group

        results, _ = run_spmd(4, fn)
        assert all(g == (0, 1, 2, 3) for g in results)


class TestPhaseMessageCounts:
    def test_phase_messages_recorded(self):
        def fn(comm):
            if comm.rank == 0:
                with comm.phase("a"):
                    comm.send(np.zeros(2), dest=1)
                    comm.send(np.zeros(2), dest=1)
                with comm.phase("b"):
                    comm.send(np.zeros(2), dest=1)
            else:
                for _ in range(3):
                    comm.recv(source=0)

        _, report = run_spmd(2, fn)
        assert report.phase_messages == {"a": 2, "b": 1}

    def test_reset_clears_phase_messages(self):
        from repro.smpi.volume import VolumeLedger

        ledger = VolumeLedger(2)
        ledger.set_phase(0, "x")
        ledger.record_send(0, 10)
        ledger.reset()
        assert ledger.snapshot().phase_messages == {}


class TestDeterminism:
    """The thread runtime must be fully deterministic: same inputs,
    same schedule, bit-identical outputs and ledgers across runs."""

    def test_conflux_runs_are_bit_identical(self):
        import numpy as np
        from repro.algorithms import factor

        a = np.random.default_rng(99).standard_normal((48, 48))
        r1 = factor("conflux", a, 8, grid=(2, 2, 2), v=4)
        r2 = factor("conflux", a, 8, grid=(2, 2, 2), v=4)
        np.testing.assert_array_equal(r1.lower, r2.lower)
        np.testing.assert_array_equal(r1.upper, r2.upper)
        np.testing.assert_array_equal(r1.perm, r2.perm)
        assert r1.volume.sent_bytes == r2.volume.sent_bytes
        assert r1.volume.phase_bytes == r2.volume.phase_bytes

    def test_scalapack_runs_are_bit_identical(self):
        import numpy as np
        from repro.algorithms import factor

        a = np.random.default_rng(98).standard_normal((48, 48))
        r1 = factor("scalapack2d", a, 4, grid=(2, 2), nb=8)
        r2 = factor("scalapack2d", a, 4, grid=(2, 2), nb=8)
        np.testing.assert_array_equal(r1.lower, r2.lower)
        assert r1.volume.sent_bytes == r2.volume.sent_bytes
