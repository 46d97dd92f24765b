"""Tracer arithmetic, thread separation and patch restoration."""

import sys
import threading

import numpy as np

from perfbench.layers import TARGETS
from perfbench.tracer import Span, Target, Tracer, _binding_sites, self_times


def test_self_time_subtracts_covered_child_time():
    spans = [
        Span(0, "root", 0.0, 10.0, None, 0, 1),
        Span(1, "a", 1.0, 3.0, 0, 0, 1),
        Span(2, "b", 2.0, 5.0, 0, 0, 1),   # overlaps a: counted once
        Span(3, "c", 9.0, 12.0, 0, 0, 1),  # clipped to the parent
        Span(4, "d", 3.5, 4.5, 2, 0, 1),   # grandchild: only b loses it
    ]
    selfs = self_times(spans)
    assert selfs[0] == 10.0 - 4.0 - 1.0
    assert selfs[1] == 2.0
    assert selfs[2] == 3.0 - 1.0
    assert selfs[3] == 3.0
    assert selfs[4] == 1.0


def test_summary_sums_calls_busy_and_self():
    tracer = Tracer()
    tracer.spans = [
        Span(0, "outer", 0.0, 4.0, None, 0, 1),
        Span(1, "inner", 1.0, 2.0, 0, 0, 1),
        Span(2, "inner", 2.5, 3.0, 0, 0, 1),
    ]
    summary = tracer.summary()
    assert summary["outer"] == {"calls": 1, "busy_s": 4.0, "self_s": 2.5}
    assert summary["inner"]["calls"] == 2
    assert summary["inner"]["busy_s"] == 1.5


def test_spans_from_concurrent_threads_stay_separate():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: None)
    gate = threading.Barrier(4)

    def outer(k):
        gate.wait()
        for _ in range(50):
            inner()
        return k

    outer = tracer.wrap("outer", outer)
    threads = [threading.Thread(target=outer, args=(k,)) for k in range(4)]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    by_id = {s.id: s for s in tracer.spans}
    roots = [s for s in tracer.spans if s.name == "outer"]
    assert len(roots) == 4 and all(s.parent is None for s in roots)
    assert len({s.thread for s in roots}) == 4
    inners = [s for s in tracer.spans if s.name == "inner"]
    assert len(inners) == 200
    for s in inners:
        parent = by_id[s.parent]
        assert parent.name == "outer" and parent.thread == s.thread
        assert parent.start <= s.start <= s.end <= parent.end


def test_hook_sees_exceptions_and_span_still_closes():
    tracer = Tracer()
    seen = []

    def boom():
        raise KeyError("x")

    wrapped = tracer.wrap("boom", boom, lambda t, a, r, e: seen.append(e))
    try:
        wrapped()
    except KeyError:
        pass
    assert isinstance(seen[0], KeyError)
    assert [s.name for s in tracer.spans] == ["boom"]
    assert tracer._stack() == []


def _all_sites():
    return [site for t in TARGETS for site in _binding_sites(t)]


def test_install_wraps_every_binding_site_and_uninstall_restores():
    import repro.algorithms.conflux as conflux
    import repro.kernels.lu_seq as lu_seq
    from repro.algorithms import factor

    before = _all_sites()
    assert len(before) > len(TARGETS)
    tracer = Tracer()
    tracer.install(TARGETS)
    try:
        # A ``from ... import`` copy is wrapped as well as the original.
        assert conflux.lu_partial_pivot is lu_seq.lu_partial_pivot
        assert conflux.lu_partial_pivot.__wrapped__ is not None
        for owner, attr, original in before:
            assert getattr(owner, attr) is not original
        a = np.random.default_rng(0).standard_normal((16, 16))
        res = factor("conflux", a, 4)
    finally:
        tracer.uninstall()
    for owner, attr, original in before:
        assert vars(owner)[attr] is original
    assert not hasattr(lu_seq.lu_partial_pivot, "__wrapped__")
    # The counts the tracer took agree with the program's own ledger.
    summary = tracer.summary()
    sent = summary["smpi.runtime.Comm.send"]["calls"]
    assert sent == res.volume.total_messages
    assert tracer.total("smpi.runtime.Comm.send.bytes") == (
        res.volume.total_bytes
    )
    assert summary["kernels.lu_seq.lu_partial_pivot"]["calls"] > 0


def test_install_failure_restores_what_it_patched():
    import repro.kernels.linalg as linalg

    original = linalg.trsm_upper
    tracer = Tracer()
    bad = Target("missing", "repro.kernels.linalg", "no_such_function")
    try:
        tracer.install([Target("t", "repro.kernels.linalg", "trsm_upper"),
                        bad])
    except AttributeError:
        pass
    else:
        raise AssertionError("install accepted a missing target")
    assert linalg.trsm_upper is original


def test_chrome_trace_is_valid_json(tmp_path):
    import json

    tracer = Tracer()
    tracer.spans = [
        Span(0, "outer", 1.0, 2.0, None, 3, 7),
        Span(1, "inner", 1.25, 1.5, 0, 3, 7),
    ]
    path = tmp_path / "trace.json"
    tracer.write_chrome_trace(path)
    events = json.loads(path.read_text())["traceEvents"]
    assert [e["name"] for e in events] == ["outer", "inner"]
    assert events[1]["ts"] == 0.25e6 and events[1]["dur"] == 0.25e6
    assert events[1]["args"] == {"id": 1, "parent": 0, "op": 3}
