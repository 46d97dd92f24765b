"""Pinned communication-ledger capture for the Schedule25D port.

The 2.5D factorization family (COnfLUX, CANDMC-like LU, 2.5D Cholesky,
2.5D CAQR) was ported onto the shared :class:`Schedule25D` choreography
layer.  The port must be *behavior preserving at the wire level*: for a
pinned set of (n, G, c, v) points, every rank's sent/received bytes,
message counts, per-phase attribution and per-tag message census must be
identical to what the pre-port implementations produced.

``tests/data/ledger_pins.json`` holds the ledgers captured from the
pre-port code.  ``test_ledger_regression.py`` re-runs the pinned points
and asserts equality.  Regenerate (only when a deliberate schedule
change is being made, never to paper over a port bug) with::

    python -m tests.algorithms.ledger_pins
"""

from __future__ import annotations

import json
import threading
from pathlib import Path

import numpy as np

PIN_PATH = Path(__file__).resolve().parents[1] / "data" / "ledger_pins.json"

#: (impl, n, g, c, v) — small enough for the test suite, varied enough
#: to cover short final blocks, single-layer and replicated grids.
PINNED_POINTS = (
    ("conflux", 24, 2, 2, 4),
    ("conflux", 16, 2, 1, 4),
    ("conflux", 12, 1, 1, 4),
    ("candmc25d", 24, 2, 2, 4),
    ("candmc25d", 16, 2, 1, 4),
    ("cholesky25d", 24, 2, 2, 4),
    ("cholesky25d", 16, 2, 1, 4),
    ("caqr25d", 24, 2, 2, 4),
    ("caqr25d", 16, 2, 1, 4),
    ("confqr", 24, 2, 2, 4),
    ("confqr", 16, 2, 1, 4),
)


def point_key(impl: str, n: int, g: int, c: int, v: int) -> str:
    return f"{impl}-n{n}-g{g}-c{c}-v{v}"


class _TagCensus:
    """Thread-safe tag -> send count histogram, patched over Comm."""

    def __init__(self) -> None:
        self.counts: dict[int, int] = {}
        self._lock = threading.Lock()

    def record(self, tag: int) -> None:
        with self._lock:
            self.counts[tag] = self.counts.get(tag, 0) + 1


def _input_matrix(impl: str, n: int) -> np.ndarray:
    rng = np.random.default_rng(0)
    a = rng.standard_normal((n, n))
    if impl == "cholesky25d":
        a = a @ a.T + n * np.eye(n)
    return a


def collect_ledger(impl: str, n: int, g: int, c: int, v: int) -> dict:
    """Run one pinned point and return its JSON-clean wire ledger."""
    from repro.algorithms import factor
    from repro.smpi import runtime

    census = _TagCensus()
    orig_send = runtime.Comm.send
    orig_sendrecv = runtime.Comm.sendrecv

    def send(self, data, dest, tag=0):
        census.record(tag)
        return orig_send(self, data, dest, tag)

    def sendrecv(self, senddata, dest, source=None, sendtag=0,
                 recvtag=None):
        census.record(sendtag)
        return orig_sendrecv(self, senddata, dest, source=source,
                             sendtag=sendtag, recvtag=recvtag)

    runtime.Comm.send = send
    runtime.Comm.sendrecv = sendrecv
    try:
        res = factor(
            impl, _input_matrix(impl, n), g * g * c, grid=(g, g, c), v=v
        )
    finally:
        runtime.Comm.send = orig_send
        runtime.Comm.sendrecv = orig_sendrecv
    vol = res.volume
    return {
        "sent_bytes": list(vol.sent_bytes),
        "recv_bytes": list(vol.recv_bytes),
        "messages": list(vol.messages),
        "phase_bytes": dict(sorted(vol.phase_bytes.items())),
        "phase_messages": dict(sorted(vol.phase_messages.items())),
        "tags": {str(t): cnt for t, cnt in sorted(census.counts.items())},
    }


def load_pins() -> dict:
    with PIN_PATH.open() as fh:
        return json.load(fh)


def main() -> None:
    pins = {
        point_key(*point): collect_ledger(*point)
        for point in PINNED_POINTS
    }
    PIN_PATH.parent.mkdir(parents=True, exist_ok=True)
    PIN_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(pins)} pinned ledgers to {PIN_PATH}")


if __name__ == "__main__":
    main()
