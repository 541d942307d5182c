"""``SpawnedProcess``: the ready handshake and its failure paths.

Targets are module-level because the ``spawn`` start method pickles
them by reference.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import time

import pytest

from repro.parallel.procs import ProcessStartupError, SpawnedProcess


def send_pid(conn):
    """Handshake, then stay up until stopped."""
    conn.send({"pid": os.getpid()})
    conn.close()
    time.sleep(60)


def exit_before_handshake(conn):
    """Die during start-up."""
    sys.exit(3)


def close_without_payload(conn):
    """Close the pipe unsent, then stay up until stopped."""
    conn.close()
    time.sleep(60)


def stay_silent(conn):
    """Hold the pipe open and never send."""
    time.sleep(60)


def test_wait_ready_returns_the_payload():
    proc = SpawnedProcess(send_pid, name="repro-test-ok")
    try:
        assert proc.wait_ready() == {"pid": proc.pid}
        assert proc._conn.closed
        assert proc.alive()
    finally:
        proc.stop(grace_s=0.0)
    assert not proc.alive()


@pytest.mark.parametrize(
    "target, start_timeout_s, message",
    [
        (exit_before_handshake, 60.0, "handshake"),
        (close_without_payload, 60.0, "without sending a ready payload"),
        (stay_silent, 0.5, "sent no ready payload within"),
    ],
    ids=["exits", "closes-pipe", "silent"],
)
def test_failed_handshake_raises_and_leaves_nothing_behind(
    target, start_timeout_s, message
):
    proc = SpawnedProcess(
        target, name="repro-test-fail", start_timeout_s=start_timeout_s
    )
    t0 = time.monotonic()
    with pytest.raises(ProcessStartupError, match=message):
        proc.wait_ready()
    assert time.monotonic() - t0 < 30.0
    assert not proc.alive()
    assert proc._conn.closed
    assert multiprocessing.active_children() == []


def test_stop_before_handshake_closes_the_pipe():
    proc = SpawnedProcess(stay_silent, name="repro-test-stop")
    proc.stop(grace_s=0.0)
    assert not proc.alive()
    assert proc._conn.closed
