"""``SpawnedProcess``: the ready handshake, its failure paths, and the
stdin liveness pipe.

Targets are module-level because the launcher pickles them by
reference.
"""

from __future__ import annotations

import os
import sys
import time

import pytest

from repro.parallel.procs import ProcessStartupError, SpawnedProcess

from .conftest import live_children


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


def exit_at_stdin_eof(conn):
    """Handshake, then exit with code 7 once stdin closes."""
    conn.send({"pid": os.getpid()})
    conn.close()
    sys.stdin.buffer.read()
    sys.exit(7)


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
    children_before = live_children()
    proc = SpawnedProcess(
        target, name="repro-test-fail", start_timeout_s=start_timeout_s
    )
    t0 = time.monotonic()
    with pytest.raises(ProcessStartupError, match=message):
        proc.wait_ready()
    assert time.monotonic() - t0 < 30.0
    assert not proc.alive()
    assert proc._conn.closed
    assert live_children() == children_before


def test_stop_before_handshake_closes_the_pipe():
    proc = SpawnedProcess(stay_silent, name="repro-test-stop")
    proc.stop(grace_s=0.0)
    assert not proc.alive()
    assert proc._conn.closed


def test_stop_closes_stdin_and_the_child_exits_on_its_own():
    """Closing the liveness pipe is the first step of ``stop``: a child
    watching its stdin exits with its own code, before any signal."""
    proc = SpawnedProcess(exit_at_stdin_eof, name="repro-test-eof")
    assert proc.wait_ready() == {"pid": proc.pid}
    time.sleep(0.5)
    assert proc.pid in live_children()  # still blocked on its stdin
    assert proc.stop(grace_s=30.0) == 7
    assert proc.pid not in live_children()
