"""Long-lived child processes with a ready handshake.

:class:`~repro.parallel.worker_pool.WorkerPool` owns short-lived *task*
processes; this module owns long-lived *server* processes — the shape
the serving fleet needs: start a process that binds resources (a TCP
port, a store handle), report those bindings back to the parent before
the parent proceeds, then live until explicitly stopped.

A child is a plain :class:`subprocess.Popen` of the parent's
interpreter, not a ``multiprocessing`` process: it shares no memory
with the parent, so nothing starts the ``multiprocessing`` resource
tracker (a third process of about 15 MB next to a two-shard fleet), and
the parent imports nothing but the standard library to launch it.  The
lifecycle keeps the pool's hard-won rules:

* a fresh interpreter always (fork would duplicate the parent's
  event-loop threads and locks into the child).  Its whole program is
  :data:`_BOOTSTRAP`, which reads the parent's ``sys.path`` from stdin,
  then the pickled target and its arguments;
* the target must be a **module-level callable** importable from that
  ``sys.path``: it travels by reference, as pickle sends it (the same
  CONC001 constraint pool dispatch has), so a function defined in a
  script run as ``__main__`` cannot be a target;
* startup is a handshake: the child's first duty is to send one ready
  payload over a one-way pipe of its own, and the parent blocks on it
  with a timeout, so a child that dies during startup surfaces as an
  error in the parent instead of a hang;
* spawning and awaiting the handshake are separate steps, so a parent
  starting several children spawns them all before it waits on any and
  their start-ups (interpreter boot, imports, binding) overlap;
* the child's stdin stays open for its life and only the parent holds
  the write end (``close_fds``), so EOF on it means the parent closed it
  in :meth:`SpawnedProcess.stop` or died: a target that serves until
  told to stop watches it (the fleet shard drains on EOF);
* teardown escalates: cooperative wait first, ``terminate()`` after a
  grace period, ``kill()`` as the last resort.
"""

from __future__ import annotations

import pickle
import subprocess
import sys
import time
from multiprocessing.connection import Pipe

from ..errors import ReproError

__all__ = ["SpawnedProcess", "ProcessStartupError"]

#: Polling granularity while waiting for the ready handshake.
_POLL_S = 0.05

#: The child's program.  Standard library only until it unpickles the
#: target, which imports the target's module and nothing more; argv[1]
#: is the write end of the handshake pipe.
_BOOTSTRAP = """\
import pickle, sys
from multiprocessing.connection import Connection
sys.path[:] = pickle.load(sys.stdin.buffer)
target, args = pickle.load(sys.stdin.buffer)
target(Connection(int(sys.argv[1]), readable=False), *args)
"""


class ProcessStartupError(ReproError, RuntimeError):
    """A spawned process died or stalled before completing its handshake."""


class SpawnedProcess:
    """One child process plus its ready-handshake payload.

    The *target* is called as ``target(conn, *args)`` in the child and
    must send exactly one picklable ready payload through ``conn``
    (e.g. ``conn.send({"port": port})``) once its resources are bound.
    Construction starts the child and returns at once;
    :meth:`wait_ready` blocks until the payload arrives and returns it.
    """

    def __init__(
        self,
        target,
        *args,
        name: str | None = None,
        start_timeout_s: float = 60.0,
    ) -> None:
        """Start the child; its handshake is due within *start_timeout_s*."""
        # Pickled before the child exists: an unpicklable target or
        # argument raises here and starts nothing.
        start = pickle.dumps(list(sys.path)) + pickle.dumps((target, args))
        self.name = name if name is not None else repr(target)
        self._conn, send_conn = Pipe(duplex=False)
        self._timeout_s = start_timeout_s
        self._deadline = time.monotonic() + start_timeout_s
        try:
            self._process = subprocess.Popen(
                [sys.executable, "-c", _BOOTSTRAP, str(send_conn.fileno())],
                stdin=subprocess.PIPE,
                pass_fds=(send_conn.fileno(),),
            )
        except BaseException:
            self._conn.close()
            raise
        finally:
            send_conn.close()  # the child holds the only writer now
        try:
            self._process.stdin.write(start)
            self._process.stdin.flush()
        except BrokenPipeError:
            pass  # the child already died; wait_ready reports its exit code

    def wait_ready(self):
        """Block until the child's ready payload arrives; returns it.

        Call once. If the child exits, closes its pipe without a payload,
        or stays silent past its start timeout (counted from the spawn),
        the child is stopped and :class:`ProcessStartupError` raised. The
        parent's pipe end is closed on every path.
        """
        try:
            return self._await_ready()
        except BaseException:
            self.stop(grace_s=0.0)
            raise
        finally:
            self._conn.close()

    def _await_ready(self):
        """Poll for the handshake, failing fast if the child exits."""
        while True:
            if self._conn.poll(_POLL_S):
                try:
                    return self._conn.recv()
                except EOFError as exc:
                    raise ProcessStartupError(
                        f"process {self.name!r} closed its handshake pipe "
                        "without sending a ready payload"
                    ) from exc
            if self._process.poll() is not None:
                raise ProcessStartupError(
                    f"process {self.name!r} exited with code "
                    f"{self._process.returncode} before its ready handshake"
                )
            if time.monotonic() > self._deadline:
                raise ProcessStartupError(
                    f"process {self.name!r} sent no ready payload within "
                    f"{self._timeout_s:.0f}s"
                )

    @property
    def pid(self) -> int:
        """The child's pid."""
        return self._process.pid

    def alive(self) -> bool:
        """Whether the child is still running."""
        return self._process.poll() is None

    def stop(self, *, grace_s: float = 10.0) -> int | None:
        """Stop the child: wait, then terminate, then kill; returns its exit code.

        Closing the child's stdin comes first, so a child that watches
        it starts its own shutdown.  Callers that have a cooperative
        shutdown channel (the fleet sends a drain op over TCP) should
        use it *before* calling ``stop`` so the wait succeeds inside the
        grace period.
        """
        self._conn.close()
        try:
            self._process.stdin.close()
        except BrokenPipeError:
            pass  # buffered start arguments the dead child never read
        if not self._exited_within(grace_s):
            self._process.terminate()
            if not self._exited_within(5.0):
                self._process.kill()
                self._exited_within(5.0)
        return self._process.returncode

    def _exited_within(self, timeout_s: float) -> bool:
        """Wait up to *timeout_s* for the child to exit; reap it if it did."""
        try:
            self._process.wait(timeout_s)
        except subprocess.TimeoutExpired:
            return False
        return True

    def __enter__(self) -> "SpawnedProcess":
        """Context-manager entry (the process is already running)."""
        return self

    def __exit__(self, *exc_info) -> None:
        """Context-manager exit: stop the process."""
        self.stop()
