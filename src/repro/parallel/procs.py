"""Long-lived spawned processes with a ready handshake.

:class:`~repro.parallel.worker_pool.WorkerPool` owns short-lived *task*
processes; this module owns long-lived *server* processes — the shape
the serving fleet needs: spawn a process that binds resources (a TCP
port, a store handle), report those bindings back to the parent before
the parent proceeds, then live until explicitly stopped.

The lifecycle mirrors the pool's hard-won rules:

* the ``spawn`` start method always (fork would duplicate the parent's
  event-loop threads and locks into the child);
* the target must be a **module-level callable** (anything nested fails
  to pickle under spawn — the same CONC001 constraint pool dispatch
  has);
* startup is a handshake: the child's first duty is to send one ready
  payload over a one-way pipe, and the parent blocks on it with a
  timeout, so a child that dies during startup surfaces as an error in
  the parent instead of a hang;
* spawning and awaiting the handshake are separate steps, so a parent
  starting several children spawns them all before it waits on any and
  their start-ups (interpreter boot, imports, binding) overlap;
* teardown escalates: cooperative join first, ``terminate()`` after a
  grace period, ``kill()`` as the last resort.
"""

from __future__ import annotations

import multiprocessing
import time

from ..errors import ReproError

__all__ = ["SpawnedProcess", "ProcessStartupError"]

#: Polling granularity while waiting for the ready handshake.
_POLL_S = 0.05


class ProcessStartupError(ReproError, RuntimeError):
    """A spawned process died or stalled before completing its handshake."""


class SpawnedProcess:
    """One spawned child process plus its ready-handshake payload.

    The *target* is called as ``target(conn, *args)`` in the child and
    must send exactly one picklable ready payload through ``conn``
    (e.g. ``conn.send({"port": port})``) once its resources are bound.
    Construction spawns the child and returns at once; :meth:`wait_ready`
    blocks until the payload arrives and returns it.
    """

    def __init__(
        self,
        target,
        *args,
        name: str | None = None,
        start_timeout_s: float = 60.0,
    ) -> None:
        """Spawn the child; its handshake is due within *start_timeout_s*."""
        ctx = multiprocessing.get_context("spawn")
        self._conn, send_conn = ctx.Pipe(duplex=False)
        self._process = ctx.Process(
            target=target, args=(send_conn, *args), name=name, daemon=True
        )
        self._timeout_s = start_timeout_s
        self._deadline = time.monotonic() + start_timeout_s
        try:
            self._process.start()
        except BaseException:
            self._conn.close()
            raise
        finally:
            send_conn.close()  # the child holds the only writer now

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
            if self._process.exitcode is not None:
                raise ProcessStartupError(
                    f"process {self.name!r} exited with code "
                    f"{self._process.exitcode} before its ready handshake"
                )
            if time.monotonic() > self._deadline:
                raise ProcessStartupError(
                    f"process {self.name!r} sent no ready payload within "
                    f"{self._timeout_s:.0f}s"
                )

    @property
    def name(self) -> str:
        """The child's process name."""
        return self._process.name

    @property
    def pid(self) -> int | None:
        """The child's pid (None only if it never started)."""
        return self._process.pid

    def alive(self) -> bool:
        """Whether the child is still running."""
        return self._process.is_alive()

    def stop(self, *, grace_s: float = 10.0) -> int | None:
        """Stop the child: join, then terminate, then kill; returns exitcode.

        Callers that have a cooperative shutdown channel (the fleet sends
        a drain op over TCP) should use it *before* calling ``stop`` so
        the join succeeds inside the grace period.
        """
        self._conn.close()
        self._process.join(timeout=grace_s)
        if self._process.is_alive():
            self._process.terminate()
            self._process.join(timeout=5.0)
        if self._process.is_alive():
            self._process.kill()
            self._process.join(timeout=5.0)
        return self._process.exitcode

    def __enter__(self) -> "SpawnedProcess":
        """Context-manager entry (the process is already running)."""
        return self

    def __exit__(self, *exc_info) -> None:
        """Context-manager exit: stop the process."""
        self.stop()
