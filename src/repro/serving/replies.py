"""Response bodies of every endpoint: :func:`ok` and :func:`error`.

Status codes follow HTTP conventions (see :mod:`repro.serving.protocol`
for their meanings).  The module imports nothing, so the endpoint layer
and the fleet router build their replies without loading the probe
codecs, and numpy, behind the protocol.
"""

from __future__ import annotations

__all__ = ["ok", "error"]


def ok(**fields) -> dict:
    """A status-200 response body."""
    body = {"status": 200}
    body.update(fields)
    return body


def error(status: int, message: str, **fields) -> dict:
    """An error response body with HTTP-style *status*."""
    body = {"status": int(status), "error": message}
    body.update(fields)
    return body
