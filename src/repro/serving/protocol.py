"""Wire protocol for the prediction server: JSON lines over TCP.

Every message is one JSON object on one ``\\n``-terminated line.  Arrays
cross the wire as base64 of little-endian float64 bytes — exact (no
decimal round-trip) and compact.  Scalar floats in responses use plain
JSON numbers, which Python serializes with shortest-round-trip ``repr``
so ``json.loads(json.dumps(x)) == x`` bit-exactly for every finite
float64; predicted vectors therefore survive the wire unchanged.

Request fingerprints — the response-cache key — hash the *resolved*
model content key together with the canonical encoding of everything
that can influence the answer (probe arrays, metric names, sampling
parameters).  Two requests with equal fingerprints are guaranteed equal
answers, which is what makes response caching bit-safe.

Status codes follow HTTP conventions so clients can reuse familiar
handling: 200 ok, 400 malformed request, 404 unknown model, 429 load
shed (backpressure — fixed queue bound or Kingman admission), 503
shutting down / shard unavailable, 504 deadline expired, 500 internal
error.

A predict request (protocol version 2) carries ``probe_kind``
(``"samples"`` | ``"sketch"``) plus a ``probe`` object — either an
encoded campaign (exact float64 arrays) or an encoded
:class:`~repro.core.sketch.SketchProbe` (percentile-only).  Version-1
bodies — a bare ``campaign`` field — were removed in 3.0.0 and get a
400 response.
"""

from __future__ import annotations

import base64
import hashlib
import json

import numpy as np

from ..data.dataset import RunCampaign
from ..errors import ValidationError
from .replies import error, ok

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_SAMPLES",
    "encode_array",
    "decode_array",
    "encode_campaign",
    "decode_campaign",
    "encode_sketch",
    "decode_sketch",
    "encode_probe",
    "decode_probe",
    "request_fingerprint",
    "probe_fingerprint",
    "predict_request",
    "ok",
    "error",
]

#: Version tag clients send; v2 introduced probe polymorphism
#: (``probe_kind``), and v1 bodies are rejected.
PROTOCOL_VERSION = 2

#: Most distribution draws one predict request may ask for.  The reply's
#: ``samples`` field (base64 float64, about 10.7 MB at the cap) stays far
#: below the 64 MiB line limit of the server's and router's streams.
MAX_SAMPLES = 1_000_000


def encode_array(a: np.ndarray) -> str:
    """Base64 of the array's little-endian float64 bytes (exact)."""
    arr = np.ascontiguousarray(np.asarray(a, dtype="<f8"))
    return base64.b64encode(arr.tobytes()).decode("ascii")


def decode_array(text: str, *, shape=None) -> np.ndarray:
    """Inverse of :func:`encode_array`; optionally reshape."""
    if not isinstance(text, str):
        raise ValidationError(
            f"array field must be a base64 string, got {type(text).__name__}"
        )
    try:
        raw = base64.b64decode(text.encode("ascii"), validate=True)
    except (ValueError, UnicodeEncodeError) as exc:
        raise ValidationError(f"invalid base64 array field: {exc}") from exc
    if len(raw) % 8:
        raise ValidationError("array byte length is not a multiple of 8")
    arr = np.frombuffer(raw, dtype="<f8").astype(np.float64)
    if shape is not None:
        try:
            arr = arr.reshape(shape)
        except ValueError as exc:
            raise ValidationError(
                f"array of {arr.size} values cannot take shape {shape}"
            ) from exc
    return arr


def encode_campaign(campaign: RunCampaign) -> dict:
    """JSON-safe dict form of a :class:`~repro.data.dataset.RunCampaign`."""
    return {
        "benchmark": campaign.benchmark,
        "system": campaign.system,
        "runtimes": encode_array(campaign.runtimes),
        "counters": encode_array(campaign.counters),
        "counters_shape": list(campaign.counters.shape),
        "metric_names": list(campaign.metric_names),
    }


def decode_campaign(payload: dict) -> RunCampaign:
    """Inverse of :func:`encode_campaign`, with full input validation."""
    if not isinstance(payload, dict):
        raise ValidationError("campaign must be a JSON object")
    try:
        benchmark = payload["benchmark"]
        system = payload["system"]
        runtimes = decode_array(payload["runtimes"])
        counters = decode_array(
            payload["counters"], shape=tuple(payload["counters_shape"])
        )
        metric_names = tuple(payload["metric_names"])
    except KeyError as exc:
        raise ValidationError(f"campaign is missing field {exc.args[0]!r}") from exc
    except TypeError as exc:
        raise ValidationError(f"malformed campaign payload: {exc}") from exc
    if not isinstance(benchmark, str) or not isinstance(system, str):
        raise ValidationError("campaign benchmark/system must be strings")
    return RunCampaign(benchmark, system, runtimes, counters, metric_names)


def encode_sketch(sketch) -> dict:
    """JSON-safe dict form of a :class:`~repro.core.sketch.QuantileSketch`.

    Levels and values cross the wire as base64 float64 — exact, like
    every other array in the protocol.
    """
    return {
        "levels": encode_array(sketch.levels),
        "values": encode_array(sketch.values),
        "n_runs": int(sketch.n_runs),
    }


def decode_sketch(payload: dict):
    """Inverse of :func:`encode_sketch`, with full input validation."""
    from ..core.sketch import QuantileSketch

    if not isinstance(payload, dict):
        raise ValidationError("sketch must be a JSON object")
    try:
        levels = decode_array(payload["levels"])
        values = decode_array(payload["values"])
        n_runs = payload["n_runs"]
    except KeyError as exc:
        raise ValidationError(f"sketch is missing field {exc.args[0]!r}") from exc
    if not isinstance(n_runs, int) or isinstance(n_runs, bool):
        raise ValidationError("sketch n_runs must be an integer")
    return QuantileSketch(levels=levels, values=values, n_runs=n_runs)


def encode_probe(probe) -> dict:
    """JSON-safe dict form of any :data:`~repro.core.sketch.Probe`.

    The ``probe_kind`` discriminator (``"samples"`` | ``"sketch"``) is
    what v2 predict requests carry.
    """
    from ..core.sketch import SampleProbe, SketchProbe, as_probe

    p = as_probe(probe)
    if isinstance(p, SampleProbe):
        return {"probe_kind": "samples", "campaign": encode_campaign(p.campaign)}
    assert isinstance(p, SketchProbe)
    body = {
        "probe_kind": "sketch",
        "benchmark": p.benchmark,
        "system": p.system,
        "runtime": encode_sketch(p.runtime_sketch),
        "rates": [encode_sketch(sk) for sk in p.rate_sketches],
        "metric_names": list(p.metric_names),
    }
    if p.assumption is not None:
        body["assumption"] = p.assumption
    return body


def decode_probe(payload: dict):
    """Inverse of :func:`encode_probe`, with full input validation."""
    from ..core.sketch import SampleProbe, SketchProbe

    if not isinstance(payload, dict):
        raise ValidationError("probe must be a JSON object")
    kind = payload.get("probe_kind")
    if kind == "samples":
        try:
            campaign = payload["campaign"]
        except KeyError as exc:
            raise ValidationError("samples probe is missing 'campaign'") from exc
        return SampleProbe(decode_campaign(campaign))
    if kind == "sketch":
        try:
            return SketchProbe(
                benchmark=payload["benchmark"],
                system=payload["system"],
                runtime_sketch=decode_sketch(payload["runtime"]),
                rate_sketches=tuple(
                    decode_sketch(p) for p in payload["rates"]
                ),
                metric_names=tuple(payload["metric_names"]),
                assumption=payload.get("assumption"),
            )
        except KeyError as exc:
            raise ValidationError(
                f"sketch probe is missing field {exc.args[0]!r}"
            ) from exc
        except TypeError as exc:
            raise ValidationError(f"malformed sketch probe: {exc}") from exc
    raise ValidationError(
        f'probe_kind must be "samples" or "sketch", got {kind!r}'
    )


def request_fingerprint(
    model_key: str,
    campaign: RunCampaign,
    *,
    n_samples: int = 0,
    sample_seed: int = 0,
) -> str:
    """Content hash identifying a predict request's answer.

    The fingerprint covers the resolved model content key and the exact
    probe bytes, so equal fingerprints imply bit-equal responses — the
    invariant the response cache relies on.
    """
    h = hashlib.sha256()
    canon = json.dumps(
        {
            "model_key": model_key,
            "benchmark": campaign.benchmark,
            "system": campaign.system,
            "metric_names": list(campaign.metric_names),
            "counters_shape": list(campaign.counters.shape),
            "n_samples": int(n_samples),
            "sample_seed": int(sample_seed),
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    h.update(canon.encode())
    h.update(np.ascontiguousarray(campaign.runtimes, dtype="<f8").tobytes())
    h.update(np.ascontiguousarray(campaign.counters, dtype="<f8").tobytes())
    return h.hexdigest()


def probe_fingerprint(
    model_key: str,
    probe,
    *,
    n_samples: int = 0,
    sample_seed: int = 0,
) -> str:
    """Content hash identifying a probe-polymorphic predict request.

    Sample probes delegate to :func:`request_fingerprint` on the wrapped
    campaign, so a ``RunCampaign`` and its ``SampleProbe`` wrapper share
    one response-cache entry.  Sketch probes hash a distinct canonical header (the
    ``"sketch"`` kind tag plus levels/values/run-count bytes), so a
    sketch summary of a campaign can never collide with the campaign
    itself.
    """
    from ..core.sketch import SampleProbe, as_probe

    p = as_probe(probe)
    if isinstance(p, SampleProbe):
        return request_fingerprint(
            model_key, p.campaign, n_samples=n_samples, sample_seed=sample_seed
        )
    h = hashlib.sha256()
    canon = json.dumps(
        {
            "probe_kind": "sketch",
            "model_key": model_key,
            "benchmark": p.benchmark,
            "system": p.system,
            "metric_names": list(p.metric_names),
            "assumption": p.assumption,
            "n_sketches": 1 + len(p.rate_sketches),
            "n_runs": [int(p.runtime_sketch.n_runs)]
            + [int(sk.n_runs) for sk in p.rate_sketches],
            "n_samples": int(n_samples),
            "sample_seed": int(sample_seed),
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    h.update(canon.encode())
    for sk in (p.runtime_sketch, *p.rate_sketches):
        h.update(np.ascontiguousarray(sk.levels, dtype="<f8").tobytes())
        h.update(np.ascontiguousarray(sk.values, dtype="<f8").tobytes())
    return h.hexdigest()


def predict_request(
    model: str,
    probe,
    *,
    n_samples: int = 0,
    sample_seed: int = 0,
    deadline_s: float | None = None,
    request_id: str | None = None,
) -> dict:
    """A v2 predict request body for any :data:`~repro.core.sketch.Probe`."""
    encoded = encode_probe(probe)
    body = {
        "op": "predict",
        "version": PROTOCOL_VERSION,
        "model": model,
        "probe_kind": encoded["probe_kind"],
        "probe": encoded,
    }
    if n_samples:
        body["n_samples"] = int(n_samples)
        body["sample_seed"] = int(sample_seed)
    if deadline_s is not None:
        body["deadline_s"] = float(deadline_s)
    if request_id is not None:
        body["id"] = request_id
    return body
