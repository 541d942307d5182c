"""Property tests: probe decode answers any JSON body with a probe or a typed error.

A predict body is untrusted JSON.  Whatever arrives — a valid probe
skeleton with fields swapped for numbers, ``null``, lists, dicts or
strings, or dropped — :func:`~repro.serving.protocol.decode_probe` must
return a probe or raise :class:`~repro.errors.ValidationError`, which the
service answers with 400.  Any other exception would escape as a 500.
"""

from __future__ import annotations

import copy

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sketch import SampleProbe, SketchProbe
from repro.data.dataset import RunCampaign
from repro.errors import ValidationError
from repro.serving.protocol import decode_probe, encode_array, encode_probe


def _campaign() -> RunCampaign:
    rng = np.random.default_rng(5)
    runtimes = rng.uniform(1.0, 2.0, size=12)
    counters = rng.uniform(10.0, 100.0, size=(12, 3)) * runtimes[:, None]
    return RunCampaign("npb/cg", "intel", runtimes, counters, ("m0", "m1", "m2"))


SKELETONS = (
    encode_probe(SampleProbe(_campaign())),
    encode_probe(SketchProbe.from_campaign(_campaign())),
)

#: Marks a field to delete instead of replace.
DROP = object()

SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=12)
)
JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6,
)
#: Well-formed base64 arrays of arbitrary floats reach the numeric
#: validation behind the codec.
ARRAYS = st.lists(st.floats(), max_size=8).map(encode_array)
REPLACEMENTS = JSON_VALUES | ARRAYS | st.just(DROP)


def _paths(node, prefix=()):
    """Every path into *node*: the root, dict keys and list indices."""
    yield prefix
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _paths(child, prefix + (key,))
    elif isinstance(node, list):
        for index, child in enumerate(node):
            yield from _paths(child, prefix + (index,))


def _replace(body, path, value):
    """*body* with the node at *path* replaced by *value* (or deleted)."""
    if not path:
        return {} if value is DROP else value
    parent = body
    for step in path[:-1]:
        parent = parent[step]
    if value is DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return body


@given(data=st.data())
@settings(max_examples=400, deadline=None)
def test_decode_probe_returns_a_probe_or_raises_validation_error(data):
    body = copy.deepcopy(data.draw(st.sampled_from(SKELETONS)))
    for _ in range(data.draw(st.integers(1, 3))):
        path = data.draw(st.sampled_from(list(_paths(body))))
        body = _replace(body, path, data.draw(REPLACEMENTS))
    try:
        probe = decode_probe(body)
    except ValidationError:
        return
    assert isinstance(probe, (SampleProbe, SketchProbe))


def test_skeletons_decode():
    assert isinstance(decode_probe(copy.deepcopy(SKELETONS[0])), SampleProbe)
    assert isinstance(decode_probe(copy.deepcopy(SKELETONS[1])), SketchProbe)
