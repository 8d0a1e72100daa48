"""``trace_digest`` hashes packed fields: every one of a trace's 16
fields reaches the hash, a string's boundary is part of it, and a
double is hashed by its bits."""

import dataclasses
import math

import pytest

from repro.schooner.runtime import CallTrace
from repro.schooner.tracing import trace_digest


def base() -> CallTrace:
    return CallTrace(
        procedure="duct", caller="rs6000.lerc.nasa.gov", callee="cray-ymp.lerc.nasa.gov",
        request_bytes=120, reply_bytes=80, started_at=1.25, finished_at=1.5,
        client_cpu_s=0.001, server_cpu_s=0.002, compute_s=0.01, network_s=0.17,
        outcome="ok", timeout_hop="", retries=0, failed_over=False, dispatch="sync",
    )


def changed(value):
    """Another value of the same type."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return math.nextafter(value, math.inf)
    return value + "x"


FIELDS = [f.name for f in dataclasses.fields(CallTrace)]


def test_a_trace_has_sixteen_fields():
    assert len(FIELDS) == 16


def test_no_traces():
    assert trace_digest([]) == "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"


@pytest.mark.parametrize("name", FIELDS)
def test_each_field_moves_the_digest(name):
    t = base()
    moved = dataclasses.replace(t, **{name: changed(getattr(t, name))})
    assert trace_digest([moved]) != trace_digest([t])


def test_every_field_moves_it_apart():
    t = base()
    digests = {trace_digest([t])} | {
        trace_digest([dataclasses.replace(t, **{name: changed(getattr(t, name))})])
        for name in FIELDS
    }
    assert len(digests) == 1 + len(FIELDS)


def test_a_string_boundary_is_hashed():
    t = base()
    one = dataclasses.replace(t, procedure="ab", caller="c")
    other = dataclasses.replace(t, procedure="a", caller="bc")
    assert trace_digest([one]) != trace_digest([other])


def test_negative_zero_is_not_zero():
    t = base()
    assert trace_digest([dataclasses.replace(t, compute_s=-0.0)]) != trace_digest(
        [dataclasses.replace(t, compute_s=0.0)]
    )


def test_order_and_count_are_hashed():
    a, b = base(), dataclasses.replace(base(), procedure="combustor")
    assert trace_digest([a, b]) != trace_digest([b, a])
    assert trace_digest([a]) != trace_digest([a, a])
